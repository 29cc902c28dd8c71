#!/usr/bin/env python3
"""Record the reference outputs that run.py verifies against.

    python3 perfbench/record.py

Runs each workload once untraced and once traced (shkvyu-grid on seeds 0
and 1) and writes perfbench/expected.json: the record count, the output size
and SHA-256 of the `--stable` output per seed, and the node count of every
search, keyed by p:d.  It refuses to record output that fails the
workload's outcome check.  Re-record only when a change alters the output
on purpose, and say so.
"""

import json
import sys
import time

import run

RECORDED_SEEDS = (0, 1)


def main():
    run.WORK.mkdir(exist_ok=True)
    expected = {}
    for name, spec in run.WORKLOADS.items():
        deadline = time.monotonic() + run.RUN_LIMIT_S
        run.spawn(["warm", str(run.WORK / "cache"), *map(str, run.workload_primes(spec))], deadline)
        entry = {"records": None, "out_bytes": {}, "digest": {}}
        for seed in RECORDED_SEEDS if spec.get("seeded") else (0,):
            plain = run.run_rep(spec, seed, False, deadline)
            traced = run.run_rep(spec, seed, True, deadline)
            bad = run.failed_records(spec, plain["data"], plain["exit_ok"])
            if bad or plain["digest"] != traced["digest"]:
                sys.exit(f"{name} seed {seed}: {bad} records fail, or tracing changed the output")
            key = run.seed_key(spec, seed)
            entry["records"] = plain["records"]
            entry["out_bytes"][key] = plain["out_bytes"]
            entry["digest"][key] = plain["digest"]
            if traced["searches"]:
                entry["nodes"] = traced["searches"]
        expected[name] = entry
        print(f"{name}: {entry['records']} records", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
