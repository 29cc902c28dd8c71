#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Checks the format rules of BENCHMARK.json, the self-time
arithmetic of spans.py, that verification rejects wrong output, the node
count of the QR p = 199 search against the 3,288,795 in ROADMAP.md, one
short untraced and traced run of every workload, and that run.py fails
without printing a result when the program sources are missing.  It is not
named test_*.py so that the repository's test suite does not collect it.
"""

import json
import re
import shutil
import subprocess
import sys
import time

import run
import spans

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(cond, message):
    if not cond:
        raise SystemExit(f"FAIL: {message}")


def test_benchmark_json():
    bench = run._benchmark()
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, "keys")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "workload names")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"]), "why")
    names = [w["name"] for w in bench["workloads"]]
    for metric in bench["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25, metric)
    for metric in bench["per_layer"]:
        check(set(metric) == {"name", "unit", "better"}, metric)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        check(NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"]), metric)
        check(metric["better"] in ("lower", "higher"), metric)
        names.append(metric["name"])
    check(len(names) == len(set(names)), "names are used once")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s")
    check(setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]), "setup_s has the largest bound")


def test_self_time():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("outer", lambda: (inner(), inner(), time.sleep(0.01)))
    outer()
    totals = tracer.totals()
    check(totals["inner"][0] == 2 and totals["outer"][0] == 1, "span counts")
    outer_total, outer_self = totals["outer"][1], totals["outer"][2]
    check(abs(outer_self - (outer_total - totals["inner"][1])) < 1e-9, "self = total - children")
    check(abs(outer_self + totals["inner"][2] - outer_total) < 1e-9, "self times add up to the root")


def test_verification_rejects_wrong_output():
    good = {"ok": True, "lhs": 2.0, "instance": {"p": 13, "d": 4, "m": 2, "shifts": [1, 2]}}
    # G_4 mod 13 = {1, 3, 9}; (G + 1) & (G + 2) = {2, 4, 10} & {3, 5, 11} is empty
    check(not run._shkvyu_outcome(good), "wrong shkvyu count accepted")
    check(run._shkvyu_outcome({**good, "lhs": 0.0}), "right shkvyu count rejected")
    spec = run.WORKLOADS["qr-certify"]
    line = b'{"payload":{"status":"found"}}\n'
    check(run.failed_records(spec, line, True) == 1, "found accepted for qr-certify")
    budget = b'{"payload":{"status":"budget_exceeded"}}\n' + b'{"payload":{"status":"exhausted_none"}}\n'
    check(run.failed_records(spec, budget, True) == 2, "budget_exceeded fails every record")
    check(run.failed_records(spec, b'{"payload":{"status":"exhausted_none"}}\n', False) == 1, "exit code")


def test_roadmap_node_count():
    run.WORK.mkdir(exist_ok=True)
    out = run.WORK / "qr199.jsonl"
    argv = ["search", "--prime", "199", "--set", "qr", "--out", str(out), "--cache-dir", str(run.WORK / "cache")]
    run.spawn(["run", "0", "--", *argv], time.monotonic() + 120)
    payload = json.loads(out.read_text())["payload"]
    check(payload["status"] == "exhausted_none" and payload["nodes_explored"] == 3288795, payload)


def test_short_runs():
    bench = run._benchmark()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in bench[kind]}
        for name in run.WORKLOADS:
            cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
            check(proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr)
            check({k: v["unit"] for k, v in result["metrics"].items()} == units, result["metrics"])
            print(f"  {name} trace {trace}: ok", file=sys.stderr)


def test_fails_without_program():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "qr-certify", "--seed", "0", "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "run.py without sources must fail silently")


def main():
    for test in (test_benchmark_json, test_self_time, test_verification_rejects_wrong_output,
                 test_roadmap_node_count, test_fails_without_program, test_short_runs):
        test()
        print(f"{test.__name__}: ok", file=sys.stderr)


if __name__ == "__main__":
    main()
