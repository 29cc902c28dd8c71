#!/usr/bin/env python3
"""Benchmark of the ffdecomp command-line program, driven from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it needs no install.  Each
repetition of a workload starts one fresh `python3` child per CLI command
(`--workers 1`, `--stable`, its own field-cache directory), so the load is
one process on one core.  Repetitions run back to back (a closed loop) until
`--seconds` have passed; the run reports medians over them.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates traced and untraced repetitions and prints the per-layer
metrics; spans come from wrappers in spans.py, never from the package.

Every output is verified: its digest against expected.json (recorded from
the program by record.py), the exact counts, the workload's expected
outcome and, for shkvyu, an independent recount.  A failed record counts
against `failed`; a run with any failure reports no metrics.  The last line
of stdout is the JSON result; a human-readable table goes to stderr.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
EXPECTED = BENCH / "expected.json"
RUN_LIMIT_S = 170.0  # a whole run must end within 180 s
SETUP_PROBES = 5  # import-only children per run, besides one per command
# One BLAS thread: the load is one process on one core, and numpy's import
# would otherwise start a thread per core.
CHILD_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunFailed(Exception):
    """A child crashed, or was stopped at the run's time limit."""


# ---------------------------------------------------------------------------
# workloads

def _qr_outcome(payload):
    return payload.get("status") == "exhausted_none"


def _packing_outcome(payload):
    return payload.get("ok") is True


def _growth_outcome(payload):
    return math.isfinite(payload.get("lhs", math.nan)) and math.isfinite(
        payload.get("extras", {}).get("e", math.nan)
    )


@functools.lru_cache(maxsize=None)
def _subgroup(p, d):
    return frozenset(pow(x, d, p) for x in range(1, p))


def _shkvyu_outcome(payload):
    """ok is never False, and lhs equals an independent recount of the
    intersection of the shifted subgroups G_d + s."""
    if payload.get("ok") is False:
        return False
    inst = payload["instance"]
    p, d, shifts = inst["p"], inst["d"], inst["shifts"]
    if len(set(shifts)) != inst["m"] or not all(0 < s < p for s in shifts):
        return False
    group = _subgroup(p, d)
    first = shifts[0]
    count = sum(
        1 for g in group if all((g + first - s) % p in group for s in shifts[1:])
    )
    return payload.get("lhs") == float(count)


WORKLOADS = {
    "qr-certify": {
        "sweep": {"experiment": "search", "set": "qr", "mode": "decomposition", "p_range": [151, 167]},
        "outcome": _qr_outcome,
    },
    "packing-grid": {
        "sweep": {"experiment": "packing", "p_range": [5, 157], "d_filter": "all"},
        "outcome": _packing_outcome,
    },
    "shkvyu-grid": {
        "sweep": {"experiment": "shkvyu", "p_range": [5, 150], "samples": 100},
        "seeded": True,
        "outcome": _shkvyu_outcome,
    },
    "large-field": {
        "growth": [(1048573, 7182), (1048571, 5405)],
        "outcome": _growth_outcome,
    },
}


def _primes_between(lo, hi):
    return [n for n in range(max(3, lo), hi + 1) if all(n % q for q in range(2, math.isqrt(n) + 1))]


def workload_primes(spec):
    if "sweep" in spec:
        return _primes_between(*spec["sweep"]["p_range"])
    return sorted({p for p, _ in spec["growth"]})


def seed_key(spec, seed):
    """Only shkvyu draws random shifts; the other workloads run seed 0 always."""
    return str(seed) if spec.get("seeded") else "any"


def commands(spec, seed, out_dir, cache_dir):
    """[(CLI argv, output path)] for one repetition."""
    common = ["--stable", "--workers", "1", "--cache-dir", str(cache_dir)]
    if "sweep" in spec:
        config = out_dir / "config.json"
        config.write_text(json.dumps(spec["sweep"]))
        out = out_dir / "sweep.jsonl"
        cli_seed = seed if spec.get("seeded") else 0
        return [(["sweep", "--config", str(config), "--seed", str(cli_seed), "--out", str(out), *common], out)]
    outs = [(p, d, out_dir / f"growth_{p}_{d}.jsonl") for p, d in spec["growth"]]
    return [(["growth", "--prime", str(p), "--d", str(d), "--out", str(out), *common], out) for p, d, out in outs]


# ---------------------------------------------------------------------------
# children

def spawn(args, deadline):
    """Run child.py with args; return its result plus setup_s, cpu_s, rss_mb."""
    result = WORK / "child.json"
    result.unlink(missing_ok=True)
    log = WORK / "child.log"
    with open(log, "wb") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(result), *args],
            cwd=ROOT,
            env=CHILD_ENV,
            stdin=subprocess.DEVNULL,
            stdout=fh,
            stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result.exists():
        tail = log.read_text(errors="replace")[-2000:]
        raise RunFailed(f"child {args[0]} exited with {proc.returncode}:\n{tail}")
    out = json.loads(result.read_text())
    out["setup_s"] = out["ready"] - start
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["rss_mb"] = usage.ru_maxrss / 1024  # Linux reports KiB
    return out


def _merge_spans(children):
    merged = {}
    for child in children:
        for name, (calls, total, self_s) in child.get("spans", {}).items():
            acc = merged.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
    return merged


def run_rep(spec, seed, trace, deadline):
    """One repetition: every command of the workload, each in its own child."""
    out_dir = WORK / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    children, data = [], b""
    for argv, out in commands(spec, seed, out_dir, WORK / "cache"):
        children.append(spawn(["run", "1" if trace else "0", "--", *argv], deadline))
        data += out.read_bytes() if out.exists() else b""
    return {
        "setup_s": [c["setup_s"] for c in children],
        "wall_s": sum(c["done"] - c["enter"] for c in children),
        "cpu_s": sum(c["cpu_s"] for c in children),
        "peak_rss_mb": max(c["rss_mb"] for c in children),
        "exit_ok": all(c["code"] == 0 for c in children),
        "records": data.count(b"\n"),
        "out_bytes": len(data),
        "digest": hashlib.sha256(data).hexdigest(),
        "data": data,  # measure() replaces it by its verdict
        "spans": _merge_spans(children),
        "searches": {f"{p}:{d}": n for c in children for p, d, n in c.get("searches", [])},
    }


# ---------------------------------------------------------------------------
# verification

def failed_records(spec, data, exit_ok):
    """Records of one repetition's output that fail verification.  A non-zero
    exit or any budget_exceeded record fails every record."""
    lines = data.splitlines()
    if not exit_ok or not lines:
        return max(1, len(lines))
    payloads = [json.loads(line)["payload"] for line in lines]
    for payload in payloads:
        status = payload.get("status") or payload.get("extras", {}).get("status")
        if status == "budget_exceeded":
            return len(payloads)
    return sum(1 for payload in payloads if not spec["outcome"](payload))


def verify(name, spec, seed, reps, expected):
    """Compare every repetition with the recorded digest and exact counts and
    with the first repetition; return (attempted, failed, problems)."""
    exp = expected[name]
    key = seed_key(spec, seed)
    want = {
        "records": exp.get("records"),
        "out_bytes": exp.get("out_bytes", {}).get(key),
        "digest": exp.get("digest", {}).get(key),
    }
    problems = []
    attempted = failed = 0
    for rep in reps:
        size = max(rep["records"], want["records"] or 0, 1)
        attempted += size
        mismatched = [k for k, v in want.items() if v is not None and rep[k] != v]
        if rep["digest"] != reps[0]["digest"]:
            mismatched.append("digest of the first repetition")
        if want_nodes := exp.get("nodes"):
            if rep["searches"] and rep["searches"] != want_nodes:
                mismatched.append("decomp node counts")
        if mismatched:
            problems.append(f"output differs from the recorded one in: {', '.join(mismatched)}")
            failed += size
        elif rep["failed"]:
            problems.append(f"{rep['failed']} records fail the expected outcome")
            failed += rep["failed"]
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# metrics

def layer_metrics(rep):
    spans = rep["spans"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    nodes = sum(rep["searches"].values())
    search_s = self_s("decomp.search")
    return {
        "fpcore.make_field.calls": calls("fpcore.make_field"),
        "fpcore.make_field.s": self_s("fpcore.make_field"),
        "fpcore.subgroup.calls": calls("fpcore.subgroup"),
        "fpcore.subgroup.s": self_s("fpcore.subgroup"),
        "setalg.productset.s": self_s("setalg.productset"),
        "setalg.intersect_shifts.s": self_s("setalg.intersect_shifts"),
        "setalg.calls": sum(v[0] for k, v in spans.items() if k.startswith("setalg.")),
        "charsum.double_char_sum.calls": calls("charsum.double_char_sum"),
        "charsum.double_char_sum.s": self_s("charsum.double_char_sum"),
        "decomp.searches": calls("decomp.search"),
        "decomp.search_s": search_s,
        "decomp.nodes": nodes,
        "decomp.nodes_per_s": nodes / search_s if search_s > 0 else 0.0,
        "experiments.reports": calls("experiments.report"),
        "experiments.self_s": self_s("experiments.report"),
        "reports.to_dict.s": self_s("reports.to_dict"),
        "cli.self_s": self_s("cli"),
        "cli.records": rep["records"],
        "cli.out_bytes": rep["out_bytes"],
    }


def _median(values):
    """Counts stay whole numbers; they repeat exactly, so nothing is lost."""
    return statistics.median_low(values) if isinstance(values[0], int) else statistics.median(values)


def describe(values):
    return (f"median {statistics.median(values):.6g}  min {min(values):.6g}  "
            f"max {max(values):.6g}  n={len(values)}")


def measure(name, seed, seconds, trace):
    """Run one workload; return (result dict for the JSON line, table lines)."""
    spec = WORKLOADS[name]
    expected = json.loads(EXPECTED.read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    spawn(["warm", str(WORK / "cache"), *map(str, workload_primes(spec))], deadline)
    setups = [spawn(["setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    cold_s = None
    if trace:
        cold_dir = WORK / "cold"
        shutil.rmtree(cold_dir, ignore_errors=True)
        cold_dir.mkdir()
        cold_s = spawn(["cold", str(cold_dir), str(max(workload_primes(spec)))], deadline)["cold_s"]
        shutil.rmtree(cold_dir)
    plain, traced, verdicts = [], [], {}
    start = time.monotonic()
    while not plain or (trace and not traced) or time.monotonic() - start < seconds:
        use_trace = trace and len(traced) < len(plain)
        rep = run_rep(spec, seed, use_trace, deadline)
        data = rep.pop("data")
        if rep["digest"] not in verdicts or not rep["exit_ok"]:
            verdicts[rep["digest"]] = failed_records(spec, data, rep["exit_ok"])
        rep["failed"] = verdicts[rep["digest"]]
        (traced if use_trace else plain).append(rep)
    reps = plain + traced
    attempted, failed, problems = verify(name, spec, seed, reps, expected)
    setups += [s for rep in reps for s in rep["setup_s"]]

    table = [f"workload {name}  seed {seed}  trace {int(trace)}  "
             f"repetitions {len(plain)} untraced, {len(traced)} traced"]
    table += [f"  {k:<12} {describe([r[k] for r in plain])}" for k in ("wall_s", "cpu_s", "peak_rss_mb")]
    table += [f"  {'setup_s':<12} {describe(setups)}",
              f"  failed_frac  {failed / attempted:.6g}  ({failed} of {attempted} records)"]
    table += [f"  problem: {p}" for p in problems]

    if failed or problems:
        metrics = {}
    elif trace:
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
        per_rep = [layer_metrics(r) for r in traced]
        values = {k: _median([r[k] for r in per_rep]) for k in per_rep[0]}
        values["fpcore.make_field.cold_s"] = cold_s
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        table += [f"  {k:<32} {values[k]:.6g} {units[k]}" for k in units]
    else:
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
        values = {k: statistics.median(r[k] for r in plain) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {"correct": not (failed or problems), "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, table


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ffdecomp" / "cli.py").is_file():
        print(f"error: no ffdecomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result, table = measure(name, args.seed, args.seconds, bool(args.trace))
        except RunFailed as exc:
            result, table = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, [f"workload {name}: {exc}"]
        print("\n".join(table), file=sys.stderr)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
