"""Batch command-line front end.

Every invocation writes one JSONL RunRecord (or CSV row) per instance to
stdout (or --out) and a human summary to stderr.  Exit codes: 0 all
assertions in scope passed, 1 an assertable inequality failed or a sweep's
expect missed, 2 usage error, 3 budget exceeded without resolution.

Records are streamed: each is written and flushed as soon as its instance
finishes, in grid order for any worker count, and a running tally gives the
exit code and the summary line.  So:

- a usage or config error is raised before the first record: nothing is
  written and no --out file is created;
- an instance that raises FFDecompError, ValueError or TypeError stops the
  command with exit 2, an "error: ..." line on stderr and no summary line;
  the records finished before it stay in the output as complete lines;
- so does an output that cannot be opened or written (an OSError, such as
  an --out in a missing directory);
- a killed sweep keeps every record written before it was killed.

Payloads hold report values as the reports made them (FpSet, Fraction,
...); make_record converts each whole record to JSON values in one pass,
_plain, which under --stable also zeroes the volatile fields (timestamp,
elapsed, node counts), so reruns and different worker counts are
byte-comparable after the canonical ordering the commands already emit.

One parser serves every command: the command is its one positional
argument, every command takes the same flags (before or after it), and only
sweep accepts --config.

Each experiment is wired once, in EXPERIMENTS, keyed by command name:
the flags it requires, how its flags become one instance dict, how a sweep
config and seed become a list of instance dicts, and run(instance) ->
payload, which both paths share.  A single-op command emits
run(from_args(args)) in this process; sweep maps run over its grid, sending
(name, instance) pairs to the worker pool.

A sweep config is a JSON object with "experiment" and "p_range" [lo, hi];
"seed" (else 0; --seed wins) and "expect" (a status every record must
report) are optional.  A grid takes every prime p >= 3 of p_range, a seeded
experiment draws from the primes p >= 5 of p_range, and a p_range without
such a prime is a config error.  The other keys, with their defaults:

  experiment  instances                 keys (default)
  search      grid over p (and d)       set ("qr", or "subgroup"),
                                        mode ("decomposition", or "self";
                                        any other value is a config error),
                                        min_size (2), node_budget (10**8),
                                        time_budget (300.0),
                                        d_filter ("proper"; subgroup only)
  packing     grid over (p, d)          d_filter ("all"), node_budget, time_budget
  karatsuba   grid over (p, d)          d_filter ("all")
  growth      grid over (p, d)          d_filter ("order>=2")
  weil        seeded: samples draws     samples (100), deg_max (6)
  vinogradov  seeded: samples draws     samples (100)
  wsum, nsum  seeded: samples draws     samples (100), b_max (6)
  interval    seeded: samples draws     samples (100)
  bourgain    seeded: samples draws     samples (100), size_max (6)
  shkvyu      seeded: samples per       samples (100), g_max (30), m ([2, 3])
              (p, d, m), #G_d <= g_max

d_filter picks the d of each p (experiments.grid_divisors): "all" every
d >= 2 dividing p - 1, "proper" or "order>=2" those with #G_d >= 2 too, or
one integer d.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from . import experiments, fpcore
from .charsum import Character, karatsuba_ratio, vinogradov_check, weil_report
from .decomp import DecompQuery, run_query
from .errors import ConfigError, FFDecompError
from .experiments import (
    bourgain_report,
    gd_low_value,
    growth_exponent_report,
    interval_mult_report,
    interval_set,
    n_count_report,
    packing_bound_harness,
    primitive_root_max_part,
    primitive_root_min_part,
    sarkozy_max_part,
    sarkozy_min_part,
    shkvyu_report,
    subgroup_ratio_report,
    w_identity_report,
)
from .setalg import FpSet, bits_from, parse_set

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_VOLATILE_KEYS = {"elapsed", "nodes_explored", "nodes", "timestamp"}

_CSV_FIELDS = ["command", "experiment", "p", "d", "status", "lhs", "rhs", "ok", "hypothesis_ok"]

# One encoder for every record; json.dumps with options builds a new one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

_JSON_SCALARS = frozenset((int, float, str, bool, type(None)))


def _plain(obj, stable: bool):
    """obj as a record value: the one conversion of report values to JSON.

    Dicts become dicts with str keys and lists and tuples become lists, at
    any depth; an FpSet becomes its element list, a Fraction a float and a
    numpy scalar its .item(); ints, floats, strs, bools and None (subclasses
    too) stay as they are, and anything else becomes its str.  Under stable
    the value of every key in _VOLATILE_KEYS, at any depth, becomes 0.
    Members of exact JSON scalar types are kept without a call."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            key = str(key)
            if stable and key in _VOLATILE_KEYS:
                out[key] = 0
            elif type(value) in _JSON_SCALARS:
                out[key] = value
            else:
                out[key] = _plain(value, stable)
        return out
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _JSON_SCALARS else _plain(v, stable) for v in obj]
    if isinstance(obj, FpSet):
        return obj.elements()
    if isinstance(obj, Fraction):
        return float(obj)
    if obj is None or isinstance(obj, (int, float, str)):
        return obj
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    return str(obj)


def make_record(command: str, seed: int, payload: dict, stable: bool = False) -> dict:
    """The record of one payload, its values converted by _plain in one pass."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "timestamp": int(time.time()),
        "seed": seed,
        "payload": payload,
    }
    return _plain(record, stable)


def parse_target(text: str, p: int | None):
    """Resolve a named family or a p:{...} literal to a set.

    Families: qr, subgroup:d, primroots, interval:m,n (all need --prime).
    Returns (set, meta) where meta records the family and d when known.
    """
    text = text.strip()
    if ":" in text and text.split(":", 1)[0].isdigit():
        s = parse_set(text)
        if p is not None and s.p != p:
            raise ValueError(f"set literal modulus {s.p} disagrees with --prime {p}")
        return s, {"family": "literal"}
    if p is None:
        raise ValueError(f"family {text!r} needs --prime")
    if text == "qr":
        return fpcore.subgroup(p, 2), {"family": "qr", "d": 2}
    if text.startswith("subgroup:"):
        d = int(text.split(":", 1)[1])
        return fpcore.subgroup(p, d), {"family": "subgroup", "d": d}
    if text == "primroots":
        fpcore.check_modulus(p)
        roots = [x for k, x in enumerate(fpcore.powers(p, 1)) if math.gcd(k, p - 1) == 1]
        return FpSet(p, bits_from(roots, p)), {"family": "primroots"}
    if text.startswith("interval:"):
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ValueError("interval family is interval:m,n")
        m, n = int(parts[0]), int(parts[1])
        return interval_set(p, m, n), {"family": "interval", "m": m, "n": n}
    raise ValueError(f"unknown set family {text!r}")


def _csv_row(rec: dict) -> dict:
    payload = rec["payload"]
    return {
        "command": rec["command"],
        "experiment": payload.get("experiment", payload.get("type", "")),
        "p": payload.get("instance", {}).get("p", ""),
        "d": payload.get("instance", {}).get("d", ""),
        "status": payload.get("status", payload.get("extras", {}).get("status", "")),
        "lhs": payload.get("lhs", ""),
        "rhs": payload.get("rhs", ""),
        "ok": payload.get("ok", ""),
        "hypothesis_ok": payload.get("hypothesis_ok", ""),
    }


class _Tally:
    """Running counts over the records written so far: the exit code and the
    stderr summary line.  expect is a sweep's expected status, if any."""

    def __init__(self, expect=None):
        self.expect = expect
        self.records = self.oks = self.fails = self.budget = self.missed = 0

    def add(self, payload: dict) -> None:
        self.records += 1
        ok = payload.get("ok")
        if ok is True:
            self.oks += 1
        elif ok is False:
            self.fails += 1
        status = payload.get("status") or payload.get("extras", {}).get("status")
        if status == "budget_exceeded":
            self.budget += 1
        # a status key that is present but empty is compared as it is
        if self.expect and payload.get("status", status) != self.expect:
            self.missed += 1

    def code(self) -> int:
        if self.fails or self.missed:
            return EXIT_FAIL
        if self.budget:
            return EXIT_BUDGET
        return EXIT_OK

    def summary(self) -> str:
        return f"records={self.records} ok={self.oks} fail={self.fails} exit={self.code()}"


def _write(records: Iterable[dict], args, tally: _Tally) -> None:
    """Write each record as one JSONL line or CSV row, flush it and count it.
    The --out file is opened at the first record, so a command that stops
    before its first record leaves no file."""
    out = rows = None
    try:
        for rec in records:
            if out is None:
                out = open(args.out, "w") if args.out else sys.stdout
                if args.format == "csv":
                    rows = csv.DictWriter(out, fieldnames=_CSV_FIELDS, extrasaction="ignore")
                    rows.writeheader()
            if rows is None:
                out.write(_ENCODER.encode(rec) + "\n")
            else:
                rows.writerow(_csv_row(rec))
            out.flush()
            tally.add(rec["payload"])
    finally:
        if out is not None and args.out:
            out.close()


# ---------------------------------------------------------------------------
# experiments: instances from flags or from a sweep config, and one runner

def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required for this command")


def _attach_family_bounds(payload, meta, p, report):
    family = meta.get("family")
    extras = payload.setdefault("extras", {})
    if family == "qr":
        extras["min_part_floor"] = sarkozy_min_part(p)
        extras["max_part_ceiling"] = sarkozy_max_part(p)
    elif family == "subgroup":
        extras["min_part_floor"] = gd_low_value(p, meta["d"]) if meta["d"] >= 2 else None
    elif family == "primroots":
        extras["min_part_floor"] = primitive_root_min_part(p)
        extras["max_part_ceiling"] = primitive_root_max_part(p)
    floor = extras.get("min_part_floor")
    if floor and report.witnesses:
        min_part = min(min(len(a), len(b)) for a, b in report.witnesses)
        extras["needs_review"] = min_part < floor / 2
    return payload


def _parse_poly(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"bad polynomial literal {text!r}: expected c0,c1,...") from None


def _two_sets(args) -> dict:
    if not args.set or len(args.set) != 2:
        raise ValueError("give --set twice: A then B")
    a, _ = parse_target(args.set[0], args.prime)
    b, _ = parse_target(args.set[1], args.prime)
    return {"A": a, "B": b}


def _limits(source: dict) -> dict:
    """Search limits from vars(args) or from a sweep config, which takes the
    flags' names and defaults."""
    return {
        "node_budget": source.get("node_budget", DecompQuery.node_budget),
        "time_budget": source.get("time_budget", DecompQuery.time_budget),
    }


def _search_target(inst: dict, mode: str, min_size: int):
    """Search the family or literal inst["set"]; the payload echoes the target."""
    target, meta = parse_target(inst["set"], inst["p"])
    query = DecompQuery(
        S=target,
        mode=mode,
        min_size=min_size,
        node_budget=inst["node_budget"],
        time_budget=inst["time_budget"],
    )
    report = run_query(query)
    payload = report.to_dict()
    payload["instance"] = {"p": inst["p"], "set": inst["set"], **meta}
    return payload, meta, report


def _search_from_args(args) -> dict:
    return {
        "p": args.prime,
        "set": args.set[0],
        "mode": args.mode,
        "min_size": args.min_size,
        "single_op": True,
        **_limits(vars(args)),
    }


def _search_sweep(cfg: dict, seed: int) -> list[dict]:
    primes = _config_primes(cfg, 3)
    family = cfg.get("set", "qr")
    if family not in ("qr", "subgroup"):
        raise ConfigError(f"search sweep does not support set family {family!r}")
    mode = cfg.get("mode", "decomposition")
    if mode not in ("decomposition", "self"):
        raise ConfigError(f"search sweep does not support mode {mode!r}")
    common = {
        "mode": mode,
        "min_size": cfg.get("min_size", DecompQuery.min_size),
        "single_op": False,
        **_limits(cfg),
    }
    if family == "qr":
        return [{"p": p, "set": "qr", **common} for p in primes]
    return [
        {"p": pd["p"], "set": f"subgroup:{pd['d']}", **common}
        for pd in _subgroup_grid(cfg, "proper")
    ]


def _run_search(inst: dict) -> dict:
    """A single-op record echoes the family and carries its part-size bounds;
    a sweep record echoes the config's mode string instead."""
    mode = "self_decomposition" if inst["mode"] == "self" else "decomposition"
    payload, meta, report = _search_target(inst, mode, inst["min_size"])
    if inst["single_op"]:
        _attach_family_bounds(payload, meta, inst["p"], report)
    else:
        payload["instance"] = {"p": inst["p"], "set": inst["set"], "mode": inst["mode"]}
    return payload


def _packing_from_args(args) -> dict:
    inst = {"p": args.prime, **_limits(vars(args))}
    if args.set:
        inst["set"] = args.set[0]
    else:
        _require(args, "d")
        inst["d"] = args.d
    return inst


def _run_packing(inst: dict) -> dict:
    """With a set: the raw packing search.  Otherwise the G_d harness."""
    if "set" in inst:
        return _search_target(inst, "packing", 1)[0]
    return packing_bound_harness(
        inst["p"],
        inst["d"],
        node_budget=inst["node_budget"],
        time_budget=inst["time_budget"],
    ).to_dict()


def _character(inst: dict) -> Character:
    return Character(inst["p"], inst["d"], inst["j"])


def _character_args(args) -> dict:
    """--prime, --d and --j, checked as a character before any other flag."""
    inst = {"p": args.prime, "d": args.d, "j": args.j if args.j is not None else 1}
    _character(inst)
    return inst


def _karatsuba_from_args(args) -> dict:
    inst = _character_args(args)
    if args.set:
        inst.update(_two_sets(args), nu=args.nu if args.nu is not None else 1)
    return inst


def _run_karatsuba(inst: dict) -> dict:
    """With A and B: their envelope ratio.  Otherwise A = B = G_d."""
    if "A" in inst:
        return karatsuba_ratio(_character(inst), inst["A"], inst["B"], inst["nu"]).to_dict()
    return subgroup_ratio_report(inst["p"], inst["d"]).to_dict()


def _b_set_from_args(args) -> dict:
    return {"p": args.prime, "d": args.d, "B": parse_target(args.set[0], args.prime)[0]}


def _shkvyu_from_args(args) -> dict:
    shifts = [int(tok) for tok in args.shifts.split(",")]
    if args.m is not None and args.m != len(shifts):
        raise ValueError(f"--m {args.m} disagrees with {len(shifts)} shifts")
    return {"p": args.prime, "d": args.d, "shifts": shifts}


def _interval_from_args(args) -> dict:
    if not args.set or len(args.set) != 3:
        raise ValueError("give --set three times: interval:m,n then A then B")
    _, meta = parse_target(args.set[0], args.prime)
    if meta.get("family") != "interval":
        raise ValueError("first --set must be an interval:m,n family")
    a, _ = parse_target(args.set[1], args.prime)
    b, _ = parse_target(args.set[2], args.prime)
    return {"p": args.prime, "m": meta["m"], "n": meta["n"], "A": a, "B": b}


def _subgroup_grid(cfg: dict, d_filter: str, **extra) -> list[dict]:
    """Every (p, d) of the config; d_filter is the experiment's default."""
    return [
        {"p": p, "d": d, **extra}
        for p in _config_primes(cfg, 3)
        for d in experiments.grid_divisors(p, cfg.get("d_filter", d_filter))
    ]


def _seeded(cfg: dict, seed: int) -> dict:
    """The primes, count and seed arguments of a seeded instance generator."""
    return {"primes": _config_primes(cfg, 5), "count": cfg.get("samples", 100), "seed": seed}


class Experiment(NamedTuple):
    requires: tuple[str, ...]  # flags a single-op command must be given
    from_args: Callable[[argparse.Namespace], dict]  # single-op flags -> instance
    sweep: Callable[[dict, int], Iterable[dict]]  # (config, seed) -> instances
    run: Callable[[dict], dict]  # instance -> payload, for both paths


# Command order is the order of the usage text.  Report functions are
# called through lambdas so that they are looked up by module-level name on
# every call.
EXPERIMENTS = {
    "search": Experiment(("prime", "set"), _search_from_args, _search_sweep, _run_search),
    "packing": Experiment(
        ("prime",),
        _packing_from_args,
        lambda cfg, seed: _subgroup_grid(cfg, "all", **_limits(cfg)),
        _run_packing,
    ),
    "weil": Experiment(
        ("prime", "d", "poly"),
        lambda args: {**_character_args(args), "poly": _parse_poly(args.poly)},
        lambda cfg, seed: experiments.weil_instances(
            **_seeded(cfg, seed), deg_max=cfg.get("deg_max", 6)
        ),
        lambda inst: weil_report(_character(inst), inst["poly"]).to_dict(),
    ),
    "vinogradov": Experiment(
        ("prime", "d"),
        lambda args: {**_character_args(args), **_two_sets(args)},
        lambda cfg, seed: experiments.vinogradov_instances(**_seeded(cfg, seed)),
        lambda inst: vinogradov_check(_character(inst), inst["A"], inst["B"]).to_dict(),
    ),
    "karatsuba": Experiment(
        ("prime", "d"),
        _karatsuba_from_args,
        lambda cfg, seed: _subgroup_grid(cfg, "all"),
        _run_karatsuba,
    ),
    "wsum": Experiment(
        ("prime", "d", "set"),
        _b_set_from_args,
        lambda cfg, seed: experiments.wsum_instances(
            **_seeded(cfg, seed), b_max=cfg.get("b_max", 6)
        ),
        lambda inst: w_identity_report(inst["p"], inst["d"], inst["B"]).to_dict(),
    ),
    "nsum": Experiment(
        ("prime", "d", "set"),
        _b_set_from_args,
        lambda cfg, seed: experiments.nsum_instances(
            **_seeded(cfg, seed), b_max=cfg.get("b_max", 6)
        ),
        lambda inst: n_count_report(inst["p"], inst["d"], inst["B"]).to_dict(),
    ),
    "shkvyu": Experiment(
        ("prime", "d", "shifts"),
        _shkvyu_from_args,
        lambda cfg, seed: experiments.shkvyu_instances(
            **_seeded(cfg, seed),
            order_cap=cfg.get("g_max", 30),
            ms=tuple(cfg.get("m", [2, 3])),
        ),
        lambda inst: shkvyu_report(inst["p"], inst["d"], inst["shifts"]).to_dict(),
    ),
    "growth": Experiment(
        ("prime", "d"),
        lambda args: {"p": args.prime, "d": args.d},
        lambda cfg, seed: _subgroup_grid(cfg, "order>=2"),
        lambda inst: growth_exponent_report(inst["p"], inst["d"]).to_dict(),
    ),
    "interval": Experiment(
        ("prime",),
        _interval_from_args,
        lambda cfg, seed: experiments.interval_instances(**_seeded(cfg, seed)),
        lambda inst: interval_mult_report(
            inst["p"], inst["m"], inst["n"], inst["A"], inst["B"]
        ).to_dict(),
    ),
    "bourgain": Experiment(
        ("prime",),
        lambda args: {"p": args.prime, **_two_sets(args)},
        lambda cfg, seed: experiments.bourgain_instances(
            **_seeded(cfg, seed), size_max=cfg.get("size_max", 6)
        ),
        lambda inst: bourgain_report(inst["p"], inst["A"], inst["B"]).to_dict(),
    ),
}


def _run_task(task) -> dict:
    """Payload for one (experiment name, instance) pair; worker-pool entry."""
    name, inst = task
    payload = EXPERIMENTS[name].run(inst)
    if "index" in inst:
        payload["instance"]["index"] = inst["index"]
    return payload


# ---------------------------------------------------------------------------
# sweep

def _load_config(path: str) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if "experiment" not in cfg:
        raise ConfigError("config field 'experiment' is required")
    return cfg


def _config_primes(cfg: dict, least: int) -> list[int]:
    """The primes p >= least in the config's p_range: least is 3 for a grid
    over every p and 5 for seeded draws."""
    rng = cfg.get("p_range")
    if (
        not isinstance(rng, list)
        or len(rng) != 2
        or not all(isinstance(x, int) for x in rng)
    ):
        raise ConfigError("config field 'p_range' must be [lo, hi]")
    lo, hi = rng
    if hi >= fpcore.MODULUS_CAP:
        # checked before the sieve, whose table is hi + 1 bytes
        raise ConfigError(f"p_range {rng} reaches the field cap: hi must be below 2**20")
    primes = [p for p in fpcore.primes_up_to(hi) if p >= max(least, lo)]
    if not primes:
        raise ConfigError(f"p_range {rng} contains no usable prime (p >= {least})")
    return primes


def _cmd_sweep(args):
    """Check the config and expand its grid, raising any config error before
    the first instance runs; return (seed, expect, payloads), where payloads
    yields each instance's payload in grid order as it finishes."""
    _require(args, "config")
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("config field 'seed' must be an integer")
    name = cfg["experiment"]
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown sweep experiment {name!r}")
    tasks = [(name, inst) for inst in EXPERIMENTS[name].sweep(cfg, seed)]
    if not tasks:
        raise ConfigError("sweep expanded to an empty grid")
    return seed, cfg.get("expect"), _sweep_payloads(tasks, args.workers)


def _sweep_payloads(tasks: list, workers: int):
    # A fork pool starts all of its processes at the first submit, so the
    # pool is no larger than the task list or the machine's CPU count.
    size = min(workers, len(tasks), os.cpu_count() or 1)
    if size <= 1:
        yield from map(_run_task, tasks)
        return
    # imported here: concurrent.futures and multiprocessing would add about
    # 30 ms to the start-up of every serial run, which never uses them
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=size)
    try:
        chunk = max(1, len(tasks) // (size * 8))
        yield from pool.map(_run_task, tasks, chunksize=chunk)
    finally:
        # a stream stopped early (an instance raised) drops the queued chunks
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: each takes the same flags, and only
    sweep reads --config, which run refuses on the other commands."""
    parser = argparse.ArgumentParser(
        prog="ffdecomp",
        description="additive decompositions of multiplicative structures mod p",
    )
    parser.add_argument("command", choices=[*EXPERIMENTS, "sweep"])
    parser.add_argument("--prime", type=int, help="prime modulus p")
    parser.add_argument("--d", type=int, help="subgroup / character order index d")
    parser.add_argument("--j", type=int, help="character index within X_d (default 1)")
    parser.add_argument(
        "--set",
        action="append",
        help="set family (qr, subgroup:d, primroots, interval:m,n) or literal p:{...};"
        " repeat for multi-set commands",
    )
    parser.add_argument("--m", type=int, help="number of shifts (shkvyu)")
    parser.add_argument("--shifts", help="comma-separated shift list")
    parser.add_argument("--nu", type=int, help="envelope exponent parameter")
    parser.add_argument("--poly", help="polynomial coefficients c0,c1,... low to high")
    parser.add_argument("--min-size", type=int, default=DecompQuery.min_size)
    parser.add_argument("--node-budget", type=int, default=DecompQuery.node_budget)
    parser.add_argument("--time-budget", type=float, default=DecompQuery.time_budget)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for a sweep's instances; a single-op command runs in one process",
    )
    parser.add_argument(
        "--seed", type=int, help="instance seed (default: the sweep config's \"seed\", else 0)"
    )
    parser.add_argument("--out", help="write records to this file instead of stdout")
    parser.add_argument("--cache-dir", dest="cache_dir", help="field table cache directory")
    parser.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    parser.add_argument(
        "--stable",
        action="store_true",
        help="zero volatile fields (timestamps, elapsed, node counts) in records",
    )
    parser.add_argument("--mode", choices=["decomposition", "self"], default="decomposition")
    parser.add_argument("--config", help="sweep configuration JSON file (sweep only)")
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None and args.command != "sweep":
            parser.error(f"--config is only for sweep, not {args.command}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    saved_cache_dir = os.environ.get("FFDECOMP_CACHE_DIR")
    if args.cache_dir:
        # through the environment, so that a sweep's pool workers see it too
        os.environ["FFDECOMP_CACHE_DIR"] = args.cache_dir
    try:
        if args.command == "sweep":
            seed, expect, payloads = _cmd_sweep(args)
        else:
            # a single-op command is a stream of one record
            experiment = EXPERIMENTS[args.command]
            _require(args, *experiment.requires)
            seed, expect = args.seed or 0, None
            payloads = [experiment.run(experiment.from_args(args))]
        tally = _Tally(expect)
        records = (make_record(args.command, seed, p, args.stable) for p in payloads)
        _write(records, args, tally)
    except (FFDecompError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        # the flag holds for this run only, not for later runs in the process
        if saved_cache_dir is None:
            os.environ.pop("FFDECOMP_CACHE_DIR", None)
        else:
            os.environ["FFDECOMP_CACHE_DIR"] = saved_cache_dir
    print(tally.summary(), file=sys.stderr)
    return tally.code()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
