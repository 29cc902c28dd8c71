"""Batch command-line front end.

Every invocation writes one JSONL RunRecord (or CSV row) per instance to
stdout (or --out) and a human summary to stderr.  Exit codes: 0 all
assertions in scope passed, 1 an assertable inequality failed or a sweep's
expect missed, 2 usage error, 3 budget exceeded without resolution.

Records are streamed: each is written and flushed as soon as its instance
finishes, in grid order for any worker count, and a running tally gives the
exit code and the summary line.  So:

- a usage or config error is raised before the first record: nothing is
  written and no --out file is created.  Every key of a sweep config is
  checked once, before its grid expands: a key its experiment does not
  read, or a value its rule refuses, is a config error naming the key;
- an instance that raises FFDecompError, ValueError or TypeError stops the
  command with exit 2, an "error: ..." line on stderr and no summary line;
  the records finished before it stay in the output as complete lines;
- so does an output that cannot be opened or written (an OSError, such as
  an --out in a missing directory);
- a killed sweep keeps every record written before it was killed.

Payloads hold report values as the reports made them (FpSet, tuple, ...);
make_record converts each whole record to JSON values in one pass, _plain,
which under --stable also zeroes the volatile fields (timestamp, elapsed,
node counts), so reruns and different worker counts are byte-comparable
after the canonical ordering the commands already emit.

One parser serves every command: the command is its one positional
argument, and flags may come before or after it.  A command takes only the
flags it reads.  The parser holds no defaults, so parse_args sees which
flags were given: it refuses the first one (in parser order) that the
command does not read, then a missing required one, and fills in the rest
from the command's table.  --out, --format, --stable, --seed, --cache-dir
and --workers go with every command (_COMMON_FLAGS).

Each experiment is wired once, in EXPERIMENTS, keyed by command name:
the flags it reads with their defaults, how its flags become one instance
dict, the sweep config keys it reads with their defaults, how a checked
sweep config and seed become a list of instance dicts, and
run(instance) -> payload, which both paths share.  A single-op command
emits run(from_args(args)) in this process; sweep maps run over its grid,
sending (name, instance) pairs to the worker pool.

A sweep config is a JSON object with "experiment" and "p_range" [lo, hi];
"seed" (else 0; --seed wins) is optional.  A grid takes every prime p >= 3
of p_range, a seeded experiment draws from the primes p >= 5 of p_range,
and a p_range without such a prime is a config error.  The other keys,
with their defaults, are in the experiment's EXPERIMENTS entry, which is
the reference for them, and CONFIG_RULES says what each value must be.
"expect", a status every record must report, goes with search and packing,
whose records carry one.

search runs a grid over p for set "qr" and over (p, d) for "subgroup";
packing, karatsuba and growth run grids over (p, d); the other experiments
are seeded and draw samples instances, shkvyu samples per (p, d, m) with
#G_d <= g_max.  d_filter picks the d of each p (experiments.grid_divisors):
"all" every d >= 2 dividing p - 1, "proper" or "order>=2" those with
#G_d >= 2 too, or one integer d.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
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
    any depth; an FpSet becomes its element list; anything else stays as it
    is, so a value that is not a JSON scalar fails at encoding (a TypeError,
    exit 2) instead of reaching a record as something it is not.  Under
    stable the value of every key in _VOLATILE_KEYS, at any depth, becomes 0.
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
    return obj


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
        (d,) = _int_list(text, "set", "subgroup:d")
        return fpcore.subgroup(p, d), {"family": "subgroup", "d": d}
    if text == "primroots":
        fpcore.check_modulus(p)
        roots = [x for k, x in enumerate(fpcore.powers(p, 1)) if math.gcd(k, p - 1) == 1]
        return FpSet(p, bits_from(roots, p)), {"family": "primroots"}
    if text.startswith("interval:"):
        m, n = _int_list(text, "set", "interval:m,n")
        return interval_set(p, m, n), {"family": "interval", "m": m, "n": n}
    raise ValueError(f"unknown set family {text!r}")


def _status(payload: dict):
    """A record's status: top level for a search, in extras for the packing
    harness, None for a record without one."""
    return payload.get("status", payload.get("extras", {}).get("status"))


def _csv_row(rec: dict) -> dict:
    payload = rec["payload"]
    return {
        "command": rec["command"],
        "experiment": payload.get("experiment", payload.get("type", "")),
        "p": payload.get("instance", {}).get("p", ""),
        "d": payload.get("instance", {}).get("d", ""),
        "status": _status(payload),  # None is written as an empty field
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
        status = _status(payload)
        if status == "budget_exceeded":
            self.budget += 1
        if self.expect and status != self.expect:
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
                    import csv  # only CSV output needs it

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


def _int_list(text: str, what: str, form: str) -> list[int]:
    """A comma-separated --poly or --shifts value as ints, or the arguments
    of a set family whose form is family:args, such as interval:m,n: the
    ints after the colon, exactly as many as the form names."""
    family, colon, names = form.rpartition(":")
    try:
        values = [int(tok) for tok in text[len(family + colon):].split(",")]
    except ValueError:
        values = None
    if values is None or (colon and len(values) != len(names.split(","))):
        raise ValueError(f"bad {what} {text!r}: expected {form}")
    return values


def _sets(args, *roles: str) -> list[str]:
    """The --set values, refused unless there is exactly one per role."""
    if len(args.set or ()) != len(roles):
        times = ("once", "twice", "three times")[len(roles) - 1]
        raise ValueError(f"give --set {times}: {' then '.join(roles)}")
    return args.set


def _two_sets(args) -> dict:
    a, b = (parse_target(text, args.prime)[0] for text in _sets(args, "A", "B"))
    return {"A": a, "B": b}


def _limits(source: dict) -> dict:
    """The search limits of vars(args), a checked sweep config or an
    instance, as DecompQuery's keyword arguments."""
    return {"node_budget": source["node_budget"], "time_budget": source["time_budget"]}


def _search_target(inst: dict, mode: str, min_size: int):
    """Search the family or literal inst["set"]; the payload echoes the target."""
    target, meta = parse_target(inst["set"], inst["p"])
    report = run_query(DecompQuery(S=target, mode=mode, min_size=min_size, **_limits(inst)))
    payload = report.to_dict()
    payload["instance"] = {"p": inst["p"], "set": inst["set"], **meta}
    return payload, meta, report


def _search_from_args(args) -> dict:
    return {
        "p": args.prime,
        "set": _sets(args, "S")[0],
        "mode": args.mode,
        "min_size": args.min_size,
        "single_op": True,
        **_limits(vars(args)),
    }


def _search_sweep(cfg: dict, seed: int) -> list[dict]:
    common = {"mode": cfg["mode"], "min_size": cfg["min_size"], "single_op": False, **_limits(cfg)}
    if cfg["set"] == "qr":
        return [{"p": p, "set": "qr", **common} for p in _config_primes(cfg, 3)]
    return [{"p": pd["p"], "set": f"subgroup:{pd['d']}", **common} for pd in _subgroup_grid(cfg)]


def _run_search(inst: dict) -> dict:
    """Every record echoes the --mode or config mode string.  A single-op
    record also echoes the family and carries its part-size bounds."""
    mode = "self_decomposition" if inst["mode"] == "self" else "decomposition"
    payload, meta, report = _search_target(inst, mode, inst["min_size"])
    if inst["single_op"]:
        payload["instance"]["mode"] = inst["mode"]
        _attach_family_bounds(payload, meta, inst["p"], report)
    else:
        payload["instance"] = {"p": inst["p"], "set": inst["set"], "mode": inst["mode"]}
    return payload


def _packing_from_args(args) -> dict:
    """A packing of --set, or the G_d harness of --d: one of the two."""
    if args.set and args.d is not None:
        raise ValueError("--d is not read by packing with --set")
    if not args.set and args.d is None:
        raise ValueError("--d is required for this command")
    target = {"set": _sets(args, "S")[0]} if args.set else {"d": args.d}
    return {"p": args.prime, **_limits(vars(args)), **target}


def _run_packing(inst: dict) -> dict:
    """With a set: the raw packing search.  Otherwise the G_d harness."""
    if "set" in inst:
        return _search_target(inst, "packing", 1)[0]
    return packing_bound_harness(inst["p"], inst["d"], **_limits(inst)).to_dict()


def _character(inst: dict) -> Character:
    return Character(inst["p"], inst["d"], inst["j"])


def _character_args(args) -> dict:
    """--prime, --d and --j, checked as a character before any other flag."""
    inst = {"p": args.prime, "d": args.d, "j": args.j}
    _character(inst)
    return inst


def _karatsuba_from_args(args) -> dict:
    inst = _character_args(args)
    if args.set:
        inst.update(_two_sets(args), nu=args.nu)
    elif "nu" in args.given:
        raise ValueError("--nu is not read by karatsuba without --set")
    return inst


def _run_karatsuba(inst: dict) -> dict:
    """With A and B: their envelope ratio.  Otherwise A = B = G_d."""
    if "A" in inst:
        return karatsuba_ratio(_character(inst), inst["A"], inst["B"], inst["nu"]).to_dict()
    return subgroup_ratio_report(inst["p"], inst["d"]).to_dict()


def _b_set_from_args(args) -> dict:
    return {"p": args.prime, "d": args.d, "B": parse_target(_sets(args, "B")[0], args.prime)[0]}


def _shkvyu_from_args(args) -> dict:
    shifts = _int_list(args.shifts, "shift list", "s1,s2,...")
    if args.m is not None and args.m != len(shifts):
        raise ValueError(f"--m {args.m} disagrees with {len(shifts)} shifts")
    return {"p": args.prime, "d": args.d, "shifts": shifts}


def _interval_from_args(args) -> dict:
    interval, *sets = _sets(args, "interval:m,n", "A", "B")
    _, meta = parse_target(interval, args.prime)
    if meta.get("family") != "interval":
        raise ValueError("first --set must be an interval:m,n family")
    a, b = (parse_target(text, args.prime)[0] for text in sets)
    return {"p": args.prime, "m": meta["m"], "n": meta["n"], "A": a, "B": b}


def _subgroup_grid(cfg: dict, **extra) -> list[dict]:
    """Every (p, d) of a checked config."""
    return [
        {"p": p, "d": d, **extra}
        for p in _config_primes(cfg, 3)
        for d in experiments.grid_divisors(p, cfg["d_filter"])
    ]


def _seeded(cfg: dict, seed: int) -> dict:
    """The primes, count and seed arguments of a seeded instance generator."""
    return {"primes": _config_primes(cfg, 5), "count": cfg["samples"], "seed": seed}


class Experiment(NamedTuple):
    flags: dict  # the flags its single-op command reads -> their defaults
    from_args: Callable[[argparse.Namespace], dict]  # parse_args's namespace -> instance
    config: dict  # the sweep config keys it reads beyond _SWEEP_KEYS -> their defaults
    sweep: Callable[[dict, int], Iterable[dict]]  # (checked config, seed) -> instances
    run: Callable[[dict], dict]  # instance -> payload, for both paths


def _one_of(*values: str):
    """The rule of a key whose value must be one of these strings."""
    quoted = [f'"{v}"' for v in values]
    return (lambda v: v in values), ", ".join(quoted[:-1]) + " or " + quoted[-1]


_COUNT = (lambda v: type(v) is int and v >= 1, "an integer >= 1")

# What the value of each sweep config key must be: a test, and the words
# that end its error line.  bool is a subclass of int, so the tests ask for
# type(v) is int; NaN fails v > 0.  experiment is checked as a name of
# EXPERIMENTS and p_range by _config_primes.
CONFIG_RULES = {
    **dict.fromkeys(
        ("samples", "deg_max", "b_max", "size_max", "g_max", "min_size", "node_budget"), _COUNT
    ),
    "time_budget": (lambda v: type(v) in (int, float) and v > 0, "a number > 0"),
    "d_filter": (
        lambda v: v in ("all", "proper", "order>=2") or (type(v) is int and v >= 1),
        '"all", "proper", "order>=2" or an integer >= 1',
    ),
    "m": (
        lambda v: type(v) is list and v != [] and all(type(m) is int and m >= 2 for m in v),
        "a nonempty list of integers >= 2",
    ),
    "set": _one_of("qr", "subgroup"),
    "mode": _one_of("decomposition", "self"),
    "seed": (lambda v: type(v) is int, "an integer"),
    "expect": _one_of("found", "exhausted_none", "budget_exceeded"),
}

# The keys every sweep config takes; p_range has no default.
_SWEEP_KEYS = {"experiment": None, "p_range": None, "seed": 0}
_LIMIT_KEYS = {"node_budget": DecompQuery.node_budget, "time_budget": DecompQuery.time_budget}
_SEARCH_KEYS = {"mode": "decomposition", "min_size": DecompQuery.min_size, **_LIMIT_KEYS}
_SEEDED_KEYS = {"samples": 100}

# The default of a flag that must be given.
_REQUIRED = object()
# The flags every command takes, and the one flag of sweep.
_COMMON_FLAGS = dict(out=None, format="jsonl", stable=False, seed=None, cache_dir=None, workers=1)
_SWEEP_FLAGS = {"config": _REQUIRED}

# Command order is the order of the usage text.  Report functions are
# called through lambdas so that they are looked up by module-level name on
# every call.  Each flags dict is the reference for its command's flags and
# defaults (None: optional, read only if given), and each config dict for
# its sweep's keys and defaults; "expect" goes with the two experiments
# whose records carry a status.
EXPERIMENTS = {
    "search": Experiment(
        {"prime": _REQUIRED, "set": _REQUIRED, **_SEARCH_KEYS},
        _search_from_args,
        {"set": "qr", **_SEARCH_KEYS, "d_filter": "proper", "expect": None},
        _search_sweep,
        _run_search,
    ),
    "packing": Experiment(
        {"prime": _REQUIRED, "set": None, "d": None, **_LIMIT_KEYS},
        _packing_from_args,
        {"d_filter": "all", **_LIMIT_KEYS, "expect": None},
        lambda cfg, seed: _subgroup_grid(cfg, **_limits(cfg)),
        _run_packing,
    ),
    "weil": Experiment(
        {"prime": _REQUIRED, "d": _REQUIRED, "j": 1, "poly": _REQUIRED},
        lambda args: {**_character_args(args),
                      "poly": _int_list(args.poly, "polynomial literal", "c0,c1,...")},
        {**_SEEDED_KEYS, "deg_max": 6},
        lambda cfg, seed: experiments.weil_instances(**_seeded(cfg, seed), deg_max=cfg["deg_max"]),
        lambda inst: weil_report(_character(inst), inst["poly"]).to_dict(),
    ),
    "vinogradov": Experiment(
        {"prime": _REQUIRED, "d": _REQUIRED, "j": 1, "set": None},
        lambda args: {**_character_args(args), **_two_sets(args)},
        _SEEDED_KEYS,
        lambda cfg, seed: experiments.vinogradov_instances(**_seeded(cfg, seed)),
        lambda inst: vinogradov_check(_character(inst), inst["A"], inst["B"]).to_dict(),
    ),
    "karatsuba": Experiment(
        {"prime": _REQUIRED, "d": _REQUIRED, "j": 1, "set": None, "nu": 1},
        _karatsuba_from_args,
        {"d_filter": "all"},
        lambda cfg, seed: _subgroup_grid(cfg),
        _run_karatsuba,
    ),
    "wsum": Experiment(
        {"prime": _REQUIRED, "d": _REQUIRED, "set": _REQUIRED},
        _b_set_from_args,
        {**_SEEDED_KEYS, "b_max": 6},
        lambda cfg, seed: experiments.wsum_instances(**_seeded(cfg, seed), b_max=cfg["b_max"]),
        lambda inst: w_identity_report(inst["p"], inst["d"], inst["B"]).to_dict(),
    ),
    "nsum": Experiment(
        {"prime": _REQUIRED, "d": _REQUIRED, "set": _REQUIRED},
        _b_set_from_args,
        {**_SEEDED_KEYS, "b_max": 6},
        lambda cfg, seed: experiments.nsum_instances(**_seeded(cfg, seed), b_max=cfg["b_max"]),
        lambda inst: n_count_report(inst["p"], inst["d"], inst["B"]).to_dict(),
    ),
    "shkvyu": Experiment(
        {"prime": _REQUIRED, "d": _REQUIRED, "shifts": _REQUIRED, "m": None},
        _shkvyu_from_args,
        {**_SEEDED_KEYS, "g_max": 30, "m": [2, 3]},
        lambda cfg, seed: experiments.shkvyu_instances(
            **_seeded(cfg, seed), order_cap=cfg["g_max"], ms=cfg["m"]
        ),
        lambda inst: shkvyu_report(inst["p"], inst["d"], inst["shifts"]).to_dict(),
    ),
    "growth": Experiment(
        {"prime": _REQUIRED, "d": _REQUIRED},
        lambda args: {"p": args.prime, "d": args.d},
        {"d_filter": "order>=2"},
        lambda cfg, seed: _subgroup_grid(cfg),
        lambda inst: growth_exponent_report(inst["p"], inst["d"]).to_dict(),
    ),
    "interval": Experiment(
        {"prime": _REQUIRED, "set": None},
        _interval_from_args,
        _SEEDED_KEYS,
        lambda cfg, seed: experiments.interval_instances(**_seeded(cfg, seed)),
        lambda inst: interval_mult_report(
            inst["p"], inst["m"], inst["n"], inst["A"], inst["B"]
        ).to_dict(),
    ),
    "bourgain": Experiment(
        {"prime": _REQUIRED, "set": None},
        lambda args: {"p": args.prime, **_two_sets(args)},
        {**_SEEDED_KEYS, "size_max": 6},
        lambda cfg, seed: experiments.bourgain_instances(
            **_seeded(cfg, seed), size_max=cfg["size_max"]
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
        or not all(type(x) is int for x in rng)
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


def _sweep_config(cfg: dict) -> dict:
    """The config with its experiment's defaults filled in.  A ConfigError
    names the first key the experiment does not read, or whose value breaks
    its rule in CONFIG_RULES."""
    name = cfg["experiment"]
    if type(name) is not str or name not in EXPERIMENTS:
        raise ConfigError(f"unknown sweep experiment {name!r}")
    defaults = {**_SWEEP_KEYS, **EXPERIMENTS[name].config}
    for key, value in cfg.items():
        if key not in defaults:
            raise ConfigError(f"config field {key!r} is not read by a {name} sweep")
        rule = CONFIG_RULES.get(key)
        if rule and not rule[0](value):
            raise ConfigError(f"config field {key!r} must be {rule[1]}")
    checked = {**defaults, **cfg}
    if name == "search" and checked["set"] == "qr" and "d_filter" in cfg:
        # a QR grid takes every prime; only a subgroup grid picks d
        raise ConfigError('config field \'d_filter\' is not read by a search sweep with set "qr"')
    return checked


def _cmd_sweep(args):
    """Check the config and expand its grid, raising any config error before
    the first instance runs; return (seed, expect, payloads), where payloads
    yields each instance's payload in grid order as it finishes."""
    cfg = _sweep_config(_load_config(args.config))
    seed = args.seed if args.seed is not None else cfg["seed"]
    name = cfg["experiment"]
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
    """One parser for every command and flag.  It holds no defaults, so its
    namespace has only the flags given; parse_args checks them against the
    command's table and fills in the rest from it."""
    parser = argparse.ArgumentParser(
        prog="ffdecomp",
        description="additive decompositions of multiplicative structures mod p",
        argument_default=argparse.SUPPRESS,
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
    parser.add_argument("--min-size", type=int)
    parser.add_argument("--node-budget", type=int)
    parser.add_argument("--time-budget", type=float)
    parser.add_argument(
        "--workers",
        type=int,
        help="processes for a sweep's instances; a single-op command runs in one process",
    )
    parser.add_argument(
        "--seed", type=int, help="instance seed (default: the sweep config's \"seed\", else 0)"
    )
    parser.add_argument("--out", help="write records to this file instead of stdout")
    parser.add_argument("--cache-dir", dest="cache_dir", help="field table cache directory")
    parser.add_argument("--format", choices=["jsonl", "csv"])
    parser.add_argument(
        "--stable",
        action="store_true",
        help="zero volatile fields (timestamps, elapsed, node counts) in records",
    )
    parser.add_argument("--mode", choices=["decomposition", "self"])
    parser.add_argument("--config", help="the sweep's configuration, a JSON file")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """The namespace of one command line: every flag its command reads, the
    given value or the default of its table, and given, the set of flags
    given.  A ValueError, before anything runs, names the first flag given
    that the command does not read, else the first required flag missing,
    else a --workers below 1."""
    parser = build_parser()
    given = vars(parser.parse_args(argv))
    name = given.pop("command")
    flags = _SWEEP_FLAGS if name == "sweep" else EXPERIMENTS[name].flags
    for action in parser._actions:
        if action.dest in given and action.dest not in flags and action.dest not in _COMMON_FLAGS:
            raise ValueError(f"{action.option_strings[0]} is not read by {name}")
    for flag, default in flags.items():
        if default is _REQUIRED and flag not in given:
            raise ValueError(f"--{flag.replace('_', '-')} is required for this command")
    if given.get("workers", 1) < 1:
        raise ValueError(f"--workers must be >= 1, got {given['workers']}")
    return argparse.Namespace(command=name, given=set(given), **{**_COMMON_FLAGS, **flags, **given})


def run(argv) -> int:
    saved_cache_dir = os.environ.get("FFDECOMP_CACHE_DIR")
    try:
        args = parse_args(argv)
        if args.cache_dir:
            # through the environment, so that a sweep's pool workers see it too
            os.environ["FFDECOMP_CACHE_DIR"] = args.cache_dir
        if args.command == "sweep":
            seed, expect, payloads = _cmd_sweep(args)
        else:
            # a single-op command is a stream of one record
            experiment = EXPERIMENTS[args.command]
            seed, expect = args.seed or 0, None
            payloads = [experiment.run(experiment.from_args(args))]
        tally = _Tally(expect)
        records = (make_record(args.command, seed, p, args.stable) for p in payloads)
        _write(records, args, tally)
    except SystemExit as exc:  # argparse's usage errors, and --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
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
