import argparse
import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import primes_between
from ffdecomp import cli
from ffdecomp.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    _Tally,
    build_parser,
    make_record,
    parse_target,
    run,
)
from ffdecomp.errors import FFDecompError
from ffdecomp.fpcore import make_field
from ffdecomp.setalg import FpSet, format_set


def run_records(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line]
    return code, records


def test_search_qr7(capsys):
    code, records = run_records(["search", "--set", "qr", "--prime", "7"], capsys)
    assert code == EXIT_OK
    assert len(records) == 1
    rec = records[0]
    assert rec["schema_version"] == 1 and rec["command"] == "search"
    assert rec["payload"]["status"] == "exhausted_none"
    assert rec["payload"]["witnesses"] == []


def test_search_found_witness(capsys):
    code, records = run_records(
        ["search", "--set", "7:{1,2,4,5}", "--prime", "7"], capsys
    )
    assert code == EXIT_OK
    assert records[0]["payload"]["status"] == "found"
    assert records[0]["payload"]["witnesses"] == [{"A": [1, 4], "B": [0, 1]}]
    # self mode on an even modulus, where 2 has no inverse: {0, 2} + {0, 2}
    code, records = run_records(
        ["search", "--set", "4:{0,2}", "--prime", "4", "--mode", "self"], capsys
    )
    assert code == EXIT_OK
    assert records[0]["payload"]["witnesses"] == [{"A": [0, 2], "B": [0, 2]}]


def test_literal_subgroup_searches_like_the_family(capsys):
    # 13:{1,3,9} is G_4 mod 13: the search finds the symmetry from the set.
    outcomes = []
    for target in ("13:{1,3,9}", "subgroup:4"):
        code, (rec,) = run_records(["search", "--prime", "13", "--set", target], capsys)
        payload = rec["payload"]
        outcomes.append((code, payload["status"], payload["witnesses"], payload["nodes_explored"]))
    assert outcomes[0] == outcomes[1]


def test_search_nonprime_is_usage_error(capsys):
    code = run(["search", "--set", "qr", "--prime", "6"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "not prime" in err


def test_bourgain_composite_modulus_is_usage_error(capsys):
    code = run(["bourgain", "--prime", "9", "--set", "9:{1,2}", "--set", "9:{1,3}", "--stable"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err == "error: p = 9 is not prime\n"
    assert captured.out == ""


def test_oversized_search_is_refused_before_its_table(tmp_path):
    """p = 1048571 would need a 128 GiB S - c table.  The child runs under a
    2 GiB address-space limit, set on it alone, so a search that built the
    table would fail fast there instead of exhausting the machine."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    argv = ["search", "--set", "subgroup:5", "--prime", "1048571", "--node-budget", "50"]
    proc = subprocess.run(
        [sys.executable, "-m", "ffdecomp.cli", *argv],
        # the field table of p goes to tmp_path, not the user's cache
        env=dict(os.environ, PYTHONPATH=path, FFDECOMP_CACHE_DIR=str(tmp_path)),
        preexec_fn=limit_address_space,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == (
        "error: p = 1048571: a search table of p**2/8 bytes exceeds the 1 GiB cap (p <= 92681)\n"
    )
    assert proc.stdout == ""


def test_unknown_command_and_flags(capsys):
    assert run(["definitely-not-a-command"]) == EXIT_USAGE
    assert run(["search", "--bogus-flag", "1"]) == EXIT_USAGE
    capsys.readouterr()


def test_one_parser_serves_every_command(tmp_path, capsys):
    parser = build_parser()
    assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    # flags may come before the command
    argv = ["search", "--prime", "7", "--set", "qr", "--stable"]
    assert run(argv) == EXIT_OK
    expected = capsys.readouterr().out
    assert run(["--prime", "7", "--set", "qr", "search", "--stable"]) == EXIT_OK
    assert capsys.readouterr().out == expected
    # only sweep reads --config; the other commands refuse it before any record
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "growth", "p_range": [5, 13]}))
    for name in cli.EXPERIMENTS:
        out = tmp_path / f"{name}.jsonl"
        assert run([name, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE, name
        captured = capsys.readouterr()
        assert not out.exists() and captured.out == "", name
        assert f"error: --config is not read by {name}\n" in captured.err


# Per command: an accepted command line, flags it does not read, and the
# flag its refusal names, the first of them in parser order.
UNREAD_FLAGS = [
    (["search", "--set", "qr", "--prime", "13"], ["--d", "5", "--poly", "1,2"], "--d"),
    (["packing", "--prime", "13", "--d", "3"], ["--min-size", "2"], "--min-size"),
    (["weil", "--prime", "7", "--d", "2", "--poly", "0,1,1"], ["--nu", "2"], "--nu"),
    (["vinogradov", "--prime", "7", "--d", "2", "--set", "7:{1,2}", "--set", "7:{3,4}"],
     ["--poly", "1,2"], "--poly"),
    (["karatsuba", "--prime", "13", "--d", "3"], ["--m", "2"], "--m"),
    (["wsum", "--prime", "7", "--d", "2", "--set", "7:{3,5}"], ["--j", "1"], "--j"),
    (["nsum", "--prime", "7", "--d", "2", "--set", "7:{3}"], ["--shifts", "1,2"], "--shifts"),
    (["shkvyu", "--prime", "61", "--d", "15", "--shifts", "1,2"], ["--set", "qr"], "--set"),
    (["growth", "--prime", "13", "--d", "3"],
     ["--mode", "self", "--node-budget", "1", "--shifts", "1,2"], "--shifts"),
    (["interval", "--prime", "7", "--set", "interval:0,6", "--set", "7:{1,6}", "--set", "7:{1,2,3}"],
     ["--time-budget", "1"], "--time-budget"),
    (["bourgain", "--prime", "31", "--set", "31:{1,2}", "--set", "31:{1,3}"], ["--d", "2"], "--d"),
    (["sweep"], ["--prime", "13"], "--prime"),  # the test adds --config
]


@pytest.mark.parametrize("argv, unread, flag", UNREAD_FLAGS, ids=[a[0] for a, *_ in UNREAD_FLAGS])
def test_a_flag_the_command_does_not_read_is_refused(argv, unread, flag, tmp_path, capsys):
    assert [a[0] for a, *_ in UNREAD_FLAGS] == [*cli.EXPERIMENTS, "sweep"]
    if argv == ["sweep"]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "growth", "p_range": [5, 7]}))
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out.jsonl"
    assert run(argv + unread + ["--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} is not read by {argv[0]}\n"
    assert captured.out == "" and not out.exists()
    assert run(argv + ["--out", str(out)]) == EXIT_OK  # accepted without them
    capsys.readouterr()
    assert out.exists()


class _FullAfter:
    """A text file whose writes fail once `lines` lines have been written."""

    def __init__(self, path, lines):
        self.file, self.left = open(path, "w"), lines

    def write(self, text):
        if not self.left:
            raise OSError(28, "No space left on device")
        self.left -= 1
        return self.file.write(text)

    def flush(self):
        self.file.flush()

    def close(self):
        self.file.close()


def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "shkvyu", "p_range": [5, 30], "samples": 3}))
    sweep = ["sweep", "--config", str(cfg), "--stable"]
    missing = tmp_path / "missing" / "x.jsonl"
    for argv in (["growth", "--prime", "101", "--d", "2"], sweep):
        assert run(argv + ["--out", str(missing)]) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == "" and not missing.parent.exists()
        assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    # a write that fails later keeps the records written before it
    assert run(sweep) == EXIT_OK
    complete = capsys.readouterr().out.splitlines(keepends=True)
    assert len(complete) > 2
    out = tmp_path / "out.jsonl"
    monkeypatch.setattr(cli, "open", lambda path, mode: _FullAfter(path, 2), raising=False)
    assert run(sweep + ["--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert out.read_text().splitlines(keepends=True) == complete[:2]


def test_budget_exit_code(capsys):
    code, records = run_records(
        ["search", "--set", "qr", "--prime", "31", "--node-budget", "5"], capsys
    )
    assert code == EXIT_BUDGET
    assert records[0]["payload"]["status"] == "budget_exceeded"


def exit_code(records) -> int:
    tally = _Tally()
    for rec in records:
        tally.add(rec["payload"])
    return tally.code()


def test_exit_code_precedence_unit():
    ok_rec = make_record("x", 0, {"ok": True})
    fail_rec = make_record("x", 0, {"ok": False})
    budget_rec = make_record("x", 0, {"status": "budget_exceeded"})
    assert exit_code([ok_rec]) == EXIT_OK
    assert exit_code([ok_rec, fail_rec]) == EXIT_FAIL
    assert exit_code([ok_rec, budget_rec]) == EXIT_BUDGET
    assert exit_code([fail_rec, budget_rec]) == EXIT_FAIL


def test_shkvyu_example(capsys):
    code, records = run_records(
        ["shkvyu", "--prime", "61", "--d", "15", "--m", "2", "--shifts", "1,2"],
        capsys,
    )
    assert code == EXIT_OK
    payload = records[0]["payload"]
    assert payload["hypothesis_ok"] is True and payload["ok"] is True
    code = run(["shkvyu", "--prime", "61", "--d", "15", "--m", "3", "--shifts", "1,2"])
    assert code == EXIT_USAGE  # m disagrees with the shift list
    capsys.readouterr()


def test_single_op_commands(capsys):
    cases = [
        ["weil", "--prime", "7", "--d", "2", "--poly", "0,1,1"],
        ["vinogradov", "--prime", "7", "--d", "2", "--set", "7:{1,2}", "--set", "7:{3,4}"],
        ["karatsuba", "--prime", "7", "--d", "2", "--set", "7:{1,2}", "--set", "7:{3,4}", "--nu", "1"],
        ["karatsuba", "--prime", "13", "--d", "3"],
        ["wsum", "--prime", "7", "--d", "2", "--set", "7:{3,5}"],
        ["nsum", "--prime", "7", "--d", "2", "--set", "7:{3}"],
        ["growth", "--prime", "13", "--d", "3"],
        ["interval", "--prime", "7", "--set", "interval:0,6", "--set", "7:{1,6}", "--set", "7:{1,2,3}"],
        ["bourgain", "--prime", "31", "--set", "31:{1,2}", "--set", "31:{1,3}"],
        ["packing", "--prime", "7", "--d", "2"],
        ["search", "--set", "qr", "--prime", "13", "--mode", "self"],
        ["search", "--set", "subgroup:1", "--prime", "13"],
        ["search", "--set", "primroots", "--prime", "13"],
        ["packing", "--set", "subgroup:1", "--prime", "13"],
    ]
    for argv in cases:
        code, records = run_records(argv, capsys)
        assert code == EXIT_OK, argv
        assert len(records) == 1
        assert records[0]["payload"].get("ok") is not False


def test_single_op_search_records_echo_the_mode(capsys):
    # a self-mode record must not read like a decomposition record
    for flags, mode in (([], "decomposition"), (["--mode", "self"], "self")):
        code, (rec,) = run_records(["search", "--set", "qr", "--prime", "11", *flags], capsys)
        assert code == EXIT_OK
        want = {"p": 11, "set": "qr", "family": "qr", "d": 2, "mode": mode}
        assert rec["payload"]["instance"] == want


def test_parse_target_families():
    s, meta = parse_target("qr", 7)
    assert s == FpSet.from_elements(7, [1, 2, 4]) and meta["d"] == 2
    s, meta = parse_target("subgroup:3", 13)
    assert s == FpSet.from_elements(13, [1, 5, 8, 12])
    s, meta = parse_target("primroots", 7)
    assert s == FpSet.from_elements(7, [3, 5])  # generators of F_7^*
    for p in (*primes_between(3, 999), 10037):  # the walk against the exp table
        exp = make_field(p).exp
        want = {exp[k] for k in range(p - 1) if math.gcd(k, p - 1) == 1}
        assert set(parse_target("primroots", p)[0]) == want, p
    s, meta = parse_target("interval:2,3", 7)
    assert s == FpSet.from_elements(7, [3, 4, 5])
    s, meta = parse_target("7:{1,2}", 7)
    assert s == FpSet.from_elements(7, [1, 2])
    with pytest.raises(ValueError):
        parse_target("7:{1}", 11)  # literal modulus disagrees
    with pytest.raises(ValueError):
        parse_target("qr", None)
    with pytest.raises(ValueError):
        parse_target("nonsense", 7)


def test_csv_format(capsys):
    code = run(["vinogradov", "--prime", "7", "--d", "2", "--set", "7:{1,2}",
                "--set", "7:{3,4}", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("command,experiment,p,d")
    assert lines[1].startswith("vinogradov,vinogradov,7,2")


def test_out_file_and_stable_reruns_are_byte_identical(tmp_path, capsys):
    argv = ["search", "--set", "qr", "--prime", "11", "--stable", "--seed", "3"]
    f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(argv + ["--out", str(f1)]) == EXIT_OK
    assert run(argv + ["--out", str(f2)]) == EXIT_OK
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    rec = json.loads(f1.read_text())
    assert rec["timestamp"] == 0
    assert rec["payload"]["elapsed"] == 0 and rec["payload"]["nodes_explored"] == 0


def test_record_schema_roundtrip(capsys):
    code, records = run_records(
        ["wsum", "--prime", "7", "--d", "2", "--set", "7:{3,5}"], capsys
    )
    rec = records[0]
    assert set(rec) == {"schema_version", "command", "timestamp", "seed", "payload"}
    payload = rec["payload"]
    assert payload["type"] == "bound"
    assert payload["instance"]["B"] == [3, 5]
    json.dumps(rec)  # serializable end to end


def test_sweep_small_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "vinogradov",
        "p_range": [5, 61],
        "samples": 5,
        "seed": 11,
    }))
    out = tmp_path / "out.jsonl"
    code = run(["sweep", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 5
    assert all(r["payload"]["ok"] for r in records)
    assert [r["payload"]["instance"]["index"] for r in records] == list(range(5))


def test_seeded_sweeps_draw_only_primes_in_range(tmp_path, capsys):
    for experiment, extra in (("vinogradov", {"samples": 40}), ("shkvyu", {"samples": 2})):
        cfg = tmp_path / f"{experiment}.json"
        cfg.write_text(json.dumps({"experiment": experiment, "p_range": [100, 200], **extra}))
        code, records = run_records(["sweep", "--config", str(cfg), "--stable"], capsys)
        assert code == EXIT_OK
        primes = {r["payload"]["instance"]["p"] for r in records}
        assert primes and all(100 <= p <= 200 for p in primes), (experiment, sorted(primes))
        assert len(primes) > 1


def test_sweep_expectation_failure(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # G_3(13) decomposes, so expecting exhausted_none across this grid fails
    cfg.write_text(json.dumps({
        "experiment": "search",
        "set": "subgroup",
        "d_filter": "proper",
        "p_range": [13, 13],
        "expect": "exhausted_none",
    }))
    code = run(["sweep", "--config", str(cfg)])
    capsys.readouterr()
    assert code == EXIT_FAIL


def test_sweep_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["sweep", "--config", str(bad)]) == EXIT_USAGE
    empty_range = tmp_path / "empty.json"
    empty_range.write_text(json.dumps({"experiment": "vinogradov", "p_range": [8, 9]}))
    assert run(["sweep", "--config", str(empty_range)]) == EXIT_USAGE
    capsys.readouterr()
    # seeded draws take primes >= 5 only, so [3, 4] holds none for them
    for name in sorted(SEEDED):
        no_seeded_prime = tmp_path / f"{name}.json"
        no_seeded_prime.write_text(json.dumps({"experiment": name, "p_range": [3, 4]}))
        assert run(["sweep", "--config", str(no_seeded_prime)]) == EXIT_USAGE, name
        err = capsys.readouterr().err
        assert err == "error: p_range [3, 4] contains no usable prime (p >= 5)\n", name
    # hi at the field cap is refused before the sieve, whose table is hi + 1
    # bytes (a p_range up to 10**11 died there in MemoryError); this range
    # keeps that table at 1 MiB where the check is missing
    at_cap = tmp_path / "at_cap.json"
    at_cap.write_text(json.dumps({"experiment": "vinogradov", "p_range": [2**20 - 2, 2**20]}))
    assert run(["sweep", "--config", str(at_cap)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: p_range [1048574, 1048576] reaches the field cap: hi must be below 2**20\n"
    # a search mode other than "decomposition" or "self" is refused, not run
    # as a decomposition search; no record is written and no --out created
    for mode in ("bogus", "self_decomposition"):
        bad_mode = tmp_path / f"mode_{mode}.json"
        bad_mode.write_text(json.dumps({"experiment": "search", "p_range": [5, 20], "mode": mode}))
        out = tmp_path / f"mode_{mode}.jsonl"
        assert run(["sweep", "--config", str(bad_mode), "--out", str(out)]) == EXIT_USAGE, mode
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists(), mode
        assert captured.err == 'error: config field \'mode\' must be "decomposition" or "self"\n'
    # every key of a sweep config is checked before its grid expands, so a
    # bad one writes no record: m = [2, 1] used to write the m = 2 records and
    # then fail at the first single shift, a zero maximum failed inside
    # randint, and a key the experiment does not read was ignored
    m_error = "'m' must be a nonempty list of integers >= 2"
    d_filter_error = '\'d_filter\' must be "all", "proper", "order>=2" or an integer >= 1'
    budget_error = "'time_budget' must be a number > 0"
    qr_d_filter_error = '\'d_filter\' is not read by a search sweep with set "qr"'
    bad_counts = [  # (experiment, config keys, the error line after "config field ")
        ("shkvyu", {"p_range": [5, 7], "samples": 2, "m": [2, 1]}, m_error),
        ("shkvyu", {"p_range": [5, 7], "m": 2}, m_error),
        ("shkvyu", {"p_range": [5, 7], "m": []}, m_error),
        ("shkvyu", {"p_range": [5, 7], "g_max": "x"}, "'g_max' must be an integer >= 1"),
        ("shkvyu", {"p_range": [5, 7], "g_max": 0}, "'g_max' must be an integer >= 1"),
        ("weil", {"p_range": [5, 7], "deg_max": 0}, "'deg_max' must be an integer >= 1"),
        ("wsum", {"p_range": [5, 7], "b_max": 0}, "'b_max' must be an integer >= 1"),
        ("nsum", {"p_range": [5, 7], "b_max": 0}, "'b_max' must be an integer >= 1"),
        ("bourgain", {"p_range": [5, 7], "size_max": 0}, "'size_max' must be an integer >= 1"),
        ("vinogradov", {"p_range": [5, 7], "samples": "3"}, "'samples' must be an integer >= 1"),
        ("interval", {"p_range": [5, 7], "samples": 0}, "'samples' must be an integer >= 1"),
        ("search", {"p_range": [5, 7], "node_budget": "x"}, "'node_budget' must be an integer >= 1"),
        ("packing", {"p_range": [5, 7], "time_budget": True}, budget_error),
        ("search", {"p_range": [5, 7], "min_size": 2.5}, "'min_size' must be an integer >= 1"),
        ("search", {"p_range": [5, 7], "node_budegt": 1}, "'node_budegt' is not read by a search sweep"),
        ("search", {"p_range": [5, 13], "time_budget": math.nan}, budget_error),
        ("growth", {"p_range": [5, 13], "samples": 0}, "'samples' is not read by a growth sweep"),
        ("packing", {"p_range": [5, 13], "min_size": 7}, "'min_size' is not read by a packing sweep"),
        ("growth", {"p_range": [5, 7], "d_filter": 2.5}, d_filter_error),
        ("growth", {"p_range": [5, 7], "d_filter": True}, d_filter_error),
        ("growth", {"p_range": [5, 13], "d_filter": None}, d_filter_error),
        ("karatsuba", {"p_range": [5, 13], "d_filter": "bogus"}, d_filter_error),
        ("search", {"p_range": [5, 7], "expect": 3},
         '\'expect\' must be "found", "exhausted_none" or "budget_exceeded"'),
        ("vinogradov", {"p_range": [5, 7], "expect": "found"}, "'expect' is not read by a vinogradov sweep"),
        ("search", {"p_range": [5, 7], "set": "primroots"}, '\'set\' must be "qr" or "subgroup"'),
        ("vinogradov", {"p_range": [5, 7], "seed": True}, "'seed' must be an integer"),
        ("vinogradov", {"p_range": [5]}, "'p_range' must be [lo, hi]"),
        ("growth", {"p_range": [True, 13]}, "'p_range' must be [lo, hi]"),
        # only a subgroup grid picks d; set "qr" is the default
        ("search", {"set": "qr", "p_range": [5, 13], "d_filter": 5}, qr_d_filter_error),
        ("search", {"p_range": [5, 13], "d_filter": "all"}, qr_d_filter_error),
    ]
    for i, (name, extra, message) in enumerate(bad_counts):
        cfg = tmp_path / f"count{i}.json"
        cfg.write_text(json.dumps({"experiment": name, **extra}))
        out = tmp_path / f"count{i}.jsonl"
        assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE, extra
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists(), extra
        assert captured.err == f"error: config field {message}\n", extra
    # every key an experiment reads has a rule, and its default meets it
    for name, experiment in cli.EXPERIMENTS.items():
        for key, default in experiment.config.items():
            assert default is None or cli.CONFIG_RULES[key][0](default), (name, key)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"p_range": [5, 7]}))
    assert run(["sweep", "--config", str(missing)]) == EXIT_USAGE
    assert run(["sweep", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE
    capsys.readouterr()


def test_sweep_workers_instance_parallel(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "search",
        "set": "qr",
        "p_range": [5, 23],
        "expect": "exhausted_none",
    }))
    one, four = tmp_path / "w1.jsonl", tmp_path / "w4.jsonl"
    assert run(["sweep", "--config", str(cfg), "--out", str(one), "--stable"]) == EXIT_OK
    assert run(["sweep", "--config", str(cfg), "--out", str(four), "--stable",
                "--workers", "4"]) == EXIT_OK
    capsys.readouterr()
    assert one.read_bytes() == four.read_bytes()


def test_process_pools_are_sized_to_their_tasks(tmp_path, capsys, in_process_pools, monkeypatch):
    # A fork pool starts all of its processes at the first submit, so a pool
    # larger than its task list or than the machine's CPUs forks processes
    # that never get work or that only contend for a CPU.  A single-op
    # command runs in one process whatever --workers says.
    pools = in_process_pools
    search = ["search", "--set", "qr", "--prime", "31", "--stable"]
    _, serial = run_records(search, capsys)
    _, wide = run_records(search + ["--workers", "64"], capsys)
    assert wide == serial
    assert not pools

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "vinogradov", "p_range": [5, 61], "samples": 4}))
    sweep = ["sweep", "--config", str(cfg), "--stable"]
    _, serial = run_records(sweep, capsys)
    assert len(serial) == 4 and not pools
    # (CPUs, --workers) -> the pool's size: the least of the CPUs, the
    # workers and the 4 tasks; a size of 1 runs serially and starts no pool
    for cpus, workers, size in [(8, 64, 4), (3, 64, 3), (8, 2, 2), (1, 64, None), (None, 64, None)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pools.clear()
        code, records = run_records(sweep + ["--workers", str(workers)], capsys)
        assert code == EXIT_OK and records == serial, (cpus, workers)
        want = [] if size is None else [(size, True)]
        assert [(pool.size, pool.cancelled) for pool in pools] == want, (cpus, workers)


def test_sweep_seed_comes_from_the_flag_else_the_config(tmp_path, capsys):
    base = {"experiment": "vinogradov", "p_range": [5, 61], "samples": 5}
    plain, seeded, bad = tmp_path / "plain.json", tmp_path / "seeded.json", tmp_path / "bad.json"
    plain.write_text(json.dumps(base))
    seeded.write_text(json.dumps({**base, "seed": 1}))
    bad.write_text(json.dumps({**base, "seed": "1"}))

    def sweep(cfg, *flags):
        assert run(["sweep", "--config", str(cfg), "--stable", *flags]) == EXIT_OK
        return capsys.readouterr().out

    assert sweep(seeded) == sweep(plain, "--seed", "1")
    assert sweep(seeded, "--seed", "0") == sweep(plain)
    assert sweep(plain) != sweep(plain, "--seed", "1")
    assert run(["sweep", "--config", str(bad)]) == EXIT_USAGE
    assert "seed" in capsys.readouterr().err
    # a single-op record without --seed keeps seed 0
    _, (rec,) = run_records(["search", "--set", "qr", "--prime", "7"], capsys)
    assert rec["seed"] == 0


# a command that loads the field table of 10037 (its character sum reads dlog)
VINOGRADOV_10037 = ["--prime", "10037", "--d", "2", "--set", "10037:{1,2}", "--set", "10037:{5}"]


def test_cache_dir_flag(tmp_path, capsys, monkeypatch):
    import ffdecomp.fpcore as fpcore

    monkeypatch.delenv("FFDECOMP_CACHE_DIR", raising=False)
    fpcore._FIELD_CACHE.pop(10037, None)
    code = run(["search", "--set", "10037:{1,2,4}", "--prime", "10037",
                "--cache-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert (tmp_path / "field_10037.bin").exists() is False  # no field needed for literals
    fpcore._FIELD_CACHE.pop(10037, None)
    for argv, want in ((["growth", "--prime", "10037", "--d", "2"], EXIT_OK),
                       (["shkvyu", "--prime", "10037", "--d", "2", "--shifts", "1,2"], EXIT_OK),
                       (["search", "--set", "qr", "--prime", "10037", "--node-budget", "50"],
                        EXIT_BUDGET)):
        code = run([*argv, "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert code == want, argv
        assert list(tmp_path.iterdir()) == [], argv  # none of them reads a field table
    code = run(["vinogradov", *VINOGRADOV_10037, "--cache-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert (tmp_path / "field_10037.bin").exists()


TOO_LARGE_92683 = "p = 92683: a search table of p**2/8 bytes exceeds the 1 GiB cap (p <= 92681)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["shkvyu", "--prime", "1048573", "--d", "5", "--shifts", "1,2"],
         "need d >= 2 dividing p-1; got d = 5, p = 1048573"),
        (["interval", "--prime", "100003", "--set", "interval:0,5", "--set", "7:{1}",
          "--set", "100003:{2}"],
         "set literal modulus 7 disagrees with --prime 100003"),
        (["search", "--prime", "92683", "--set", "qr"], TOO_LARGE_92683),
        (["packing", "--prime", "92683", "--d", "2"], TOO_LARGE_92683),
        (["search", "--prime", "92683", "--set", "primroots"], TOO_LARGE_92683),
        (["karatsuba", "--prime", "100003", "--d", "5"],
         "character order context d = 5 must divide p-1 = 100002"),
        (["weil", "--prime", "100003", "--d", "5", "--poly", "1,2"],
         "character order context d = 5 must divide p-1 = 100002"),
        (["vinogradov", "--prime", "100003", "--d", "2", "--j", "2"],
         "character index j = 2 out of range [0, 2)"),
    ],
    ids=["shkvyu-bad-d", "interval-bad-set", "search-qr-too-large", "packing-too-large",
         "search-primroots-too-large", "karatsuba-bad-d", "weil-bad-d", "vinogradov-bad-j"],
)
def test_refused_commands_write_no_cache_file(argv, message, tmp_path, capsys):
    # Each input is checked before the field of p is loaded or built.
    import ffdecomp.fpcore as fpcore

    p = int(argv[2])
    fpcore._FIELD_CACHE.pop(p, None)
    assert run([*argv, "--cache-dir", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []
    assert p not in fpcore._FIELD_CACHE


def test_cache_dir_flag_holds_for_one_run_only(tmp_path, capsys, monkeypatch):
    import ffdecomp.fpcore as fpcore

    flag_dir, env_dir = tmp_path / "flag", tmp_path / "env"
    monkeypatch.setenv("FFDECOMP_CACHE_DIR", str(env_dir))
    for p in (10037, 10039):
        fpcore._FIELD_CACHE.pop(p, None)
    assert run(["vinogradov", *VINOGRADOV_10037, "--cache-dir", str(flag_dir)]) == EXIT_OK
    assert os.environ["FFDECOMP_CACHE_DIR"] == str(env_dir)
    assert run(["vinogradov", "--prime", "10039", "--d", "2", "--set", "10039:{1,2}",
                "--set", "10039:{5}"]) == EXIT_OK
    assert sorted(f.name for f in flag_dir.iterdir()) == ["field_10037.bin"]
    assert sorted(f.name for f in env_dir.iterdir()) == ["field_10039.bin"]
    # a variable that was unset is unset again afterwards
    monkeypatch.delenv("FFDECOMP_CACHE_DIR")
    assert run(["vinogradov", *VINOGRADOV_10037, "--cache-dir", str(flag_dir)]) == EXIT_OK
    assert "FFDECOMP_CACHE_DIR" not in os.environ
    capsys.readouterr()
    for p in (10037, 10039):
        fpcore._FIELD_CACHE.pop(p, None)


# One tiny --stable sweep per experiment: p_range and samples keep each to a
# handful of records.
SWEEP_CONFIGS = {
    "search": {"set": "subgroup", "p_range": [5, 13]},
    "packing": {"p_range": [5, 13]},
    "weil": {"p_range": [5, 31], "samples": 3, "deg_max": 3},
    "vinogradov": {"p_range": [5, 31], "samples": 3},
    "karatsuba": {"p_range": [5, 13]},
    "wsum": {"p_range": [5, 31], "samples": 3, "b_max": 3},
    "nsum": {"p_range": [5, 31], "samples": 3, "b_max": 3},
    "shkvyu": {"p_range": [5, 11], "samples": 2, "g_max": 4, "m": [2]},
    "growth": {"p_range": [5, 13]},
    "interval": {"p_range": [5, 13], "samples": 3},
    "bourgain": {"p_range": [5, 13], "samples": 3, "size_max": 3},
}

SEEDED = {"weil", "vinogradov", "wsum", "nsum", "shkvyu", "interval", "bourgain"}

# sha256 of the --stable JSONL of each SWEEP_CONFIGS sweep at seeds 0 and 1.
# The writer tests above compare two writers of the same payloads, so only
# these pins show a reordered rng draw, a changed default or a changed prime
# or divisor rule.  Re-record them only for a change meant to alter records.
SWEEP_DIGESTS = {
    "search": ("0f16e9c1a21c70e11aa7c7e0b35b06fb11acef3e42469780f1eccf6577bb71de",
               "50603654527aa2928a1cdac0e2291eec870a887f6d99bc80eb53a627c96aea13"),
    "packing": ("aa70e25d4518167b5623579d2cac05651dc94f46c054b4b7921ccab3ca6556fd",
                "d7218f948a15f21dba5853d3ee626cf904af9b945999e867bbc6bd5ea855579a"),
    "weil": ("a75d9677363cbb67228092e2179de6ebd4c6a4d31f3d758b33934359bf766864",
             "f4eaf4422dede9745b3fa659646906c6b5bf50b1b22f6450fcbb40076a3ea430"),
    "vinogradov": ("9d3bdd76b3112a3dca11fc5b80f1e9230a83ce68fe3335b5594020c5635c9cb3",
                   "15e9dbede8239d14a53be8f93590efa1aa516230d8c918ebc4af83eddb273239"),
    "karatsuba": ("fa6ef34e984fbbedccf34c6dd89bf66760347dbe84ce68ec7ba2088e30461de2",
                  "9d78512fedacef3ea0cfc5009a09fe1115848ab0631d4ae66dbee1dc3a51596b"),
    "wsum": ("5b40c60a9db235a75826d92bca30ecf88ce27e55c6094910a579361c086e0dae",
             "e820c335b9b4b7f9efab911764f835fe2592d53c9a4b6cfdbe8104788fd7d9fc"),
    "nsum": ("03ac94672eba995371ee0ff74339ced4798f745a8493917f5d51a2bc77517681",
             "179b9321338d66a7057cb79fddd2a762cdc170d20f16e7a148ec771d989d62aa"),
    "shkvyu": ("c0825c478390b7dd385909d01a83ecb8386cfd3288e5cef1fccacef116a214cb",
               "144af8b0491c302509fd4a2cca821e294f6afbe2bd17795330467eb4aab00fa7"),
    "growth": ("93010b0133efab6fc45253b301c78678a3f9ffafe3c17c26bf7b381f3ad6cfe0",
               "10ffa90d6f5c05838669da9a7eede6e2d5b4aecec9b383c93306385e0dd06452"),
    "interval": ("ec52fdf1c743acc477301ea7f205ab7337974170e93d42e9c9a6c63ded6a2f42",
                 "7fa209a455d788aac32429ae09e6214c5e8e85b9043f823c07688b37f6dab6c0"),
    "bourgain": ("e13a358f0eee7d46f444016d5bc73e03c93a383ef4f8b3462f77683c2015629e",
                 "8859e88190bcec5fc80ff9b836b5faea367c264c78827befc6da9df30d4c6b98"),
}


def test_sweep_bytes_match_the_recorded_digests(tmp_path, capsys):
    assert set(SWEEP_DIGESTS) == set(SWEEP_CONFIGS)
    for name, extra in SWEEP_CONFIGS.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"experiment": name, **extra}))
        for seed, want in enumerate(SWEEP_DIGESTS[name]):
            assert run(["sweep", "--config", str(cfg), "--stable", "--seed", str(seed)]) == EXIT_OK
            out = capsys.readouterr().out.encode()
            assert hashlib.sha256(out).hexdigest() == want, (name, seed)


_IMPORT_PROBE = r"""
import contextlib, hashlib, io, json, sys
from ffdecomp import cli

SLOW = ("numpy", "concurrent.futures.process", "dataclasses", "inspect", "fractions", "decimal", "csv")

def loaded():
    return [m for m in SLOW if m in sys.modules]

result = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    result[name] = [code, loaded(), hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps(result))
"""


def _probe(commands, cache_dir):
    """Run the CLI commands in one fresh process with the given cache
    directory; per command: exit code, modules loaded so far, sha256 of
    stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, FFDECOMP_CACHE_DIR=str(cache_dir))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out)


def test_numpy_is_imported_only_where_it_computes(tmp_path):
    """Run the CLI in fresh processes whose fields are all in the disk cache:
    importing it loads none of numpy, the process pool, dataclasses,
    inspect, fractions, decimal and csv; the searches, packing, shkvyu,
    vinogradov and growth load none of them either; CSV output loads only
    csv; the three float-vector reports import numpy alone, and they keep
    their recorded bytes."""
    def sweep(name):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"experiment": name, **SWEEP_CONFIGS[name]}))
        return ["sweep", "--config", str(cfg), "--stable", "--seed", "0"]

    commands = [
        ("search", ["search", "--set", "qr", "--prime", "151", "--stable"]),
        ("packing", ["packing", "--prime", "101", "--d", "4", "--stable"]),
        ("shkvyu", sweep("shkvyu")),
        ("vinogradov_151", ["vinogradov", "--prime", "151", "--d", "2", "--set", "151:{1,2}",
                            "--set", "151:{5}", "--stable"]),
        ("vinogradov_10037", ["vinogradov", *VINOGRADOV_10037, "--stable"]),
        ("growth", ["growth", "--prime", "10037", "--d", "2", "--stable"]),
        ("csv", ["growth", "--prime", "10037", "--d", "2", "--stable", "--format", "csv"]),
        *[(name, sweep(name)) for name in ("nsum", "interval", "wsum")],
    ]

    warm = _probe(commands, tmp_path / "cache")  # builds every field into the empty cache
    built = {f.name for f in (tmp_path / "cache").iterdir()}
    assert {"field_101.bin", "field_151.bin", "field_10037.bin"} <= built
    cached = _probe(commands, tmp_path / "cache")
    assert cached["import"] == []
    for name in ("search", "packing", "shkvyu", "vinogradov_151", "vinogradov_10037", "growth"):
        assert cached[name][:2] == [EXIT_OK, []], name
    assert cached["csv"][:2] == [EXIT_OK, ["csv"]]
    # loaded() is cumulative, so csv stays from the command before; numpy
    # itself may load inspect
    for name in ("nsum", "interval", "wsum"):
        code, modules, digest = cached[name]
        assert [code, digest] == [EXIT_OK, SWEEP_DIGESTS[name][0]], name
        assert [m for m in modules if m != "inspect"] == ["numpy", "csv"], name
    assert cached["shkvyu"][2] == SWEEP_DIGESTS["shkvyu"][0]
    # a cold build and a load from the cache give the same records
    assert [warm[name][2] for name, _ in commands] == [cached[name][2] for name, _ in commands]


def test_growth_reads_no_field_table(tmp_path, capsys):
    """growth in a fresh process with an empty cache directory writes no
    file and imports no numpy, at p near the table cap too, and prints
    what it prints in this process."""
    commands = [
        ("small", ["growth", "--prime", "10037", "--d", "2", "--stable"]),
        ("large", ["growth", "--prime", "1048573", "--d", "7182", "--stable"]),
    ]
    cache = tmp_path / "cache"
    cache.mkdir()
    result = _probe(commands, cache)
    assert list(cache.iterdir()) == []
    assert result["import"] == []
    for name, argv in commands:
        assert run(argv) == EXIT_OK
        want = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert result[name] == [EXIT_OK, [], want], name


def _lit(p, elems):
    return format_set(FpSet.from_elements(p, elems))


def _single_op_argv(name, inst):
    """The single-op command line that evaluates one sweep instance."""
    p = inst["p"]
    argv = [name, "--prime", str(p)]
    if "d" in inst:
        argv += ["--d", str(inst["d"])]
    if "j" in inst:
        argv += ["--j", str(inst["j"])]
    if name == "weil":
        argv += ["--poly", ",".join(map(str, inst["poly"]))]
    elif name == "shkvyu":
        argv += ["--m", str(inst["m"]), "--shifts", ",".join(map(str, inst["shifts"]))]
    elif name == "interval":
        argv += ["--set", f"interval:{inst['m']},{inst['n']}"]
    if name in ("wsum", "nsum"):
        argv += ["--set", _lit(p, inst["B"])]
    elif isinstance(inst.get("A"), list):  # karatsuba sweeps echo "subgroup"
        argv += ["--set", _lit(p, inst["A"]), "--set", _lit(p, inst["B"])]
    return argv


def test_sweep_matches_single_op_for_every_experiment(tmp_path, capsys):
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    assert set(SWEEP_CONFIGS) == set(sub.choices) - {"sweep"}
    for name, extra in SWEEP_CONFIGS.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"experiment": name, **extra}))
        code, records = run_records(
            ["sweep", "--config", str(cfg), "--stable", "--seed", "1"], capsys
        )
        assert code == EXIT_OK, name
        assert records, name
        indices = []
        for rec in records:
            payload = rec["payload"]
            inst = dict(payload["instance"])
            if name == "search":
                # sweep search records echo the config mode and carry no bounds
                single_argv = ["search", "--prime", str(inst["p"]), "--set", inst["set"]]
                code, (single,) = run_records(single_argv + ["--stable"], capsys)
                assert code == EXIT_OK
                for key in ("status", "witnesses"):
                    assert single["payload"][key] == payload[key], (name, inst)
                continue
            if name in SEEDED:
                indices.append((inst.get("m"), inst.get("d"), inst["p"], inst.pop("index")))
            code, (single,) = run_records(_single_op_argv(name, inst) + ["--stable"], capsys)
            assert code == EXIT_OK
            expected = dict(payload, instance=inst)
            assert single["payload"] == expected, (name, inst)
            assert single["command"] == name
        if name == "shkvyu":  # samples are numbered within each (p, d, m)
            groups = {}
            for m, d, p, index in indices:
                groups.setdefault((p, d, m), []).append(index)
            assert all(ix == list(range(len(ix))) for ix in groups.values())
        elif name in SEEDED:
            assert [ix for *_, ix in indices] == list(range(len(records))), name


def test_usage_and_config_errors_create_no_out_file(tmp_path, capsys):
    configs = {
        "bad": {"experiment": "vinogradov", "p_range": [8, 9]},
        "list": [{"experiment": "vinogradov", "p_range": [5, 7]}],
        "unknown": {"experiment": "nope", "p_range": [5, 7]},
        # no p - 1 in [4, 12] has the divisor 7
        "empty_grid": {"experiment": "search", "set": "subgroup", "p_range": [5, 13], "d_filter": 7},
    }
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    nope = tmp_path / "nope.json"
    weil = ["weil", "--prime", "7", "--d", "2"]
    interval = ["interval", "--prime", "7", "--set"]
    cases = [  # (argv, the error line after "error: ")
        (["sweep", "--config", str(tmp_path / "bad.json")],
         "p_range [8, 9] contains no usable prime (p >= 5)"),
        (["sweep", "--config", str(nope)],
         f"cannot read config {nope}: [Errno 2] No such file or directory: '{nope}'"),
        (["sweep", "--config", str(tmp_path / "list.json")], "config must be a JSON object"),
        (["sweep", "--config", str(tmp_path / "unknown.json")], "unknown sweep experiment 'nope'"),
        (["sweep", "--config", str(tmp_path / "empty_grid.json")], "sweep expanded to an empty grid"),
        (["search", "--set", "qr", "--prime", "6"], "p = 6 is not prime"),
        (["shkvyu", "--prime", "61", "--d", "15", "--m", "3", "--shifts", "1,2"],
         "--m 3 disagrees with 2 shifts"),
        # --nu 0 is checked like any other value, not replaced by the default
        (["karatsuba", "--prime", "7", "--d", "2", "--set", "7:{1,2}", "--set", "7:{3,4}",
          "--nu", "0"], "nu must be >= 1, got 0"),
        (weil, "--poly is required for this command"),
        (weil + ["--poly", "1,x"], "bad polynomial literal '1,x': expected c0,c1,..."),
        (["shkvyu", "--prime", "61", "--d", "15", "--shifts", "1,,2"],
         "bad shift list '1,,2': expected s1,s2,..."),
        (["vinogradov", "--prime", "7", "--d", "2", "--set", "7:{1}"], "give --set twice: A then B"),
        # flags read only with or without another one
        (["packing", "--prime", "13", "--d", "3", "--set", "qr"], "--d is not read by packing with --set"),
        (["packing", "--prime", "13"], "--d is required for this command"),
        (["karatsuba", "--prime", "13", "--d", "3", "--nu", "2"],
         "--nu is not read by karatsuba without --set"),
        (["search", "--set", "qr", "--set", "subgroup:3", "--prime", "13"], "give --set once: S"),
        (["packing", "--prime", "13", "--set", "qr", "--set", "qr"], "give --set once: S"),
        (["wsum", "--prime", "7", "--d", "2", "--set", "7:{3}", "--set", "7:{5}"],
         "give --set once: B"),
        (["nsum", "--prime", "7", "--d", "2"], "--set is required for this command"),
        (["sweep"], "--config is required for this command"),
        (["sweep", "--config", str(tmp_path / "bad.json"), "--workers", "0"],
         "--workers must be >= 1, got 0"),
        (["growth", "--prime", "13", "--d", "3", "--workers", "-4"], "--workers must be >= 1, got -4"),
        (interval + ["interval:0,6"], "give --set three times: interval:m,n then A then B"),
        (interval + ["qr", "--set", "7:{1}", "--set", "7:{2}"],
         "first --set must be an interval:m,n family"),
        (interval + ["interval:0", "--set", "7:{1}", "--set", "7:{2}"],
         "bad set 'interval:0': expected interval:m,n"),
        (interval + ["interval:a,2", "--set", "7:{1}", "--set", "7:{2}"],
         "bad set 'interval:a,2': expected interval:m,n"),
        (["search", "--set", "subgroup:x", "--prime", "13"], "bad set 'subgroup:x': expected subgroup:d"),
        (["search", "--set", "subgroup:", "--prime", "13"], "bad set 'subgroup:': expected subgroup:d"),
        (["search", "--set", "subgroup:3,4", "--prime", "13"], "bad set 'subgroup:3,4': expected subgroup:d"),
        (["karatsuba", "--prime", "13", "--d", "3", "--set", "13:{}", "--set", "13:{1}"],
         "A and B must be nonempty"),
    ]
    for i, (argv, message) in enumerate(cases):
        out = tmp_path / f"out{i}.jsonl"
        assert run(argv + ["--out", str(out)]) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert not out.exists(), argv
        assert captured.out == ""
        assert captured.err == f"error: {message}\n", argv


# ---------------------------------------------------------------------------
# The record path before records were streamed: collect every payload, then
# emit them in one string.  It is kept here as a reference and shares no code
# with cli's writer or cli._plain.

_ORACLE_VOLATILE = {"elapsed", "nodes_explored", "nodes", "timestamp"}


def oracle_json_ready(obj):
    if isinstance(obj, FpSet):
        return obj.elements()
    if isinstance(obj, dict):
        return {str(k): oracle_json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_json_ready(v) for v in obj]
    return obj  # a JSON scalar; json.dumps refuses anything else


def oracle_stabilize(obj):
    if isinstance(obj, dict):
        return {k: (0 if k in _ORACLE_VOLATILE else oracle_stabilize(v)) for k, v in obj.items()}
    if isinstance(obj, list):
        return [oracle_stabilize(v) for v in obj]
    return obj


def oracle_emit(command, seed, payloads, fmt) -> str:
    """The --stable output of these payloads, as the collecting writer made it."""
    records = [
        {"schema_version": 1, "command": command, "timestamp": 0, "seed": seed,
         "payload": oracle_stabilize(payload)}
        for payload in payloads
    ]
    if fmt == "csv":
        buf = io.StringIO()
        fields = ["command", "experiment", "p", "d", "status", "lhs", "rhs", "ok", "hypothesis_ok"]
        writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for rec in records:
            payload = rec["payload"]
            writer.writerow({
                "command": rec["command"],
                "experiment": payload.get("experiment", payload.get("type", "")),
                "p": payload.get("instance", {}).get("p", ""),
                "d": payload.get("instance", {}).get("d", ""),
                "status": payload.get("status", payload.get("extras", {}).get("status", "")),
                "lhs": payload.get("lhs", ""),
                "rhs": payload.get("rhs", ""),
                "ok": payload.get("ok", ""),
                "hypothesis_ok": payload.get("hypothesis_ok", ""),
            })
        return buf.getvalue()
    lines = [json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records]
    return "\n".join(lines) + ("\n" if lines else "")


def _numpy_values(obj) -> list:
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [v for item in obj for v in _numpy_values(item)]
    return [obj] if type(obj).__module__ == "numpy" else []


def oracle_payloads(name, instances):
    """Run the instances serially, each payload converted by the oracle.  A
    raw payload holds no numpy value: a pool sends payloads unconverted, and
    the parent of a pool need not import numpy."""
    raw = [cli._run_task((name, inst)) for inst in instances]
    assert _numpy_values(raw) == [], name
    return [oracle_json_ready(payload) for payload in raw]


def test_sweep_bytes_match_the_collecting_writer(tmp_path, capsys):
    assert set(SWEEP_CONFIGS) == set(cli.EXPERIMENTS)
    seed = 1
    for name, extra in SWEEP_CONFIGS.items():
        config = {"experiment": name, **extra}
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        checked = cli._sweep_config(config)
        payloads = oracle_payloads(name, cli.EXPERIMENTS[name].sweep(checked, seed))
        argv = ["sweep", "--config", str(cfg), "--stable", "--seed", str(seed)]
        oks = sum(1 for payload in payloads if payload.get("ok") is True)
        fails = sum(1 for payload in payloads if payload.get("ok") is False)
        summary = f"records={len(payloads)} ok={oks} fail={fails} exit=0\n"
        for fmt in ("jsonl", "csv"):
            want = oracle_emit("sweep", seed, payloads, fmt)
            assert run(argv + ["--format", fmt]) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.out == want, (name, fmt)
            assert captured.err == summary, (name, fmt)
            for workers in ("1", "2"):
                out = tmp_path / f"{name}.{workers}.{fmt}"
                assert run(argv + ["--format", fmt, "--out", str(out), "--workers", workers]) == EXIT_OK
                assert capsys.readouterr().err == summary, (name, fmt, workers)
                assert out.read_bytes() == want.encode(), (name, fmt, workers)
        csv_lines = out.read_bytes().splitlines(keepends=True)
        assert len(csv_lines) == len(payloads) + 1
        assert all(line.endswith(b"\r\n") for line in csv_lines)


def test_single_op_bytes_match_the_collecting_writer(capsys):
    cases = [
        ["search", "--set", "qr", "--prime", "7"],
        ["search", "--set", "7:{1,2,4,5}", "--prime", "7"],
        ["search", "--set", "qr", "--prime", "31", "--node-budget", "5"],
        ["search", "--set", "qr", "--prime", "13", "--mode", "self"],
        ["shkvyu", "--prime", "61", "--d", "15", "--m", "2", "--shifts", "1,2"],
        ["weil", "--prime", "7", "--d", "2", "--poly", "0,1,1"],
        ["vinogradov", "--prime", "7", "--d", "2", "--set", "7:{1,2}", "--set", "7:{3,4}"],
        ["karatsuba", "--prime", "7", "--d", "2", "--set", "7:{1,2}", "--set", "7:{3,4}", "--nu", "1"],
        ["karatsuba", "--prime", "13", "--d", "3"],
        ["wsum", "--prime", "7", "--d", "2", "--set", "7:{3,5}"],
        ["nsum", "--prime", "7", "--d", "2", "--set", "7:{3}"],
        ["growth", "--prime", "13", "--d", "3"],
        ["interval", "--prime", "7", "--set", "interval:0,6", "--set", "7:{1,6}", "--set", "7:{1,2,3}"],
        ["bourgain", "--prime", "31", "--set", "31:{1,2}", "--set", "31:{1,3}"],
        ["packing", "--prime", "7", "--d", "2"],
        ["packing", "--prime", "13", "--set", "qr"],
    ]
    for argv in cases:
        args = cli.parse_args(argv)
        experiment = cli.EXPERIMENTS[args.command]
        payloads = oracle_payloads(args.command, [experiment.from_args(args)])
        for fmt in ("jsonl", "csv"):
            code = run(argv + ["--stable", "--seed", "4", "--format", fmt])
            assert capsys.readouterr().out == oracle_emit(args.command, 4, payloads, fmt), (argv, fmt)
            assert code == exit_code([{"payload": payloads[0]}]), argv


@pytest.mark.parametrize(
    "error, k, workers",
    [(ValueError, 3, "1"), (TypeError, 1, "1"), (FFDecompError, 4, "1"), (ValueError, 3, "2")],
)
def test_sweep_error_keeps_the_finished_records(tmp_path, capsys, monkeypatch, error, k, workers):
    if workers != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched runner reaches worker processes only by fork")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "vinogradov", "p_range": [5, 61], "samples": 6}))
    argv = ["sweep", "--config", str(cfg), "--stable", "--workers", workers]
    assert run(argv) == EXIT_OK
    complete = capsys.readouterr().out.splitlines(keepends=True)
    assert len(complete) == 6

    real = cli.EXPERIMENTS["vinogradov"]

    def run_or_raise(inst):
        if inst["index"] == k - 1:  # the k-th instance of the grid
            raise error(f"instance {k} failed")
        return real.run(inst)

    monkeypatch.setitem(cli.EXPERIMENTS, "vinogradov", real._replace(run=run_or_raise))
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: instance {k} failed\n"  # and no summary line
    assert captured.out.splitlines(keepends=True) == complete[: k - 1]

    out = tmp_path / "out.jsonl"
    assert run(argv + ["--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: instance {k} failed\n"
    if k == 1:
        assert not out.exists()  # nothing finished, so nothing was opened
    else:
        assert out.read_text().splitlines(keepends=True) == complete[: k - 1]


class _IntSub(int):
    pass


class _DictSub(dict):
    pass


_LEAVES = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.builds(_IntSub, st.integers()),
    st.builds(lambda p, bits: FpSet(p, bits % (1 << p)), st.sampled_from([5, 7, 11]), st.integers(0)),
)
_KEYS = st.one_of(
    st.sampled_from(sorted(_ORACLE_VOLATILE) + ["status", "extras", "p"]),
    st.text(max_size=3),
    st.integers(-3, 3),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=4).map(_DictSub),
    ),
    max_leaves=24,
)


def _typed(obj):
    """obj with the type of every container, key and leaf spelled out."""
    if isinstance(obj, dict):
        return (type(obj), [(_typed(k), _typed(v)) for k, v in obj.items()])
    if isinstance(obj, (list, tuple)):
        return (type(obj), [_typed(v) for v in obj])
    return (type(obj), obj)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_record_values_match_the_reference(value):
    assert _typed(cli._plain(value, False)) == _typed(oracle_json_ready(value))
    assert _typed(cli._plain(value, True)) == _typed(oracle_stabilize(oracle_json_ready(value)))


def test_a_value_that_is_not_json_stops_the_command(capsys, monkeypatch):
    # _plain converts only FpSets, so any other type a report might leak (a
    # complex here) fails at encoding instead of reaching a record as its str
    real = cli.EXPERIMENTS["growth"]
    leaky = real._replace(run=lambda inst: {**real.run(inst), "leak": 1j})
    monkeypatch.setitem(cli.EXPERIMENTS, "growth", leaky)
    assert run(["growth", "--prime", "13", "--d", "3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Object of type complex is not JSON serializable\n"
