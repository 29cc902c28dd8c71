"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is either frozen from an independent oracle or is a
constant-free theorem asserted at its stated tolerance.  Criterion 4's
subgroup clause checks the engine's verdict on every proper power
subgroup with p <= 31.  Not all of them are indecomposable: each order-4
subgroup {1, i, -1, -i} equals {1, -i} + {0, i - 1} (e.g. the cubes
mod 13 equal {1,8} + {0,4}), which the paper's floor gd_low_value < 2
allows.  The test pins the exact decomposable set against that closed
form and the normalized brute-force oracle in conftest; see
notes/decisions.md for the analysis.
"""

import json
import math

import pytest

from conftest import (
    conjugation_instances,
    indicator_identity_holds,
    interval_reference,
    naive_productset,
    primes_between,
    naive_sumset,
    oracle_decomposition_exists_normalized,
    setalg_oracle_instances,
)
from ffdecomp import cli
from ffdecomp.charsum import Character, weil_report
from ffdecomp.charsum import vinogradov_check
from ffdecomp.decomp import DecompQuery, run_query
from ffdecomp.experiments import (
    bourgain_instances,
    bourgain_report,
    grid_divisors,
    growth_exponent_report,
    interval_instances,
    interval_mult_report,
    nsum_instances,
    n_count_report,
    packing_bound_harness,
    shkvyu_instances,
    shkvyu_report,
    subgroup_ratio_report,
    vinogradov_instances,
    weil_instances,
    wsum_instances,
    w_identity_report,
)
from ffdecomp.fpcore import divisors, make_field, primes_up_to, subgroup
from ffdecomp.setalg import FpSet, affine, productset, sumset

SEED = 20_240_613


def _pass(n, text):
    print(f"criterion {n:02d} PASS: {text}")


def _subgroups(p_max):
    """Every (p, d) with 5 <= p <= p_max and d >= 2 dividing p - 1."""
    return [(p, d) for p in primes_between(5, p_max) for d in grid_divisors(p, "all")]


def test_criterion_01_indicator_identity():
    checked = 0
    for p in primes_up_to(499):
        if p < 3:
            continue
        fld = make_field(p)
        for d in divisors(p - 1):
            assert indicator_identity_holds(fld, d), (p, d)
            checked += 1
    _pass(1, f"membership indicator exact for {checked} (p, d) pairs, p <= 499")


def test_criterion_02_weil_bound():
    count = 0
    for inst in weil_instances(primes_between(5, 997), 200, SEED, deg_max=6):
        rep = weil_report(Character(inst["p"], inst["d"], inst["j"]), inst["poly"])
        assert rep.hypothesis_ok, inst
        assert rep.ok, inst
        count += 1
    assert count == 200
    # hypothesis failures must be flagged, not asserted
    rep = weil_report(Character(7, 2, 1), [0, 0, 1])
    assert rep.hypothesis_ok is False and rep.ok is None
    _pass(2, "complete-sum bound on 200 admissible instances; x^2 flagged")


def test_criterion_03_vinogradov_bound():
    count = 0
    for inst in vinogradov_instances(primes_between(5, 499), 500, SEED):
        rep = vinogradov_check(Character(inst["p"], inst["d"], inst["j"]), inst["A"], inst["B"])
        assert rep.ok, inst
        count += 1
    assert count == 500
    _pass(3, "double-sum bound, constant 1, 500/500 instances")


def test_criterion_04_sarkozy_quadratic_residues():
    for p in primes_up_to(37):
        if p < 5:
            continue
        s = subgroup(p, 2)
        r = run_query(DecompQuery(S=s, mode="decomposition"))
        assert r.status == "exhausted_none", (p, r.status)
    _pass(4, "quadratic residues indecomposable for all 5 <= p <= 37 (exhaustive)")


def test_criterion_04_sarkozy_all_subgroups():
    pairs = [
        (p, d)
        for p in primes_up_to(31)
        if p >= 5
        for d in divisors(p - 1)
        if 2 <= d < p - 1
    ]
    targets = {(p, d): subgroup(p, d) for p, d in pairs}

    # closed form: an order-4 subgroup is {1, i, -1, -i} with i^2 = -1, and
    # {1, -i} + {0, i - 1} = {1, i, -i, -1} is a split with both parts of size 2
    order4 = set()
    for (p, d), s in targets.items():
        if len(s) == 4:
            i = next(x for x in s if x * x % p == p - 1)
            a = FpSet.from_elements(p, [1, -i])
            b = FpSet.from_elements(p, [0, i - 1])
            assert naive_sumset(a, b) == set(s), (p, d, i)
            order4.add((p, d))
    assert order4 == {(13, 3), (17, 4), (29, 7)}

    # the brute-force oracle finds no other decomposable subgroup
    oracle_found = {
        pd for pd, s in targets.items() if oracle_decomposition_exists_normalized(s)
    }
    assert oracle_found == order4, oracle_found

    engine_found = set()
    for (p, d), s in targets.items():
        r = run_query(DecompQuery(S=s, mode="decomposition"))
        assert r.status in ("found", "exhausted_none"), (p, d, r.status)
        assert (r.status == "found") == ((p, d) in oracle_found), (p, d, r.status)
        if r.status == "found":
            a, b = r.witnesses[0]
            assert naive_sumset(a, b) == set(s), (p, d, a.elements(), b.elements())
            assert min(len(a), len(b)) >= 2, (p, d, a.elements(), b.elements())
            engine_found.add((p, d))
    assert engine_found == order4
    _pass(
        4,
        f"{len(pairs)} proper subgroups, p <= 31: exactly the order-4 ones "
        f"{sorted(order4)} decompose, all others exhausted; engine = oracle",
    )


def test_criterion_05_shkredov_self_decomposition():
    for p in primes_up_to(61):
        if p < 5:
            continue
        s = subgroup(p, 2)
        r = run_query(DecompQuery(S=s, mode="self_decomposition"))
        assert r.status == "exhausted_none", (p, r.status)
    _pass(5, "no A with A+A = QR(p) for any 5 <= p <= 61 (exhaustive)")


def test_criterion_06_packing_corollary():
    checked = 0
    for p, d in _subgroups(199):
        rep = packing_bound_harness(p, d)
        assert rep.extras["status"] == "found", (p, d)
        assert rep.ok, (p, d, rep.lhs)
        assert rep.lhs <= p
        checked += 1
    _pass(6, f"max packing product <= p on all {checked} subgroup instances, p <= 199")


def test_criterion_07_w_n_identity_suite():
    for inst in wsum_instances(primes_between(5, 199), 100, SEED, b_max=6):
        rep = w_identity_report(inst["p"], inst["d"], inst["B"])
        assert rep.hypothesis_ok and rep.ok, inst
        assert rep.extras["formula_gap"] == 0.0, inst
    for inst in nsum_instances(primes_between(5, 199), 100, SEED, b_max=6):
        rep = n_count_report(inst["p"], inst["d"], inst["B"])
        assert rep.ok, inst
    closed = w_identity_report(7, 2, FpSet.from_elements(7, [3, 5]))
    assert closed.extras["W"] == 2 and closed.extras["R"] == pytest.approx(0.5)
    _pass(7, "three-way W and two-way N agreement on 100 + 100 instances")


def test_criterion_08_shifted_subgroup_intersections():
    total = 0
    gated = 0
    for inst in shkvyu_instances(primes_between(5, 2003), 100, SEED, order_cap=30, ms=(2, 3)):
        rep = shkvyu_report(inst["p"], inst["d"], inst["shifts"])
        total += 1
        if rep.hypothesis_ok:
            gated += 1
            assert rep.ok, inst
    assert gated > 10_000  # the hypothesis regime is well represented
    _pass(8, f"intersection bound held on {gated} hypothesis-satisfying of {total} instances")


def test_criterion_09_bourgain_inequality():
    count = 0
    for inst in bourgain_instances(primes_between(5, 61), 200, SEED, size_max=6):
        rep = bourgain_report(inst["p"], inst["A"], inst["B"])
        assert rep.ok, inst
        count += 1
    assert count == 200
    _pass(9, "difference-set growth bound, 200/200 instances")


def test_criterion_10_interval_products():
    count = 0
    for inst in interval_instances(primes_between(5, 101), 200, SEED):
        p = inst["p"]
        rep = interval_mult_report(p, inst["m"], inst["n"], inst["A"], inst["B"])
        assert rep.ok, inst
        j, j_fourier, is_decomposition = interval_reference(
            p, inst["m"], inst["n"], inst["A"], inst["B"]
        )
        assert (rep.extras["J"], rep.extras["is_decomposition"]) == (j, is_decomposition), inst
        assert abs(rep.extras["J_fourier"] - j_fourier) <= 1e-9 * p * p, inst
        assert abs(j_fourier - j) <= rep.tolerance, inst
        count += 1
    assert count == 200
    witness = interval_mult_report(
        7, 0, 6, FpSet.from_elements(7, [1, 6]), FpSet.from_elements(7, [1, 2, 3])
    )
    assert witness.extras["J"] == 6 and witness.extras["is_decomposition"]
    _pass(10, "direct and frequency-side counts agree; error bound held, 200/200")


def test_criterion_11_conjugation_identity():
    count = 0
    for inst in conjugation_instances(primes_between(5, 199), 500, SEED):
        p, a, b = inst["p"], inst["A"], inst["b"]
        direct = productset(a, affine(a, 1, b))
        binv = pow(b, -1, p)
        scaled = affine(a, binv, 0)
        conjugated = affine(productset(scaled, affine(scaled, 1, 1)), b * b % p, 0)
        assert direct == conjugated, inst
        count += 1
    assert count == 500
    _pass(11, "product-translate conjugation identity exact on 500 instances")


def test_criterion_12_setalg_oracle_equivalence():
    count = 0
    for inst in setalg_oracle_instances(primes_between(3, 199), 1000, SEED):
        a, b = inst["A"], inst["B"]
        assert set(sumset(a, b)) == naive_sumset(a, b), inst
        assert set(productset(a, b)) == naive_productset(a, b), inst
        count += 1
    assert count == 1000
    _pass(12, "bitset sumset and dlog-space productset equal naive double loops, 1000/1000")


def test_criterion_13_worker_determinism(tmp_path):
    configs = {
        "qr_search": {"experiment": "search", "set": "qr", "p_range": [5, 37]},
        "subgroup_search": {
            "experiment": "search",
            "set": "subgroup",
            "d_filter": "proper",
            "p_range": [5, 31],
        },
        "qr_self": {"experiment": "search", "set": "qr", "mode": "self", "p_range": [5, 61]},
        "packing": {"experiment": "packing", "p_range": [5, 199], "d_filter": "all"},
    }
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        single = tmp_path / f"{name}_w1.jsonl"
        quad = tmp_path / f"{name}_w4.jsonl"
        code1 = cli.run(
            ["sweep", "--config", str(cfg_path), "--out", str(single), "--stable"]
        )
        code4 = cli.run(
            ["sweep", "--config", str(cfg_path), "--out", str(quad), "--stable",
             "--workers", "4"]
        )
        assert code1 == code4
        assert single.read_bytes() == quad.read_bytes(), name
    _pass(13, "single-threaded and 4-worker sweeps byte-identical under --stable")


def test_criterion_14_report_metrics_exist_and_are_sane():
    growth_count = 0
    ratio_count = 0
    for p, d in _subgroups(499):
        order = (p - 1) // d
        rep = subgroup_ratio_report(p, d)
        ratios = rep.extras["ratios"]
        assert set(ratios) == {"nu1", "nu2", "nu3"}
        assert all(math.isfinite(v) and v >= 0 for v in ratios.values())
        ratio_count += 1
        if order >= 2:
            g_rep = growth_exponent_report(p, d)
            e = g_rep.extras["e"]
            assert math.isfinite(e)
            if not g_rep.extras["zero_in_shift"]:
                assert e >= 1, (p, d, e)
            growth_count += 1
    assert growth_count > 400 and ratio_count > 500
    _pass(
        14,
        f"{ratio_count} envelope-ratio and {growth_count} growth-exponent records, all finite",
    )
