import inspect
import math
import random

import pytest

from conftest import primes_between
from ffdecomp import experiments
from ffdecomp.errors import (
    BadIndex,
    CompositeModulus,
    ConfigError,
    DuplicateShift,
    ModulusTooLarge,
    ZeroSetOnly,
)
from ffdecomp.experiments import (
    bourgain_report,
    gd_low_value,
    grid_divisors,
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
    wsum_instances,
)
from ffdecomp import fpcore
from ffdecomp.fpcore import divisors, make_field, subgroup
from ffdecomp.setalg import FpSet, productset


def fpset(p, *elems):
    return FpSet.from_elements(p, elems)


def test_w_identity_closed_cases():
    rep = w_identity_report(7, 2, fpset(7, 3, 5))
    assert rep.extras["W"] == 2
    assert rep.extras["R"] == pytest.approx(0.5)
    assert rep.hypothesis_ok and rep.ok
    assert not rep.extras["W_vanishes"]

    rep = w_identity_report(7, 2, fpset(7, 0))
    assert rep.extras["W"] == 0 and rep.extras["W_vanishes"]
    assert rep.ok

    rep = w_identity_report(13, 3, fpset(13, 2))
    assert rep.ok and rep.hypothesis_ok


def test_w_identity_direct_count_oracle():
    # W = d * #{u in G_d : u - b not in G_d for all b}
    rng = random.Random(17)
    for _ in range(40):
        p = rng.choice((7, 13, 31))
        from ffdecomp.fpcore import divisors

        d = rng.choice([d for d in divisors(p - 1) if d >= 2])
        b = fpset(p, *rng.sample(range(p), rng.randint(1, 4)))
        g = set(subgroup(p, d))
        expect = d * sum(
            1 for u in g if all((u - x) % p not in g for x in b)
        )
        rep = w_identity_report(p, d, b)
        assert rep.extras["W"] == expect
        # the direct and complex routes agree even without the split hypothesis
        assert rep.ok or not rep.hypothesis_ok
        if rep.hypothesis_ok:
            assert rep.extras["formula_gap"] == 0.0


def test_w_identity_formula_needs_collision_free_b():
    # 2 is a residue mod 7, so one translate hits zero and the split
    # carries a known gap; the report flags it instead of asserting
    rep = w_identity_report(7, 2, fpset(7, 2, 3))
    assert rep.hypothesis_ok is False


def test_wsum_instances_are_collision_free():
    for inst in wsum_instances(primes_between(5, 199), 30, 5, b_max=6):
        g = subgroup(inst["p"], inst["d"])
        assert inst["B"].bits & g.bits == 0


def test_n_count_examples():
    rep = n_count_report(7, 2, fpset(7, 3))
    assert rep.extras["N"] == 1 and rep.ok
    rep = n_count_report(7, 2, fpset(7, 0))
    assert rep.extras["N"] == 3 and rep.ok
    rep = n_count_report(13, 3, fpset(13, 1, 2))
    assert rep.ok
    # direct count oracle
    rng = random.Random(23)
    for _ in range(30):
        p = rng.choice((7, 13, 31))
        from ffdecomp.fpcore import divisors

        d = rng.choice([d for d in divisors(p - 1) if d >= 2])
        b = fpset(p, *rng.sample(range(p), rng.randint(1, 4)))
        g = set(subgroup(p, d))
        expect = sum(1 for u in g if all((u - x) % p in g for x in b))
        rep = n_count_report(p, d, b)
        assert rep.extras["N"] == expect and rep.ok


def test_gd_low_value():
    assert gd_low_value(101, 2) == pytest.approx(
        2 * math.sqrt(101) * math.log(2) / (4 * math.log(101))
    )
    with pytest.raises(BadIndex):
        gd_low_value(101, 1)


def test_display_formulas_finite():
    for p in (5, 7, 101, 499):
        for v in (
            sarkozy_min_part(p),
            sarkozy_max_part(p),
            primitive_root_min_part(p),
            primitive_root_max_part(p),
        ):
            assert v > 0 and math.isfinite(v)


def test_shkvyu_example_and_oracle():
    # independent subgroup + intersection oracle
    p, d, m = 61, 15, 2
    g = sorted({pow(x, d, p) for x in range(1, p)})
    assert len(g) == 4
    inter = set(g)
    for b in (1, 2):
        inter &= {(x + b) % p for x in g}
    rep = shkvyu_report(p, d, [1, 2])
    assert rep.lhs == len(inter)
    order = len(g)
    assert rep.extras["hypothesis_value"] == pytest.approx(
        4 * (m - 1) * order * (order ** (1 / 3) + 1)
    )
    assert rep.rhs == pytest.approx(4 * m * (order ** (1 / 3) + 1) ** m)
    assert rep.hypothesis_ok and rep.ok

    rep = shkvyu_report(13, 3, [1, 2])  # p too small for the hypothesis
    assert rep.hypothesis_ok is False and rep.ok is None

    with pytest.raises(DuplicateShift):
        shkvyu_report(61, 15, [1, 1])
    with pytest.raises(ValueError):
        shkvyu_report(61, 15, [0, 1])
    with pytest.raises(ValueError):
        shkvyu_report(61, 15, [1])


def test_growth_examples():
    rep = growth_exponent_report(13, 3)
    assert rep.extras["grown_size"] == 9
    assert rep.extras["e"] == pytest.approx(math.log(9) / math.log(4))
    rep = growth_exponent_report(7, 3)
    assert rep.extras["grown_size"] == 3
    assert rep.extras["e"] == pytest.approx(math.log(3) / math.log(2))
    assert rep.extras["zero_in_shift"]  # -1 = 6 is a cube mod 7
    with pytest.raises(BadIndex):
        growth_exponent_report(7, 6)  # G has a single element


def _growth_against_productset(p, d):
    g = subgroup(p, d)
    shifted = g.translate(1)
    extras = growth_exponent_report(p, d).extras
    grown = len(productset(g, shifted))
    assert (extras["grown_size"], extras["zero_in_shift"]) == (grown, 0 in shifted), (p, d)
    assert extras["e"] == math.log(grown) / math.log(len(g)), (p, d)
    return extras["zero_in_shift"]


def test_growth_coset_count_matches_the_product_set():
    """The coset count equals the size of the built product set G(G + 1)
    for every subgroup of order >= 2 of every prime 5 <= p < 400."""
    cases = [
        (p, d)
        for p in primes_between(5, 399)
        for d in divisors(p - 1)
        if d >= 2 and (p - 1) // d >= 2
    ]
    assert len(cases) == 534
    zero_hits = [_growth_against_productset(p, d) for p, d in cases]
    assert any(zero_hits) and not all(zero_hits)


@pytest.mark.parametrize("p, d", [(1048573, 7182), (1048571, 5405)])
def test_growth_coset_count_matches_the_product_set_near_the_field_cap(p, d):
    try:
        _growth_against_productset(p, d)
    finally:
        fpcore._FIELD_CACHE.pop(p, None)


def _growth_by_table_dlogs(p, d):
    """(grown_size, zero_in_shift) counted from the field tables: the
    elements of G_d are exp[::d], and y, y' share a coset of G_d iff
    dlog(y) = dlog(y') (mod d)."""
    fld = make_field(p)
    elems = fld.exp[::d]
    cosets = {fld.dlog[x + 1] % d for x in elems if x != p - 1}
    zero_in_shift = p - 1 in elems
    return len(elems) * len(cosets) + zero_in_shift, zero_in_shift


def _growth_pairs(p):
    return [(p, d) for d in divisors(p - 1) if d >= 2 and (p - 1) // d >= 2]


def test_growth_count_matches_the_table_count():
    """The n-th power labels count what the dlog labels count, for every
    subgroup of order >= 2 of every prime below 1000, of 10037 and of
    65537 (where every d is a power of 2 and -1 lies in all but one G_d)."""
    cases = [pair for p in (*primes_between(3, 999), 10037, 65537) for pair in _growth_pairs(p)]
    assert len(cases) == 1494
    fulls = 0
    for p, d in cases:
        extras = growth_exponent_report(p, d).extras
        want = _growth_by_table_dlogs(p, d)
        assert (extras["grown_size"], extras["zero_in_shift"]) == want, (p, d)
        fulls += extras["grown_size"] - extras["zero_in_shift"] == p - 1
    # both kinds occur: walks that hit every coset (and may stop early) and
    # walks that miss one
    assert 0 < fulls < len(cases)
    for p in (10037, 65537):
        fpcore._FIELD_CACHE.pop(p, None)


@pytest.mark.parametrize(
    "p, d, error, message",
    [
        (561, 2, CompositeModulus, "p = 561 is not prime"),
        (1, 2, CompositeModulus, "p = 1: modulus must be an odd prime >= 3"),
        (1048583, 2, ModulusTooLarge, "p = 1048583 exceeds the dlog-table cap 2**20"),
        (13, 5, BadIndex, "need d >= 2 dividing p-1; got d = 5, p = 13"),
        (13, 1, BadIndex, "need d >= 2 dividing p-1; got d = 1, p = 13"),
        (10037, 10036, BadIndex, "degenerate subgroup of order 1"),
    ],
)
def test_growth_refusals_write_no_cache_file(p, d, error, message, tmp_path, monkeypatch):
    monkeypatch.setenv("FFDECOMP_CACHE_DIR", str(tmp_path))
    fpcore._FIELD_CACHE.pop(p, None)
    with pytest.raises(error) as info:
        growth_exponent_report(p, d)
    assert str(info.value) == message
    assert list(tmp_path.iterdir()) == []
    assert p not in fpcore._FIELD_CACHE


def test_growth_builds_no_field(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("growth asked for a field")

    monkeypatch.setattr(fpcore, "make_field", refuse)
    monkeypatch.setattr(fpcore, "subgroup", refuse)
    monkeypatch.setattr(experiments, "make_field", refuse)
    monkeypatch.setattr(experiments, "subgroup", refuse)
    assert growth_exponent_report(1048573, 7182).extras["grown_size"] > 0
    with pytest.raises(TypeError):
        growth_exponent_report(13.0, 3)


@pytest.mark.parametrize(
    "report",
    [
        lambda p, d: shkvyu_report(p, d, [1, 2]),
        packing_bound_harness,
        lambda p, d: w_identity_report(p, d, fpset(p, 1, 2)),
        lambda p, d: n_count_report(p, d, fpset(p, 1, 2)),
        subgroup_ratio_report,
    ],
    ids=["shkvyu", "packing", "wsum", "nsum", "ratio"],
)
def test_bad_index_refusals_write_no_cache_file(report, tmp_path, monkeypatch):
    # d is checked before the field is loaded or built, so a refused d
    # leaves neither a cache file nor a memoized field.
    monkeypatch.setenv("FFDECOMP_CACHE_DIR", str(tmp_path))
    for p, d in ((13, 5), (13, 1), (10037, 10035)):
        fpcore._FIELD_CACHE.pop(p, None)
        with pytest.raises(BadIndex) as info:
            report(p, d)
        assert str(info.value) == f"need d >= 2 dividing p-1; got d = {d}, p = {p}"
        assert list(tmp_path.iterdir()) == []
        assert p not in fpcore._FIELD_CACHE


def test_packing_harness_examples():
    rep = packing_bound_harness(7, 2)
    assert rep.lhs == 3 and rep.rhs == 7 and rep.ok
    assert rep.extras["char_sum_equals_product"]
    assert set(rep.extras["karatsuba_ratios"]) == {"nu1", "nu2", "nu3"}
    rep = packing_bound_harness(13, 2)
    assert rep.lhs <= 13 and rep.ok
    with pytest.raises(BadIndex):
        packing_bound_harness(7, 1)


def test_subgroup_ratio_report():
    rep = subgroup_ratio_report(13, 3)
    ratios = rep.extras["ratios"]
    assert all(math.isfinite(v) and v >= 0 for v in ratios.values())
    assert rep.ok is None  # report-only


def test_interval_examples():
    rep = interval_mult_report(7, 0, 6, fpset(7, 1, 6), fpset(7, 1, 2, 3))
    assert rep.extras["J"] == 6 and rep.extras["is_decomposition"] and rep.ok
    rep = interval_mult_report(7, 0, 3, fpset(7, 1), fpset(7, 1))
    assert rep.extras["J"] == 1
    assert rep.extras["main_term"] == pytest.approx(3 / 7)
    rep = interval_mult_report(11, 0, 5, fpset(11, 1, 10), fpset(11, 1, 2))
    assert rep.ok  # direct and frequency-side counts agree
    with pytest.raises(ValueError):
        interval_mult_report(7, 0, 3, fpset(7, 0, 1), fpset(7, 1))


def test_interval_set():
    assert interval_set(7, 0, 6).elements() == [1, 2, 3, 4, 5, 6]
    assert interval_set(7, 4, 5).elements() == [0, 1, 5, 6, 2] or interval_set(
        7, 4, 5
    ).elements() == sorted({(4 + i) % 7 for i in range(1, 6)})
    with pytest.raises(ValueError):
        interval_set(7, 0, 8)


def test_bourgain_examples():
    rep = bourgain_report(7, fpset(7, 1), fpset(7, 1))
    assert rep.lhs == 1 and rep.rhs == 0.5 and rep.ok
    rep = bourgain_report(31, fpset(31, 1, 2), fpset(31, 1, 3))
    assert rep.extras["product_set_size"] == 4
    assert rep.lhs > 2 and rep.ok
    with pytest.raises(ZeroSetOnly):
        bourgain_report(7, fpset(7, 0), fpset(7, 1, 2))
    with pytest.raises(ValueError):
        bourgain_report(7, FpSet(7, 0), fpset(7, 1))


def test_grid_divisors():
    assert grid_divisors(13, "all") == grid_divisors(13, None) == [2, 3, 4, 6, 12]
    assert grid_divisors(13, "proper") == grid_divisors(13, "order>=2") == [2, 3, 4, 6]
    assert grid_divisors(13, 3) == [3] and grid_divisors(13, 1) == [1]
    assert grid_divisors(13, 5) == []
    assert grid_divisors(3, "all") == [2] and grid_divisors(3, "proper") == []
    with pytest.raises(ConfigError):
        grid_divisors(13, "bogus")


def test_instance_generators_state_no_defaults():
    # every default lives in the sweep config reader, cli.EXPERIMENTS
    generators = [f for name, f in vars(experiments).items() if name.endswith("_instances")]
    assert len(generators) == 7  # criteria 11 and 12 draw theirs in conftest
    for gen in generators:
        params = inspect.signature(gen).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in params), gen.__name__
