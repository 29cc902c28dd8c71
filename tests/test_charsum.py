import cmath
import json
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import exact_int, indicator_identity_holds, primes_between, refused
from ffdecomp import charsum
from ffdecomp.charsum import (
    Character,
    RootOfUnityTally,
    double_char_sum,
    karatsuba_envelope,
    karatsuba_ratio,
    poly_char_sum,
    vinogradov_check,
    weil_report,
)
from ffdecomp.errors import BadIndex, CompositeModulus, MixedModulus, ModulusTooLarge
from ffdecomp.fpcore import divisors, make_field, primes_up_to
from ffdecomp.setalg import FpSet


def legendre7():
    return Character(7, 2, 1)


def char_eval(chi, x):
    """Root-of-unity index of chi(x), or None for the zero element."""
    x %= chi.p
    if x == 0:
        return None
    return chi.j * make_field(chi.p).dlog[x] % chi.d


def indicator_tally(fld, d, v):
    """Tally of sum over all chi in X_d of chi(v)."""
    tally = RootOfUnityTally(d)
    v %= fld.p
    if v == 0:
        tally.zeros += d
        return tally
    k = fld.dlog[v]
    for j in range(d):
        tally.counts[j * k % d] += 1
    return tally


def interval_exp_sum(p, m, n, lam):
    """|sum of e_p(lam * u) over the interval u = m+1 .. m+n|, by the closed
    geometric form |sin(pi*lam*n/p) / sin(pi*lam/p)| for lam != 0 (the
    translate by m only rotates the phase), and n for lam = 0."""
    if not 1 <= n <= p:
        raise ValueError(f"interval length must be in [1, p], got {n}")
    lam %= p
    if lam == 0:
        return float(n)
    return abs(math.sin(math.pi * lam * n / p) / math.sin(math.pi * lam / p))


def test_char_eval_examples():
    leg = legendre7()
    assert char_eval(leg, 3) == 1  # 3 is a non-residue mod 7
    assert char_eval(leg, 2) == 0  # 2 is a residue
    principal = Character(7, 2, 0)
    for x in range(1, 7):
        assert char_eval(principal, x) == 0
    assert char_eval(leg, 0) is None


def test_character_validation_and_order():
    assert Character(13, 6, 1).order == 6
    assert Character(13, 6, 4).order == 3
    assert Character(13, 6, 0).is_principal
    with pytest.raises(AttributeError):
        Character(13, 6, 1).j = 0
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(Character(13, 6, 4), protocol))
        assert (back.p, back.d, back.j, back.order) == (13, 6, 4, 3)
    with pytest.raises(BadIndex):
        Character(13, 5, 1)  # 5 does not divide 12
    with pytest.raises(BadIndex):
        Character(13, 6, 6)
    with pytest.raises(CompositeModulus):  # p is checked before d and j
        Character(9, 5, 9)
    with pytest.raises(ModulusTooLarge):
        Character(1048583, 5, 9)


def test_multiplicativity_random_triples():
    rng = random.Random(42)
    primes = [p for p in primes_up_to(199) if p >= 5]
    for _ in range(10_000):
        p = rng.choice(primes)
        d = rng.choice([d for d in divisors(p - 1) if d >= 1])
        chi = Character(p, d, rng.randrange(d))
        x, y = rng.randint(1, p - 1), rng.randint(1, p - 1)
        rx, ry = char_eval(chi, x), char_eval(chi, y)
        assert char_eval(chi, x * y % p) == (rx + ry) % d


def test_tally_value_and_exact_int():
    t = RootOfUnityTally(4)
    t.counts[0] += 3
    t.counts[2] += 1
    t.zeros += 2
    assert t.total() == 6
    assert abs(t.value() - (3 - 1)) < 1e-12
    assert exact_int(t) is None  # mixed non-uniform pattern
    u = RootOfUnityTally(6)
    for r in range(0, 6, 2):
        u.counts[r] += 5
    assert exact_int(u) == 0
    v = RootOfUnityTally(6)
    v.counts[0] += 4
    assert exact_int(v) == 4
    # a tally of zeros alone is the complex 0j for every d, as it is for d = 2
    for d in (1, 2, 3, 6):
        zero = RootOfUnityTally(d)
        zero.zeros += 1
        assert zero.value() == 0 and type(zero.value()) is complex, d
    w = RootOfUnityTally(1)
    w.counts[0] += 5
    assert w.value() == 5 and type(w.value()) is complex


def test_indicator_identity_small_fields():
    for p in (7, 13, 31, 61):
        fld = make_field(p)
        for d in divisors(p - 1):
            assert indicator_identity_holds(fld, d)
            # spot values straight from the tally
            for v in range(1, p):
                val = exact_int(indicator_tally(fld, d, v))
                assert val == (d if fld.dlog[v] % d == 0 else 0)


def test_poly_char_sum_examples():
    leg = legendre7()
    assert poly_char_sum(leg, [0, 1]).magnitude() == 0
    assert poly_char_sum(leg, [0, 1, 1]).value() == -1
    # F = x^2: every nonzero x contributes +1, x = 0 contributes nothing
    assert poly_char_sum(leg, [0, 0, 1]).value() == 6


def test_poly_char_sum_matches_direct_complex_oracle():
    rng = random.Random(9)
    for _ in range(60):
        p = rng.choice((7, 13, 31, 61))
        fld = make_field(p)
        d = rng.choice([d for d in divisors(p - 1) if d >= 2])
        chi = Character(p, d, rng.randint(1, d - 1))
        coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [rng.randint(1, p - 1)]
        expected = 0j
        for x in range(p):
            v = sum(c * x**i for i, c in enumerate(coeffs)) % p
            if v:
                expected += cmath.exp(2j * cmath.pi * chi.j * fld.dlog[v] / d)
        assert abs(poly_char_sum(chi, coeffs).value() - expected) < 1e-8


def test_weil_examples():
    leg = legendre7()
    rep = weil_report(leg, [0, 1, 1])  # x(x+1)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(math.sqrt(7))
    assert rep.hypothesis_ok and rep.ok
    rep = weil_report(leg, [0, 0, 1])  # x^2 is a perfect square
    assert rep.hypothesis_ok is False and rep.ok is None
    # linear polynomial, order-3 character: complete sum over all of F_13 is 0
    chi3 = Character(13, 3, 1)
    rep = weil_report(chi3, [1, 1])
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    assert rep.extras["distinct_roots"] == 1
    assert rep.ok
    with refused(BadIndex, "Weil comparison needs a non-principal character"):
        weil_report(Character(7, 2, 0), [0, 1, 1])
    with refused(ValueError, "F must be nonzero"):
        weil_report(leg, [0, 7])  # zero mod 7
    with refused(ValueError, "need deg F < p for the root count"):
        weil_report(leg, [1, 0, 0, 0, 0, 0, 0, 1])


def test_weil_random_admissible():
    from ffdecomp.experiments import weil_instances

    for inst in weil_instances(primes_between(5, 499), 60, 7, deg_max=6):
        rep = weil_report(Character(inst["p"], inst["d"], inst["j"]), inst["poly"])
        assert rep.hypothesis_ok and rep.ok, inst


def test_double_char_sum_examples_and_oracle():
    leg = legendre7()
    a, b = FpSet.from_elements(7, [1, 2]), FpSet.from_elements(7, [3, 4])
    assert double_char_sum(leg, a, b).value() == -2
    full = FpSet.from_elements(7, range(7))
    assert abs(double_char_sum(leg, full, b).value()) < 1e-12
    one = FpSet.from_elements(7, [1])
    assert double_char_sum(leg, one, one).value() == 1  # chi(2) = +1

    rng = random.Random(13)
    for _ in range(60):
        p = rng.choice((7, 13, 31))
        fld = make_field(p)
        d = rng.choice([d for d in divisors(p - 1) if d >= 2])
        chi = Character(p, d, rng.randint(1, d - 1))
        sa = FpSet(p, rng.getrandbits(p) & ((1 << p) - 1))
        sb = FpSet(p, rng.getrandbits(p) & ((1 << p) - 1))
        expected = 0j
        for x in sa:
            for y in sb:
                v = (x + y) % p
                if v:
                    expected += cmath.exp(2j * cmath.pi * chi.j * fld.dlog[v] / d)
        tally = double_char_sum(chi, sa, sb)
        assert abs(tally.value() - expected) < 1e-8
        assert tally.total() == len(sa) * len(sb)
    with refused(MixedModulus, "ambient moduli differ: 7 vs 11"):
        double_char_sum(leg, a, FpSet.from_elements(11, [3]))


def test_double_char_sum_refuses_a_tally_that_is_not_every_pair(monkeypatch):
    a = FpSet.from_elements(7, [1, 2])
    # the pair-count product sees one pair (0, 0) in place of the four of A x A
    monkeypatch.setattr(charsum, "_slots", lambda s: 1)
    with refused(AssertionError, "tally total 1 is not #A * #B = 4"):
        double_char_sum(legendre7(), a, a)


def pair_loop_tally(chi, a, b):
    """(counts, zeros) of chi(x + y) over A x B, one pair at a time, with
    logs taken from the powers of the field's generator."""
    p, d, j = chi.p, chi.d, chi.j
    log = {pow(make_field(p).g, k, p): k for k in range(p - 1)}
    counts, zeros = [0] * d, 0
    for x in a:
        for y in b:
            v = (x + y) % p
            if v == 0:
                zeros += 1
            else:
                counts[j * log[v] % d] += 1
    return counts, zeros


def test_double_char_sum_equals_the_pair_loop_for_every_character_to_61():
    rng = random.Random(61)
    for p in primes_between(3, 61):
        for d in divisors(p - 1):
            for j in range(d):
                chi = Character(p, d, j)
                a = FpSet(p, rng.getrandbits(p))
                b = FpSet(p, rng.getrandbits(p))
                tally = double_char_sum(chi, a, b)
                assert (tally.counts, tally.zeros) == pair_loop_tally(chi, a, b), (p, d, j)


@pytest.mark.parametrize("p", [3, 5, 13, 61])
def test_double_char_sum_edge_sets_equal_the_pair_loop(p):
    full, zero = FpSet(p, (1 << p) - 1), FpSet.from_elements(p, [0])
    rng = random.Random(p)
    for d in divisors(p - 1):
        chi = Character(p, d, rng.randrange(d))
        some = FpSet.from_elements(p, rng.sample(range(p), rng.randint(1, p)))
        for a, b in ((full, some), (some, full), (full, full), (zero, zero), (zero, full)):
            tally = double_char_sum(chi, a, b)
            assert (tally.counts, tally.zeros) == pair_loop_tally(chi, a, b), (d, a, b)


def test_vinogradov_examples():
    leg = legendre7()
    rep = vinogradov_check(leg, FpSet.from_elements(7, [1, 2]), FpSet.from_elements(7, [3, 4]))
    assert rep.lhs == pytest.approx(2.0)
    assert rep.rhs == pytest.approx(math.sqrt(28))
    assert rep.ok
    one = FpSet.from_elements(7, [1])
    rep = vinogradov_check(leg, one, one)
    assert rep.lhs == pytest.approx(1.0) and rep.ok
    with refused(BadIndex, "bound needs a non-principal character"):
        vinogradov_check(Character(7, 2, 0), one, one)
    with refused(ValueError, "A and B must be nonempty"):
        vinogradov_check(leg, FpSet(7, 0), one)


def test_karatsuba_examples_and_envelope_domination():
    leg = legendre7()
    a, b = FpSet.from_elements(7, [1, 2]), FpSet.from_elements(7, [3, 4])
    rep = karatsuba_ratio(leg, a, b, 1)
    want = math.sqrt(2) * (math.sqrt(2) * math.sqrt(7) + 2 * 7**0.25)
    assert rep.rhs == pytest.approx(want)
    assert rep.extras["ratio"] == pytest.approx(2.0 / want)
    assert rep.ok is None
    with refused(BadIndex, "envelope comparison needs a non-principal character"):
        karatsuba_ratio(Character(7, 2, 0), a, b, 1)
    # an empty A or B has a zero envelope, so no ratio: refused as vinogradov refuses it
    for x, y in ((FpSet(7, 0), b), (a, FpSet(7, 0))):
        with refused(ValueError, "A and B must be nonempty"):
            karatsuba_ratio(leg, x, y, 1)
    # with nu = 1 the envelope dominates the constant-free double-sum bound
    rng = random.Random(3)
    for _ in range(100):
        p = rng.choice((7, 13, 31))
        na, nb = rng.randint(1, p - 1), rng.randint(1, p - 1)
        assert karatsuba_envelope(p, na, nb, 1) >= math.sqrt(p * na * nb)


def test_interval_exp_sum_examples():
    assert interval_exp_sum(7, 0, 3, 0) == 3
    assert interval_exp_sum(7, 0, 6, 1) == pytest.approx(1.0)
    want = abs(math.sin(3 * math.pi / 7) / math.sin(math.pi / 7))
    assert interval_exp_sum(7, 0, 3, 1) == pytest.approx(want)
    with pytest.raises(ValueError):
        interval_exp_sum(7, 0, 0, 1)


def test_interval_exp_sum_matches_direct_sum():
    rng = random.Random(21)
    primes = [p for p in primes_up_to(499) if p >= 5]
    for _ in range(500):
        p = rng.choice(primes)
        m = rng.randrange(p)
        n = rng.randint(1, p)
        lam = rng.randint(-(p - 1) // 2, (p - 1) // 2)
        direct = abs(
            sum(cmath.exp(2j * cmath.pi * lam * ((m + i) % p) / p) for i in range(1, n + 1))
        )
        closed = interval_exp_sum(p, m, n, lam)
        assert abs(direct - closed) < 1e-9
        if lam != 0:
            assert closed <= p / abs(lam) + 1e-9


_OPTIMIZED_CHECKS_SCRIPT = r"""
import json, sys
from ffdecomp import charsum, decomp, setalg
from ffdecomp.decomp import DecompQuery, run_query
from ffdecomp.setalg import FpSet

chi = charsum.Character(7, 2, 1)
a = FpSet.from_elements(7, [1, 2])
s = FpSet.from_elements(7, [1, 2, 4, 5])  # {1, 4} + {0, 1}
a2 = FpSet.from_elements(7, [2, 3, 4])  # {1, 2} + {1, 2}
calls = {
    "double_char_sum": lambda: charsum.double_char_sum(chi, a, a),
    "growth_product": lambda: setalg.growth_product(a, 3),
    # each search finds a witness, which it re-verifies before accepting it
    "decomposition": lambda: run_query(DecompQuery(S=s, mode="decomposition")),
    "packing": lambda: run_query(DecompQuery(S=s, mode="packing")),
    "self_decomposition": lambda: run_query(DecompQuery(S=a2, mode="self_decomposition")),
}
for call in calls.values():
    call()  # intact inputs pass every check

def raises(call):
    try:
        call()
    except AssertionError:
        return True
    return False

charsum.RootOfUnityTally.total = lambda self: -1  # tally no longer sums to #A * #B
setalg.affine = lambda s, lam, mu: FpSet(s.p, 0)  # conjugated route returns the empty set
decomp._naive_sum_bits = lambda a, b, p: (1 << p) - 1  # the schoolbook sumset is all of F_p
print(json.dumps({"optimize": sys.flags.optimize, **{k: raises(c) for k, c in calls.items()}}))
"""


def test_library_checks_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert json.loads(out) == {
        "optimize": 1,
        "double_char_sum": True,
        "growth_product": True,
        "decomposition": True,
        "packing": True,
        "self_decomposition": True,
    }
