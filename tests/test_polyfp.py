import random
from itertools import zip_longest

import pytest

from ffdecomp import polyfp


def mul(a, b, p):
    """Schoolbook product of two coefficient lists mod p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return polyfp.trim(out)


def test_divmod_reconstruction():
    rng = random.Random(2)
    for _ in range(200):
        p = rng.choice((5, 7, 13, 31))
        a = [rng.randrange(p) for _ in range(rng.randint(1, 8))]
        b = [rng.randrange(p) for _ in range(rng.randint(1, 5))]
        if polyfp.degree(b) < 0:
            continue
        q, r = polyfp.poly_divmod(a, b, p)
        recon = [
            (x + y) % p
            for x, y in zip_longest(mul(q, b, p), r, fillvalue=0)
        ]
        assert polyfp.trim(recon) == polyfp.trim([c % p for c in a])
        assert polyfp.degree(r) < polyfp.degree(b)


def test_gcd_divides_both_and_is_monic():
    rng = random.Random(4)
    for _ in range(100):
        p = rng.choice((5, 7, 13))
        g = [rng.randrange(p) for _ in range(rng.randint(1, 3))]
        if polyfp.degree(g) < 0:
            g = [1]
        a = mul(g, [rng.randrange(p) for _ in range(3)] or [1], p)
        b = mul(g, [rng.randrange(p) for _ in range(3)] or [1], p)
        if not a or not b:
            continue
        h = polyfp.gcd(a, b, p)
        assert h[-1] == 1
        assert polyfp.poly_divmod(a, h, p)[1] == []
        assert polyfp.poly_divmod(b, h, p)[1] == []
        # the common factor g divides the gcd
        assert polyfp.poly_divmod(h, polyfp.gcd(g, h, p), p)[1] == []


def _irreducible_monics(p, rng, count):
    """count distinct random monic irreducibles of degree 1 to 3 over F_p: in
    those degrees a polynomial is irreducible iff it has no root in F_p."""
    found = set()
    while len(found) < count:
        q = tuple(rng.randrange(p) for _ in range(rng.randint(1, 3))) + (1,)
        if len(q) == 2 or all(polyfp.evaluate(list(q), x, p) for x in range(p)):
            found.add(q)
    return [list(q) for q in found]


def test_root_counts_match_irreducible_factorizations():
    # f = lc * prod q_i**m_i with distinct monic irreducibles q_i: the roots
    # of the q_i in the closure are distinct, so f has sum(deg q_i) distinct
    # roots, and f is c * g**d iff d divides every m_i.
    rng = random.Random(6)
    powers = 0
    for _ in range(300):
        p = rng.choice((61, 101, 127))  # total degree (<= 54) stays below p
        d = rng.choice((1, 2, 3, 4, 6))
        factors = _irreducible_monics(p, rng, rng.randint(0, 3))
        if rng.random() < 0.5:
            mults = [rng.randint(1, 3) for _ in factors]
        else:
            mults = [d * rng.randint(1, 3 // d or 1) for _ in factors]
        f = [rng.randint(1, p - 1)]
        for q, m in zip(factors, mults):
            for _ in range(m):
                f = mul(f, q, p)
        assert polyfp.distinct_root_count(f, p) == sum(len(q) - 1 for q in factors), (p, f)
        power = all(m % d == 0 for m in mults)
        assert polyfp.is_perfect_power(f, p, d) == power, (p, d, f)
        powers += power
    assert 0 < powers < 300


def test_distinct_root_count_examples():
    # x^2 over F_7: one distinct root
    assert polyfp.distinct_root_count([0, 0, 1], 7) == 1
    # x(x+1): two distinct roots
    assert polyfp.distinct_root_count([0, 1, 1], 7) == 2
    # squarefree irreducible quadratic over F_7 still has 2 roots in the closure
    assert polyfp.distinct_root_count([1, 0, 1], 7) == 2


def test_is_perfect_power():
    assert polyfp.is_perfect_power([0, 0, 1], 7, 2)  # x^2
    assert polyfp.is_perfect_power([4, 4, 1], 7, 2)  # (x+2)^2
    assert not polyfp.is_perfect_power([0, 1, 1], 7, 2)  # x(x+1)
    assert polyfp.is_perfect_power([3], 7, 5)  # constants
    # 3 * (x^2 + x + 1)^3 is a perfect cube up to the constant
    cube = mul([3], mul(mul([1, 1, 1], [1, 1, 1], 7), [1, 1, 1], 7), 7)
    assert polyfp.is_perfect_power(cube, 7, 3)
    assert not polyfp.is_perfect_power(cube, 7, 2)


def test_degree_guard():
    # x**5 over F_5 has one root of multiplicity p, which the derivative
    # does not lower: the gcd chain needs deg f < p
    with pytest.raises(ValueError):
        polyfp.distinct_root_count([0, 0, 0, 0, 0, 1], 5)
    with pytest.raises(ValueError):
        polyfp.is_perfect_power([0, 0, 0, 0, 0, 1], 5, 5)
    # the early answers come before the guard: deg f % d != 0, a constant
    assert not polyfp.is_perfect_power([0, 0, 0, 0, 0, 1], 5, 2)
    assert polyfp.is_perfect_power([3], 5, 5)
    for fn, args in ((polyfp.distinct_root_count, ()), (polyfp.is_perfect_power, (2,))):
        with pytest.raises(ValueError):
            fn([], 7, *args)
        with pytest.raises(ValueError):
            fn([0, 7], 7, *args)  # zero mod p


def test_evaluate():
    # 2x^2 + 3x + 1 at x = 4 mod 7: 32 + 12 + 1 = 45 = 3
    assert polyfp.evaluate([1, 3, 2], 4, 7) == 3
