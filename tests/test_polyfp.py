import random

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
            for x, y in polyfp._pad(mul(q, b, p), r)
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


def _from_roots(roots_with_mult, p, lead=1):
    f = [lead % p]
    for r, m in roots_with_mult:
        for _ in range(m):
            f = mul(f, [(-r) % p, 1], p)
    return f


def test_squarefree_decomposition_reconstructs():
    rng = random.Random(6)
    for _ in range(150):
        p = rng.choice((13, 31, 101))  # total degree (<= 9) must stay below p
        n_roots = rng.randint(1, 3)
        roots = rng.sample(range(p), n_roots)
        mults = [rng.randint(1, 3) for _ in roots]
        lead = rng.randint(1, p - 1)
        f = _from_roots(list(zip(roots, mults)), p, lead)
        lc, factors = polyfp.squarefree_decomposition(f, p)
        assert lc == lead
        recon = [lc]
        for a, m in factors:
            for _ in range(m):
                recon = mul(recon, a, p)
        assert recon == f
        assert polyfp.distinct_root_count(f, p) == n_roots


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
    with pytest.raises(ValueError):
        polyfp.squarefree_decomposition([0, 0, 0, 0, 0, 1], 5, )
    with pytest.raises(ValueError):
        polyfp.squarefree_decomposition([], 7)


def test_evaluate():
    # 2x^2 + 3x + 1 at x = 4 mod 7: 32 + 12 + 1 = 45 = 3
    assert polyfp.evaluate([1, 3, 2], 4, 7) == 3
