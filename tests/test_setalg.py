import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_affine, naive_productset, naive_sumset, nonzero_set, refused
from ffdecomp import setalg
from ffdecomp.errors import DuplicateShift, MixedModulus
from ffdecomp.fpcore import primes_up_to
from ffdecomp.setalg import (
    FpSet,
    affine,
    bit_elements,
    bits_from,
    format_set,
    growth_product,
    intersect_shifts,
    iterated_sumset,
    parse_set,
    productset,
    sumset,
)

PRIMES = (5, 7, 11, 13, 17, 23)


def fpset(p, *elems):
    return FpSet.from_elements(p, elems)


def test_sumset_examples():
    assert sumset(fpset(7, 1, 2), fpset(7, 0, 3)) == fpset(7, 1, 2, 4, 5)
    assert sumset(FpSet(7, 0), fpset(7, 1, 2)) == FpSet(7, 0)
    assert sumset(fpset(13, 1, 5, 8, 12), fpset(13, 0)) == fpset(13, 1, 5, 8, 12)


def test_productset_examples():
    assert productset(fpset(7, 1, 6), fpset(7, 1, 2, 3)) == fpset(7, 1, 2, 3, 4, 5, 6)
    assert productset(fpset(7, 0), fpset(7, 1, 2)) == fpset(7, 0)
    full = fpset(7, 2, 3, 5)
    assert productset(fpset(7, 1), full) == full


def test_affine_examples():
    assert affine(fpset(7, 1, 2, 4), 3, 0) == fpset(7, 3, 6, 5)
    a = fpset(7, 2, 5, 6)
    assert affine(a, 1, 0) == a
    assert affine(fpset(7, 1, 2), 0, 5) == fpset(7, 5)


def test_iterated_sumset_examples():
    assert iterated_sumset(fpset(7, 0, 1), 3) == fpset(7, 0, 1, 2, 3)
    a = fpset(7, 2, 3)
    assert iterated_sumset(a, 1) == a
    assert iterated_sumset(fpset(7, 0), 5) == fpset(7, 0)
    with pytest.raises(ValueError):
        iterated_sumset(a, 0)


def test_iterated_sumset_matches_repeated_sumset():
    import random

    rng = random.Random(3)
    for _ in range(60):
        p = rng.choice(PRIMES)
        a = FpSet(p, rng.getrandbits(p) & ((1 << p) - 1) or 1)
        k = rng.randint(1, 9)
        expected = a
        for _ in range(k - 1):
            expected = sumset(expected, a)
        assert iterated_sumset(a, k) == expected


def test_intersect_shifts_examples():
    g = fpset(7, 1, 2, 4)
    assert intersect_shifts(g, [3]) == fpset(7, 0, 4, 5)
    assert intersect_shifts(g, [3, 5]) == fpset(7, 0)
    assert intersect_shifts(FpSet(7, 0), [1, 2]) == FpSet(7, 0)
    with pytest.raises(DuplicateShift):
        intersect_shifts(g, [1, 1])
    with pytest.raises(ValueError):
        intersect_shifts(g, [])


def test_growth_product_examples():
    grown = growth_product(fpset(13, 1, 5, 8, 12), 1)
    assert grown.elements() == [0, 2, 3, 4, 6, 7, 9, 10, 11]
    assert len(grown) == 9
    assert growth_product(fpset(7, 1), 1) == fpset(7, 2)
    # b = 0 degenerates to plain A*A
    a = fpset(7, 1, 2, 4)
    assert growth_product(a, 0) == productset(a, a)


def test_growth_product_conjugation_identity_explicit():
    # both sides computed here, independent of the internal assertion
    import random

    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice(PRIMES)
        a = FpSet(p, rng.getrandbits(p) & ((1 << p) - 1))
        b = rng.randint(1, p - 1)
        direct = productset(a, affine(a, 1, b))
        binv = pow(b, -1, p)
        scaled = affine(a, binv, 0)
        conjugated = affine(productset(scaled, affine(scaled, 1, 1)), b * b % p, 0)
        assert direct == conjugated
        assert growth_product(a, b) == direct


def test_growth_product_refuses_a_broken_conjugation(monkeypatch):
    # the conjugated route scales through affine; an empty result there
    # must be caught, not returned
    monkeypatch.setattr(setalg, "affine", lambda s, lam, mu: FpSet(s.p, 0))
    with refused(AssertionError, "conjugation identity violated at p=7, b=3"):
        growth_product(fpset(7, 1, 2), 3)


def test_mixed_modulus_rejected():
    with pytest.raises(MixedModulus):
        sumset(fpset(7, 1), fpset(11, 1))
    with pytest.raises(MixedModulus):
        productset(fpset(7, 1), fpset(11, 1))


def test_set_basics():
    s = fpset(7, 5, 1)
    assert len(s) == 2
    assert list(s) == [1, 5]
    assert 5 in s and 2 not in s
    assert s.translate(2) == fpset(7, 3, 0)
    with pytest.raises(ValueError):
        FpSet(7, 1 << 7)
    # equal and hashable on (p, bits), and immutable
    assert s == FpSet(7, 0b100010) and hash(s) == hash(FpSet(7, 0b100010))
    assert s != FpSet(11, s.bits) and s != (7, s.bits)
    with pytest.raises(AttributeError):
        s.bits = 0
    # a process pool pickles sets; a slotted class whose __setattr__ refuses
    # unpickles only through __reduce__
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(s, protocol))
        assert back == s and type(back) is FpSet


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sumset_productset_match_naive_oracle(data):
    p = data.draw(st.sampled_from(PRIMES))
    mask = (1 << p) - 1
    a = FpSet(p, data.draw(st.integers(0, mask)))
    b = FpSet(p, data.draw(st.integers(0, mask)))
    assert set(sumset(a, b)) == naive_sumset(a, b)
    assert set(productset(a, b)) == naive_productset(a, b)
    assert sumset(a, b) == sumset(b, a)
    assert productset(a, b) == productset(b, a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_affine_matches_naive_oracle(data):
    p = data.draw(st.sampled_from(PRIMES))
    a = FpSet(p, data.draw(st.integers(0, (1 << p) - 1)))
    lam = data.draw(st.integers(0, p - 1))
    mu = data.draw(st.integers(0, p - 1))
    assert set(affine(a, lam, mu)) == naive_affine(a, lam, mu)
    if lam != 0:
        inv = pow(lam, -1, p)
        assert affine(affine(a, lam, mu), inv, (-inv * mu) % p) == a


def test_productset_dlog_path_matches_schoolbook():
    import random

    rng = random.Random(5)
    for _ in range(80):
        p = rng.choice(PRIMES)
        a = FpSet(p, rng.getrandbits(p) & ((1 << p) - 1))
        b = FpSet(p, rng.getrandbits(p) & ((1 << p) - 1))
        assert set(productset(a, b)) == naive_productset(a, b)


def test_cardinality_bounds():
    import random

    rng = random.Random(9)
    for _ in range(300):
        p = rng.choice(PRIMES)
        a = FpSet(p, rng.getrandbits(p) & ((1 << p) - 1))
        b = FpSet(p, rng.getrandbits(p) & ((1 << p) - 1))
        s = sumset(a, b)
        assert len(s) <= min(p, len(a) * len(b))
        if a.bits and b.bits:
            assert len(s) >= max(len(a), len(b))


def test_literal_roundtrip():
    assert parse_set("7:{1,2,4}") == fpset(7, 1, 2, 4)
    assert parse_set("11:{}") == FpSet(11, 0)
    s = fpset(13, 12, 0, 5)
    assert parse_set(format_set(s)) == s
    assert format_set(s) == "13:{0,5,12}"
    for bad in ("7", "x:{1}", "7:{a}", "7:[1]"):
        with pytest.raises(ValueError):
            parse_set(bad)


def _scan_one_bit_at_a_time(bits):
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _or_one_bit_at_a_time(positions):
    bits = 0
    for x in positions:
        bits |= 1 << x
    return bits


@st.composite
def bit_vectors(draw):
    """(n, bits): a dense vector of up to 4096 bits, or a sparse one of up to 2**20."""
    n = draw(st.integers(1, 1 << 20))
    if n <= 4096 and draw(st.booleans()):
        return n, draw(st.integers(0, (1 << n) - 1))
    positions = draw(st.lists(st.integers(0, n - 1), max_size=64))
    return n, _or_one_bit_at_a_time(positions)


@settings(max_examples=150, deadline=None)
@given(bit_vectors())
def test_bit_helpers_match_one_bit_loops(vector):
    n, bits = vector
    positions = _scan_one_bit_at_a_time(bits)
    assert bit_elements(bits) == positions
    assert bits_from(positions, n) == bits
    assert bits_from(positions + positions[::-1], n) == bits  # repeats are harmless


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 1048573, 1 << 20])
def test_bit_helpers_on_empty_top_and_full_vectors(n):
    full = (1 << n) - 1
    assert bit_elements(0) == [] and bits_from([], n) == 0
    assert bit_elements(1 << (n - 1)) == [n - 1]
    assert bits_from([n - 1], n) == 1 << (n - 1)
    assert bit_elements(full) == list(range(n))
    assert bits_from(range(n), n) == full
    if n <= 129:
        assert _scan_one_bit_at_a_time(full) == list(range(n))
        assert _or_one_bit_at_a_time(range(n)) == full


def test_productset_dlog_path_matches_schoolbook_for_every_small_prime():
    import random

    rng = random.Random(61)
    for p in primes_up_to(61):
        if p < 3:
            continue
        mask = (1 << p) - 1
        for density in (0.05, 0.3, 0.7, 1.0):
            for _ in range(6):
                a = FpSet(p, sum(1 << x for x in range(p) if rng.random() < density))
                b = FpSet(p, rng.getrandbits(p) & mask)
                assert set(productset(a, b)) == naive_productset(a, b), (p, a, b)


def test_growth_product_matches_schoolbook_for_every_small_prime_and_shift():
    import random

    rng = random.Random(1301)
    for p in primes_up_to(61):
        if p < 3:
            continue
        sets = [FpSet(p, rng.getrandbits(p) & ((1 << p) - 1)) for _ in range(3)]
        sets.append(nonzero_set(p))
        for b in range(p):
            for a in sets:
                expected = naive_productset(a, a.translate(b))
                assert set(growth_product(a, b)) == expected, (p, b, a)
