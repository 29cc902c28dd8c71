"""Shared brute-force oracles, and an in-process stand-in for process pools.

Every oracle here recomputes the quantity under test from first
principles (double loops, full enumeration), independent of the bitset
and search machinery it checks.
"""

from itertools import combinations

import pytest

from ffdecomp import cli
from ffdecomp.fpcore import primes_up_to
from ffdecomp.setalg import FpSet, cyclic_shift


@pytest.fixture
def in_process_pools(monkeypatch):
    """Swap cli's process pool for a stand-in that runs map lazily in this
    process and starts none; return the list of pools made, each with its
    size and the cancel_futures flag of its shutdown."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.size = max_workers
            self.cancelled = None
            pools.append(self)

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

        def shutdown(self, wait=True, cancel_futures=False):
            self.cancelled = cancel_futures

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    return pools


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes lo <= p <= hi, the list a seeded generator draws from."""
    return [p for p in primes_up_to(hi) if p >= lo]


def naive_sumset(a: FpSet, b: FpSet) -> set:
    return {(x + y) % a.p for x in a for y in b}


def naive_productset(a: FpSet, b: FpSet) -> set:
    return {(x * y) % a.p for x in a for y in b}


def naive_affine(a: FpSet, lam: int, mu: int) -> set:
    return {(lam * x + mu) % a.p for x in a}


def multiplicative_order(g: int, p: int) -> int:
    k, cur = 1, g % p
    while cur != 1:
        cur = cur * g % p
        k += 1
    return k


def oracle_decomposition_exists(s: FpSet, min_size: int = 2) -> bool:
    """Full enumeration over every subset B of Z_p with the maximal companion."""
    p, mask = s.p, (1 << s.p) - 1
    for b_bits in range(1, 1 << p):
        if b_bits.bit_count() < min_size:
            continue
        companion = mask
        elems = []
        bb = b_bits
        while bb:
            low = bb & -bb
            c = low.bit_length() - 1
            bb ^= low
            elems.append(c)
            companion &= cyclic_shift(s.bits, (p - c) % p, p)
        if companion.bit_count() < min_size:
            continue
        acc = 0
        for c in elems:
            acc |= cyclic_shift(companion, c, p)
        if acc == s.bits:
            return True
    return False


def oracle_decomposition_exists_normalized(s: FpSet) -> bool:
    """Whether S = A + B with #A, #B >= 2, enumerating only normalized B.

    Normalization: if S = A + B, pick b0 in B and pass to (A + b0, B - b0);
    the sum is unchanged and now 0 is in B, so A = A + 0 lies inside S.  Any
    a in A has a + B inside S, i.e. B is a subset of S - a that contains 0.
    The maximal companion C = {c : c + B inside S} contains A, so #C >= 2,
    and C + B = S since it lies inside S and contains A + B.  Hence trying,
    for every a in S, every B inside S - a with 0 in B, and testing its
    maximal companion, finds a decomposition whenever one exists; and
    every B it accepts gives a true one.

    That is #S * 2^(#S - 1) candidates instead of the 2^p subsets of
    oracle_decomposition_exists, so every proper subgroup with p <= 31 is
    in reach.  Only plain integers and sets are used.
    """
    p = s.p
    elems = sorted(s)
    members = set(elems)
    # bit c of minus[y] is set exactly when c + y lies in S
    minus = [sum(1 << ((x - y) % p) for x in elems) for y in range(p)]
    for a in elems:
        others = [(x - a) % p for x in elems if x != a]
        for k in range(1, len(others) + 1):
            for rest in combinations(others, k):
                companion = minus[0]
                for y in rest:
                    companion &= minus[y]
                if companion.bit_count() < 2:
                    continue
                cs = [c for c in range(p) if companion >> c & 1]
                if {(c + y) % p for c in cs for y in (0, *rest)} == members:
                    return True
    return False


def oracle_self_exists(s: FpSet) -> bool:
    p = s.p
    inv2 = pow(2, -1, p)
    domain = sorted(inv2 * x % p for x in s)
    n = len(domain)
    for a_bits in range(1, 1 << n):
        elems = [domain[i] for i in range(n) if a_bits >> i & 1]
        acc = 0
        for i, x in enumerate(elems):
            for y in elems[i:]:
                acc |= 1 << ((x + y) % p)
        if acc == s.bits:
            return True
    return False


def oracle_max_packing(s: FpSet) -> int:
    p, mask = s.p, (1 << s.p) - 1
    best = 0
    for b_bits in range(1, 1 << p):
        companion = mask
        bb = b_bits
        while bb:
            low = bb & -bb
            bb ^= low
            companion &= cyclic_shift(s.bits, (p - (low.bit_length() - 1)) % p, p)
        best = max(best, companion.bit_count() * b_bits.bit_count())
    return best
