"""Shared brute-force oracles, the checks and instance generators that
only tests run, an in-process stand-in for process pools, and a field-table
cache of the session's own.

Every oracle here recomputes the quantity under test from first
principles (double loops, full enumeration), independent of the bitset
and search machinery it checks.
"""

import concurrent.futures
import math
import random
from contextlib import contextmanager
from itertools import combinations

import pytest

from ffdecomp.charsum import RootOfUnityTally
from ffdecomp.decomp import _emit_pair
from ffdecomp.fpcore import primes_up_to, subgroup
from ffdecomp.setalg import FpSet, bits_from, cyclic_shift


@pytest.fixture(scope="session", autouse=True)
def session_field_cache(tmp_path_factory):
    """Point FFDECOMP_CACHE_DIR at a fresh directory for the whole session,
    so no test reads or writes the user's cache; the old value comes back
    afterwards.  Tests that set or unset the variable themselves still may."""
    cache = tmp_path_factory.mktemp("field-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FFDECOMP_CACHE_DIR", str(cache))
        yield cache


@pytest.fixture
def in_process_pools(monkeypatch):
    """Swap the process pool that cli imports when a sweep asks for workers
    for a stand-in that runs map lazily in this process and starts none;
    return the list of pools made, each with its
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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return pools


@contextmanager
def refused(error: type, message: str):
    """The block must raise exactly this exception type with this message."""
    with pytest.raises(error) as info:
        yield
    assert (info.type, str(info.value)) == (error, message)


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes lo <= p <= hi, the list a seeded generator draws from."""
    return [p for p in primes_up_to(hi) if p >= lo]


def nonzero_set(p: int) -> FpSet:
    """F_p^* = {1, ..., p - 1} as an FpSet."""
    return FpSet(p, ((1 << p) - 1) ^ 1)


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
    domain = [a for a in range(p) if 2 * a % p in s]  # every a with a + a in S
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


def reference_self_search(s: FpSet, max_witnesses: int = 1):
    """Self mode as the engine searched it before its candidates were
    filtered, on plain ints, with no budget: (status, [A, ...]).

    A grows in ascending order from each partition's first element through
    the untested tail R of the a with a + a in S.  A node is cut when
    (A union R) + R, everything a descendant can still add, misses part of
    S; each candidate c of R is then tested for A + c inside S.  When S is a
    subgroup G_d (p prime, n = #S, x**n == 1 on S) a partition starts only
    at the least x of each class of x**n, a coset minimum.  The search stops
    at max_witnesses witnesses.
    """
    p, target = s.p, s.bits
    full = (1 << p) - 1

    def rotate(bits, k):  # {x + k}
        k %= p
        return ((bits << k) | (bits >> (p - k))) & full

    domain = [a for a in range(p) if 2 * a % p in s]
    n = len(s)
    firsts = set(domain)
    if (p - 1) % n == 0 and all(pow(x, n, p) == 1 for x in s) and all(
        p % q for q in range(2, math.isqrt(p) + 1)
    ):
        minima = {}
        for x in range(1, p):
            minima.setdefault(pow(x, n, p), x)
        firsts = set(minima.values())
    witnesses = []

    def dfs(a, sums, tail):
        """True once the quota is met."""
        if sums == target:
            witnesses.append(FpSet(p, a))
            if len(witnesses) == max_witnesses:
                return True
        pool = a
        for c in tail:
            pool |= 1 << c
        future = sums
        for c in tail:
            future |= rotate(pool, c)
        if target & ~future:
            return False
        for i, c in enumerate(tail):
            if a & ~rotate(target, -c):
                continue  # some a + c falls outside S
            new_sums = sums | rotate(a, c) | 1 << (2 * c % p)
            if dfs(a | 1 << c, new_sums, tail[i + 1:]):
                return True
        return False

    for i, first in enumerate(domain):
        if first in firsts and dfs(1 << first, 1 << (2 * first % p), domain[i + 1:]):
            break
    return ("found" if witnesses else "exhausted_none"), witnesses


def reference_dfs(ctx, b_list, a_bits, a_size, cands, start):
    """The decomposition and packing kernel as it was before the miss-count
    test, kept verbatim: every node sizes all its candidates and then runs
    the sorted-size test.  A search runs on it when decomp._dfs is swapped
    for it (its root call passes tail_bits, which this kernel drops).

    Extend B (#B <= #A: the root has #B = 2, a child #A >= need) by the
    candidates cands[start:], which share the parent's list."""
    nb = len(b_list)
    ms = ctx.min_size
    if nb >= ms and a_size >= ms and a_size * nb > ctx.floor:
        if ctx.packing:
            _emit_pair(ctx, a_bits, b_list)
        else:
            acc = 0
            for b in b_list:
                acc |= cyclic_shift(a_bits, b, ctx.p)
            if acc == ctx.s_bits:
                _emit_pair(ctx, a_bits, b_list)
    n = len(cands) - start
    if n <= 0:
        return
    bound_b = min(nb + n, a_size)
    if bound_b < ms or a_size * bound_b <= ctx.floor:
        return
    # Every candidate is examined below and the loop has no other effect,
    # so charging them in one go stops the budget on the same count.
    ctx.tick(n)
    trans = ctx.trans
    need = max(ms, nb + 1)
    kept = []
    kept_bits = []
    sizes = []
    for c in cands[start:]:
        child = a_bits & trans[c]
        t = child.bit_count()
        if t >= need:
            kept.append(c)
            kept_bits.append(child)
            sizes.append(t)
    if not kept:
        return
    sizes_desc = sorted(sizes, reverse=True)
    feasible = False
    for j, tj in enumerate(sizes_desc, start=1):
        size_b = nb + j
        if size_b > tj:
            break
        if size_b >= ms and tj * size_b > ctx.floor:
            feasible = True
            break
    if not feasible:
        return
    # The child's own bound_b test, run here so that a child which could
    # neither emit nor extend costs no call: its bound_b is at least its #B
    # = nb + 1, so failing the test also rules out its emit.  ctx.floor is
    # read on every pass, since packing raises it inside this loop.
    last = len(kept) + nb
    for i, c in enumerate(kept):
        t = sizes[i]
        child_bound = min(last - i, t)
        if child_bound >= ms and t * child_bound > ctx.floor:
            reference_dfs(ctx, b_list + [c], kept_bits[i], t, kept, i + 1)


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


def interval_reference(p: int, m: int, n: int, a: FpSet, b: FpSet):
    """The counts of experiments.interval_mult_report the way it once took
    them: (J, J_fourier, is_decomposition).  J counts the pairs with a*b in
    the interval {m+1, ..., m+n} by a double loop; J_fourier expands both
    indicators through the full p x p phase matrix e(-lam * x / p)."""
    import numpy as np

    interval = {(m + i) % p for i in range(1, n + 1)}
    prods = [x * y % p for x in a for y in b]
    ind = np.zeros(p)
    ind[sorted(interval)] = 1.0
    counts = np.bincount(prods, minlength=p).astype(np.float64)
    phases = np.exp(-2j * np.pi / p * np.outer(np.arange(p), np.arange(p)))
    j_fourier = float((np.conj(phases @ ind) * (phases @ counts)).sum().real / p)
    return sum(u in interval for u in prods), j_fourier, set(prods) == interval


def exact_int(tally: RootOfUnityTally):
    """Exact integer value of the tally when the count pattern makes one
    recognizable.

    Covers the patterns arising from full character-group sums: counts
    constant on the multiples of some g | d and zero elsewhere (value 0
    unless the support is just {0}).  Returns None otherwise.
    """
    support = [r for r, c in enumerate(tally.counts) if c]
    if not support:
        return 0
    if support == [0]:
        return tally.counts[0]
    g = 0
    for r in support:
        g = math.gcd(g, r)
    g = math.gcd(g, tally.d)
    if support != list(range(0, tally.d, g)):
        return None
    level = tally.counts[support[0]]
    if any(tally.counts[r] != level for r in support):
        return None
    return 0  # level * (sum of all (d/g)-th roots of unity), d/g > 1


def indicator_identity_holds(fld, d: int) -> bool:
    """Exact check of d * [v in G_d] == sum over X_d of chi(v), all v != 0.

    Works per discrete-log class: the tally depends on v only through
    dlog(v) mod d, and its exact integer value must be d on the class of
    d-th powers and 0 elsewhere.
    """
    # Membership table must match the dlog divisibility criterion.
    dl = fld.dlog
    member_bits = bits_from([x for x in range(1, fld.p) if dl[x] % d == 0], fld.p)
    if member_bits != subgroup(fld.p, d).bits:
        return False
    for k_class in range(d):
        tally = RootOfUnityTally(d)
        for j in range(d):
            tally.counts[j * k_class % d] += 1
        if exact_int(tally) != (d if k_class == 0 else 0):
            return False
    return True


def random_fpset(rng: random.Random, p: int, nonempty: bool = True) -> FpSet:
    """Random subset with mixed density (each AND halves the expected size);
    with nonempty, an empty draw becomes one random element.  The draws are
    those of experiments.random_fpset."""
    bits = rng.getrandbits(p)
    for _ in range(rng.randint(0, 3)):
        bits &= rng.getrandbits(p)
    bits &= (1 << p) - 1
    if nonempty and bits == 0:
        bits = 1 << rng.randrange(p)
    return FpSet(p, bits)


def conjugation_instances(primes, count, seed):
    """Criterion 11's instances: a nonempty A and a shift b != 0."""
    for i in range(count):
        rng = random.Random(f"{seed}:conjugation:{i}")
        p = primes[rng.randrange(len(primes))]
        yield {"index": i, "p": p, "A": random_fpset(rng, p), "b": rng.randint(1, p - 1)}


def setalg_oracle_instances(primes, count, seed):
    """Criterion 12's instances: two subsets A and B, either may be empty."""
    for i in range(count):
        rng = random.Random(f"{seed}:setoracle:{i}")
        p = primes[rng.randrange(len(primes))]
        yield {
            "index": i,
            "p": p,
            "A": random_fpset(rng, p, nonempty=False),
            "B": random_fpset(rng, p, nonempty=False),
        }
