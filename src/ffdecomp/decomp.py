"""Search engine for additive decompositions, self-sumsets, and packings.

All three searches enumerate the translate-normalized side B (0 in B, built
in ascending element order) and maintain the maximal companion
A_max(B) = intersection of S - b over b in B as a raw bit-vector.  Subtrees
die when the companion drops below the required size, when no extension can
reach the target product, or when the sorted sizes of the candidate
intersections cap every reachable product below the requirement.

For subgroup targets the whole configuration can be multiplied by any
subgroup element, so the first nonzero element of B is restricted to the
minimum of its multiplicative coset; this is a pure symmetry quotient and
discards no decomposition class.

Budget: a node is one candidate examined, counting the first element of
each partition (and, for decomposition and packing, the root B = {0}).
When the count reaches node_budget the search stops with nodes_explored
equal to node_budget: a search that needs N nodes stops under any budget
up to N and runs unchanged under N + 1.  Decomposition and packing charge
all candidates of a node at once, after the node's prunes.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

from . import fpcore
from .errors import EmptyB
from .reports import json_ready
from .setalg import FpSet, bit_elements, bits_from, cyclic_shift

MODE_DECOMPOSITION = "decomposition"
MODE_SELF = "self_decomposition"
MODE_PACKING = "packing"

_MODES = (MODE_DECOMPOSITION, MODE_SELF, MODE_PACKING)

STATUS_FOUND = "found"
STATUS_EXHAUSTED = "exhausted_none"
STATUS_BUDGET = "budget_exceeded"


@dataclass(frozen=True)
class DecompQuery:
    """Target set plus search mode and resource limits.

    min_size bounds min{#A, #B} (2 = nontrivial); self-decomposition ignores
    it and accepts any nonempty A.  subgroup_d declares that S is the group
    of d-th powers, enabling the multiplicative symmetry quotient and exact
    subgroup pruning; it is verified at search start.
    """

    S: FpSet
    mode: str
    min_size: int = 2
    node_budget: int = 10**8
    time_budget: float = 300.0
    b_size_cap: int | None = None
    max_witnesses: int = 1
    subgroup_d: int | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.min_size < 1:
            raise ValueError("min_size must be >= 1")
        if self.node_budget < 1 or self.time_budget <= 0:
            raise ValueError("budgets must be positive")
        if self.b_size_cap is not None and self.b_size_cap < 1:
            raise ValueError("b_size_cap must be >= 1 when given")
        if self.max_witnesses < 1:
            raise ValueError("max_witnesses must be >= 1")


@dataclass
class DecompReport:
    """Search outcome.  A status of exhausted_none certifies that the full
    normalized space was covered with no budget interruption."""

    status: str
    witnesses: list
    nodes_explored: int
    elapsed: float
    extras: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "type": "decomp",
            "status": self.status,
            "witnesses": [{"A": a.elements(), "B": b.elements()} for a, b in self.witnesses],
            "nodes_explored": self.nodes_explored,
            "elapsed": self.elapsed,
            "extras": json_ready(self.extras),
        }


def max_companion(s: FpSet, b: FpSet) -> FpSet:
    """The unique maximal A with A + B contained in S: intersection of S - b."""
    if b.bits == 0:
        raise EmptyB("companion of the empty set is unconstrained")
    p = s.p
    out = (1 << p) - 1
    for elem in b:
        out &= cyclic_shift(s.bits, p - elem, p)
        if not out:
            break
    return FpSet(p, out)


class _Stop(Exception):
    """Budget exhausted."""


class _Done(Exception):
    """Witness quota reached."""


_TRANS_MEMO: dict = {}


def _trans_table(p: int, s_bits: int) -> list[int]:
    """trans[c] = S - c as a bit-vector; memoized so the partitions of one
    search share a single table (one slot is enough for that)."""
    key = (p, s_bits)
    cached = _TRANS_MEMO.get(key)
    if cached is None:
        cached = [cyclic_shift(s_bits, (p - c) % p, p) for c in range(p)]
        _TRANS_MEMO.clear()
        _TRANS_MEMO[key] = cached
    return cached


class _Ctx:
    __slots__ = (
        "p",
        "s_bits",
        "floor",
        "packing",
        "trans",
        "min_size",
        "cap",
        "max_wit",
        "node_budget",
        "deadline",
        "nodes",
        "budget_hit",
        "witnesses",
    )

    def __init__(
        self, p, s_bits, floor, packing, min_size, cap, max_wit, node_budget, deadline
    ):
        self.p = p
        self.s_bits = s_bits
        # An accepted (A, B) has #A * #B > floor: #S - 1 when deciding
        # S = A + B, the best product so far when packing.
        self.floor = floor
        self.packing = packing
        self.trans = _trans_table(p, s_bits)
        self.min_size = min_size
        self.cap = cap if cap is not None else p
        self.max_wit = max_wit
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes = 0
        self.budget_hit = False
        self.witnesses = []

    def tick(self, n=1):
        """Charge n examined candidates; stop exactly on the node budget, and
        on the deadline, checked whenever the count crosses a multiple of 2048."""
        before = self.nodes
        self.nodes = before + n
        if self.nodes >= self.node_budget:
            self.nodes = self.node_budget
            self.budget_hit = True
            raise _Stop
        if before >> 11 != self.nodes >> 11 and time.monotonic() > self.deadline:
            self.budget_hit = True
            raise _Stop


def _naive_sum_bits(a_elems, b_elems, p):
    out = 0
    for x in a_elems:
        for y in b_elems:
            out |= 1 << ((x + y) % p)
    return out


def _emit_pair(ctx, a_bits, b_list, require_equal):
    """Re-verify a candidate witness with the schoolbook sumset, then record it."""
    a_elems = bit_elements(a_bits)
    check = _naive_sum_bits(a_elems, b_list, ctx.p)
    if require_equal:
        if check != ctx.s_bits:
            raise AssertionError("corrupted witness: sumset does not equal the target")
    else:
        if check & ~ctx.s_bits:
            raise AssertionError("corrupted witness: sumset leaves the target")
    pair = (FpSet(ctx.p, a_bits), FpSet.from_elements(ctx.p, b_list))
    ctx.witnesses.append(pair)


def _dfs(ctx, b_list, a_bits, a_size, cands, start):
    """Extend B by the candidates cands[start:], which share the parent's list."""
    nb = len(b_list)
    if nb > a_size or nb > ctx.cap:
        return
    ms = ctx.min_size
    if nb >= ms and a_size >= ms and a_size * nb > ctx.floor:
        if ctx.packing:
            ctx.floor = a_size * nb
            ctx.witnesses = []
            _emit_pair(ctx, a_bits, b_list, require_equal=False)
        else:
            acc = 0
            for b in b_list:
                acc |= cyclic_shift(a_bits, b, ctx.p)
            if acc == ctx.s_bits:
                _emit_pair(ctx, a_bits, b_list, require_equal=True)
                if len(ctx.witnesses) >= ctx.max_wit:
                    raise _Done
    n = len(cands) - start
    if n <= 0:
        return
    bound_b = min(nb + n, a_size, ctx.cap)
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
        if size_b > tj or size_b > ctx.cap:
            break
        if size_b >= ms and tj * size_b > ctx.floor:
            feasible = True
            break
    if not feasible:
        return
    for i, c in enumerate(kept):
        _dfs(ctx, b_list + [c], kept_bits[i], sizes[i], kept, i + 1)


def _dfs_self(ctx, a_list, a_bits, sum_bits, cands):
    if sum_bits == ctx.s_bits:
        a_elems = bit_elements(a_bits)
        if _naive_sum_bits(a_elems, a_elems, ctx.p) != ctx.s_bits:
            raise AssertionError("corrupted witness: A + A does not equal the target")
        a_set = FpSet(ctx.p, a_bits)
        ctx.witnesses.append((a_set, a_set))
        if len(ctx.witnesses) >= ctx.max_wit:
            raise _Done
    if not cands:
        return
    # Everything a descendant can still cover: (A union R) + R.
    p = ctx.p
    pool = a_bits
    for c in cands:
        pool |= 1 << c
    future = sum_bits
    for c in cands:
        future |= cyclic_shift(pool, c, p)
    if ctx.s_bits & ~future:
        return
    trans = ctx.trans
    for i, c in enumerate(cands):
        ctx.tick()
        if a_bits & ~trans[c]:
            continue  # some a + c falls outside S
        new_a = a_bits | (1 << c)
        new_sum = sum_bits | cyclic_shift(a_bits, c, p) | (1 << (2 * c % p))
        _dfs_self(ctx, a_list + [c], new_a, new_sum, cands[i + 1 :])


def _coset_minimum_firsts(p: int, d: int) -> list[int]:
    """Minimum element of each coset of the d-th powers in F_p^*."""
    fld = fpcore.make_field(p)
    firsts = [-1] * d
    for x in range(1, p):
        c = fld.dlog[x] % d
        if firsts[c] < 0:
            firsts[c] = x
    return sorted(firsts)


def _symmetry_setup(query: DecompQuery) -> list[int] | None:
    """Validate a declared subgroup target and return allowed first elements."""
    d = query.subgroup_d
    if d is None:
        return None
    p = query.S.p
    fld = fpcore.make_field(p)
    if d < 2 or (p - 1) % d != 0:
        raise ValueError(f"subgroup_d = {d} is not a proper divisor context for p = {p}")
    expected = fpcore.subgroup(fld, d).elements
    if expected != query.S:
        raise ValueError("declared subgroup target does not match S")
    return _coset_minimum_firsts(p, d)


def _self_domain_bits(s_bits: int, p: int) -> int:
    """Elements a with a + a in S; for odd p this is the dilation of S by 2^-1."""
    inv2 = pow(2, -1, p)
    return bits_from([inv2 * s % p for s in bit_elements(s_bits)], p)


def _partition_payloads(query: DecompQuery, allowed_firsts, deadline, floor):
    """One payload per allowed first element; node_budget is set by the caller."""
    p = query.S.p
    if query.mode == MODE_SELF:
        domain = bit_elements(_self_domain_bits(query.S.bits, p))
        allow = set(domain if allowed_firsts is None else allowed_firsts)
        parts = [(a1, [c for c in domain if c > a1]) for a1 in domain if a1 in allow]
    else:
        firsts = allowed_firsts if allowed_firsts is not None else list(range(1, p))
        parts = [(b1, list(range(b1 + 1, p))) for b1 in firsts]
    base = {
        "mode": query.mode,
        "p": p,
        "s_bits": query.S.bits,
        "floor": floor,
        "min_size": query.min_size,
        "cap": query.b_size_cap,
        "max_wit": query.max_witnesses,
        "deadline": deadline,
    }
    return [dict(base, first=first, cands=cands) for first, cands in parts]


def _run_partition(payload: dict) -> dict:
    """Explore one first-element partition; used directly and via worker pools."""
    mode = payload["mode"]
    ctx = _Ctx(
        payload["p"],
        payload["s_bits"],
        payload["floor"],
        mode == MODE_PACKING,
        payload["min_size"],
        payload["cap"],
        payload["max_wit"],
        payload["node_budget"],
        payload["deadline"],
    )
    first = payload["first"]
    try:
        ctx.tick()
        if mode == MODE_SELF:
            a_bits = 1 << first
            sum_bits = 1 << (2 * first % ctx.p)
            _dfs_self(ctx, [first], a_bits, sum_bits, payload["cands"])
        else:
            a_bits = ctx.s_bits & ctx.trans[first]
            t = a_bits.bit_count()
            if t >= max(ctx.min_size, 2):
                _dfs(ctx, [0, first], a_bits, t, payload["cands"], 0)
    except (_Stop, _Done):
        pass
    return {
        "witnesses": [(a.bits, b.bits) for a, b in ctx.witnesses],
        "nodes": ctx.nodes,
        "budget_hit": ctx.budget_hit,
        "best": ctx.floor,
    }


def _finish(query, status, witnesses, nodes, started, extras=None):
    return DecompReport(
        status=status,
        witnesses=witnesses,
        nodes_explored=nodes,
        elapsed=time.monotonic() - started,
        extras=extras or {},
    )


def find_additive_decompositions(query: DecompQuery, workers: int = 1) -> DecompReport:
    """Search for S = A + B with min{#A, #B} >= query.min_size.

    Normalization: 0 in B and #B <= #A (translation and swap symmetry), with
    A always the maximal companion of B.  exhausted_none is reported only
    when the whole normalized space was covered within budget.
    """
    if query.mode != MODE_DECOMPOSITION:
        raise ValueError("query.mode must be 'decomposition'")
    if query.S.bits == 0:
        raise ValueError("target set must be nonempty")
    started = time.monotonic()
    p = query.S.p
    n_s = len(query.S)
    allowed = _symmetry_setup(query)
    witnesses: list = []
    nodes = 1  # root B = {0}
    if query.min_size <= 1:
        witnesses.append((query.S, FpSet.from_elements(p, [0])))
    if len(witnesses) >= query.max_witnesses:
        return _finish(query, STATUS_FOUND, witnesses, nodes, started)
    if n_s < query.min_size:
        # #(A+B) >= max(#A, #B) >= min_size exceeds #S: nothing to search
        return _finish(query, STATUS_EXHAUSTED, witnesses, nodes, started)
    return _drive(query, allowed, witnesses, nodes, started, n_s - 1, workers=workers)


def find_self_decomposition(query: DecompQuery, workers: int = 1) -> DecompReport:
    """Search for any nonempty A with A + A = S (min_size is not applied:
    the non-representability statement quantifies over every A)."""
    if query.mode != MODE_SELF:
        raise ValueError("query.mode must be 'self_decomposition'")
    if query.S.bits == 0:
        raise ValueError("target set must be nonempty")
    started = time.monotonic()
    allowed = _symmetry_setup(query)
    return _drive(query, allowed, [], 0, started, 0, workers=workers)


def max_packing(query: DecompQuery, workers: int = 1) -> DecompReport:
    """Maximize #A * #B subject to A + B contained in S.

    The first witness attaining the maximum in canonical search order is
    returned; extras carry the product.  When no pair meets min_size the
    status is exhausted_none (product 0), or budget_exceeded if the budget
    ran out first.
    """
    if query.mode != MODE_PACKING:
        raise ValueError("query.mode must be 'packing'")
    if query.S.bits == 0:
        raise ValueError("target set must be nonempty")
    started = time.monotonic()
    p = query.S.p
    allowed = _symmetry_setup(query)
    witnesses: list = []
    nodes = 1
    best = 0
    if query.min_size <= 1:
        best = len(query.S)
        witnesses.append((query.S, FpSet.from_elements(p, [0])))
    return _drive(query, allowed, witnesses, nodes, started, best, workers=workers)


def run_query(query: DecompQuery, workers: int = 1) -> DecompReport:
    if query.mode == MODE_DECOMPOSITION:
        return find_additive_decompositions(query, workers=workers)
    if query.mode == MODE_SELF:
        return find_self_decomposition(query, workers=workers)
    return max_packing(query, workers=workers)


def _drive(query, allowed, witnesses, nodes, started, floor, workers: int = 1):
    """Run every partition and merge their results.  floor seeds _Ctx.floor;
    when packing it is the product of the witness already in witnesses (0 if
    there is none)."""
    packing = query.mode == MODE_PACKING
    payloads = _partition_payloads(query, allowed, started + query.time_budget, floor)
    budget_hit = False
    best = floor

    def merge(result) -> bool:
        """Fold one partition's result in; True once the witness quota is met."""
        nonlocal nodes, budget_hit, best
        nodes += result["nodes"]
        budget_hit = budget_hit or result["budget_hit"]
        got = _revive(query.S.p, result["witnesses"])
        if packing:
            if result["best"] > best and got:
                best = result["best"]
                witnesses[:] = got[-1:]
            return False
        witnesses.extend(got[: query.max_witnesses - len(witnesses)])
        return len(witnesses) >= query.max_witnesses

    if workers <= 1 or len(payloads) <= 1:
        # serial: each partition gets whatever node budget is left
        for payload in payloads:
            remaining = query.node_budget - nodes
            if remaining <= 0:
                budget_hit = True
                break
            payload["node_budget"] = remaining
            if packing:
                payload["floor"] = best
            else:
                # stop the partition once the query's open quota is met
                payload["max_wit"] = query.max_witnesses - len(witnesses)
            if merge(_run_partition(payload)):
                break
    else:
        per_part = max(1, (query.node_budget - nodes) // max(1, len(payloads)))
        for payload in payloads:
            payload["node_budget"] = per_part
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(payloads) // (workers * 4))
            for result in pool.map(_run_partition, payloads, chunksize=chunk):
                merge(result)
    if budget_hit and (packing or not witnesses):
        status = STATUS_BUDGET  # packing: a larger product may lie in the unsearched part
    elif witnesses:
        status = STATUS_FOUND
    else:
        status = STATUS_EXHAUSTED
    extras = {"product": best} if packing else None
    return _finish(query, status, witnesses, nodes, started, extras)


def _revive(p, packed):
    return [(FpSet(p, a), FpSet(p, b)) for a, b in packed]
