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
discards no decomposition class.  It is _coset_minima, which validates the
declared subgroup and returns the minima, plus one condition in _run's
partition loop.

Budget: a node is one candidate examined, counting the first element of
each partition (and, for decomposition and packing, the root B = {0}).
When the count reaches node_budget the search stops with nodes_explored
equal to node_budget: a search that needs N nodes stops under any budget
up to N and runs unchanged under N + 1.  Decomposition and packing charge
all candidates of a node at once, after the node's prunes.

One setup path serves all three modes: each entry point calls _run, which
builds one _Ctx from the query (clock, floor, node count, witnesses), seeds
the trivial pair (S, {0}) through _Ctx.accept when min_size allows, and
searches the partitions (one per first element) in order inside it, in the
calling process, a packing floor carrying from one partition to the next.
Every result, nodes_explored included, depends only on the query, except
where the deadline stops the search.  Parallelism lives one level up: a
sweep runs whole searches in a process pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

from . import fpcore
from .errors import ModulusTooLarge
from .setalg import FpSet, bit_elements, cyclic_shift

MODE_DECOMPOSITION = "decomposition"
MODE_SELF = "self_decomposition"
MODE_PACKING = "packing"

_MODES = (MODE_DECOMPOSITION, MODE_SELF, MODE_PACKING)

STATUS_FOUND = "found"
STATUS_EXHAUSTED = "exhausted_none"
STATUS_BUDGET = "budget_exceeded"

# The S - c table holds p rows of p bits, p**2/8 bytes; a search whose table
# would exceed this (p > 92681) is refused rather than run out of memory.
TABLE_BYTES_CAP = 1 << 30


@dataclass(frozen=True)
class DecompQuery:
    """Target set plus search mode and resource limits.

    min_size bounds min{#A, #B} (2 = nontrivial); self-decomposition ignores
    it and accepts any nonempty A.  subgroup_d declares that S is the group
    of d-th powers, enabling the multiplicative symmetry quotient (the first
    nonzero element of B is a coset minimum); it is verified at search start.
    """

    S: FpSet
    mode: str
    min_size: int = 2
    node_budget: int = 10**8
    time_budget: float = 300.0
    max_witnesses: int = 1
    subgroup_d: int | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.min_size < 1:
            raise ValueError("min_size must be >= 1")
        if self.node_budget < 1 or self.time_budget <= 0:
            raise ValueError("budgets must be positive")
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
        """The payload of this report's record: each witness pair becomes
        {"A": A, "B": B}, and the values, FpSets included, stay unconverted."""
        return {
            "type": "decomp",
            "status": self.status,
            "witnesses": [{"A": a, "B": b} for a, b in self.witnesses],
            "nodes_explored": self.nodes_explored,
            "elapsed": self.elapsed,
            "extras": self.extras,
        }


class _Stop(Exception):
    """Budget exhausted."""


class _Done(Exception):
    """Witness quota reached."""


class _Ctx:
    """One search: its limits, clock, node count, witnesses and floor, all
    set from the query."""

    __slots__ = (
        "p",
        "s_bits",
        "floor",
        "mode",
        "packing",
        "trans",
        "domain",
        "min_size",
        "max_wit",
        "node_budget",
        "started",
        "deadline",
        "nodes",
        "budget_hit",
        "witnesses",
    )

    def __init__(self, query):
        self.started = time.monotonic()
        self.deadline = self.started + query.time_budget
        p = query.S.p
        self.p = p
        self.s_bits = query.S.bits
        self.mode = query.mode
        self.packing = query.mode == MODE_PACKING
        # An accepted (A, B) has #A * #B > floor: #S - 1 when deciding
        # S = A + B, the best product so far when packing.
        self.floor = len(query.S) - 1 if query.mode == MODE_DECOMPOSITION else 0
        self.trans = None  # S - c for each c (p^2 bits): built by _run only to search
        # the candidates in ascending order; partition i starts with domain[i]
        # and extends by domain[i + 1:]
        if self.mode == MODE_SELF:
            # the a with a + a in S: for odd p, S dilated by 2^-1
            inv2 = pow(2, -1, p)
            self.domain = sorted(inv2 * s % p for s in bit_elements(self.s_bits))
        else:
            self.domain = list(range(1, p))
        self.min_size = query.min_size
        self.max_wit = query.max_witnesses
        self.node_budget = query.node_budget
        # decomposition and packing count the root B = {0} as a node
        self.nodes = 0 if query.mode == MODE_SELF else 1
        self.budget_hit = False
        self.witnesses = []

    def tick(self, n=1):
        """Charge n examined candidates; stop exactly on the node budget, and
        on the deadline, checked whenever the count crosses a multiple of
        2048."""
        before = self.nodes
        self.nodes = before + n
        if self.nodes >= self.node_budget:
            self.nodes = self.node_budget
            self.budget_hit = True
            raise _Stop
        if before >> 11 != self.nodes >> 11 and time.monotonic() > self.deadline:
            self.budget_hit = True
            raise _Stop

    def accept(self, a, b):
        """Take the verified pair (A, B).  When packing it is the new best and
        its product the new floor; otherwise it joins the witnesses, and the
        search stops once the quota is met."""
        if self.packing:
            self.floor = len(a) * len(b)
            self.witnesses = [(a, b)]
            return
        self.witnesses.append((a, b))
        if len(self.witnesses) >= self.max_wit:
            raise _Done


def _naive_sum_bits(a_elems, b_elems, p):
    out = 0
    for x in a_elems:
        for y in b_elems:
            out |= 1 << ((x + y) % p)
    return out


def _emit_pair(ctx, a_bits, b_list):
    """Re-verify a candidate witness with the schoolbook sumset, then accept it."""
    check = _naive_sum_bits(bit_elements(a_bits), b_list, ctx.p)
    if ctx.packing:
        if check & ~ctx.s_bits:
            raise AssertionError("corrupted witness: sumset leaves the target")
    elif check != ctx.s_bits:
        raise AssertionError("corrupted witness: sumset does not equal the target")
    ctx.accept(FpSet(ctx.p, a_bits), FpSet.from_elements(ctx.p, b_list))


def _dfs(ctx, b_list, a_bits, a_size, cands, start):
    """Extend B by the candidates cands[start:], which share the parent's list."""
    nb = len(b_list)
    if nb > a_size:
        return
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
            _dfs(ctx, b_list + [c], kept_bits[i], t, kept, i + 1)


def _dfs_self(ctx, a_bits, sum_bits, cands):
    if sum_bits == ctx.s_bits:
        _emit_pair(ctx, a_bits, bit_elements(a_bits))
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
        _dfs_self(ctx, new_a, new_sum, cands[i + 1 :])


def _coset_minima(query: DecompQuery) -> set[int] | None:
    """Validate a declared subgroup target and return the minimum element of
    each coset of the d-th powers in F_p^*; None when no subgroup is declared."""
    d = query.subgroup_d
    if d is None:
        return None
    p = query.S.p
    fld = fpcore.make_field(p)
    if d < 1 or (p - 1) % d != 0:
        raise ValueError(f"subgroup_d = {d} does not divide p - 1 = {p - 1}")
    if fpcore.subgroup(fld, d) != query.S:
        raise ValueError("declared subgroup target does not match S")
    minima = {}
    for x in range(1, p):
        minima.setdefault(fld.dlog[x] % d, x)
    return set(minima.values())


def _search(ctx, i):
    """Explore partition i inside the search's context."""
    first = ctx.domain[i]
    ctx.tick()
    if ctx.mode == MODE_SELF:
        _dfs_self(ctx, 1 << first, 1 << (2 * first % ctx.p), ctx.domain[i + 1 :])
        return
    a_bits = ctx.s_bits & ctx.trans[first]
    t = a_bits.bit_count()
    if t >= max(ctx.min_size, 2):
        _dfs(ctx, [0, first], a_bits, t, ctx.domain, i + 1)


def _run(query: DecompQuery, mode: str) -> DecompReport:
    """Check the query, seed the trivial pair, search the partitions whose
    first element is a coset minimum, in order, and report."""
    if query.mode != mode:
        raise ValueError(f"query.mode must be {mode!r}")
    if query.S.bits == 0:
        raise ValueError("target set must be nonempty")
    p = query.S.p
    # when deciding, #(A+B) >= max(#A, #B) >= min_size must not exceed #S
    searches = mode != MODE_DECOMPOSITION or len(query.S) >= query.min_size
    # refused before any setup: _Ctx and _coset_minima are linear in p
    if searches and p * p // 8 > TABLE_BYTES_CAP:
        raise ModulusTooLarge(
            f"p = {p}: a search table of p**2/8 bytes exceeds the 1 GiB cap (p <= 92681)"
        )
    ctx = _Ctx(query)
    minima = _coset_minima(query)
    try:
        if mode != MODE_SELF and query.min_size <= 1:
            ctx.accept(query.S, FpSet.from_elements(p, [0]))
        if searches:
            ctx.trans = [cyclic_shift(ctx.s_bits, (p - c) % p, p) for c in range(p)]
            for i, first in enumerate(ctx.domain):
                if minima is None or first in minima:
                    _search(ctx, i)
    except (_Stop, _Done):
        pass
    if ctx.budget_hit and (ctx.packing or not ctx.witnesses):
        status = STATUS_BUDGET  # packing: a larger product may lie in the unsearched part
    elif ctx.witnesses:
        status = STATUS_FOUND
    else:
        status = STATUS_EXHAUSTED
    return DecompReport(
        status=status,
        witnesses=ctx.witnesses,
        nodes_explored=ctx.nodes,
        elapsed=time.monotonic() - ctx.started,
        extras={"product": ctx.floor} if ctx.packing else {},
    )


def find_additive_decompositions(query: DecompQuery) -> DecompReport:
    """Search for S = A + B with min{#A, #B} >= query.min_size.

    Normalization: 0 in B and #B <= #A (translation and swap symmetry), with
    A always the maximal companion of B.  exhausted_none is reported only
    when the whole normalized space was covered within budget.
    """
    return _run(query, MODE_DECOMPOSITION)


def find_self_decomposition(query: DecompQuery) -> DecompReport:
    """Search for any nonempty A with A + A = S (min_size is not applied:
    the non-representability statement quantifies over every A)."""
    return _run(query, MODE_SELF)


def max_packing(query: DecompQuery) -> DecompReport:
    """Maximize #A * #B subject to A + B contained in S.

    The first witness attaining the maximum in canonical search order is
    returned; extras carry the product.  When no pair meets min_size the
    status is exhausted_none (product 0), or budget_exceeded if the budget
    ran out first.
    """
    return _run(query, MODE_PACKING)


def run_query(query: DecompQuery) -> DecompReport:
    if query.mode == MODE_DECOMPOSITION:
        return find_additive_decompositions(query)
    if query.mode == MODE_SELF:
        return find_self_decomposition(query)
    return max_packing(query)
