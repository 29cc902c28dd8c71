"""Search engine for additive decompositions, self-sumsets, and packings.

Decomposition and packing enumerate the translate-normalized side B (0 in
B, built in ascending element order) and maintain the maximal companion
A_max(B) = intersection of S - b over b in B as a raw bit-vector.  Subtrees
die when the companion drops below the required size, when no extension can
reach the target product, or when the sorted sizes of the candidate
intersections cap every reachable product below the requirement.  Before
sizing its candidates a node may run the miss count, a necessary condition
for that last test: it counts, over bit-sliced levels, the candidates c with
at most k elements a of A such that a + c is outside S, and dies when fewer
remain than the sorted sizes would need.  The count is exact integer
arithmetic, runs after the node is charged and cuts only nodes the sorted
sizes would cut, so it changes no tree, node count or result.  For k = 0
and k = 1, most of the counts, the levels are one or two running ANDs in
straight-line loops.  (j_lo, k) depends only on #B, #A, the number of
candidates that can join B and the floor; _dfs reads it from the search's
memo under that key and works it out (miss_plan) only on a miss.  Self mode
builds A itself in ascending order; a node's candidates are the c above
max(A) with c + A and c + c inside S, and a subtree dies when A and its
candidates together, m elements, have m(m + 1)/2 < #S pairwise sums, or when
some element of S is neither in A + A nor in (A | candidates) + candidates.

When S is a subgroup of F_p^* the whole configuration can be multiplied by
any element of S, so the first element of a partition (the first nonzero
element of B, or the least element of A in self mode) is restricted to the
minimum of its multiplicative coset; this is a pure symmetry quotient and
discards no decomposition class.  The search finds the subgroup itself
(DecompQuery.subgroup_d, from S alone).  _run labels each first element x by
x**#S, which names its coset, with no field table, and searches a partition
only when its label is new: the first elements ascend, so that element is
its coset's minimum.  It stops once all d labels have been seen.

Budget: a node is one candidate examined, counting the first element of
each partition (and, for decomposition and packing, the root B = {0}).
When the count reaches node_budget the search stops with nodes_explored
equal to node_budget: a search that needs N nodes stops under any budget
up to N and runs unchanged under N + 1.  Every mode charges a node's
candidates at once, after the node's prunes.

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

from .errors import ModulusTooLarge
from .fpcore import factorize
from .setalg import FpSet, bit_elements, bits_from, cyclic_shift

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


class DecompQuery:
    """Target set plus search mode and resource limits.

    min_size bounds min{#A, #B} (2 = nontrivial); self-decomposition ignores
    it and accepts any nonempty A.  When S is a subgroup of F_p^* (see
    subgroup_d) the search applies the multiplicative symmetry quotient: the
    first nonzero element of B, or in self mode the least element of A, is a
    coset minimum.  The first witness, and the first packing optimum, are the
    ones the unquotiented search reports; with max_witnesses > 1 the further
    witnesses are drawn only from partitions that start at a coset minimum.

    Immutable.  The defaults are class attributes, which the CLI reads as
    its flag defaults; so the fields live in the instance __dict__, since a
    slot and a class attribute cannot share a name.
    """

    min_size = 2
    node_budget = 10**8
    time_budget = 300.0
    max_witnesses = 1

    def __init__(
        self,
        S: FpSet,
        mode: str,
        min_size: int = min_size,
        node_budget: int = node_budget,
        time_budget: float = time_budget,
        max_witnesses: int = max_witnesses,
    ):
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if min_size < 1:
            raise ValueError("min_size must be >= 1")
        # not time_budget > 0, so that a NaN budget is refused: it would set no deadline
        if node_budget < 1 or not time_budget > 0:
            raise ValueError("budgets must be positive")
        if max_witnesses < 1:
            raise ValueError("max_witnesses must be >= 1")
        vars(self).update(
            S=S,
            mode=mode,
            min_size=min_size,
            node_budget=node_budget,
            time_budget=time_budget,
            max_witnesses=max_witnesses,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"DecompQuery is immutable: cannot set {name!r}")

    @property
    def subgroup_d(self) -> int | None:
        """d when S is G_d, the group of d-th powers in F_p^*, else None.

        For prime p, S is a subgroup exactly when n = #S divides p - 1 and
        s**n = 1 for every s in S (so 0 is not in S): the n-th roots of unity
        are the only subgroup of order n, and d = (p - 1) / n.  A composite
        modulus gives None, since its n-th powers need not tell the cosets
        apart (mod 15, 2**2 == 7**2).
        """
        s, p = self.S, self.S.p
        n = len(s)
        if n == 0 or (p - 1) % n or any(pow(x, n, p) != 1 for x in s):
            return None
        return (p - 1) // n if factorize(p) == {p: 1} else None


class DecompReport:
    """Search outcome.  A status of exhausted_none certifies that the full
    normalized space was covered with no budget interruption."""

    __slots__ = ("status", "witnesses", "nodes_explored", "elapsed", "extras")

    def __init__(
        self,
        status: str,
        witnesses: list,
        nodes_explored: int,
        elapsed: float,
        extras: dict | None = None,
    ):
        self.status = status
        self.witnesses = witnesses
        self.nodes_explored = nodes_explored
        self.elapsed = elapsed
        self.extras = {} if extras is None else extras

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
        "domain_bits",
        "min_size",
        "max_wit",
        "node_budget",
        "started",
        "deadline",
        "nodes",
        "budget_hit",
        "witnesses",
        "plans",
    )

    def __init__(self, query):
        self.started = time.monotonic()
        self.deadline = self.started + query.time_budget
        p = query.S.p
        self.p = p
        self.s_bits = query.S.bits
        self.mode = query.mode
        self.packing = query.mode == MODE_PACKING
        # An accepted (A, B) has #A * #B > floor, or #A(#A + 1)/2 > floor in
        # self mode: #S - 1 when deciding, the best product so far when packing.
        self.floor = 0 if self.packing else len(query.S) - 1
        self.trans = None  # S - c for each c (p^2 bits): built by _run only to search
        # the candidates in ascending order; partition i starts with domain[i]
        # and extends by later candidates only
        if self.mode == MODE_SELF:
            # the a with a + a in S (for odd p, S dilated by 2^-1)
            targets = set(bit_elements(self.s_bits))
            self.domain = [a for a in range(p) if 2 * a % p in targets]
            self.domain_bits = bits_from(self.domain, p)
        else:
            self.domain = list(range(1, p))
            self.domain_bits = None
        self.min_size = query.min_size
        self.max_wit = query.max_witnesses
        self.node_budget = query.node_budget
        # decomposition and packing count the root B = {0} as a node
        self.nodes = 0 if query.mode == MODE_SELF else 1
        self.budget_hit = False
        self.witnesses = []
        self.plans = {}  # miss_plan's answers, by its key (nb, #A, j_max, floor)

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

    def miss_plan(self, key):
        """(j_lo, k) for a node keyed (nb, #A, j_max, floor), with j_max =
        min(n, #A - nb) for its n candidates, or None when no extension can
        pass the sorted-size test.  _dfs builds the key and reads self.plans
        first; this works the answer out on a miss and stores it there.

        The test passes iff some j >= max(1, min_size - nb) has a j-th
        largest candidate size t_(j) >= v_j = max(nb + j, floor // (nb + j) + 1);
        as t <= #A, only j <= j_max with v_j <= #A can.  j_lo is the least
        such j and #A - k the least such v_j: a pass needs j_lo candidates
        that each miss at most k elements of A.
        """
        nb, a_size, j_max, floor = key
        j_lo = v_min = None
        for j in range(max(1, self.min_size - nb), j_max + 1):
            size_b = nb + j
            v = max(size_b, floor // size_b + 1)
            if v <= a_size:
                if j_lo is None:
                    j_lo, v_min = j, v
                v_min = min(v_min, v)
        plan = None if j_lo is None else (j_lo, a_size - v_min)
        self.plans[key] = plan
        return plan


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


def _too_few_fit(trans, a_bits, tail_bits, j_lo, k):
    """True when fewer than j_lo candidates c of tail_bits miss at most k
    elements a of A, a miss being a + c outside S (c not in trans[a]).

    levels[i] holds the candidates with at most i misses among the rows read
    so far; the levels only shrink, so the count stops as soon as levels[k]
    holds fewer than j_lo.  k = 0 and k = 1, most of the calls, run the same
    levels unrolled: k = 0 keeps levels[0] alone (tail &= row); k = 1 keeps
    one = levels[1] and zero = levels[0], and updates one first, so that it
    reads the zero of the rows before this one."""
    if k == 0:
        tail = tail_bits
        while a_bits:
            low = a_bits & -a_bits
            a_bits ^= low
            tail &= trans[low.bit_length() - 1]
            if tail.bit_count() < j_lo:
                return True
        return False
    if k == 1:
        zero = one = tail_bits
        while a_bits:
            low = a_bits & -a_bits
            a_bits ^= low
            row = trans[low.bit_length() - 1]
            one = (one & row) | zero
            zero &= row
            if one.bit_count() < j_lo:
                return True
        return False
    levels = [tail_bits] * (k + 1)
    while a_bits:
        low = a_bits & -a_bits
        a_bits ^= low
        row = trans[low.bit_length() - 1]
        for i in range(k, 0, -1):
            levels[i] = (levels[i] & row) | levels[i - 1]
        levels[0] &= row
        if levels[k].bit_count() < j_lo:
            return True
    return False


def _dfs(ctx, b_list, a_bits, a_size, cands, start, tail_bits):
    """Extend B (#B <= #A: the root has #B = 2, a child #A >= need) by the
    candidates cands[start:], which share the parent's list; tail_bits is
    the same candidates as a bit-vector."""
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
    bound_b = nb + n if nb + n < a_size else a_size
    if bound_b < ms or a_size * bound_b <= ctx.floor:
        return
    # Every candidate is examined below and the loop has no other effect,
    # so charging them in one go stops the budget on the same count.
    ctx.tick(n)
    j_max = n if n < a_size - nb else a_size - nb
    key = (nb, a_size, j_max, ctx.floor)
    try:
        plan = ctx.plans[key]
    except KeyError:
        plan = ctx.miss_plan(key)
    if plan is None:
        return
    trans = ctx.trans
    # The sorted-size test below needs j_lo candidates that miss at most k
    # elements of A.  Counting them costs about 2k + 2 operations per element
    # of A, the loop below 3 per candidate: count first only when cheaper.
    j_lo, k = plan
    if a_size * (2 * k + 2) < 3 * n and _too_few_fit(trans, a_bits, tail_bits, j_lo, k):
        return
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
    tail = bits_from(kept, ctx.p)
    for i, c in enumerate(kept):
        tail ^= 1 << c  # the child's candidates: kept[i + 1:]
        t = sizes[i]
        child_bound = last - i if last - i < t else t
        if child_bound >= ms and t * child_bound > ctx.floor:
            _dfs(ctx, b_list + [c], kept_bits[i], t, kept, i + 1, tail)


def _dfs_self(ctx, a_bits, sum_bits, cands):
    """Extend A, whose sumset is sum_bits, by each bit c of cands: the c above
    max(A) with c + A and c + c inside S.  The child keeps the c' > c with
    c + c' in S.  A descendant's A lies in A union cands, so when those m
    elements have m(m + 1)/2 <= floor = #S - 1 sums no descendant covers S;
    nor does one when the part of S that A + A misses is not inside
    (A | cands) + cands."""
    if sum_bits == ctx.s_bits:
        _emit_pair(ctx, a_bits, bit_elements(a_bits))
    n = cands.bit_count()
    if not n:
        return
    m = a_bits.bit_count() + n
    if m * (m + 1) // 2 <= ctx.floor:
        return
    p, trans = ctx.p, ctx.trans
    # Every new sum of a descendant uses an element of cands, so what A + A
    # misses of S must lie in (A | cands) + cands: clear it one shift at a
    # time and cut the node if some element stays uncovered.
    pool, rest = a_bits | cands, cands
    need = ctx.s_bits & ~sum_bits
    while need and rest:
        low = rest & -rest
        rest ^= low
        need &= ~cyclic_shift(pool, low.bit_length() - 1, p)
    if need:
        return
    ctx.tick(n)
    while cands:
        low = cands & -cands
        cands ^= low
        c = low.bit_length() - 1
        new_sum = sum_bits | cyclic_shift(a_bits, c, p) | (1 << (2 * c % p))
        _dfs_self(ctx, a_bits | low, new_sum, cands & trans[c])


def _search(ctx, i):
    """Explore partition i inside the search's context."""
    first = ctx.domain[i]
    ctx.tick()
    if ctx.mode == MODE_SELF:
        tail = ctx.domain_bits >> (first + 1) << (first + 1)
        _dfs_self(ctx, 1 << first, 1 << (2 * first % ctx.p), tail & ctx.trans[first])
        return
    a_bits = ctx.s_bits & ctx.trans[first]
    t = a_bits.bit_count()
    if t >= max(ctx.min_size, 2):
        above = (1 << ctx.p) - (2 << first)  # domain[i + 1:] = first + 1 .. p - 1
        _dfs(ctx, [0, first], a_bits, t, ctx.domain, i + 1, above)


def _run(query: DecompQuery, mode: str) -> DecompReport:
    """Check the query, seed the trivial pair, search the partitions in
    order, only those whose first element is a coset minimum when S is a
    subgroup, and report."""
    if query.mode != mode:
        raise ValueError(f"query.mode must be {mode!r}")
    if query.S.bits == 0:
        raise ValueError("target set must be nonempty")
    p = query.S.p
    # when deciding, #(A+B) >= max(#A, #B) >= min_size must not exceed #S
    searches = mode != MODE_DECOMPOSITION or len(query.S) >= query.min_size
    # refused before any setup: _Ctx is linear in p, and the table is built
    # only to search
    if searches and p * p // 8 > TABLE_BYTES_CAP:
        raise ModulusTooLarge(
            f"p = {p}: a search table of p**2/8 bytes exceeds the 1 GiB cap (p <= 92681)"
        )
    ctx = _Ctx(query)
    try:
        if mode != MODE_SELF and query.min_size <= 1:
            ctx.accept(query.S, FpSet.from_elements(p, [0]))
        if searches:
            ctx.trans = [cyclic_shift(ctx.s_bits, (p - c) % p, p) for c in range(p)]
            d, n, labels = query.subgroup_d, len(query.S), set()
            for i, first in enumerate(ctx.domain):
                if d is not None:
                    label = pow(first, n, p)
                    if label in labels:
                        continue
                    labels.add(label)
                _search(ctx, i)
                if len(labels) == d:
                    break
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
