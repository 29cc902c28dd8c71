import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    naive_sumset,
    nonzero_set,
    oracle_decomposition_exists,
    oracle_decomposition_exists_normalized,
    oracle_max_packing,
    oracle_self_exists,
    primes_between,
    reference_dfs,
    reference_self_search,
)
from ffdecomp import decomp, fpcore
from ffdecomp.decomp import (
    DecompQuery,
    find_additive_decompositions,
    find_self_decomposition,
    max_packing,
    run_query,
)
from ffdecomp.errors import ModulusTooLarge
from ffdecomp.experiments import grid_divisors
from ffdecomp.fpcore import divisors, primes_up_to, subgroup
from ffdecomp.setalg import FpSet, cyclic_shift


def fpset(p, *elems):
    return FpSet.from_elements(p, elems)


def qr(p):
    return subgroup(p, 2)


def test_decomposition_examples():
    r = run_query(DecompQuery(S=qr(7), mode="decomposition"))
    assert r.status == "exhausted_none" and not r.witnesses

    r = run_query(DecompQuery(S=fpset(7, 1, 2, 4, 5), mode="decomposition"))
    assert r.status == "found"
    a, b = r.witnesses[0]
    assert a == fpset(7, 1, 4) and b == fpset(7, 0, 1)
    assert naive_sumset(a, b) == {1, 2, 4, 5}

    r = run_query(DecompQuery(S=fpset(11, 3), mode="decomposition"))
    assert r.status == "exhausted_none"


def test_decomposition_min_size_one_is_trivial():
    s = fpset(7, 1, 3)
    r = run_query(DecompQuery(S=s, mode="decomposition", min_size=1))
    assert r.status == "found"
    a, b = r.witnesses[0]
    assert a == s and b == fpset(7, 0)


def test_start_states():
    # The trivial pair (S, {0}) is seeded before any partition, the root
    # B = {0} is one node outside self mode, and a decision with #S below
    # min_size searches nothing: (query fields, status, witnesses, nodes, extras).
    s7, s11 = fpset(7, 1, 3), fpset(11, 1)
    cases = [
        (dict(S=s7, mode="decomposition", min_size=1), "found", [(s7, fpset(7, 0))], 1, {}),
        (dict(S=s7, mode="decomposition", min_size=1, max_witnesses=2),
         "found", [(s7, fpset(7, 0))], 7, {}),
        (dict(S=fpset(11, 3), mode="decomposition"), "exhausted_none", [], 1, {}),
        (dict(S=s11, mode="packing", min_size=1), "found", [(s11, fpset(11, 0))], 11,
         {"product": 1}),
        (dict(S=s11, mode="packing", min_size=2), "exhausted_none", [], 11, {"product": 0}),
        (dict(S=fpset(7, 1), mode="self_decomposition"),
         "found", [(fpset(7, 4), fpset(7, 4))], 1, {}),
    ]
    for fields, status, witnesses, nodes, extras in cases:
        r = run_query(DecompQuery(**fields))
        assert (r.status, r.witnesses, r.nodes_explored, r.extras) == (
            status, witnesses, nodes, extras), fields


def test_self_decomposition_examples():
    r = run_query(DecompQuery(S=qr(7), mode="self_decomposition"))
    assert r.status == "exhausted_none"

    r = run_query(DecompQuery(S=fpset(7, 0, 1, 2), mode="self_decomposition"))
    assert r.status == "found"
    assert r.witnesses[0][0] == fpset(7, 0, 1)

    r = run_query(DecompQuery(S=fpset(7, 1), mode="self_decomposition"))
    assert r.status == "found"
    assert r.witnesses[0][0] == fpset(7, 4)


def test_packing_examples():
    r = run_query(DecompQuery(S=qr(7), mode="packing", min_size=1))
    assert r.status == "found" and r.extras["product"] == 3

    r = run_query(DecompQuery(S=nonzero_set(7), mode="packing", min_size=1))
    assert r.extras["product"] == 12 == oracle_max_packing(nonzero_set(7))
    a, b = r.witnesses[0]
    assert len(a) * len(b) == 12
    assert naive_sumset(a, b) <= set(range(1, 7))

    r = run_query(DecompQuery(S=fpset(11, 1), mode="packing", min_size=1))
    assert r.extras["product"] == 1
    assert r.witnesses[0][0] == fpset(11, 1) and r.witnesses[0][1] == fpset(11, 0)


def test_packing_with_no_admissible_pair_reports_no_witness():
    # No pair A, B with min(#A, #B) >= 3 has A + B inside the quadratic
    # residues mod 13: the search covers the whole space and must say so
    # instead of claiming a find.
    s = qr(13)
    query = DecompQuery(S=s, mode="packing", min_size=3)
    r = run_query(query)
    assert r.status == "exhausted_none" and not r.witnesses
    assert r.extras["product"] == 0
    assert oracle_max_packing(s) < 9  # so no pair of two 3-sets fits
    r = run_query(DecompQuery(S=s, mode="packing", min_size=3, node_budget=1))
    assert r.status == "budget_exceeded" and not r.witnesses


def test_full_unit_group_matches_the_oracles():
    # S = F_p^* is G_1: its one coset has minimum 1, so the quotient searches
    # one partition.  Status, witnesses and packing product must agree with
    # the brute-force oracles.
    for p in (5, 7, 11, 13):
        s = nonzero_set(p)
        assert DecompQuery(S=s, mode="decomposition").subgroup_d == 1
        r = run_query(DecompQuery(S=s, mode="decomposition"))
        assert (r.status == "found") == oracle_decomposition_exists(s), p
        for a, b in r.witnesses:
            assert naive_sumset(a, b) == set(s), p
        r = run_query(DecompQuery(S=s, mode="self_decomposition"))
        assert (r.status == "found") == oracle_self_exists(s), p
        for a, b in r.witnesses:
            assert naive_sumset(a, b) == set(s), p
        r = run_query(DecompQuery(S=s, mode="packing", min_size=1))
        assert r.extras["product"] == oracle_max_packing(s), p
        (a, b), = r.witnesses
        assert len(a) * len(b) == r.extras["product"] and naive_sumset(a, b) <= set(s), p


def test_subgroup_is_detected_exactly():
    # Every G_d with p <= 61 is found, d = 1 (F_p^*) and d = p - 1 ({1})
    # included.
    for p in primes_up_to(61):
        if p < 3:
            continue
        for d in divisors(p - 1):
            query = DecompQuery(S=subgroup(p, d), mode="decomposition")
            assert query.subgroup_d == d, (p, d)
    # Every nonempty subset for p <= 13, sets holding 0 included, against an
    # independent oracle: a nonempty finite set is a subgroup of F_p^*
    # exactly when it misses 0 and is closed under multiplication.
    for p in primes_up_to(13):
        for bits in range(1, 1 << p):
            s = FpSet(p, bits)
            closed = 0 not in s and all(x * y % p in s for x in s for y in s)
            want = (p - 1) // len(s) if closed else None
            assert DecompQuery(S=s, mode="decomposition").subgroup_d == want, s
    # Mod 21, {1, 8, 13, 20} passes the n-th power tests, but fourth powers
    # do not separate its cosets: keyed by them, the search would miss the
    # decomposition.  A composite modulus gets no quotient.
    s = fpset(21, 1, 8, 13, 20)
    assert DecompQuery(S=s, mode="decomposition").subgroup_d is None
    r = run_query(DecompQuery(S=s, mode="decomposition"))
    assert r.status == "found" and oracle_decomposition_exists(s)


def test_engine_matches_bruteforce_on_random_targets():
    rng = random.Random(99)
    for _ in range(40):
        p = rng.choice((5, 7, 11))
        bits = rng.getrandbits(p) & ((1 << p) - 1)
        s = FpSet(p, bits or 1)
        exists = oracle_decomposition_exists(s)
        assert oracle_decomposition_exists_normalized(s) == exists, s
        r = run_query(DecompQuery(S=s, mode="decomposition"))
        assert (r.status == "found") == exists, s
        r = run_query(DecompQuery(S=s, mode="self_decomposition"))
        assert (r.status == "found") == oracle_self_exists(s), s
        r = run_query(DecompQuery(S=s, mode="packing", min_size=1))
        assert r.extras["product"] == oracle_max_packing(s), s


def test_min_size_three_matches_bruteforce_on_sumsets():
    """Deciding with min_size 3, where a B of three elements must still be
    emitted when it could not grow: sumsets of random 3-sets, and random
    targets, against the full enumeration."""
    rng = random.Random(3)
    for _ in range(30):
        p = rng.choice((7, 11, 13))
        if rng.random() < 0.7:
            a, b = rng.sample(range(p), 3), rng.sample(range(p), 3)
            s = FpSet.from_elements(p, {(x + y) % p for x in a for y in b})
        else:
            s = FpSet(p, rng.getrandbits(p) or 1)
        r = run_query(DecompQuery(S=s, mode="decomposition", min_size=3))
        assert (r.status == "found") == oracle_decomposition_exists(s, 3), s
        for a, b in r.witnesses:
            assert min(len(a), len(b)) >= 3 and naive_sumset(a, b) == set(s), s


def test_engine_matches_bruteforce_on_subgroups():
    # exercises the multiplicative symmetry quotient against the
    # no-assumptions oracle on every subgroup target up to p = 13, and
    # shows the normalized oracle (used up to p = 31) agrees with it here
    for p in primes_up_to(13):
        if p < 5:
            continue
        for d in divisors(p - 1):
            if d < 2:
                continue
            s = subgroup(p, d)
            exists = oracle_decomposition_exists(s)
            assert oracle_decomposition_exists_normalized(s) == exists, (p, d)
            r = run_query(DecompQuery(S=s, mode="decomposition"))
            assert (r.status == "found") == exists, (p, d)
            r = run_query(DecompQuery(S=s, mode="self_decomposition"))
            assert (r.status == "found") == oracle_self_exists(s), (p, d)
            r = run_query(DecompQuery(S=s, mode="packing", min_size=1))
            assert r.extras["product"] == oracle_max_packing(s), (p, d)


def test_found_witnesses_verify():
    rng = random.Random(5)
    hits = 0
    for _ in range(60):
        p = rng.choice((7, 11, 13))
        a = FpSet(p, rng.getrandbits(p) & ((1 << p) - 1) or 1)
        b_elems = rng.sample(range(p), rng.randint(2, 3))
        b = FpSet.from_elements(p, b_elems)
        s = FpSet.from_elements(p, naive_sumset(a, b))
        if len(a) < 2:
            continue
        r = run_query(DecompQuery(S=s, mode="decomposition"))
        assert r.status == "found", (s, a, b)
        wa, wb = r.witnesses[0]
        assert naive_sumset(wa, wb) == set(s)
        assert min(len(wa), len(wb)) >= 2
        hits += 1
    assert hits > 30


def test_budget_exceeded_status():
    s = qr(31)
    r = run_query(DecompQuery(S=s, mode="decomposition", node_budget=5))
    assert r.status == "budget_exceeded"
    assert r.nodes_explored <= 5
    r = run_query(DecompQuery(S=s, mode="packing", min_size=1, node_budget=5))
    assert r.status == "budget_exceeded"


def test_query_validation():
    s = qr(7)
    with pytest.raises(ValueError):
        DecompQuery(S=s, mode="bogus")
    with pytest.raises(ValueError):
        DecompQuery(S=s, mode="decomposition", min_size=0)
    with pytest.raises(ValueError):
        DecompQuery(S=s, mode="decomposition", node_budget=0)
    with pytest.raises(ValueError):
        run_query(DecompQuery(S=FpSet(7, 0), mode="decomposition"))
    with pytest.raises(ValueError):
        find_self_decomposition(DecompQuery(S=s, mode="decomposition"))
    with pytest.raises(ValueError):
        find_additive_decompositions(DecompQuery(S=s, mode="packing"))
    with pytest.raises(ValueError):
        max_packing(DecompQuery(S=s, mode="decomposition"))


def test_worker_partitioning_is_deterministic():
    # The partitions are searched in order inside one context, so a
    # search's result depends only on the query: a repeated query gives the
    # same status, witnesses, extras and node count, a node budget cuts the
    # search at exactly that count, and a cut or quota-stopped search keeps a
    # prefix of the full search's witnesses.  The first two targets have
    # witnesses in more than one partition.  The packing target (min_size 2)
    # starts from floor 0 and raises it in its first three partitions.
    dec17 = fpset(17, 2, 5, 6, 7, 8, 10, 11, 13, 14, 15, 16)
    self19 = fpset(19, 0, 2, 3, 5, 6, 7, 8, 9, 12, 13, 15, 16, 17, 18)
    pack19 = fpset(19, 1, 2, 3, 4, 7, 8, 10, 11, 13, 15, 16, 18)
    targets = [  # (query fields, witness quotas)
        (dict(S=dec17, mode="decomposition"), (1, 3)),
        (dict(S=self19, mode="self_decomposition"), (1, 3)),
        (dict(S=pack19, mode="packing"), (1,)),
    ]

    def outcome(r):
        return r.status, r.witnesses, r.extras, r.nodes_explored

    for fields, quotas in targets:
        every = run_query(DecompQuery(**fields, max_witnesses=10**6)).witnesses
        for max_wit in quotas:
            full = run_query(DecompQuery(**fields, max_witnesses=max_wit))
            n = full.nodes_explored
            for budget in (7, 50, 333, n, n + 1, 10**8):
                query = DecompQuery(**fields, node_budget=budget, max_witnesses=max_wit)
                r = run_query(query)
                assert outcome(run_query(query)) == outcome(r), (fields, budget, max_wit)
                assert r.nodes_explored == min(budget, n), (fields, budget, max_wit)
                if budget > n:
                    assert outcome(r) == outcome(full), (fields, budget, max_wit)
                elif fields["mode"] != "packing":
                    assert r.witnesses == every[: len(r.witnesses)], (fields, budget, max_wit)
    # Subgroup targets, whose partitions start at the coset minima, and one
    # more, at the default limits.
    for fields in (
        dict(S=qr(13), mode="decomposition"),
        dict(S=qr(13), mode="self_decomposition"),
        dict(S=subgroup(13, 3), mode="decomposition"),
        dict(S=fpset(13, 1, 2, 4, 5, 8), mode="decomposition"),
        dict(S=qr(17), mode="packing", min_size=1),
    ):
        query = DecompQuery(**fields)
        assert outcome(run_query(query)) == outcome(run_query(query)), fields
    # A deadline stop, whose node count is not the budget, is budget_exceeded.
    query = DecompQuery(S=qr(151), mode="decomposition", time_budget=1e-9)
    assert run_query(query).status == "budget_exceeded"


def test_partitions_share_one_candidate_list():
    # A partition is an index into one ascending candidate list, so a search
    # at p = 2003 holds about p candidates besides its S - c table, not the
    # p^2 / 2 of a list per partition (a 77 MB peak when they were built).
    tracemalloc.start()
    try:
        r = run_query(DecompQuery(S=fpset(2003, 1, 2, 4), mode="decomposition"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.status == "exhausted_none" and r.nodes_explored == 2003
    assert peak < 8 * 2**20


def test_report_serialization():
    r = run_query(DecompQuery(S=fpset(7, 1, 2, 4, 5), mode="decomposition"))
    d = r.to_dict()
    assert d["type"] == "decomp" and d["status"] == "found"
    assert d["witnesses"] == [{"A": fpset(7, 1, 4), "B": fpset(7, 0, 1)}]
    assert isinstance(d["nodes_explored"], int) and d["elapsed"] >= 0


def _budget_cases():
    """Small serial searches of every mode: (query fields, unlimited report)."""
    s13 = fpset(13, 1, 2, 4, 5, 6, 7, 9, 12)
    s17 = fpset(17, 1, 2, 4, 5, 6, 7, 10, 12, 14, 15, 16)
    cases = [
        dict(S=qr(41), mode="decomposition"),
        dict(S=qr(37), mode="packing", min_size=1),
        dict(S=qr(41), mode="self_decomposition"),
        dict(S=s13, mode="decomposition", max_witnesses=3),
        dict(S=s13, mode="packing", min_size=1),
        dict(S=s13, mode="self_decomposition", max_witnesses=2),
        dict(S=s17, mode="decomposition", max_witnesses=3),
        dict(S=s17, mode="packing", min_size=1),
        dict(S=s17, mode="self_decomposition"),
    ]
    return [(fields, run_query(DecompQuery(**fields))) for fields in cases]


def test_budget_stop_lands_exactly_on_the_budget():
    # A node is one candidate examined.  Every budget up to the unlimited
    # count N must stop the search on exactly that many nodes; from N + 1 on
    # the search must not notice the budget at all.
    for fields, full in _budget_cases():
        n = full.nodes_explored
        assert full.status != "budget_exceeded", fields
        for budget in range(1, n + 2):
            r = run_query(DecompQuery(**fields, node_budget=budget))
            if budget > n:
                assert r.status == full.status, (fields, budget)
                assert r.nodes_explored == n, (fields, budget)
                assert r.witnesses == full.witnesses, (fields, budget)
                assert r.extras == full.extras, (fields, budget)
                continue
            assert r.nodes_explored == budget, (fields, budget)
            if fields["mode"] == "packing" or not r.witnesses:
                assert r.status == "budget_exceeded", (fields, budget)
            else:
                # witnesses found before the stop: a prefix of the full list
                assert r.status == "found", (fields, budget)
                assert r.witnesses == full.witnesses[: len(r.witnesses)], (fields, budget)


def test_witness_quota_stops_the_search_at_the_last_witness():
    # A search stops on the node that yields the last witness asked for.
    # That node is found independently: the smallest node budget under which
    # an unlimited search has k witnesses is one more than it.
    s13 = fpset(13, 1, 2, 4, 5, 6, 7, 9, 12)
    unlimited = run_query(DecompQuery(S=s13, mode="decomposition", max_witnesses=10**6))
    first_budget = {}
    for budget in range(1, unlimited.nodes_explored + 1):
        r = run_query(DecompQuery(S=s13, mode="decomposition", max_witnesses=10**6, node_budget=budget))
        first_budget.setdefault(len(r.witnesses), budget)
    for k in range(1, 5):
        r = run_query(DecompQuery(S=s13, mode="decomposition", max_witnesses=k))
        assert r.status == "found", k
        assert r.witnesses == unlimited.witnesses[:k], k
        assert r.nodes_explored == first_budget[k] - 1, k
        if k == 3:
            assert r.nodes_explored == 36


def test_qr_151_certificate_node_count():
    # The exhaustive certificate that the quadratic residues mod 151 have no
    # decomposition A + B with #A, #B >= 2.  The node count pins the pruning:
    # a kernel change that cuts more or less of the tree moves it.
    r = run_query(DecompQuery(S=qr(151), mode="decomposition"))
    assert r.status == "exhausted_none" and not r.witnesses
    assert r.nodes_explored == 650_035


def test_packing_node_counts():
    # Packing's tree as the packing experiment searches it (min_size 1),
    # pinned at perfbench's recorded counts (expected.json): a kernel change
    # that cuts more or less of it, or raises the floor at another time,
    # moves them.
    for p, d, nodes in ((127, 2, 289_611), (157, 2, 856_684), (157, 4, 617), (113, 8, 118)):
        r = run_query(DecompQuery(S=subgroup(p, d), mode="packing", min_size=1))
        assert (r.status, r.nodes_explored) == ("found", nodes), (p, d)


def test_reported_b_is_lex_least_in_its_affine_orbit():
    # For S = G_d, x -> lam * (x - t) with lam in S and t in B maps a
    # decomposition or packing (A, B) to one with the same sizes.  The search
    # visits B in lex order and reports the first witness, or the first
    # packing optimum, so no image of a reported B is lex-smaller: the
    # invariant an orderly prune of non-minimal prefixes relies on
    # (notes/decisions.md, "Orderly search").
    witnesses = 0
    for p in primes_between(5, 99):
        for d in divisors(p - 1):
            if not 2 <= d < p - 1:
                continue
            s = subgroup(p, d)
            for mode, min_size in (("decomposition", 2), ("packing", 1)):
                r = run_query(DecompQuery(S=s, mode=mode, min_size=min_size))
                for _, b in r.witnesses:
                    b = b.elements()
                    for lam in s:
                        for t in b:
                            image = sorted(lam * (x - t) % p for x in b)
                            assert b <= image, (p, d, mode, b, lam, t)
                    witnesses += 1
    assert witnesses == 121


def _kernel_grid(name):
    """(query fields) for each search of one reference-kernel grid."""
    if name == "subgroups":  # every G_d with 5 <= p < 200, a QR tree cut by the budget
        for p in primes_between(5, 199):
            for d in divisors(p - 1):
                for mode in ("decomposition", "packing"):
                    yield dict(S=subgroup(p, d), mode=mode, node_budget=5_000)
    elif name == "whole":  # perfbench's search targets, searched to the end
        for p in (151, 157):
            yield dict(S=subgroup(p, 2), mode="decomposition")
        for p in primes_between(5, 157):
            for d in grid_divisors(p, "all"):
                yield dict(S=subgroup(p, d), mode="packing", min_size=1)
    else:
        rng = random.Random(3)
        for _ in range(300):
            p = rng.choice(primes_between(5, 61))
            yield dict(
                S=FpSet(p, rng.getrandbits(p) or 1),
                mode=rng.choice(("decomposition", "packing")),
                min_size=rng.randint(1, 3),
                max_witnesses=rng.randint(1, 3),
                node_budget=5_000,
            )


@pytest.mark.parametrize("grid", ["subgroups", "random", "whole"])
def test_kernel_matches_the_reference_kernel(grid, monkeypatch):
    # The reference sizes every candidate of every node; the kernel first
    # counts the candidates with few enough misses and skips the sizing when
    # too few fit.  That test only rejects nodes the sorted-size test would
    # reject, after the node is charged, so the two search the same tree:
    # statuses, witnesses, products and node counts agree, budget stops too.
    # The budgeted grids compare no deep node of a certificate; "whole"
    # runs QR p = 151 and 157 and the packing grid to the end.
    ours = [(fields, run_query(DecompQuery(**fields))) for fields in _kernel_grid(grid)]

    def root(ctx, b_list, a_bits, a_size, cands, start, tail_bits):
        reference_dfs(ctx, b_list, a_bits, a_size, cands, start)

    monkeypatch.setattr(decomp, "_dfs", root)  # _search's call; the reference recurses into itself
    stops = 0
    for fields, r in ours:
        ref = run_query(DecompQuery(**fields))
        got = (r.status, r.witnesses, r.extras, r.nodes_explored)
        assert got == (ref.status, ref.witnesses, ref.extras, ref.nodes_explored), fields
        stops += r.status == "budget_exceeded"
    assert (stops > 0) == (grid != "whole")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_miss_count_never_rejects_what_the_sorted_test_accepts(data):
    # The miss-count test alone, against the sorted-size test it guards, on
    # any A, tail of candidates, #B, min_size and floor: whenever some j
    # candidates are large enough for a B of nb + j elements, the plan must
    # exist and the count must let the node through.
    p = data.draw(st.sampled_from((5, 7, 11, 13, 17, 23, 31)), label="p")
    s = FpSet(p, data.draw(st.integers(1, (1 << p) - 1), label="S"))
    a_bits = data.draw(st.integers(1, (1 << p) - 1), label="A")
    tail = data.draw(st.integers(1, (1 << p) - 1), label="tail")
    nb = data.draw(st.integers(1, 6), label="nb")
    ms = data.draw(st.integers(1, 8), label="min_size")
    trans = [cyclic_shift(s.bits, -c, p) for c in range(p)]
    a_size, n = a_bits.bit_count(), tail.bit_count()
    fits = [(a_bits & trans[c]).bit_count() for c in range(p) if tail >> c & 1]
    # packing's first floor, any floor, and one just below the product that
    # the j-th largest candidate would reach with #B = nb + j
    edges = [max(0, t * (nb + j) - 1) for j, t in enumerate(sorted(fits, reverse=True), start=1)]
    floor = data.draw(
        st.one_of(st.just(0), st.integers(0, p * p), st.sampled_from(edges)), label="floor"
    )
    ctx = decomp._Ctx(DecompQuery(S=s, mode="packing", min_size=ms))
    ctx.floor = floor

    sizes_desc = sorted((t for t in fits if t >= max(ms, nb + 1)), reverse=True)
    accepted = False
    for j, tj in enumerate(sizes_desc, start=1):  # the kernel's sorted-size test
        size_b = nb + j
        if size_b > tj:
            break
        if size_b >= ms and tj * size_b > floor:
            accepted = True
            break

    plan = ctx.miss_plan((nb, a_size, min(n, a_size - nb), floor))
    rejected = plan is None or decomp._too_few_fit(trans, a_bits, tail, *plan)
    assert not (accepted and rejected), (plan, sizes_desc)
    # The levels count exactly the candidates with <= k misses, on the plan's
    # (j_lo, k) and on a drawn one, so that k = 0, k = 1 and the general
    # level loop are each checked, with j_lo on both sides of the count.
    drawn = (
        data.draw(st.integers(1, n + 1), label="j_lo"),
        data.draw(st.integers(0, 4), label="k"),
    )
    for j_lo, k in (drawn,) if plan is None else (plan, drawn):
        assert decomp._too_few_fit(trans, a_bits, tail, j_lo, k) == (
            sum(a_size - t <= k for t in fits) < j_lo
        ), (j_lo, k)


def _self_grid(name):
    """(S, max_witnesses) for each target of one self-mode grid."""
    if name == "subgroups":  # every G_d with 5 <= p < 200
        for p in primes_between(5, 199):
            for d in divisors(p - 1):
                yield subgroup(p, d), 1
    elif name == "random":
        rng = random.Random(1)
        for _ in range(600):
            p = rng.choice(primes_between(5, 31))
            yield FpSet(p, rng.getrandbits(p) or 1), 3
    else:  # S = A + A, #A <= 7
        rng = random.Random(2)
        for _ in range(200):
            p = rng.choice(primes_between(5, 101))
            a = rng.sample(range(p), rng.randint(1, min(7, p)))
            yield FpSet.from_elements(p, {(x + y) % p for x in a for y in a}), 2


@pytest.mark.parametrize("grid", ["subgroups", "random", "sumsets"])
def test_self_mode_matches_the_reference_kernel(grid):
    # The reference tests each candidate against A and prunes by coverage;
    # the engine filters each child's candidates and prunes by counting.
    # Both walk A in the same order, so status and witnesses must agree.
    found = 0
    for s, max_wit in _self_grid(grid):
        r = run_query(DecompQuery(S=s, mode="self_decomposition", max_witnesses=max_wit))
        status, witnesses = reference_self_search(s, max_wit)
        assert (r.status, [a for a, _ in r.witnesses]) == (status, witnesses), s
        assert all(a == b for a, b in r.witnesses), s
        found += status == "found"
    assert found > 0


def test_qr_self_certificates():
    # No A has A + A = QR(p).  The node counts pin the candidate filter, the
    # counting bound and the coverage prune: a kernel that cuts more or less
    # of the tree moves them.
    for p, nodes in ((61, 15), (151, 37), (307, 117), (1009, 4_732)):
        r = run_query(DecompQuery(S=qr(p), mode="self_decomposition", node_budget=10**7))
        assert (r.status, r.witnesses, r.nodes_explored) == ("exhausted_none", [], nodes), p


def test_self_mode_matches_the_oracles_on_every_small_modulus():
    # Every nonempty S of Z_p for p <= 10.  On an even modulus 2 has no
    # inverse: a and a + p/2 have the same double, and both may start A.
    for p in range(1, 11):
        for bits in range(1, 1 << p):
            s = FpSet(p, bits)
            r = run_query(DecompQuery(S=s, mode="self_decomposition"))
            assert (r.status == "found") == oracle_self_exists(s), s
            assert (r.status, [a for a, _ in r.witnesses]) == reference_self_search(s), s
            for a, b in r.witnesses:
                assert a == b and naive_sumset(a, a) == set(s), s


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_all_modes_match_oracles_on_random_targets(data):
    p = data.draw(st.sampled_from((5, 7, 11, 13)), label="p")
    s = FpSet(p, data.draw(st.integers(1, (1 << p) - 1), label="bits"))
    members = set(s)

    r = run_query(DecompQuery(S=s, mode="decomposition"))
    assert r.status in ("found", "exhausted_none")
    assert (r.status == "found") == oracle_decomposition_exists(s)
    for a, b in r.witnesses:
        assert naive_sumset(a, b) == members and min(len(a), len(b)) >= 2

    r = run_query(DecompQuery(S=s, mode="self_decomposition"))
    assert r.status in ("found", "exhausted_none")
    assert (r.status == "found") == oracle_self_exists(s)
    for a, b in r.witnesses:
        assert a == b and naive_sumset(a, a) == members

    r = run_query(DecompQuery(S=s, mode="packing", min_size=1))
    assert r.status == "found" and len(r.witnesses) == 1
    best = oracle_max_packing(s)
    assert r.extras["product"] == best
    a, b = r.witnesses[0]
    assert len(a) * len(b) == best and naive_sumset(a, b) <= members


def test_searches_that_skip_the_table_are_not_refused():
    # 92683 is the first prime over the table cap (p**2/8 <= 1 GiB up to
    # 92681); test_cli checks the refusal itself, in a memory-limited child.
    # Deciding S = A + B with #S < min_size never builds the table.
    r = run_query(DecompQuery(S=fpset(92_683, 1), mode="decomposition"))
    assert r.status == "exhausted_none" and r.nodes_explored == 1


def test_oversized_search_is_refused_before_any_setup(monkeypatch):
    # The d = 5 subgroup of p = 1048571 (subgroup reads no field table); the
    # refusal must come before the field and the p - 1 candidates are made.
    p, d = 1_048_571, 5
    s = subgroup(p, d)

    def no_setup(*args, **kwargs):
        raise AssertionError("setup ran before the table-size refusal")

    monkeypatch.setattr(fpcore, "make_field", no_setup)
    monkeypatch.setattr(decomp, "_Ctx", no_setup)
    query = DecompQuery(S=s, mode="decomposition")
    assert query.subgroup_d == d
    with pytest.raises(ModulusTooLarge):
        run_query(query)
