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
)
from ffdecomp import decomp
from ffdecomp.decomp import (
    DecompQuery,
    find_additive_decompositions,
    find_self_decomposition,
    max_packing,
    run_query,
)
from ffdecomp.errors import ModulusTooLarge
from ffdecomp.fpcore import divisors, make_field, primes_up_to, smallest_primitive_root, subgroup
from ffdecomp.setalg import FpSet, bits_from


def fpset(p, *elems):
    return FpSet.from_elements(p, elems)


def qr(p):
    return subgroup(make_field(p), 2)


def test_decomposition_examples():
    r = run_query(DecompQuery(S=qr(7), mode="decomposition", subgroup_d=2))
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
    r = run_query(DecompQuery(S=qr(7), mode="self_decomposition", subgroup_d=2))
    assert r.status == "exhausted_none"

    r = run_query(DecompQuery(S=fpset(7, 0, 1, 2), mode="self_decomposition"))
    assert r.status == "found"
    assert r.witnesses[0][0] == fpset(7, 0, 1)

    r = run_query(DecompQuery(S=fpset(7, 1), mode="self_decomposition"))
    assert r.status == "found"
    assert r.witnesses[0][0] == fpset(7, 4)


def test_packing_examples():
    r = run_query(DecompQuery(S=qr(7), mode="packing", min_size=1, subgroup_d=2))
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
    query = DecompQuery(S=s, mode="packing", min_size=3, subgroup_d=2)
    r = run_query(query)
    assert r.status == "exhausted_none" and not r.witnesses
    assert r.extras["product"] == 0
    assert oracle_max_packing(s) < 9  # so no pair of two 3-sets fits
    r = run_query(DecompQuery(S=s, mode="packing", min_size=3, subgroup_d=2, node_budget=1))
    assert r.status == "budget_exceeded" and not r.witnesses


def test_full_unit_group_as_declared_subgroup_matches_the_literal_search():
    # d = 1 declares S = F_p^* = G_1: its one coset has minimum 1, so the
    # quotient searches one partition.  Status and packing product must match
    # the undeclared search and the brute-force oracles.
    for p in (5, 7, 11, 13):
        s = subgroup(make_field(p), 1)
        assert s == nonzero_set(p)
        for mode, min_size in (("decomposition", 2), ("self_decomposition", 2), ("packing", 1)):
            declared = run_query(DecompQuery(S=s, mode=mode, min_size=min_size, subgroup_d=1))
            literal = run_query(DecompQuery(S=s, mode=mode, min_size=min_size))
            assert declared.status == literal.status, (p, mode)
            assert declared.extras == literal.extras, (p, mode)
            assert declared.nodes_explored <= literal.nodes_explored, (p, mode)
        r = run_query(DecompQuery(S=s, mode="decomposition", subgroup_d=1))
        assert (r.status == "found") == oracle_decomposition_exists(s), p
        for a, b in r.witnesses:
            assert naive_sumset(a, b) == set(s), p
        r = run_query(DecompQuery(S=s, mode="self_decomposition", subgroup_d=1))
        assert (r.status == "found") == oracle_self_exists(s), p
        for a, b in r.witnesses:
            assert naive_sumset(a, b) == set(s), p
        r = run_query(DecompQuery(S=s, mode="packing", min_size=1, subgroup_d=1))
        assert r.extras["product"] == oracle_max_packing(s), p
        (a, b), = r.witnesses
        assert len(a) * len(b) == r.extras["product"] and naive_sumset(a, b) <= set(s), p
    with pytest.raises(ValueError):
        run_query(DecompQuery(S=nonzero_set(7), mode="decomposition", subgroup_d=0))


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
            s = subgroup(make_field(p), d)
            exists = oracle_decomposition_exists(s)
            assert oracle_decomposition_exists_normalized(s) == exists, (p, d)
            r = run_query(DecompQuery(S=s, mode="decomposition", subgroup_d=d))
            assert (r.status == "found") == exists, (p, d)
            r = run_query(DecompQuery(S=s, mode="self_decomposition", subgroup_d=d))
            assert (r.status == "found") == oracle_self_exists(s), (p, d)
            r = run_query(DecompQuery(S=s, mode="packing", min_size=1, subgroup_d=d))
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
    with pytest.raises(ValueError):
        # declared subgroup does not match the set
        run_query(DecompQuery(S=fpset(7, 1, 3), mode="decomposition", subgroup_d=2))


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
        dict(S=qr(13), mode="decomposition", subgroup_d=2),
        dict(S=qr(13), mode="self_decomposition", subgroup_d=2),
        dict(S=subgroup(make_field(13), 3), mode="decomposition", subgroup_d=3),
        dict(S=fpset(13, 1, 2, 4, 5, 8), mode="decomposition"),
        dict(S=qr(17), mode="packing", min_size=1, subgroup_d=2),
    ):
        query = DecompQuery(**fields)
        assert outcome(run_query(query)) == outcome(run_query(query)), fields
    # A deadline stop, whose node count is not the budget, is budget_exceeded.
    query = DecompQuery(S=qr(151), mode="decomposition", subgroup_d=2, time_budget=1e-9)
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
        dict(S=qr(41), mode="decomposition", subgroup_d=2),
        dict(S=qr(37), mode="packing", min_size=1, subgroup_d=2),
        dict(S=qr(41), mode="self_decomposition", subgroup_d=2),
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
    r = run_query(DecompQuery(S=qr(151), mode="decomposition", subgroup_d=2))
    assert r.status == "exhausted_none" and not r.witnesses
    assert r.nodes_explored == 650_035


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
    # The d = 5 subgroup of p = 1048571, built without a field table; the
    # refusal must come before the field and the p - 1 candidates are made.
    p, d = 1_048_571, 5
    h = pow(smallest_primitive_root(p), d, p)
    elems, x = [], 1
    for _ in range((p - 1) // d):
        elems.append(x)
        x = x * h % p
    s = FpSet(p, bits_from(elems, p))

    def no_setup(*args, **kwargs):
        raise AssertionError("setup ran before the table-size refusal")

    monkeypatch.setattr(decomp.fpcore, "make_field", no_setup)
    monkeypatch.setattr(decomp, "_Ctx", no_setup)
    with pytest.raises(ModulusTooLarge):
        run_query(DecompQuery(S=s, mode="decomposition", subgroup_d=d))
