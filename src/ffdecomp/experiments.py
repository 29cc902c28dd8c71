"""Per-lemma verifiers and the seeded instance grids that exercise them.

Constant-free statements are asserted through the ok field of their
reports; statements with an unstated implied constant are evaluated with
the constant set to 1 and recorded report-only (ok = None).  Logarithms
are natural throughout.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import fpcore, polyfp
from .charsum import Character, double_char_sum, karatsuba_envelope
from .decomp import DecompQuery, max_packing
from .errors import BadIndex, ConfigError, DuplicateShift, ZeroSetOnly
from .fpcore import euler_phi, make_field, subgroup, tau
from .reports import BoundReport
from .setalg import FpSet, affine, bits_from, intersect_shifts, iterated_sumset, productset, sumset

GROWTH_REFERENCE_EXPONENT = 57 / 56
DEFAULT_SIZE_EPSILON = 0.05
_MAX_EXPANSION_SET = 16  # subset expansion is 2**L


# ---------------------------------------------------------------------------
# closed-form report formulas (display only; the o(1) terms are dropped)

def sarkozy_min_part(p: int) -> float:
    """Lower bound sqrt(p) / (3 log p) for parts of a quadratic-residue split."""
    return math.sqrt(p) / (3 * math.log(p))


def sarkozy_max_part(p: int) -> float:
    return math.sqrt(p) * math.log(p)


def primitive_root_min_part(p: int) -> float:
    return euler_phi(p - 1) / (tau(p - 1) * math.sqrt(p) * math.log(p))


def primitive_root_max_part(p: int) -> float:
    return tau(p - 1) * math.sqrt(p) * math.log(p)


def gd_low_value(p: int, d: int) -> float:
    """Minimum part size 2 sqrt(p) log d / (d^2 log p) for a subgroup split."""
    if d < 2:
        raise BadIndex("subgroup bound formula needs d >= 2")
    return 2 * math.sqrt(p) * math.log(d) / (d * d * math.log(p))


# ---------------------------------------------------------------------------
# membership-product identities

def _check_index(p: int, d: int) -> None:
    if d < 2 or (p - 1) % d != 0:
        raise BadIndex(f"need d >= 2 dividing p-1; got d = {d}, p = {p}")


def _validate_subgroup_args(p: int, d: int) -> FpSet:
    # d first: a refused d gives this message, not subgroup's
    _check_index(p, d)
    return subgroup(p, d)


def _character_expansions(p: int, d: int, b_elems):
    """For each b in B, the array over x in F_p^* of sum_j chi^j(x^d - b),
    chi a character of order d: d where x^d - b is a nonzero d-th power,
    0 elsewhere (and 0 where x^d = b), in complex arithmetic."""
    import numpy as np

    fld = make_field(p)
    # int64, not the table's int32, so products such as j * dlog cannot overflow
    dlog_np = np.frombuffer(fld.dlog, dtype=np.intc).astype(np.int64)
    exp_np = np.array(fld.exp, dtype=np.int64)
    k = dlog_np[1:p]
    xd = exp_np[(d * k) % (p - 1)]
    zeta = np.exp(2j * np.pi * np.arange(d) / d)
    for b in b_elems:
        v = (xd - b) % p
        nz = v != 0
        inner = np.zeros(p - 1, dtype=complex)
        kv = dlog_np[v[nz]]
        acc = np.zeros(int(nz.sum()), dtype=complex)
        for j in range(d):
            acc += zeta[(j * kv) % d]
        inner[nz] = acc
        yield inner


def w_identity_report(p: int, d: int, b_set: FpSet) -> BoundReport:
    """Three-way evaluation of the avoiding-count sum W over B.

    W counts x in F_p^* whose d-th power avoids G_d in every translate by B.
    Routes: (i) direct membership, (ii) complex character expansion,
    (iii) the exact main-term + remainder formula.  Route (iii) matches the
    others exactly only when no element of B is itself a d-th power (no
    translate can then hit zero); that condition is reported as
    hypothesis_ok and route (iii) is asserted only under it.
    """
    import numpy as np

    sub = _validate_subgroup_args(p, d)
    if b_set.p != p:
        raise BadIndex("B lives in a different ambient modulus")
    if b_set.bits == 0:
        raise ValueError("B must be nonempty")
    b_elems = b_set.elements()
    length = len(b_elems)
    if length > _MAX_EXPANSION_SET:
        raise ValueError(f"#B = {length} too large for the 2**L expansion")
    g_bits = sub.bits

    # (i) direct: each coset representative u has exactly d preimages x
    count = 0
    for u in sub:
        if all(not (g_bits >> ((u - b) % p)) & 1 for b in b_elems):
            count += 1
    w_direct = d * count

    # (ii) full character expansion in complex arithmetic
    factors = np.ones(p - 1, dtype=complex)
    for inner in _character_expansions(p, d, b_elems):
        factors *= 1 - inner / d
    w_char = complex(factors.sum())

    # (iii) exact main term plus remainder, via the nonprincipal sums
    # star(v) = d*[v in G_d] - 1 for v != 0 and 0 for v = 0
    star = [0] * p
    for v in range(1, p):
        star[v] = d - 1 if (g_bits >> v) & 1 else -1
    u_elems = sub.elements()
    remainder = Fraction(0)
    for ell in range(1, length + 1):
        sign = -1 if ell % 2 else 1
        weight = (d - 1) ** (length - ell)
        subset_total = 0
        for combo in itertools.combinations(b_elems, ell):
            for u in u_elems:
                prod = d  # d preimages per u
                for c in combo:
                    prod *= star[(u - c) % p]
                    if prod == 0:
                        break
                subset_total += prod
        remainder += sign * weight * Fraction(subset_total, d**length)
    main = Fraction((p - 1) * (d - 1) ** length, d**length)
    w_formula = main + remainder

    collision_free = (b_set.bits & g_bits) == 0
    tol = 1e-6 * (p * 2**length)
    agree_direct_char = abs(w_char - w_direct) <= tol
    agree_formula = w_formula == w_direct
    ok = agree_direct_char and (agree_formula or not collision_free)
    return BoundReport(
        experiment="wsum",
        instance={"p": p, "d": d, "B": b_set},
        lhs=float(w_direct),
        rhs=float(w_formula),
        hypothesis_ok=collision_free,
        ok=ok,
        tolerance=tol,
        extras={
            "W": w_direct,
            "R": float(remainder),
            "W_vanishes": w_direct == 0,
            "char_route": [w_char.real, w_char.imag],
            "formula_gap": float(Fraction(w_direct) - w_formula),
        },
    )


def n_count_report(p: int, d: int, b_star: FpSet) -> BoundReport:
    """Count of subgroup elements staying in the subgroup under every
    translate by B*, by direct enumeration and by character expansion."""
    import numpy as np

    sub = _validate_subgroup_args(p, d)
    if b_star.p != p:
        raise BadIndex("B* lives in a different ambient modulus")
    if b_star.bits == 0:
        raise ValueError("B* must be nonempty")
    b_elems = b_star.elements()
    length = len(b_elems)
    g_bits = sub.bits

    n_direct = 0
    for u in sub:
        if all((g_bits >> ((u - b) % p)) & 1 for b in b_elems):
            n_direct += 1

    factors = np.ones(p - 1, dtype=complex)
    for inner in _character_expansions(p, d, b_elems):
        factors *= inner
    n_char = complex(factors.sum()) / d ** (length + 1)

    tol = 1e-6 * (p * 2**length)
    main_term = (p - 1) / d ** (length + 1)
    deviation = abs(n_direct - main_term)
    reference = length * math.sqrt(p)
    return BoundReport(
        experiment="nsum",
        instance={"p": p, "d": d, "B": b_star},
        lhs=deviation,
        rhs=reference,
        ok=abs(n_char - n_direct) <= tol,
        tolerance=tol,
        extras={
            "N": n_direct,
            "main_term": main_term,
            "char_route": [n_char.real, n_char.imag],
            "within_reference_bound": deviation <= reference,
        },
    )


# ---------------------------------------------------------------------------
# shifted-subgroup intersections

def shkvyu_report(p: int, d: int, shifts) -> BoundReport:
    """Size of the intersection of shifted subgroups against the
    4m((#G)^(1/(2m-1)) + 1)^m bound, gated on the size hypothesis for p."""
    sub = _validate_subgroup_args(p, d)
    shifts = [s % p for s in shifts]
    m = len(shifts)
    if m < 2:
        raise ValueError("need at least two shifts")
    if len(set(shifts)) != m:
        raise DuplicateShift(f"shifts repeat: {shifts}")
    if any(s == 0 for s in shifts):
        raise ValueError("shifts must be nonzero")
    order = len(sub)
    root = order ** (1 / (2 * m - 1))
    hypothesis_value = 4 * (m - 1) * order * (root + 1)
    hypothesis_ok = p >= hypothesis_value
    lhs = len(intersect_shifts(sub, shifts))
    rhs = 4 * m * (root + 1) ** m
    return BoundReport(
        experiment="shkvyu",
        instance={"p": p, "d": d, "m": m, "shifts": shifts},
        lhs=float(lhs),
        rhs=rhs,
        hypothesis_ok=hypothesis_ok,
        ok=(lhs <= rhs + 1e-9) if hypothesis_ok else None,
        tolerance=1e-9,
        extras={"subgroup_order": order, "hypothesis_value": hypothesis_value},
    )


# ---------------------------------------------------------------------------
# product-set growth

def growth_exponent_report(p: int, d: int) -> BoundReport:
    """Measured exponent log #(G(G+1)) / log #G for the d-th power subgroup.

    Report-only (the reference exponent 57/56 carries an o(1)); records
    whether a translate element hit zero, in which case the e >= 1 sanity
    floor is flagged rather than asserted.

    The product set is counted by cosets, never built, and no field table
    is read.  With n = #G = (p - 1) / d,

        #(G(G+1)) = n * #{(x + 1)**n : x in G, x != -1} + [n even].

    Proof: G(G+1) is the union of yG over y in G+1.  For y = 0 (present
    exactly when -1 is in G) that is {0}.  For y != 0, yG is the coset of G
    containing y, which has n elements.  F_p^* is cyclic of order p - 1, so
    x**n = 1 has exactly n roots and G is all of them; hence y and y' lie in
    one coset iff (y/y')**n = 1, iff y**n = y'**n.  Distinct cosets are
    disjoint and miss 0, so the union has n elements per coset hit, plus
    one for 0.  -1 is the one element of order 2 of F_p^*, and the cyclic
    group G of order n holds an element of order 2 iff n is even.

    fpcore.powers walks G as h**k, h = g**d of order n.  There are exactly
    d cosets, so once d labels are seen every coset is hit and the rest of
    the walk cannot change the count: it stops there.
    """
    fpcore.check_modulus(p)
    _check_index(p, d)
    order = (p - 1) // d
    if order < 2:
        raise BadIndex(f"degenerate subgroup of order {order}")
    labels = set()
    for x in fpcore.powers(p, d):
        if x != p - 1:
            labels.add(pow(x + 1, order, p))
            if len(labels) == d:
                break
    zero_in_shift = order % 2 == 0
    grown_size = order * len(labels) + zero_in_shift
    e = math.log(grown_size) / math.log(order)
    return BoundReport(
        experiment="growth",
        instance={"p": p, "d": d},
        lhs=e,
        rhs=GROWTH_REFERENCE_EXPONENT,
        extras={
            "e": e,
            "reference_exponent": GROWTH_REFERENCE_EXPONENT,
            "subgroup_order": order,
            "grown_size": grown_size,
            "zero_in_shift": zero_in_shift,
            "size_condition_ok": order <= p ** (1 - DEFAULT_SIZE_EPSILON),
            "epsilon": DEFAULT_SIZE_EPSILON,
        },
    )


# ---------------------------------------------------------------------------
# packing harness

def packing_bound_harness(
    p: int,
    d: int,
    node_budget: int = DecompQuery.node_budget,
    time_budget: float = DecompQuery.time_budget,
) -> BoundReport:
    """Exhaustive maximal packing A + B inside G_d, asserting the exact
    product cap #A * #B <= p, plus envelope ratios at the maximizer."""
    sub = _validate_subgroup_args(p, d)
    query = DecompQuery(
        S=sub,
        mode="packing",
        min_size=1,
        node_budget=node_budget,
        time_budget=time_budget,
    )
    result = max_packing(query)
    product = result.extras.get("product", 0)
    complete = result.status == "found"
    witness_a, witness_b = result.witnesses[0]
    chi = Character(p, d, 1)
    tally = double_char_sum(chi, witness_a, witness_b)
    char_sum_is_product = (
        tally.zeros == 0
        and tally.counts[0] == len(witness_a) * len(witness_b)
        and sum(tally.counts) == tally.counts[0]
    )
    ratios = {}
    lhs_mag = tally.magnitude()
    for nu in (1, 2, 3):
        env = karatsuba_envelope(p, len(witness_a), len(witness_b), nu)
        ratios[f"nu{nu}"] = lhs_mag / env if env else 0.0
    ok = (product <= p and char_sum_is_product) if complete else None
    return BoundReport(
        experiment="packing",
        instance={"p": p, "d": d},
        lhs=float(product),
        rhs=float(p),
        ok=ok,
        extras={
            "status": result.status,
            "A": witness_a,
            "B": witness_b,
            "char_sum_equals_product": char_sum_is_product,
            "karatsuba_ratios": ratios,
            "nodes": result.nodes_explored,
            "min_part_floor": gd_low_value(p, d),
        },
    )


def subgroup_ratio_report(p: int, d: int) -> BoundReport:
    """Envelope ratios for the double sum over A = B = G_d; report-only."""
    g = _validate_subgroup_args(p, d)
    chi = Character(p, d, 1)
    lhs = double_char_sum(chi, g, g).magnitude()
    ratios = {}
    for nu in (1, 2, 3):
        env = karatsuba_envelope(p, len(g), len(g), nu)
        ratios[f"nu{nu}"] = lhs / env if env else 0.0
    return BoundReport(
        experiment="karatsuba",
        instance={"p": p, "d": d, "A": "subgroup", "B": "subgroup"},
        lhs=lhs,
        extras={"ratios": ratios, "subgroup_order": len(g)},
    )


# ---------------------------------------------------------------------------
# interval products

def interval_set(p: int, m: int, n: int) -> FpSet:
    """The reduced interval {m+1, ..., m+n} mod p."""
    if not 1 <= n <= p:
        raise ValueError(f"interval length must be in [1, p], got {n}")
    return FpSet.from_elements(p, ((m + i) % p for i in range(1, n + 1)))


def interval_mult_report(p: int, m: int, n: int, a: FpSet, b: FpSet) -> BoundReport:
    """Solution count of u = a*b with u in the interval, two ways, plus the
    constant-free main-term error inequality."""
    import numpy as np

    fpcore.check_modulus(p)
    if a.p != p or b.p != p:
        raise BadIndex("sets must share the interval's modulus")
    if a.bits == 0 or b.bits == 0:
        raise ValueError("A and B must be nonempty")
    if 0 in a or 0 in b:
        raise ValueError("A and B must avoid zero")
    interval = interval_set(p, m, n)

    elems_a = np.array(a.elements(), dtype=np.int64)
    elems_b = np.array(b.elements(), dtype=np.int64)
    prods = np.mod(np.outer(elems_a, elems_b), p).ravel()
    pair_counts = np.bincount(prods, minlength=p).astype(np.float64)
    ind_interval = np.zeros(p, dtype=np.float64)
    ind_interval[interval.elements()] = 1.0
    j_direct = int(round(float(pair_counts @ ind_interval)))

    # complete expansion over all p frequencies (lambda and lambda - p agree):
    # np.fft.fft(v)[lam] is the sum of v[x] * e(-lam * x / p)
    s_interval = np.fft.fft(ind_interval)
    s_products = np.fft.fft(pair_counts)
    j_fourier = float((np.conj(s_interval) * s_products).sum().real / p)

    tol = 1e-6 * p * p
    agree = abs(j_fourier - j_direct) <= tol
    size_product = len(a) * len(b)
    main_term = size_product * n / p
    half = (p - 1) // 2
    harmonic = sum(1.0 / k for k in range(1, half + 1))
    error_bound = math.sqrt(p * size_product) * 2 * harmonic
    deviation = abs(j_direct - main_term)
    within = deviation <= error_bound + 1e-9
    return BoundReport(
        experiment="interval",
        instance={"p": p, "m": m, "n": n, "A": a, "B": b},
        lhs=deviation,
        rhs=error_bound,
        ok=agree and within,
        tolerance=tol,
        extras={
            "is_decomposition": bits_from(np.flatnonzero(pair_counts).tolist(), p) == interval.bits,
            "J": j_direct,
            "J_fourier": j_fourier,
            "main_term": main_term,
            "error_bound": error_bound,
        },
    )


def bourgain_report(p: int, a: FpSet, b: FpSet) -> BoundReport:
    """Difference-set growth of the 8-fold sumset of A*B against
    min(#A * #B, p - 1) / 2; constant-free, always asserted."""
    fpcore.check_modulus(p)
    if a.p != p or b.p != p:
        raise BadIndex("sets must share the modulus")
    if a.bits == 0 or b.bits == 0:
        raise ValueError("A and B must be nonempty")
    if a.bits == 1 or b.bits == 1:
        raise ZeroSetOnly("operand equals {0}")
    ab = productset(a, b)
    eight = iterated_sumset(ab, 8)
    diff = sumset(eight, affine(eight, -1, 0))
    lhs = len(diff)
    rhs = min(len(a) * len(b), p - 1) / 2
    return BoundReport(
        experiment="bourgain",
        instance={"p": p, "A": a, "B": b},
        lhs=float(lhs),
        rhs=rhs,
        ok=lhs > rhs,
        extras={"product_set_size": len(ab), "eightfold_size": len(eight)},
    )


# ---------------------------------------------------------------------------
# instance grids: the indices d a grid takes at p, and the seeded draws.
# Every generator takes the primes it may use (cli._config_primes picks
# them from a sweep's p_range) and states no default of its own.

def grid_divisors(p: int, d_filter) -> list[int]:
    """The indices d a grid takes at p, ascending: for "all" (or None) every
    d >= 2 dividing p - 1; for "proper" and "order>=2" those with d < p - 1
    as well (the same filter: for d | p - 1, d < p - 1 exactly when
    #G_d >= 2); for an integer, d itself when it divides p - 1."""
    divs = fpcore.divisors(p - 1)
    if d_filter is None or d_filter == "all":
        return [d for d in divs if d >= 2]
    if d_filter in ("proper", "order>=2"):
        return [d for d in divs if 2 <= d < p - 1]
    try:
        d = int(d_filter)
    except (TypeError, ValueError):
        raise ConfigError(f"bad d_filter {d_filter!r}") from None
    return [d] if d in divs else []


def _draws(primes: list[int], count: int, seed: int, label: str):
    """(index, rng, p) for each of count seeded draws: the rng is keyed by
    seed, label and index, and p is its first draw, from primes."""
    for i in range(count):
        rng = random.Random(f"{seed}:{label}:{i}")
        yield i, rng, primes[rng.randrange(len(primes))]


def _random_d(rng: random.Random, p: int) -> int:
    options = grid_divisors(p, "all")
    return options[rng.randrange(len(options))]


def random_fpset(rng: random.Random, p: int) -> FpSet:
    """Random nonempty subset with mixed density (each AND halves the
    expected size)."""
    bits = rng.getrandbits(p)
    for _ in range(rng.randint(0, 3)):
        bits &= rng.getrandbits(p)
    bits &= (1 << p) - 1
    if bits == 0:
        bits = 1 << rng.randrange(p)
    return FpSet(p, bits)


def random_small_fpset(
    rng: random.Random,
    p: int,
    max_size: int,
    exclude=(),
) -> FpSet:
    size = rng.randint(1, min(max_size, p - len(exclude)))
    chosen: set[int] = set()
    banned = set(exclude)
    while len(chosen) < size:
        x = rng.randrange(p)
        if x not in banned:
            chosen.add(x)
    return FpSet.from_elements(p, chosen)


def vinogradov_instances(primes, count, seed):
    for i, rng, p in _draws(primes, count, seed, "vinogradov"):
        d = _random_d(rng, p)
        j = rng.randint(1, d - 1)
        yield {
            "index": i,
            "p": p,
            "d": d,
            "j": j,
            "A": random_fpset(rng, p),
            "B": random_fpset(rng, p),
        }


def weil_instances(primes, count, seed, deg_max):
    for i, rng, p in _draws(primes, count, seed, "weil"):
        d = _random_d(rng, p)
        units = [j for j in range(1, d) if math.gcd(j, d) == 1]
        j = units[rng.randrange(len(units))]
        while True:
            deg = rng.randint(1, min(deg_max, p - 1))
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randint(1, p - 1)]
            if polyfp.degree(polyfp.gcd(coeffs, polyfp.derivative(coeffs, p), p)) == 0:
                break
        yield {"index": i, "p": p, "d": d, "j": j, "poly": coeffs}


def wsum_instances(primes, count, seed, b_max):
    """W-identity instances; B is drawn outside G_d so the main-term/
    remainder split is an exact identity (see w_identity_report)."""
    for i, rng, p in _draws(primes, count, seed, "wsum"):
        d = _random_d(rng, p)
        g_elems = set(subgroup(p, d))
        b = random_small_fpset(rng, p, b_max, exclude=g_elems)
        yield {"index": i, "p": p, "d": d, "B": b}


def nsum_instances(primes, count, seed, b_max):
    for i, rng, p in _draws(primes, count, seed, "nsum"):
        d = _random_d(rng, p)
        yield {"index": i, "p": p, "d": d, "B": random_small_fpset(rng, p, b_max)}


def shkvyu_instances(primes, count, seed, order_cap, ms):
    """count shift samples for each p, each d with #G_d <= order_cap and each
    m in ms (m <= p - 1), numbered within their (p, d, m)."""
    for p in primes:
        for d in grid_divisors(p, "all"):
            if (p - 1) // d > order_cap:
                continue
            for m in ms:
                if m > p - 1:
                    continue
                rng = random.Random(f"{seed}:shkvyu:{p}:{d}:{m}")
                for s in range(count):
                    shifts: set[int] = set()
                    while len(shifts) < m:
                        shifts.add(rng.randint(1, p - 1))
                    yield {
                        "index": s,
                        "p": p,
                        "d": d,
                        "m": m,
                        "shifts": sorted(shifts),
                    }


def bourgain_instances(primes, count, seed, size_max):
    for i, rng, p in _draws(primes, count, seed, "bourgain"):
        while True:
            a = random_small_fpset(rng, p, size_max)
            b = random_small_fpset(rng, p, size_max)
            if a.bits != 1 and b.bits != 1:
                break
        yield {"index": i, "p": p, "A": a, "B": b}


def interval_instances(primes, count, seed):
    for i, rng, p in _draws(primes, count, seed, "interval"):
        m = rng.randrange(p)
        n = rng.randint(1, p)
        a = random_small_fpset(rng, p, p - 1, exclude=(0,))
        b = random_small_fpset(rng, p, p - 1, exclude=(0,))
        yield {"index": i, "p": p, "m": m, "n": n, "A": a, "B": b}

