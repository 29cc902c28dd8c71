"""Multiplicative characters of F_p^* and exact character-sum accumulation.

A character of order dividing d is indexed against the primitive root g
of the field of p: chi_j(g**k) = zeta_d**(j*k).  The sums read that field's
dlog table and accumulate integer counts per d-th root of unity, so
floating point enters only at the final magnitude extraction.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass

from . import polyfp
from .errors import BadIndex
from .fpcore import check_modulus, make_field
from .reports import BoundReport
from .setalg import FpSet

MAGNITUDE_TOL = 1e-6


@dataclass(frozen=True)
class Character:
    """chi_j in X_d: the character of F_p^* sending g**k to zeta_d**(j*k).

    j = 0 is the principal character; chi_j has order d / gcd(j, d).
    chi(0) contributes zero by convention.  Checks p, then d and j.
    """

    p: int
    d: int
    j: int

    def __post_init__(self):
        p = self.p
        check_modulus(p)
        if self.d < 1 or (p - 1) % self.d != 0:
            raise BadIndex(f"character order context d = {self.d} must divide p-1 = {p - 1}")
        if not 0 <= self.j < self.d:
            raise BadIndex(f"character index j = {self.j} out of range [0, {self.d})")

    @property
    def is_principal(self) -> bool:
        return self.j == 0

    @property
    def order(self) -> int:
        return self.d // math.gcd(self.j, self.d)


class RootOfUnityTally:
    """Exact accumulator: counts[r] summands equal to zeta_d**r, plus zeros.

    The complex value sum(counts[r] * e^(2*pi*i*r/d)) is only formed on
    extraction.
    """

    __slots__ = ("d", "counts", "zeros")

    def __init__(self, d: int):
        self.d = d
        self.counts = [0] * d
        self.zeros = 0

    def total(self) -> int:
        return sum(self.counts) + self.zeros

    def value(self) -> complex:
        d = self.d
        if d == 1:
            return complex(self.counts[0])
        if d == 2:
            return complex(self.counts[0] - self.counts[1])
        return sum(
            c * cmath.exp(2j * cmath.pi * r / d) for r, c in enumerate(self.counts) if c
        )

    def magnitude(self) -> float:
        return abs(self.value())

    def __repr__(self):
        return f"RootOfUnityTally(d={self.d}, counts={self.counts}, zeros={self.zeros})"


def poly_char_sum(chi: Character, coeffs: list[int]) -> RootOfUnityTally:
    """Exact tally of chi(F(x)) over all x in F_p."""
    p = chi.p
    coeffs = polyfp.normalize(coeffs, p)
    tally = RootOfUnityTally(chi.d)
    dl = make_field(p).dlog
    j, d = chi.j, chi.d
    for x in range(p):
        v = polyfp.evaluate(coeffs, x, p)
        if v == 0:
            tally.zeros += 1
        else:
            tally.counts[j * dl[v] % d] += 1
    return tally


def weil_report(chi: Character, coeffs: list[int]) -> BoundReport:
    """Complete-sum magnitude of chi(F(x)) against (D-1) * sqrt(p).

    D is the number of distinct roots of F over the closure.  The bound is
    asserted only when F is not a constant times a perfect (order chi)-th
    power.  For D = 1 the degenerate bound 0 is replaced by 1 (an admissible
    F with a single root gives a complete sum of magnitude at most 1).
    """
    p = chi.p
    d_ord = chi.order
    if d_ord < 2:
        raise BadIndex("Weil comparison needs a non-principal character")
    coeffs = polyfp.normalize(coeffs, p)
    if not coeffs:
        raise ValueError("F must be nonzero")
    if polyfp.degree(coeffs) >= p:
        raise ValueError("need deg F < p for the root count")
    distinct = polyfp.distinct_root_count(coeffs, p)
    hypothesis_ok = not polyfp.is_perfect_power(coeffs, p, d_ord)
    tally = poly_char_sum(chi, coeffs)
    magnitude = tally.magnitude()
    bound = (distinct - 1) * math.sqrt(p)
    ok = None
    if hypothesis_ok:
        effective = bound if distinct > 1 else 1.0
        ok = magnitude <= effective + MAGNITUDE_TOL
    return BoundReport(
        experiment="weil",
        instance={"p": p, "d": chi.d, "j": chi.j, "order": d_ord, "poly": coeffs},
        lhs=magnitude,
        rhs=bound,
        hypothesis_ok=hypothesis_ok,
        ok=ok,
        tolerance=MAGNITUDE_TOL,
        extras={"distinct_roots": distinct, "degree": polyfp.degree(coeffs)},
    )


def double_char_sum(chi: Character, a: FpSet, b: FpSet) -> RootOfUnityTally:
    """Exact tally of chi(x + y) over all pairs (x, y) in A x B.

    Pair multiplicities per residue come from one big-integer product
    (Kronecker substitution): each indicator vector becomes an integer with
    one 4-byte slot per residue, and the product's slot k counts the pairs
    with x + y = k.  A count is at most p < 2**20, so no slot carries
    into the next.  Slot x + p is then folded onto x, and each residue's
    count goes to the root of unity chi(x) takes, so the cost is one
    product of two 4p-byte integers plus O(p) interpreter steps rather than
    O(#A * #B).
    """
    p = chi.p
    if a.p != p or b.p != p:
        raise BadIndex("sets must live in the character's field")
    tally = RootOfUnityTally(chi.d)
    if a.bits == 0 or b.bits == 0:
        return tally
    pairs = struct.unpack(f"<{2 * p}I", (_slots(a) * _slots(b)).to_bytes(8 * p, "little"))
    dlog, j, d = make_field(p).dlog, chi.j, chi.d
    tally.zeros = pairs[0] + pairs[p]
    for x in range(1, p):
        count = pairs[x] + pairs[x + p]
        if count:
            tally.counts[j * dlog[x] % d] += count
    if tally.total() != len(a) * len(b):
        raise AssertionError(f"tally total {tally.total()} is not #A * #B = {len(a) * len(b)}")
    return tally


def _slots(s: FpSet) -> int:
    """The indicator vector of s as an integer with one 4-byte little-endian
    slot per residue: 2**(32 * x) for each x in s, summed."""
    buf = bytearray(4 * s.p)
    for x in s.elements():
        buf[4 * x] = 1
    return int.from_bytes(buf, "little")


def vinogradov_check(chi: Character, a: FpSet, b: FpSet) -> BoundReport:
    """|double sum| <= sqrt(p * #A * #B); constant-free, must always hold."""
    if chi.is_principal:
        raise BadIndex("bound needs a non-principal character")
    if a.bits == 0 or b.bits == 0:
        raise ValueError("A and B must be nonempty")
    p = chi.p
    lhs = double_char_sum(chi, a, b).magnitude()
    rhs = math.sqrt(p * len(a) * len(b))
    return BoundReport(
        experiment="vinogradov",
        instance={"p": p, "d": chi.d, "j": chi.j, "A": a, "B": b},
        lhs=lhs,
        rhs=rhs,
        ok=lhs <= rhs + MAGNITUDE_TOL,
        tolerance=MAGNITUDE_TOL,
    )


def karatsuba_envelope(p: int, na: int, nb: int, nu: int) -> float:
    return na ** ((2 * nu - 1) / (2 * nu)) * (
        math.sqrt(nb) * p ** (1 / (2 * nu)) + nb * p ** (1 / (4 * nu))
    )


def karatsuba_ratio(chi: Character, a: FpSet, b: FpSet, nu: int) -> BoundReport:
    """Measured double sum against the nu-parametrized envelope, constant 1.

    Report-only: the implied constant of the underlying estimate is unknown,
    so the ratio is recorded for trend analysis, never asserted.
    """
    if chi.is_principal:
        raise BadIndex("envelope comparison needs a non-principal character")
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    p = chi.p
    lhs = double_char_sum(chi, a, b).magnitude()
    envelope = karatsuba_envelope(p, len(a), len(b), nu)
    ratio = lhs / envelope if envelope > 0 else 0.0
    return BoundReport(
        experiment="karatsuba",
        instance={"p": p, "d": chi.d, "j": chi.j, "A": a, "B": b, "nu": nu},
        lhs=lhs,
        rhs=envelope,
        extras={"ratio": ratio},
    )
