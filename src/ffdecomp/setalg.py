"""Dense bitset subsets of Z_p and the set algebra built on them.

An FpSet stores its ambient modulus p and one Python integer whose bit i
is set exactly when i belongs to the set.  Sumsets become OR-folds of
cyclic shifts, intersections become AND, and cardinality is a popcount,
all word-parallel.  Product sets load the field of p (fpcore.make_field):
they are taken in discrete-log space, where multiplying by a fixed element
is a cyclic shift of p-1 bits.  Values are immutable; every operation
returns a new set.

Vectors go to and from element lists only through bit_elements and
bits_from, which are linear in the bit length: setting or clearing one bit
of a p-bit integer copies all p bits, so a loop of `bits |= 1 << x` or of
lowest-bit extraction is quadratic once p nears 2**20.  Both helpers stay
pure Python, because most sets here are small and many.
"""

from __future__ import annotations

import sys
from array import array

from .errors import DuplicateShift, MixedModulus

def cyclic_shift(bits: int, k: int, p: int) -> int:
    """Rotate a p-bit vector left by k positions: {x + k mod p : x in bits}."""
    k %= p
    if k == 0:
        return bits
    mask = (1 << p) - 1
    return ((bits << k) | (bits >> (p - k))) & mask


def bit_elements(bits: int) -> list[int]:
    """Positions of set bits, ascending; linear in the bit length.

    The vector is cut into 64-bit words and the lowest-bit loop runs on each
    word, so no step touches more than one word.
    """
    words = array("Q", bits.to_bytes(-(-bits.bit_length() // 64) * 8, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    out = []
    for i, word in enumerate(words):
        base = 64 * i - 1
        while word:
            low = word & -word
            out.append(base + low.bit_length())
            word ^= low
    return out


def bits_from(positions, n: int) -> int:
    """The vector with exactly the given positions set, each 0 <= x < n
    (repeats allowed); linear in n plus the number of positions.

    The vector is assembled in a byte buffer and converted once.
    """
    buf = bytearray((n + 7) >> 3)
    for x in positions:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


class FpSet:
    """A subset of Z_p as a dense bit-vector.

    bits must only have bits below p set; use from_elements for arbitrary
    integer input (it reduces mod p).  Immutable, equal and hashable on
    (p, bits).
    """

    __slots__ = ("p", "bits")

    def __init__(self, p: int, bits: int):
        if p < 1:
            raise ValueError(f"ambient modulus must be positive, got {p}")
        if bits < 0 or bits >> p:
            raise ValueError("bit-vector has bits outside [0, p)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError(f"FpSet is immutable: cannot set {name!r}")

    def __reduce__(self):
        # unpickling a slotted object sets its slots through __setattr__,
        # which refuses; rebuild through __init__ instead
        return FpSet, (self.p, self.bits)

    def __eq__(self, other):
        if other.__class__ is not FpSet:
            return NotImplemented
        return self.p == other.p and self.bits == other.bits

    def __hash__(self):
        return hash((self.p, self.bits))

    @classmethod
    def from_elements(cls, p: int, elements) -> "FpSet":
        return cls(p, bits_from((e % p for e in elements), p))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, x: int) -> bool:
        return bool(self.bits >> (x % self.p) & 1)

    def __iter__(self):
        return iter(bit_elements(self.bits))

    def elements(self) -> list[int]:
        return bit_elements(self.bits)

    def __repr__(self):
        return format_set(self)

    def translate(self, t: int) -> "FpSet":
        return FpSet(self.p, cyclic_shift(self.bits, t, self.p))


def check_same(p: int, *sets: FpSet) -> None:
    """Refuse, with MixedModulus, any of the sets whose ambient modulus is
    not p: the one check of every operation that takes sets and a modulus."""
    for s in sets:
        if s.p != p:
            raise MixedModulus(f"ambient moduli differ: {p} vs {s.p}")


def sumset(a: FpSet, b: FpSet) -> FpSet:
    """A + B = {x + y mod p}; OR of cyclic shifts of the larger operand."""
    check_same(a.p, b)
    big, small = (a.bits, b.bits) if len(a) >= len(b) else (b.bits, a.bits)
    out = 0
    p = a.p
    for s in bit_elements(small):
        out |= cyclic_shift(big, s, p)
    return FpSet(p, out)


def productset(a: FpSet, b: FpSet) -> FpSet:
    """A * B = {x * y mod p}, for an odd prime p < 2**20.

    Zero is handled apart; the nonzero part is computed in discrete-log
    space, where multiplication by a fixed element is a cyclic shift mod p-1.
    """
    from .fpcore import make_field  # fpcore builds its sets with this module

    check_same(a.p, b)
    p = a.p
    fld = make_field(p)
    if a.bits == 0 or b.bits == 0:
        return FpSet(p, 0)
    out = 0
    if (a.bits & 1 and b.bits) or (b.bits & 1 and a.bits):
        out |= 1
    a_nz = a.bits & ~1
    b_nz = b.bits & ~1
    if a_nz == 0 or b_nz == 0:
        return FpSet(p, out)
    small, big = (a_nz, b_nz) if a_nz.bit_count() <= b_nz.bit_count() else (b_nz, a_nz)
    n = p - 1
    dl = fld.dlog
    idx_big = bits_from([dl[x] for x in bit_elements(big)], n)
    acc = 0
    mask = (1 << n) - 1
    for x in bit_elements(small):
        k = dl[x]
        if k == 0:
            acc |= idx_big
        else:
            acc |= ((idx_big << k) | (idx_big >> (n - k))) & mask
    exp = fld.exp
    out |= bits_from([exp[k] for k in bit_elements(acc)], p)
    return FpSet(p, out)


def affine(a: FpSet, lam: int, mu: int) -> FpSet:
    """lam * A + mu = {lam*x + mu mod p}; lam = 0 collapses to {mu}."""
    p = a.p
    lam %= p
    mu %= p
    bits = bits_from([lam * x % p for x in bit_elements(a.bits)], p)
    return FpSet(p, cyclic_shift(bits, mu, p))


def iterated_sumset(a: FpSet, k: int) -> FpSet:
    """k-fold sumset A + ... + A: A added to the running sum k - 1 times, so
    sumset always shifts by A, the smaller operand."""
    if k < 1:
        raise ValueError(f"fold count must be >= 1, got {k}")
    out = a
    for _ in range(k - 1):
        out = sumset(out, a)
    return out


def intersect_shifts(g: FpSet, shifts) -> FpSet:
    """Intersection of the translates G + b over all b in shifts."""
    shifts = list(shifts)
    if not shifts:
        raise ValueError("need at least one shift")
    if len(set(s % g.p for s in shifts)) != len(shifts):
        raise DuplicateShift(f"shifts repeat: {shifts}")
    out = (1 << g.p) - 1
    for b in shifts:
        out &= cyclic_shift(g.bits, b, g.p)
    return FpSet(g.p, out)


def growth_product(a: FpSet, b: int) -> FpSet:
    """A(A + b) = {x * (y + b) mod p}, for an odd prime p < 2**20.

    Both product sets are taken in discrete-log space.  For b != 0 the
    result is also computed through the conjugation identity
    A(A+b) = b^2 * (b^{-1}A)(b^{-1}A + 1) and the two must agree exactly.
    """
    p = a.p
    b %= p
    direct = productset(a, a.translate(b))
    if b != 0 and a.bits:
        binv = pow(b, -1, p)
        scaled = affine(a, binv, 0)
        conj = affine(productset(scaled, scaled.translate(1)), b * b % p, 0)
        if direct != conj:
            raise AssertionError(f"conjugation identity violated at p={p}, b={b}")
    return direct


def parse_set(text: str) -> FpSet:
    """Parse the literal form 'p:{e1,e2,...}', e.g. '7:{1,2,4}'."""
    text = text.strip()
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"bad set literal {text!r}: expected 'p:{{...}}'")
    try:
        p = int(head)
    except ValueError:
        raise ValueError(f"bad modulus in set literal {text!r}") from None
    body = body.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"bad set literal {text!r}: body must be braced")
    inner = body[1:-1].strip()
    if not inner:
        return FpSet(p, 0)
    try:
        elems = [int(tok) for tok in inner.split(",")]
    except ValueError:
        raise ValueError(f"bad element in set literal {text!r}") from None
    return FpSet.from_elements(p, elems)


def format_set(s: FpSet) -> str:
    return f"{s.p}:{{{','.join(map(str, s.elements()))}}}"
