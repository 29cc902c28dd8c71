"""Prime fields Z/pZ with full discrete-log tables and their multiplicative subgroups.

A PrimeField fixes the smallest primitive root g of p and tabulates the
discrete logarithm of every nonzero residue, so that character evaluation
and product sets reduce to table lookups.  Each table is a flat
array("i"), four bytes per residue, whose items read back as Python ints.
Tables are cached on disk, one binary file per modulus holding both tables
and a CRC-32 of them.  A load reads each table in place (readinto) into an
array("i") allocated once at its full size, and imports nothing; only a
cold build imports numpy, inside _build_field, whose baby-step giant-step
blocks are about ten times faster than a Python loop at p near 2**20.
Fields are memoized per modulus, and only code that reads dlog or exp
loads one.  G_d has one enumeration, powers, which walks g**(d*k) with no
table; subgroup memoizes its bit set per (p, d).  check_modulus holds the
refusals make_field runs before a load or build (not an int, p >= 2**20,
not an odd prime); every caller that takes p runs it.
"""

from __future__ import annotations

import math
import operator
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path

from .errors import BadIndex, CompositeModulus, ModulusTooLarge
from .setalg import FpSet, bits_from

MODULUS_CAP = 1 << 20

_CACHE_VERSION = 2
# version tag, p, g, zlib.crc32 of the body; the body is dlog[1:] then exp,
# little-endian int32
_HEADER = struct.Struct("<BQQI")

_FIELD_CACHE: dict[int, "PrimeField"] = {}
_SUBGROUPS: dict[tuple[int, int], FpSet] = {}


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, n + 1) if sieve[i]]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; adequate for n < 2**40."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors."""
    divs = [1]
    for q, e in factorize(n).items():
        divs = [d * q**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = n
    for q in factorize(n):
        phi = phi // q * (q - 1)
    return phi


def tau(n: int) -> int:
    """Number of positive divisors."""
    t = 1
    for e in factorize(n).values():
        t *= e + 1
    return t


def smallest_primitive_root(p: int) -> int:
    """Ascending scan; order check via the prime factorization of p-1."""
    prime_factors = list(factorize(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_factors):
            return g
    raise ArithmeticError(f"no primitive root found modulo {p}")  # unreachable for prime p


class PrimeField:
    """Immutable context for arithmetic modulo an odd prime p.

    Attributes:
      p: the modulus.
      g: smallest primitive root modulo p.
      dlog: array("i") of length p; dlog[x] = k with g**k == x (mod p) for
            x >= 1, dlog[0] = -1 as a sentinel.
      exp: array("i") of length p-1; exp[k] = g**k mod p.

    Indexing, slicing and iteration give Python ints, as a list would.

    Instances are built once per modulus and shared; never mutate them.
    """

    __slots__ = ("p", "g", "dlog", "exp")

    def __init__(self, p: int, g: int, dlog: array, exp: array):
        self.p = p
        self.g = g
        self.dlog = dlog
        self.exp = exp

    def __repr__(self):
        return f"PrimeField(p={self.p}, g={self.g})"


def _int_array(values) -> array:
    """A contiguous numpy vector of C ints as an array("i"), copied from its
    buffer, with no Python int per item."""
    out = array("i")
    out.frombytes(values.view("u1"))
    return out


def _build_field(p: int) -> PrimeField:
    """Baby-step giant-step blocks: row i, column j holds g**(m*i + j), a
    product of two residues below p < 2**20, so int64 holds it exactly.
    numpy is imported here, not at module level, so that a process which
    only loads tables from disk never pays for its import."""
    import numpy as np

    g = smallest_primitive_root(p)
    n = p - 1
    m = math.isqrt(n - 1) + 1  # m * m >= n
    base = np.array([pow(g, j, p) for j in range(m)], dtype=np.int64)
    rows = np.array([pow(g, m * i, p) for i in range(-(-n // m))], dtype=np.int64)
    exp = (rows[:, None] * base[None, :] % p).ravel()[:n].astype(np.intc)
    dlog = np.empty(p, dtype=np.intc)
    dlog[0] = -1
    dlog[exp] = np.arange(n, dtype=np.intc)
    return PrimeField(p, g, _int_array(dlog), _int_array(exp))


def default_cache_dir() -> Path:
    env = os.environ.get("FFDECOMP_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ffdecomp"


def _cache_path(p: int, cache_dir: Path) -> Path:
    return cache_dir / f"field_{p}.bin"


def _write_cache(fld: PrimeField, cache_dir: Path) -> None:
    body = fld.dlog[1:] + fld.exp  # dlog[0] = -1 is implied, not stored
    if sys.byteorder == "big":
        body.byteswap()
    path = _cache_path(fld.p, cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    # A name of its own per writer ("x" refuses an existing file), so
    # concurrent writers of one field never share a half-written file; the
    # rename is atomic.
    tmp = cache_dir / f"{path.stem}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(_HEADER.pack(_CACHE_VERSION, fld.p, fld.g, zlib.crc32(body)))
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_cache(p: int, cache_dir: Path) -> PrimeField | None:
    """The field stored for p, or None if the file is missing, of another
    version or modulus or of the wrong size, if a read comes up short, or
    if its CRC or its g does not match its tables.  Each table is allocated
    once and read into in place, so a load holds nothing but the tables."""
    n = p - 1  # items in each stored table
    try:
        with open(_cache_path(p, cache_dir), "rb", buffering=0) as fh:
            if os.fstat(fh.fileno()).st_size != _HEADER.size + 2 * 4 * n:
                return None
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                return None
            version, p_stored, g, crc = _HEADER.unpack(header)
            if version != _CACHE_VERSION or p_stored != p:
                return None
            dlog, exp = array("i", [-1]) * p, array("i", [0]) * n
            for table in (memoryview(dlog)[1:], memoryview(exp)):
                if fh.readinto(table) != table.nbytes:
                    return None
    except OSError:
        return None
    # the body's CRC, over the little-endian bytes as read, before any byteswap
    if zlib.crc32(exp, zlib.crc32(memoryview(dlog)[1:])) != crc:
        return None
    if sys.byteorder == "big":
        dlog.byteswap()  # dlog[0] = -1 has all bytes equal, so it survives
        exp.byteswap()
    if exp[1] != g:
        return None  # the CRC covers the body only; this checks the header's g
    return PrimeField(p, g, dlog, exp)


def check_modulus(p: int) -> None:
    """Refuse a modulus that is not an int, not below 2**20 or not an odd
    prime; the checks make_field runs before it loads or builds a field."""
    if not isinstance(p, int):
        raise TypeError(f"modulus must be an integer, got {type(p).__name__}")
    if p >= MODULUS_CAP:
        raise ModulusTooLarge(f"p = {p} exceeds the dlog-table cap 2**20")
    if p < 3:
        raise CompositeModulus(f"p = {p}: modulus must be an odd prime >= 3")
    if factorize(p) != {p: 1}:
        raise CompositeModulus(f"p = {p} is not prime")


def make_field(p: int, cache_dir: str | Path | None = None) -> PrimeField:
    """Construct (or load) the field context for an odd prime p < 2**20.

    Results are memoized in-process and persisted under the cache directory
    (FFDECOMP_CACHE_DIR, else ~/.cache/ffdecomp).  Cache files that fail the
    version, modulus, size, CRC or generator check are silently rebuilt.
    """
    cached = _FIELD_CACHE.get(p) if isinstance(p, int) else None  # 5.0 hashes like 5
    if cached is not None:
        return cached
    check_modulus(p)
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    fld = _read_cache(p, directory)
    if fld is None:
        fld = _build_field(p)
        try:
            _write_cache(fld, directory)
        except OSError:
            pass  # cache is an optimization only
    _FIELD_CACHE[p] = fld
    return fld


def powers(p: int, d: int):
    """g**(d*k) mod p for k < (p - 1)/d, g the smallest primitive root, by
    repeated multiplication: for d | p - 1, G_d in the order of its logs."""
    h = pow(smallest_primitive_root(p), d, p)
    x = 1
    for _ in range((p - 1) // d):
        yield x
        x = x * h % p


def subgroup(p: int, d: int) -> FpSet:
    """G_d = {x**d : x in F_p^*} = {g**k : d | k}, memoized per (p, d);
    built from powers, it reads no field table."""
    d = operator.index(d)
    sub = _SUBGROUPS.get((p, d)) if isinstance(p, int) else None  # 5.0 hashes like 5
    if sub is None:
        check_modulus(p)
        if d < 1 or (p - 1) % d != 0:
            raise BadIndex(f"d = {d} does not divide p-1 = {p - 1}")
        sub = _SUBGROUPS[p, d] = FpSet(p, bits_from(powers(p, d), p))
    return sub
