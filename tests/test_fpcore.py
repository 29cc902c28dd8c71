import os
import struct
import subprocess
import sys
import time
import tracemalloc
import zlib
from pathlib import Path

import pytest

from conftest import multiplicative_order
from ffdecomp import fpcore
from ffdecomp.errors import BadIndex, CompositeModulus, ModulusTooLarge
from ffdecomp.fpcore import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    make_field,
    primes_up_to,
    smallest_primitive_root,
    subgroup,
    tau,
)


def test_is_prime_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(10_000):
        assert is_prime(n) == trial(n), n


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []


def test_factorize_divisors_phi_tau():
    for n in range(1, 600):
        fact = factorize(n)
        prod = 1
        for q, e in fact.items():
            assert is_prime(q)
            prod *= q**e
        assert prod == n
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)
        assert tau(n) == len(divisors(n))


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_smallest_primitive_root_matches_order_scan():
    for p in primes_up_to(199):
        if p < 3:
            continue
        g = smallest_primitive_root(p)
        assert multiplicative_order(g, p) == p - 1
        for smaller in range(2, g):
            assert multiplicative_order(smaller, p) != p - 1


def test_make_field_examples():
    assert make_field(7).g == 3
    assert make_field(13).g == 2
    with pytest.raises(CompositeModulus):
        make_field(9)
    with pytest.raises(ModulusTooLarge):
        make_field(1 << 20)
    with pytest.raises(CompositeModulus):
        make_field(2)


def test_dlog_examples():
    fld = make_field(7)
    assert fld.g == 3
    assert fld.dlog[6] == 3
    assert fld.dlog[1] == 0
    assert fld.dlog[0] == -1  # 0 has no discrete log: a sentinel
    assert list(fld.exp) == [1, 3, 2, 6, 4, 5]


def test_dlog_roundtrip_and_bijection():
    for p in (7, 13, 101, 499):
        fld = make_field(p)
        seen = set()
        for x in range(1, p):
            k = fld.dlog[x]
            assert 0 <= k < p - 1
            assert pow(fld.g, k, p) == x
            seen.add(k)
        assert len(seen) == p - 1
        for x in range(1, p):
            # x^-1 = g^(-dlog x): inverting is negating the log
            assert fld.exp[-fld.dlog[x] % (p - 1)] * x % p == 1


def test_subgroup_examples():
    fld7 = make_field(7)
    assert subgroup(fld7, 2).elements() == [1, 2, 4]
    assert subgroup(fld7, 1).elements() == [1, 2, 3, 4, 5, 6]
    fld13 = make_field(13)
    assert subgroup(fld13, 3).elements() == [1, 5, 8, 12]
    with pytest.raises(BadIndex):
        subgroup(fld7, 4)


def test_subgroup_against_power_oracle():
    for p in (7, 13, 31, 61):
        fld = make_field(p)
        for d in divisors(p - 1):
            expected = sorted({pow(x, d, p) for x in range(1, p)})
            assert subgroup(fld, d).elements() == expected


def test_subgroup_structure_all_p_to_499():
    import random

    rng = random.Random(7)
    for p in primes_up_to(499):
        if p < 3:
            continue
        fld = make_field(p)
        for d in divisors(p - 1):
            sub = subgroup(fld, d)
            elems = sub.elements()
            assert len(elems) == (p - 1) // d
            assert 1 in sub
            for x in range(1, p):
                assert (x in sub) == (fld.dlog[x] % d == 0)
            for _ in range(10):
                a, b = rng.choice(elems), rng.choice(elems)
                assert a * b % p in sub


def test_disk_cache_layout_and_invalidation(tmp_path):
    p = 10007
    fpcore._FIELD_CACHE.pop(p, None)
    fld = make_field(p, cache_dir=tmp_path)
    path = tmp_path / f"field_{p}.bin"
    raw = path.read_bytes()
    version, p_stored, g_stored, crc = struct.unpack_from("<BQQI", raw)
    assert (version, p_stored, g_stored) == (2, p, fld.g)
    assert len(raw) == 21 + 8 * (p - 1) and crc == zlib.crc32(raw[21:])
    x = 4242  # dlog[x] is table entry x - 1, exp[x] entry x of the second half
    assert struct.unpack_from("<i", raw, 21 + 4 * (x - 1))[0] == fld.dlog[x]
    assert struct.unpack_from("<i", raw, 21 + 4 * (p - 1 + x))[0] == fld.exp[x]

    # loading from disk reproduces the table
    fpcore._FIELD_CACHE.pop(p)
    reloaded = make_field(p, cache_dir=tmp_path)
    assert reloaded.g == fld.g and reloaded.dlog == fld.dlog

    # a stale version tag forces a rebuild and a rewrite
    fpcore._FIELD_CACHE.pop(p)
    path.write_bytes(b"\xff" + raw[1:])
    rebuilt = make_field(p, cache_dir=tmp_path)
    assert rebuilt.dlog == fld.dlog
    assert path.read_bytes() == raw
    fpcore._FIELD_CACHE.pop(p, None)


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FFDECOMP_CACHE_DIR", str(tmp_path))
    p = 10009
    fpcore._FIELD_CACHE.pop(p, None)
    make_field(p)
    assert (tmp_path / f"field_{p}.bin").exists()
    fpcore._FIELD_CACHE.pop(p, None)


def _power_walk(p, g):
    """dlog and exp tables by stepping through the powers of g one at a time."""
    dlog, exp = [-1] * p, [0] * (p - 1)
    cur = 1
    for k in range(p - 1):
        dlog[cur], exp[k] = k, cur
        cur = cur * g % p
    return dlog, exp


@pytest.mark.parametrize("p", [3, 5, 101, 1048573])
def test_cache_roundtrip_matches_cold_build_byte_for_byte(tmp_path, p):
    built = fpcore._build_field(p)
    dlog, exp = _power_walk(p, smallest_primitive_root(p))
    assert (built.g, list(built.dlog), list(built.exp)) == (smallest_primitive_root(p), dlog, exp)
    fpcore._write_cache(built, tmp_path)
    raw = (tmp_path / f"field_{p}.bin").read_bytes()
    body = struct.pack(f"<{2 * (p - 1)}i", *dlog[1:], *exp)
    assert raw == struct.pack("<BQQI", 2, p, built.g, zlib.crc32(body)) + body
    loaded = fpcore._read_cache(p, tmp_path)
    assert (loaded.p, loaded.g, list(loaded.dlog), list(loaded.exp)) == (p, built.g, dlog, exp)
    assert list(tmp_path.iterdir()) == [tmp_path / f"field_{p}.bin"]


def test_cache_whose_table_is_no_permutation_is_rebuilt(tmp_path):
    p = 101
    fpcore._FIELD_CACHE.pop(p, None)
    fpcore._write_cache(fpcore._build_field(p), tmp_path)
    path = tmp_path / f"field_{p}.bin"
    good = path.read_bytes()
    at = 17 + 4 * 5  # table entry 5 (dlog[6]) takes the value of entry 6
    path.write_bytes(good[:at] + good[at + 4 : at + 8] + good[at + 4 :])
    assert fpcore._read_cache(p, tmp_path) is None
    fld = make_field(p, cache_dir=tmp_path)
    fpcore._FIELD_CACHE.pop(p, None)
    dlog, exp = _power_walk(p, fld.g)
    assert (list(fld.dlog), list(fld.exp)) == (dlog, exp)
    assert subgroup(fld, 2).elements() == sorted({x * x % p for x in range(1, p)})
    assert path.read_bytes() == good  # rebuilt and written again


def _version_1_file(good, p):
    """The layout before the CRC: version 1, p, g, then dlog[1:] only."""
    g = struct.unpack_from("<BQQI", good)[2]
    return struct.pack("<BQQ", 1, p, g) + good[21 : 21 + 4 * (p - 1)]


def _flip(good, at):
    return good[:at] + bytes([good[at] ^ 0x10]) + good[at + 1 :]


@pytest.mark.parametrize(
    "damage",
    [
        _version_1_file,
        lambda good, p: _flip(good, 21 + 4 * (p - 1) + 4 * 7 + 1),  # exp[7]
        lambda good, p: _flip(good, 9 + 1),  # the header's g
        lambda good, p: good[:-4],  # truncated
        lambda good, p: good + bytes(4),  # a trailing int32 of zeros
    ],
    ids=["version-1", "exp-byte-flipped", "g-byte-flipped", "truncated", "trailing-bytes"],
)
def test_damaged_cache_file_is_rebuilt(tmp_path, damage):
    p = 101
    fpcore._FIELD_CACHE.pop(p, None)
    fpcore._write_cache(fpcore._build_field(p), tmp_path)
    path = tmp_path / f"field_{p}.bin"
    good = path.read_bytes()
    path.write_bytes(damage(good, p))
    assert fpcore._read_cache(p, tmp_path) is None
    fld = make_field(p, cache_dir=tmp_path)
    fpcore._FIELD_CACHE.pop(p, None)
    assert (list(fld.dlog), list(fld.exp)) == _power_walk(p, fld.g)
    assert path.read_bytes() == good  # rebuilt and written again


def test_large_field_tables_are_flat_int_arrays(tmp_path, monkeypatch):
    """A cold build and a cache load of p = 1048573 each keep about 8 MiB:
    two arrays of 4-byte C ints, where lists of Python ints kept 73-80 MiB."""
    p, mib = 1048573, 1 << 20
    fpcore._FIELD_CACHE.pop(p, None)
    for source in ("cold build", "cache load"):
        tracemalloc.start()
        try:
            fld = make_field(p, cache_dir=tmp_path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fpcore._FIELD_CACHE.pop(p)
        assert kept <= 16 * mib and peak <= 48 * mib, (source, kept / mib, peak / mib)
        for table, size in ((fld.dlog, p), (fld.exp, p - 1)):
            assert (table.typecode, table.itemsize, len(table)) == ("i", 4, size), source
        assert (fld.dlog[0], fld.dlog[1], fld.exp[0], fld.exp[1]) == (-1, 0, 1, fld.g)
        assert (tmp_path / f"field_{p}.bin").exists()
        # the second pass must load the file just written
        monkeypatch.setattr(fpcore, "_build_field", lambda p: pytest.fail("field rebuilt"))


def test_cache_load_holds_nothing_but_the_tables(tmp_path):
    """A load reads each table in place: its tracemalloc peak stays within
    the two tables plus a small margin.  Staging a table in a bytes object
    (array.fromfile, read_bytes) peaks near 1.5 times the tables."""
    p = 100003
    fpcore._write_cache(fpcore._build_field(p), tmp_path)
    tables = 4 * p + 4 * (p - 1)
    tracemalloc.start()
    try:
        fld = fpcore._read_cache(p, tmp_path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(fld.dlog), len(fld.exp)) == (p, p - 1)
    assert tables <= kept <= peak <= tables + (16 << 10), (kept, peak, tables)


def test_subgroup_of_large_field_against_powers(tmp_path):
    p, d = 1048573, 7182
    fld = make_field(p, cache_dir=tmp_path)
    assert set(subgroup(fld, d)) == {pow(x, d, p) for x in range(1, p)}
    fpcore._FIELD_CACHE.pop(p, None)


def test_field_and_subgroup_memo():
    fld = make_field(13)
    assert make_field(13) is fld
    assert subgroup(fld, 3) is subgroup(fld, 3)
    assert subgroup(fld, 3) is not subgroup(fld, 4)
    for _ in range(2):  # a bad index is rejected on every call, never remembered
        with pytest.raises(BadIndex):
            subgroup(fld, 5)
        with pytest.raises(BadIndex):
            subgroup(fld, 0)
    subgroup(fld, 2)
    with pytest.raises(TypeError):
        subgroup(fld, 2.0)


def test_make_field_rejects_float_after_memo():
    make_field(5)
    assert 5 in fpcore._FIELD_CACHE
    with pytest.raises(TypeError):
        make_field(5.0)


_WRITER = """
import sys, time
from pathlib import Path
from ffdecomp import fpcore
p, directory, start = int(sys.argv[1]), Path(sys.argv[2]), float(sys.argv[3])
fld = fpcore._build_field(p)
while time.time() < start:
    time.sleep(0.001)
while time.time() < start + 0.5:
    fpcore._write_cache(fld, directory)
"""


def test_two_processes_write_one_cache_file(tmp_path):
    p = 1009
    src = str(Path(fpcore.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    start = str(time.time() + 1.0)
    writers = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(p), str(tmp_path), start],
                         env=env, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    errors = [w.communicate(timeout=60)[1] for w in writers]
    assert [w.returncode for w in writers] == [0, 0], errors
    loaded = fpcore._read_cache(p, tmp_path)
    assert loaded is not None and loaded.dlog == fpcore._build_field(p).dlog
    assert not list(tmp_path.glob("*.tmp"))
