import math
import os
import random

import numpy as np
import pytest

from twosq import arith, sieve
from twosq.arith import factorize, is_prime, is_sum_two_squares
from twosq.errors import SegmentTooLarge
from twosq.sieve import MAX_HI, MAX_SEGMENT_LEN, TwoSqSegment, count_N, sieve_segment

from .conftest import brute_two_square_set


def reference_bits(lo: int, hi: int) -> np.ndarray:
    """The oracle: every x^2 + y^2 in [lo, hi), marked by an interpreted loop over x."""
    bits = np.zeros(hi - lo, dtype=bool)
    x = 0
    while x * x < hi:
        x2 = x * x
        y_min = 0 if lo - x2 <= 0 else math.isqrt(lo - x2 - 1) + 1
        y_max = math.isqrt(hi - 1 - x2)
        if y_min <= y_max:
            if y_max - y_min > 8:
                ys = np.arange(y_min, y_max + 1, dtype=np.int64)
                bits[x2 + ys * ys - lo] = True
            else:
                for y in range(y_min, y_max + 1):
                    bits[x2 + y * y - lo] = True
        x += 1
    return bits


def reference_windows() -> list[tuple[int, int]]:
    """Seeded windows below 1e7: width 1, lo = 0, lo a perfect square,
    windows starting, ending or sitting on a diagonal point 2x^2, and
    random windows of widths 1 to 2e5."""
    rng = random.Random(2024)
    out = [(0, 1), (0, 2), (1, 2), (0, 11), (0, 1 << 16), (48, 51)]
    for _ in range(20):
        lo = rng.randrange(10**7)
        out.append((lo, lo + 1))
        out.append((0, rng.randrange(1, 3 * 10**5)))
        k = rng.randrange(1, 3000)
        out.append((k * k, k * k + rng.randrange(1, 5000)))
        d = 2 * rng.randrange(1, 2000) ** 2
        out.extend([(d, d + 1), (d, d + rng.randrange(2, 500)), (max(d - 300, 0), d + 1)])
        lo = rng.randrange(10**7)
        out.append((lo, lo + rng.choice((10, 1000, 10**5, 2 * 10**5))))
    return out


def test_segment_examples():
    assert sieve_segment(0, 11).members().tolist() == [0, 1, 2, 4, 5, 8, 9, 10]
    assert 3 not in sieve_segment(3, 4)
    assert sieve_segment(48, 51).members().tolist() == [49, 50]


def test_segment_against_bruteforce():
    limit = 10**5
    members = brute_two_square_set(limit)
    seg = sieve_segment(0, limit + 1)
    assert set(seg.members().tolist()) == members


def test_segment_against_factorization_criterion():
    rng = random.Random(7)
    points = [rng.randrange(0, 10**6) for _ in range(10_000)]
    seg = sieve_segment(0, 10**6)
    for n in points:
        assert (n in seg) == is_sum_two_squares(factorize(n)), n


@pytest.mark.parametrize(
    "constants",
    [
        {},  # strided and listed primes mixed
        {"_DENSE_MULTIPLES": 1},  # every prime up to the block width strided
        {"_DENSE_MULTIPLES": 1 << 40},  # every prime listed hit by hit
        {"_BLOCK_LEN": 61, "_DENSE_MULTIPLES": 4, "_CHUNK_MARKS": 50},  # many blocks and chunks
    ],
    ids=["mixed", "all_dense", "all_short", "small_blocks"],
)
def test_kernel_matches_reference_loop(monkeypatch, constants):
    for name, value in constants.items():
        monkeypatch.setattr(sieve, name, value)
    for lo, hi in reference_windows():
        assert np.array_equal(sieve_segment(lo, hi).bits, reference_bits(lo, hi)), (lo, hi)


def _primes_3_mod_4_below(n: int, count: int) -> list[int]:
    out = []
    while len(out) < count:
        n -= 1
        if n % 4 == 3 and is_prime(n):
            out.append(n)
    return out


def _exact_multiple(p: int, e: int, near: int) -> int:
    """The least n >= near with p^e exactly dividing it."""
    m = -(-near // p**e)
    return p**e * (m if m % p else m + 1)


def kernel_windows() -> list[tuple[int, int]]:
    """Windows at lo = 0 and 1; far windows up to 1e13 as wide as isqrt(lo)
    / 8 and 8 isqrt(lo); windows holding p^2, p^3, p^4, 2 p^2 and 21 p^2 for
    primes p = 3 mod 4; windows of a strided prime p with a multiple of p^2
    to p^5 at the first or the last index, and of widths around
    _DENSE_MULTIPLES p; windows wider than a block with p^2 or p^3 of a
    strided p at the last index of a block or the first of the next; windows
    holding p^2 for the largest such p below 10^6, some with
    p = isqrt(hi - 1); windows of width p - 1 whose first or last entry is
    p q (q a prime = 3 (mod 4) above the root, so only p's strike clears it)
    or 5 p^2 (not struck); and windows whose root is the prime table's cap
    or just above it, so the prime stream straddles the cap."""
    dense, block = sieve._DENSE_MULTIPLES, sieve._BLOCK_LEN
    out = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 10), (0, 1000), (1, 4097), (0, 1 << 16)]
    out += [(0, 11 * dense), (1, 11 * dense + 1), (0, 11 * dense + 500)]  # 3, 7, 11 strided
    # Far out, windows a few times narrower and wider than the root, so
    # strided, listed and single hits all run.
    for e in (9, 10, 11, 12, 13):
        lo = 10**e + 777
        out.append((lo, lo + math.isqrt(lo) // 8))
        if e <= 10:
            out.append((lo, lo + 8 * math.isqrt(lo)))
    for p in [3, 7, 11, *_primes_3_mod_4_below(1000, 2), *_primes_3_mod_4_below(4100, 1)]:
        for n in (p**2, p**3, p**4, 2 * p**2, 3 * 7 * p**2):
            if n <= 1 << 48:
                out.append((max(n - 150, 0), n + 150))
    for p in (3, 7, 11):
        w = 2 * dense * p
        for e in (2, 3, 4, 5):
            for near in (w, 10**11):
                n = _exact_multiple(p, e, near)
                out += [(n, n + w), (n - w + 1, n + 1)]
    for p in (3, 11):
        for e in (2, 3):
            n = _exact_multiple(p, e, 2 * block)
            out += [(n - block + 1, n + 100), (n - block, n + 100)]
    for p in (3, 11, 19, 103):
        lo = 10**7 + 777
        out += [(lo, lo + dense * p + d) for d in (-1, 0, 1)]
    for p in _primes_3_mod_4_below(10**6, 2):
        out += [(p * p - 300, p * p + 1), (p * p - 1, p * p + 300), (p * p - 2 * p, p * p + 2 * p)]
    p, q = 1019, 1031  # primes = 3 (mod 4); isqrt(1019 * 1031 + 1017) = 1025
    for n in (p * q, 5 * p * p):
        out += [(n, n + p - 1), (n - p + 2, n + 1)]
    cap = arith.PRIME_CAP
    out += [(cap * cap - 100, cap * cap + 100), (cap * cap - 1000, cap * cap + 1)]
    out += [((cap + 1) ** 2 - 100, (cap + 1) ** 2 + 100)]
    return out


def factorization_bits(lo: int, hi: int) -> np.ndarray:
    return np.array([is_sum_two_squares(factorize(n)) for n in range(lo, hi)])


def test_divisor_kernel_matches_reference_loop(monkeypatch):
    """The whole window in one block, so a prime strikes by strided slices
    when it has _DENSE_MULTIPLES multiples in the window."""
    monkeypatch.setattr(sieve, "_BLOCK_LEN", MAX_SEGMENT_LEN)
    for lo, hi in reference_windows():
        assert np.array_equal(sieve_segment(lo, hi).bits, reference_bits(lo, hi)), (lo, hi)


@pytest.mark.parametrize("dense", [1, 1 << 40], ids=["all_strided", "none_strided"])
def test_divisor_strikes_match_reference_loop_in_one_regime(monkeypatch, dense):
    """Blocks of 64 entries, in each of which every prime up to 64 strikes by
    strided slices, or none does."""
    monkeypatch.setattr(sieve, "_BLOCK_LEN", 64)
    monkeypatch.setattr(sieve, "_DENSE_MULTIPLES", dense)
    for lo, hi in reference_windows():
        assert np.array_equal(sieve_segment(lo, hi).bits, reference_bits(lo, hi)), (lo, hi)


def test_kernels_match_each_other_and_references(monkeypatch):
    """The default blocks and blocks of 1000 entries, on the kernel windows."""
    windows = kernel_windows()
    default = [sieve_segment(lo, hi).bits for lo, hi in windows]
    monkeypatch.setattr(sieve, "_BLOCK_LEN", 1000)
    for (lo, hi), bits in zip(windows, default):
        assert np.array_equal(sieve_segment(lo, hi).bits, bits), (lo, hi)
        if hi <= 10**10:
            assert np.array_equal(bits, reference_bits(lo, hi)), (lo, hi)
        elif hi - lo <= 1000:
            assert np.array_equal(bits, factorization_bits(lo, hi)), (lo, hi)
        else:  # the wide windows far out: sample the factorization criterion
            for n in [*range(lo, hi, 997), hi - 1]:
                assert bits[n - lo] == is_sum_two_squares(factorize(n)), n


def test_far_window_against_factorization_criterion():
    lo = 10**15 + 123_456
    seg = sieve_segment(lo, lo + 64)
    assert seg.count() > 0
    for n in range(lo, lo + 64):
        assert (n in seg) == is_sum_two_squares(factorize(n)), n


def test_segment_end_limit():
    with pytest.raises(ValueError, match="2\\^62"):
        sieve_segment(2**63 - 10, 2**63 + 10)
    with pytest.raises(ValueError, match="2\\^62"):
        sieve_segment(MAX_HI - 5, MAX_HI + 1)


def test_high_segment_against_factorization_criterion():
    lo = 10**12
    seg = sieve_segment(lo, lo + 2000)
    for n in range(lo, lo + 2000, 37):
        assert (n in seg) == is_sum_two_squares(factorize(n)), n


def test_stitching_determinism():
    rng = random.Random(99)
    for _ in range(10):
        a = rng.randrange(0, 50_000)
        b = a + 1 + rng.randrange(0, 5_000)
        c = b + 1 + rng.randrange(0, 5_000)
        whole = sieve_segment(a, c)
        left, right = sieve_segment(a, b), sieve_segment(b, c)
        assert np.array_equal(whole.bits, np.concatenate([left.bits, right.bits]))


def test_count_examples():
    assert count_N(10) == 8
    assert count_N(0) == 1
    assert count_N(2) == 3


def test_count_monotone_steps(monkeypatch):
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LEN", 128)
    prev = count_N(0)
    for x in range(1, 300):
        cur = count_N(x)
        assert cur - prev in (0, 1)
        prev = cur


def test_segment_cap():
    with pytest.raises(SegmentTooLarge):
        sieve_segment(0, MAX_SEGMENT_LEN + 1)
    with pytest.raises(ValueError):
        sieve_segment(5, 5)


def test_dump_roundtrip(tmp_path):
    seg = sieve_segment(1000, 3000)
    path = tmp_path / "seg.bits"
    seg.save(str(path))
    again = TwoSqSegment.load(str(path))
    assert again.lo == 1000 and again.hi == 3000
    assert np.array_equal(again.bits, seg.bits)
    blob = seg.to_bytes()
    assert blob[:8] == (1000).to_bytes(8, "little")
    assert blob[8:16] == (3000).to_bytes(8, "little")
    assert len(blob) % 8 == 0


def test_cache_dir_reuse(tmp_path):
    first = sieve_segment(0, 4096, cache_dir=str(tmp_path))
    assert os.listdir(tmp_path) == ["twosq_0_4096.seg"]  # no temporary file left
    second = sieve_segment(0, 4096, cache_dir=str(tmp_path))
    assert np.array_equal(first.bits, second.bits)


def test_cache_reads_dump_written_unchanged(tmp_path):
    # The dump format: lo and hi as 8-byte little-endian, then the bitmap
    # packed little-endian-bit-first and zero-padded to whole 64-bit words.
    lo, hi = 1000, 3000
    bits = reference_bits(lo, hi)
    packed = np.packbits(bits, bitorder="little").tobytes()
    blob = lo.to_bytes(8, "little") + hi.to_bytes(8, "little") + packed
    path = tmp_path / f"twosq_{lo}_{hi}.seg"
    path.write_bytes(blob + b"\x00" * (-len(packed) % 8))
    inode = path.stat().st_ino
    seg = sieve_segment(lo, hi, cache_dir=str(tmp_path))
    assert np.array_equal(seg.bits, bits)
    assert path.stat().st_ino == inode  # read, not re-sieved and replaced


def _refuse_load(cls, path):
    raise AssertionError("a dump of the wrong size was read")


@pytest.mark.parametrize(
    "damage, same_size",
    [
        (lambda blob: blob[: len(blob) // 2], False),
        (lambda blob: blob[:4], False),
        (lambda blob: blob + b"\x00" * 8, False),
        (lambda blob: (0).to_bytes(8, "little") + (50_000).to_bytes(8, "little") + blob[16:], True),
    ],
    ids=["halved", "four_bytes", "padded", "other_range"],
)
def test_cache_rejects_bad_dump(tmp_path, monkeypatch, damage, same_size):
    expected = count_N(99_999)
    assert expected == 24_028
    assert count_N(99_999, cache_dir=str(tmp_path)) == expected
    (path,) = tmp_path.glob("twosq_0_*.seg")  # the one dump count_N wrote
    whole = path.read_bytes()
    path.write_bytes(damage(whole))
    if not same_size:  # a dump of the wrong size is not even read
        monkeypatch.setattr(TwoSqSegment, "load", classmethod(_refuse_load))
    assert count_N(99_999, cache_dir=str(tmp_path)) == expected
    assert path.read_bytes() == whole  # the bad dump was overwritten


def test_from_bytes_rejects_partial_dumps():
    blob = sieve_segment(0, 4096).to_bytes()
    for bad in (b"", blob[:4], blob[:16], blob[:-8], blob + b"\x00" * 8):
        with pytest.raises(ValueError):
            TwoSqSegment.from_bytes(bad)
