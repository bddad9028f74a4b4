import math
import os
import random

import numpy as np
import pytest

from twosq import sieve
from twosq.arith import factorize, is_sum_two_squares
from twosq.errors import SegmentTooLarge
from twosq.sieve import MAX_HI, MAX_SEGMENT_LEN, TwoSqSegment, count_N, sieve_segment

from .conftest import brute_two_square_set


def reference_bits(lo: int, hi: int) -> np.ndarray:
    """The per-x interpreted lattice loop the blocked kernel replaced."""
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
        {},  # dense and short rows mixed
        {"_DENSE_ROW": 1},  # every row through the table of squares
        {"_DENSE_ROW": 1 << 40},  # every row through the short-row expansion
        {"_BLOCK_ROWS": 7, "_CHUNK_MARKS": 50},  # many blocks and chunks
    ],
    ids=["mixed", "all_dense", "all_short", "small_blocks"],
)
def test_kernel_matches_reference_loop(monkeypatch, constants):
    for name, value in constants.items():
        monkeypatch.setattr(sieve, name, value)
    for lo, hi in reference_windows():
        assert np.array_equal(sieve_segment(lo, hi).bits, reference_bits(lo, hi)), (lo, hi)


def test_isqrt_exact_up_to_limit():
    rng = random.Random(5)
    ks = [1, 2, 3, 1 << 26, (1 << 26) + 1, 3037000499, (1 << 31) - 1, 1 << 31]
    ks += [rng.randrange(1, 1 << 31) for _ in range(3000)]
    ns = [0, MAX_HI] + [n for k in ks for n in (k * k - 1, k * k, k * k + 1) if n <= MAX_HI]
    got = sieve._isqrt(np.array(ns, dtype=np.int64))
    assert got.tolist() == [math.isqrt(n) for n in ns]


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


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob: blob[: len(blob) // 2],
        lambda blob: blob[:4],
        lambda blob: blob + b"\x00" * 8,
        lambda blob: (0).to_bytes(8, "little") + (50_000).to_bytes(8, "little") + blob[16:],
    ],
    ids=["halved", "four_bytes", "padded", "other_range"],
)
def test_cache_rejects_bad_dump(tmp_path, damage):
    expected = count_N(99_999)
    assert expected == 24_028
    assert count_N(99_999, cache_dir=str(tmp_path)) == expected
    path = tmp_path / "twosq_0_100000.seg"
    whole = path.read_bytes()
    path.write_bytes(damage(whole))
    assert count_N(99_999, cache_dir=str(tmp_path)) == expected
    assert path.read_bytes() == whole  # the bad dump was overwritten


def test_from_bytes_rejects_partial_dumps():
    blob = sieve_segment(0, 4096).to_bytes()
    for bad in (b"", blob[:4], blob[:16], blob[:-8], blob + b"\x00" * 8):
        with pytest.raises(ValueError):
            TwoSqSegment.from_bytes(bad)
