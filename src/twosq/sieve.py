"""Segmented enumeration of the set E = {x^2 + y^2 : x, y >= 0}.

Membership bitmaps are produced by lattice marking: for each x with
2x^2 below the segment end, every y >= x putting x^2 + y^2 inside the
segment is marked (each member has a representation with x <= y, so the
other half of the lattice adds nothing). The rows x are processed in numpy
blocks: an int64 square root gives every row's y-range at once, rows with
many y write one slice of a table of squares each, and the remaining short
rows are expanded together with `np.repeat` and `cumsum`, a bounded number
of marks at a time. The factorization criterion in `arith` serves as an
independent cross-check in the tests.

The int64 square root is exact for arguments up to 2^62, so segments must
end at hi <= 2^62 (`MAX_HI`); larger ranges raise ValueError.

Conventions: 0 and 1 are members (0 = 0^2 + 0^2), and all counting is
inclusive (members <= x).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SegmentTooLarge

DEFAULT_SEGMENT_LEN = 1 << 24
MAX_SEGMENT_LEN = 1 << 27
MAX_HI = 1 << 62

# Rows of x per numpy block, rows with at least this many y that are marked
# through the table of squares, and marks per expansion of the short rows.
_BLOCK_ROWS = 1 << 16
_DENSE_ROW = 64
_CHUNK_MARKS = 1 << 20

_HEADER = struct.Struct("<QQ")


@dataclass
class TwoSqSegment:
    """Membership bitmap for E over the half-open range [lo, hi)."""

    lo: int
    hi: int
    bits: np.ndarray

    def __contains__(self, n: int) -> bool:
        if not self.lo <= n < self.hi:
            raise ValueError(f"{n} outside segment [{self.lo}, {self.hi})")
        return bool(self.bits[n - self.lo])

    def members(self) -> np.ndarray:
        """Member values in ascending order (int64; requires hi < 2^63)."""
        members = np.flatnonzero(self.bits).astype(np.int64, copy=False)
        members += self.lo
        return members

    def count(self) -> int:
        return int(np.count_nonzero(self.bits))

    def to_bytes(self) -> bytes:
        """Raw dump: lo/hi as 8-byte little-endian, then the bitmap packed
        little-endian-bit-first and padded to whole 64-bit words."""
        packed = np.packbits(self.bits, bitorder="little").tobytes()
        return _HEADER.pack(self.lo, self.hi) + packed.ljust(_packed_len(self.bits.size), b"\x00")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TwoSqSegment":
        """Inverse of `to_bytes`; ValueError unless `blob` is one whole dump."""
        if len(blob) < _HEADER.size:
            raise ValueError(f"segment dump of {len(blob)} bytes has no header")
        lo, hi = _HEADER.unpack_from(blob)
        if lo >= hi or len(blob) != _HEADER.size + _packed_len(hi - lo):
            raise ValueError(f"segment dump of {len(blob)} bytes does not hold [{lo}, {hi})")
        raw = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER.size)
        bits = np.unpackbits(raw, bitorder="little")[: hi - lo].astype(bool)
        return cls(lo, hi, bits)

    def save(self, path: str) -> None:
        """Write the dump to a temporary file beside `path`, then rename it
        into place, so a reader never sees a partly written file."""
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(self.to_bytes())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path: str) -> "TwoSqSegment":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _packed_len(n_bits: int) -> int:
    """Bytes of a packed bitmap of n_bits, padded to whole 64-bit words."""
    return -(-n_bits // 64) * 8


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) for an int64 array with 0 <= n <= 2^62.

    The float64 root is within 1 of the true one (its relative error is
    about 2^-52 and the root is at most 2^31), so one step each way makes
    it exact, and (r + 1)^2 <= 2^62 + 2^32 + 1 cannot overflow.
    """
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def _load_cached(path: str, lo: int, hi: int) -> TwoSqSegment | None:
    """The segment dumped at `path` if it is a whole dump of [lo, hi)."""
    try:
        seg = TwoSqSegment.load(path)
    except (OSError, ValueError):
        return None
    return seg if (seg.lo, seg.hi) == (lo, hi) else None


def _mark_rows(bits: np.ndarray, base: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> None:
    """Set bits[base + y^2] for y0 <= y <= y1 in each row (base, y0, y1),
    where y0 <= y1."""
    n = y1 - y0 + 1
    dense = np.flatnonzero(n >= _DENSE_ROW)
    if dense.size:
        sq = np.arange(int(y1[dense].max()) + 1, dtype=np.int64) ** 2
        for b, a, c in zip(base[dense].tolist(), y0[dense].tolist(), y1[dense].tolist()):
            bits[sq[a : c + 1] + b] = True
    short = np.flatnonzero(n < _DENSE_ROW)
    if not short.size:
        return
    base, y0, n = base[short], y0[short], n[short]
    ends = np.cumsum(n)
    # Cut the short rows into runs of at most _CHUNK_MARKS marks.
    cuts = np.searchsorted(ends, np.arange(_CHUNK_MARKS, int(ends[-1]), _CHUNK_MARKS), "right")
    for i, j in zip([0, *cuts.tolist()], [*cuts.tolist(), n.size]):
        if i == j:
            continue
        cnt = n[i:j]
        first = np.cumsum(cnt) - cnt  # position of each row's first mark
        y = np.repeat(y0[i:j] - first, cnt) + np.arange(int(first[-1] + cnt[-1]))
        bits[np.repeat(base[i:j], cnt) + y * y] = True


def sieve_segment(lo: int, hi: int, cache_dir: str | None = None) -> TwoSqSegment:
    """Exact membership bitmap for [lo, hi) by lattice marking.

    Requires 0 <= lo < hi <= MAX_HI (2^62) and hi - lo <= MAX_SEGMENT_LEN.
    With cache_dir set, a previously dumped segment for the same range is
    reused and fresh segments are dumped there; a dump that is not a whole
    dump of [lo, hi) is ignored and overwritten.
    """
    if not 0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    if hi > MAX_HI:
        raise ValueError(f"segment end {hi} exceeds the int64 sieve limit 2^62")
    if hi - lo > MAX_SEGMENT_LEN:
        raise SegmentTooLarge(f"segment length {hi - lo} exceeds cap {MAX_SEGMENT_LEN}")
    path = None
    if cache_dir is not None:
        path = os.path.join(cache_dir, f"twosq_{lo}_{hi}.seg")
        if os.path.exists(path):
            seg = _load_cached(path, lo, hi)
            if seg is not None:
                return seg
    bits = np.zeros(hi - lo, dtype=bool)
    x_end = math.isqrt((hi - 1) // 2) + 1  # rows with x <= y need 2x^2 < hi
    for start in range(0, x_end, _BLOCK_ROWS):
        x = np.arange(start, min(start + _BLOCK_ROWS, x_end), dtype=np.int64)
        x2 = x * x
        y1 = _isqrt(hi - 1 - x2)  # >= x, as 2x^2 < hi
        rows = np.flatnonzero(x2 + y1 * y1 >= lo)  # rows reaching the segment
        x, x2, y1 = x[rows], x2[rows], y1[rows]
        below = lo - x2  # y^2 >= below, so y >= ceil(sqrt(below))
        y0 = np.where(below > 0, _isqrt(np.maximum(below - 1, 0)) + 1, 0)
        _mark_rows(bits, x2 - lo, np.maximum(y0, x), y1)
    seg = TwoSqSegment(lo, hi, bits)
    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        seg.save(path)
    return seg


def iter_segments(segment_len: int, cache_dir: str | None = None) -> Iterator[TwoSqSegment]:
    """Unbounded stream of consecutive segments of E from 0."""
    lo = 0
    while True:
        yield sieve_segment(lo, lo + segment_len, cache_dir=cache_dir)
        lo += segment_len


def iter_member_arrays(x: int, cache_dir: str | None = None) -> Iterator[np.ndarray]:
    """Member values of E in ascending order, one array per segment.

    Segments shrink to the scale of a scan up to about x, so small bounds
    do not pay for a full DEFAULT_SEGMENT_LEN segment.
    """
    for seg in iter_segments(min(DEFAULT_SEGMENT_LEN, max(x + 4096, 4096)), cache_dir):
        yield seg.members()


def count_N(x: int, cache_dir: str | None = None) -> int:
    """Number of members of E that are <= x."""
    if x < 0:
        return 0
    total = 0
    for seg in iter_segments(min(DEFAULT_SEGMENT_LEN, max(x + 1, 1024)), cache_dir):
        if seg.lo > x:
            break
        if seg.hi <= x + 1:
            total += seg.count()
        else:
            total += int(np.count_nonzero(seg.bits[: x + 1 - seg.lo]))
            break
    return total
