"""Segmented enumeration of the set E = {x^2 + y^2 : x, y >= 0}.

Membership bitmaps come from one of two exact kernels.

Lattice marking: for each x with 2x^2 below the segment end, every y >= x
putting x^2 + y^2 inside the segment is marked (each member has a
representation with x <= y, so the other half of the lattice adds nothing).
The rows x are processed in numpy blocks: an int64 square root gives every
row's y-range at once, rows with many y write one slice of a table of
squares each, and the remaining short rows are expanded together with
`np.repeat` and `cumsum`, a bounded number of marks at a time. It costs
about sqrt(hi/2) rows of numpy work, however narrow the window.

Divisor sieve (a segmented sieve of Eratosthenes, Bays & Hudson 1977): by
Fermat's criterion n is in E iff no prime p = 3 (mod 4) divides it to an
odd power. The bitmap starts as "n's odd part is 1 mod 4", which holds iff
n = 2^j (mod 2^(j+2)) for some j: one strided slice per j while the stride
fits the window, and a bit test on the at most four multiples of the next
power of 2 left over, with no window-sized integer array. Every p = 3
(mod 4) up to r = isqrt(hi - 1), from `arith.primes_3_mod_4`, then clears
the entries it divides to an odd power, in one of two ways. A prime with at
least `_DENSE_MULTIPLES` multiples in the window clears the strided slice
of the multiples of p^e for each odd e, keeping the slice of the multiples
of p^(e+1), so it does no arithmetic per entry. Every other prime with a
multiple in the window, the first at (-lo) mod p, has all of them listed at
once (the same `np.repeat` / `cumsum` expansion; one, for a prime above the
width), and the parity of each hit's exponent comes from dividing the hit
entries only. What is left of n after all primes up to r is 1 or one prime,
since two primes above r would multiply past hi - 1. So when no p = 3
(mod 4) up to r has an odd exponent, every other odd prime power in n is
1 mod 4, so n's odd part is the cofactor mod 4, and n is a member iff its
odd part is 1 mod 4. 0 is a member and takes no hits.
The cost is about pi(sqrt(hi)) + W log log W for a window of width W.

`sieve_segment` takes the divisor sieve when W <= 8 r and r <= `PRIME_CAP`
(2^24), and the lattice otherwise. The ratio 8 comes from timing both
kernels on one CPU of a 2-vCPU Xeon VM (numpy 2.4.6), the fastest of 10
runs (of 2 where W > 10^7), in ms, divisor / lattice:

    W/r:         1           2           4            8            16
    lo = 1e9     0.5 / 1.3   0.5 / 2.3   1.0 / 2.3    1.9 / 4.0    3.4 / 5.0
    lo = 1e10    1.1 / 2.7   1.4 / 5.6   2.2 / 6.3    3.6 / 10.7   8.4 / 11.4
    lo = 1e11    2.9 / 9.2   4.6 / 14.4  8.2 / 15.9   16.9 / 25.6  44.4 / 39.5
    lo = 1e12    7.6 / 24    16 / 45     39 / 49      76 / 88      142 / 133
    lo = 1e13    32 / 85     55 / 161    108 / 212    197 / 234    516 / 485

At W/r = 32 the lattice won near 1e13 (0.99 against 1.37 s). The census
segments from 0 are thousands of times wider than their root and keep the
lattice. The primes' table is built lazily in segments, alongside the
package's table of all primes; the cap bounds the two at about 2 and 4 MB
(int32), and a window with isqrt(hi - 1) above the cap runs the lattice.
The factorization criterion in `arith` serves as an independent
cross-check in the tests.

The int64 square root is exact for arguments up to 2^62, so segments must
end at hi <= 2^62 (`MAX_HI`); larger ranges raise ValueError.

Conventions: 0 and 1 are members (0 = 0^2 + 0^2), and all counting is
inclusive (members <= x).
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import arith
from .errors import SegmentTooLarge

DEFAULT_SEGMENT_LEN = 1 << 24
MAX_SEGMENT_LEN = 1 << 27
MAX_HI = 1 << 62

# Rows of x per numpy block, rows with at least this many y that are marked
# through the table of squares, and marks per expansion of the short rows.
_BLOCK_ROWS = 1 << 16
_DENSE_ROW = 64
_CHUNK_MARKS = 1 << 20

# The divisor sieve takes [lo, hi) when hi - lo <= _DIVISOR_RATIO r and
# r = isqrt(hi - 1) <= PRIME_CAP, the largest prime table it asks for, and
# strikes a prime with _DENSE_MULTIPLES or more multiples there by strided slices.
_DIVISOR_RATIO = 8
PRIME_CAP = 1 << 24
_DENSE_MULTIPLES = 128

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
    base, y0, n = base[short], y0[short], n[short]
    for i, j, first in _runs(n):
        cnt = n[i:j]
        y = np.repeat(y0[i:j] - first, cnt) + np.arange(int(first[-1] + cnt[-1]))
        bits[np.repeat(base[i:j], cnt) + y * y] = True


def _runs(cnt: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """Cut runs of cnt[i] terms each into pieces of about _CHUNK_MARKS terms
    (a longer run goes alone). Yields each piece's runs i..j-1 with the
    position of each run's first term within the piece."""
    if not cnt.size:
        return
    ends = np.cumsum(cnt)
    cuts = np.searchsorted(ends, np.arange(_CHUNK_MARKS, int(ends[-1]), _CHUNK_MARKS), "right")
    for i, j in zip([0, *cuts.tolist()], [*cuts.tolist(), cnt.size]):
        if i < j:
            yield i, j, np.cumsum(cnt[i:j]) - cnt[i:j]


def _lattice_bits(lo: int, hi: int) -> np.ndarray:
    """Membership bitmap of [lo, hi) by marking x^2 + y^2 for x <= y."""
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
    return bits


def _divisor_bits(lo: int, hi: int, root: int) -> np.ndarray:
    """Membership bitmap of [lo, hi) from the exponents of the primes
    p = 3 (mod 4) up to root = isqrt(hi - 1) in its entries."""
    width = hi - lo
    bits = np.zeros(width, dtype=bool)
    # n > 0 has odd part 1 mod 4 iff n = 2^j (mod 2^(j+2)) for some j: one
    # strided slice per j while the stride fits the window, then the few n
    # left, the multiples of the next 2^j, tested one by one (0 is a member).
    j = 0
    while 4 << j <= width:
        bits[((1 << j) - lo) % (4 << j) :: 4 << j] = True
        j += 1
    first = -lo % (1 << j)
    n = np.arange(lo + first, hi, 1 << j, dtype=np.int64)
    bits[first :: 1 << j] = n & ((n & -n) << 1) == 0
    primes = arith.primes_3_mod_4(root)
    dense = arith.primes_3_mod_4(min(width // _DENSE_MULTIPLES, root)).size
    # Each prime with _DENSE_MULTIPLES or more multiples: one strided pass per
    # pair of powers p^e, p^(e+1) for odd e, clearing the multiples of p^e
    # but not of p^(e+1).
    for p in primes[:dense].tolist():
        pe = p
        while (first := _first_multiple(lo, pe)) < width:
            if (again := _first_multiple(lo, pe * p)) < width:
                keep = bits[again :: pe * p].copy()
                bits[first::pe] = False
                bits[again :: pe * p] = keep
            else:
                bits[first::pe] = False
            pe *= p * p
    # Every other prime with a multiple in the window: all of them, listed at once.
    sparse = primes[dense:].astype(np.int64)
    first = _first_multiple(lo, sparse)
    inside = np.flatnonzero(first < width)
    sparse, first = sparse[inside], first[inside]
    cnt = (width - first + sparse - 1) // sparse
    for i, j, pos in _runs(cnt):
        p = np.repeat(sparse[i:j], cnt[i:j])
        idx = np.repeat(first[i:j] - pos * sparse[i:j], cnt[i:j]) + np.arange(p.size) * p
        _strike_odd_powers(bits, lo, idx, p)
    return bits


def _first_multiple(lo: int, p: int | np.ndarray) -> int | np.ndarray:
    """Offset from lo of each p's least positive multiple at or after lo
    (0 takes no hits: every p divides it without end)."""
    return (-lo) % p if lo else p


def _strike_odd_powers(bits: np.ndarray, lo: int, idx: np.ndarray, p: np.ndarray) -> None:
    """Clear bits[idx] where p divides lo + idx > 0 to an odd power,
    dividing the hit entries only."""
    q = (idx + lo) // p
    odd = np.ones(p.size, dtype=bool)
    again = np.flatnonzero(q % p == 0)
    while again.size:
        q[again] //= p[again]
        odd[again] = ~odd[again]
        again = again[q[again] % p[again] == 0]
    bits[idx[odd]] = False


def sieve_segment(lo: int, hi: int, cache_dir: str | None = None) -> TwoSqSegment:
    """Exact membership bitmap for [lo, hi), by the divisor sieve when the
    window is at most _DIVISOR_RATIO times as wide as isqrt(hi - 1) and that
    root is at most PRIME_CAP, and by lattice marking otherwise.

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
    root = math.isqrt(hi - 1)
    if hi - lo <= _DIVISOR_RATIO * root and root <= PRIME_CAP:
        bits = _divisor_bits(lo, hi, root)
    else:
        bits = _lattice_bits(lo, hi)
    seg = TwoSqSegment(lo, hi, bits)
    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        seg.save(path)
    return seg


def iter_member_arrays(x: int, cache_dir: str | None = None) -> Iterator[np.ndarray]:
    """Member values of E in ascending order, one array per segment, from 0
    on without end; the census and `count_N` read it up to about x.

    Segments shrink to the scale of a scan up to about x, so small bounds
    do not pay for a full DEFAULT_SEGMENT_LEN segment.
    """
    segment_len = min(DEFAULT_SEGMENT_LEN, max(x + 4096, 4096))
    for lo in itertools.count(0, segment_len):
        yield sieve_segment(lo, lo + segment_len, cache_dir).members()


def count_N(x: int, cache_dir: str | None = None) -> int:
    """Number of members of E that are <= x."""
    if x < 0:
        return 0
    total = 0
    for members in iter_member_arrays(x, cache_dir):
        below = int(np.searchsorted(members, x, "right"))
        total += below
        if below < members.size:
            return total
