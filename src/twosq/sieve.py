"""Segmented enumeration of the set E = {x^2 + y^2 : x, y >= 0}.

Membership bitmaps come from one exact kernel, a divisor sieve (a segmented
sieve of Eratosthenes, Bays & Hudson 1977). By Fermat's criterion n is in E
iff no prime p = 3 (mod 4) divides it to an odd power. The window [lo, hi)
is processed in blocks of `_BLOCK_LEN` entries, small enough to stay in
cache. In each block the bitmap starts as "n's odd part is 1 mod 4", which
holds iff n = 2^j (mod 2^(j+2)) for some j: one strided slice per j while
the stride fits the block, and a bit test on the at most four multiples of
the next power of 2 left over, with no block-sized integer array. Every
p = 3 (mod 4) with at least `_DENSE_MULTIPLES` multiples in a block then
clears there the strided slice of the multiples of p^e for each odd e,
keeping the slice of the multiples of p^(e+1), so it does no arithmetic
per entry. Every other p = 3 (mod 4) up to r = isqrt(hi - 1), streamed in
chunks from `arith.iter_primes_3_mod_4`, has all its multiples in the
window listed at once, the first at (-lo) mod p (one, for a prime above
the width; `np.repeat` / `cumsum` expansion, a bounded number of hits at a
time), and the parity of each hit's exponent comes from dividing the hit
entries only. What is left of n after all primes up to r is 1 or one
prime, since two primes above r would multiply past hi - 1. So when no
p = 3 (mod 4) up to r has an odd exponent, every other odd prime power in
n is 1 mod 4, so n's odd part is the cofactor mod 4, and n is a member iff
its odd part is 1 mod 4. 0 is a member and takes no hits. The cost is
about pi(sqrt(hi)) + W log log W for a window of width W.

The primes up to `arith.PRIME_CAP` (2^24) come from the package's prime
table; those above it (r up to 2^31) are sieved afresh, segment by segment,
and not kept. The factorization criterion in `arith` serves as an
independent cross-check in the tests.

Segments must end at hi <= 2^62 (`MAX_HI`); larger ranges raise
ValueError. The bound keeps the int64 index arithmetic exact: every entry
n = lo + i, twice its lowest set bit and every product of a hit's index and
its prime stay below 2^63, as p <= r <= 2^31.

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

# Entries per block of the strided pass, the number of multiples a prime
# needs in a block to strike it by strided slices, and hits per expansion
# of the listed primes' multiples.
_BLOCK_LEN = 1 << 20
_DENSE_MULTIPLES = 128
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


def _load_cached(path: str, lo: int, hi: int) -> TwoSqSegment | None:
    """The segment dumped at `path` if it is a whole dump of [lo, hi); a file
    of any other size is not read."""
    try:
        if os.path.getsize(path) != _HEADER.size + _packed_len(hi - lo):
            return None
        seg = TwoSqSegment.load(path)
    except (OSError, ValueError):
        return None
    return seg if (seg.lo, seg.hi) == (lo, hi) else None


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


def _divisor_bits(lo: int, hi: int) -> np.ndarray:
    """Membership bitmap of [lo, hi) from the exponents of the primes
    p = 3 (mod 4) up to isqrt(hi - 1) in its entries."""
    width = hi - lo
    bits = np.zeros(width, dtype=bool)
    root = math.isqrt(hi - 1)
    cut = min(min(width, _BLOCK_LEN) // _DENSE_MULTIPLES, root)
    dense = arith.primes_3_mod_4(cut).tolist()
    for start in range(0, width, _BLOCK_LEN):
        _strided_bits(bits[start : start + _BLOCK_LEN], lo + start, dense)
    # Every other prime with a multiple in the window: all of them, listed at once.
    for sparse in arith.iter_primes_3_mod_4(cut, root):
        first = _first_multiple(lo, sparse)
        inside = np.flatnonzero(first < width)
        sparse, first = sparse[inside], first[inside]
        cnt = (width - first + sparse - 1) // sparse
        for i, j, pos in _runs(cnt):
            p = np.repeat(sparse[i:j], cnt[i:j])
            idx = np.repeat(first[i:j] - pos * sparse[i:j], cnt[i:j]) + np.arange(p.size) * p
            _strike_odd_powers(bits, lo, idx, p)
    return bits


def _strided_bits(bits: np.ndarray, lo: int, dense: list[int]) -> None:
    """Set the zeroed block bits, for [lo, lo + bits.size), to the odd-part
    mask, then clear the entries where a prime of dense has an odd exponent."""
    width = bits.size
    # n > 0 has odd part 1 mod 4 iff n = 2^j (mod 2^(j+2)) for some j: one
    # strided slice per j while the stride fits the block, then the few n
    # left, the multiples of the next 2^j, tested one by one (0 is a member).
    j = 0
    while 4 << j <= width:
        bits[((1 << j) - lo) % (4 << j) :: 4 << j] = True
        j += 1
    first = -lo % (1 << j)
    n = np.arange(lo + first, lo + width, 1 << j, dtype=np.int64)
    bits[first :: 1 << j] = n & ((n & -n) << 1) == 0
    # One strided pass per pair of powers p^e, p^(e+1) for odd e, clearing
    # the multiples of p^e but not of p^(e+1).
    for p in dense:
        pe = p
        while (first := _first_multiple(lo, pe)) < width:
            if (again := _first_multiple(lo, pe * p)) < width:
                keep = bits[again :: pe * p].copy()
                bits[first::pe] = False
                bits[again :: pe * p] = keep
            else:
                bits[first::pe] = False
            pe *= p * p


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
    """Exact membership bitmap for [lo, hi), by the divisor sieve.

    Requires 0 <= lo < hi <= MAX_HI (2^62) and hi - lo <= MAX_SEGMENT_LEN.
    With cache_dir set, a previously dumped segment for the same range is
    reused and fresh segments are dumped there; a dump that is not a whole
    dump of [lo, hi) is ignored and overwritten. An empty cache_dir counts
    as unset.
    """
    if not 0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    if hi > MAX_HI:
        raise ValueError(f"segment end {hi} exceeds the int64 sieve limit 2^62")
    if hi - lo > MAX_SEGMENT_LEN:
        raise SegmentTooLarge(f"segment length {hi - lo} exceeds cap {MAX_SEGMENT_LEN}")
    path = None
    if cache_dir:
        path = os.path.join(cache_dir, f"twosq_{lo}_{hi}.seg")
        seg = _load_cached(path, lo, hi)
        if seg is not None:
            return seg
    seg = TwoSqSegment(lo, hi, _divisor_bits(lo, hi))
    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        seg.save(path)
    return seg


def iter_segments(x: int, cache_dir: str | None = None) -> Iterator[TwoSqSegment]:
    """Consecutive segments of E from 0 on without end; the census reads
    their bitmaps up to about x.

    Segments shrink to the scale of a scan up to about x, so small bounds
    do not pay for a full DEFAULT_SEGMENT_LEN segment.
    """
    segment_len = min(DEFAULT_SEGMENT_LEN, max(x + 4096, 4096))
    for lo in itertools.count(0, segment_len):
        yield sieve_segment(lo, lo + segment_len, cache_dir)


def iter_member_arrays(x: int, cache_dir: str | None = None) -> Iterator[np.ndarray]:
    """Member values of E in ascending order, one array per segment of
    `iter_segments`; `count_N` reads it up to about x."""
    for seg in iter_segments(x, cache_dir):
        yield seg.members()


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
