"""Residue-pattern census over the increasing sequence of sums of two squares.

Counts windows of r consecutive members E_n, E_{n+1}, ..., E_{n+r-1} whose
classes mod q match a prescribed tuple, for all starts with E_n <= x. The
bound is one-sided: a window whose later members exceed x still counts,
so the stream is extended past x far enough to complete every window.

Counting is vectorized: member values arrive as numpy arrays per sieve
segment, residues are taken in bulk, and `census_report` serves every
pattern in one pass. It first checks the size of the pattern universe,
counted in closed form by `admissible_count`, against PATTERN_CAP, so an
oversized q is refused before any class is listed, and then lists the
classes with `admissible_mask`, in numpy. It takes each member's residue
in int32, from its offset to a multiple of q at or below the block's
first member, and replaces it by its index among the admissible classes
mod q (every member is x^2 + y^2, so its class is admissible) through a
table in the smallest unsigned dtype that holds the indices. Each window becomes a base-len(adm) code, built in place in the
smallest unsigned dtype that holds every code, and the codes are counted
with `np.bincount` over fixed slices, so no block-sized int64 array is made
after the member values. First hits come from one loop, in ascending n,
over the windows whose pattern still needs hits. `census_report`,
`match_pattern` and `find_first_occurrence` read one window stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .admissibility import (
    admissible_classes,  # no longer called here, but perfbench/tracing.py wraps census.admissible_classes
    admissible_count,
    admissible_mask,
)
from .arith import FactoredInteger
from .errors import InternalInconsistency, TooManyPatterns
from .sieve import iter_member_arrays

# First matches kept per pattern, and the most patterns one census counts.
MAX_OCCURRENCES = 10
PATTERN_CAP = 1 << 20
# Fewest codes per np.bincount call in census_report.
_BINCOUNT_SLICE = 1 << 16


@dataclass(frozen=True)
class PatternSpec:
    """A modulus q and an ordered tuple of residue classes mod q."""

    q: FactoredInteger
    classes: tuple[int, ...]

    def __post_init__(self):
        if len(self.classes) < 1:
            raise ValueError("pattern needs at least one class")
        if any(not 0 <= c < self.q.value for c in self.classes):
            raise ValueError(f"classes must lie in [0, {self.q.value})")

    @property
    def r(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class Occurrence:
    """A matched window: the 1-based start index n and the r member values."""

    n: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class MatchResult:
    count: int
    occurrences: tuple[Occurrence, ...]


@dataclass
class CensusReport:
    """All-pattern counts for fixed (q, r, x), plus capped first occurrences."""

    q: int
    r: int
    x: int
    counts: dict[tuple[int, ...], int]
    occurrences: dict[tuple[int, ...], list[Occurrence]]
    total_windows: int
    admissible: tuple[int, ...] = field(default_factory=tuple)

    def count_for(self, classes: tuple[int, ...]) -> int:
        return self.counts.get(tuple(classes), 0)

    def pattern_universe(self) -> Iterator[tuple[int, ...]]:
        """All r-tuples of admissible classes in lexicographic order."""
        return itertools.product(self.admissible, repeat=self.r)


def _iter_window_blocks(
    x: int, r: int, cache_dir: str | None
) -> Iterator[tuple[np.ndarray, int, int]]:
    """Yield (block, n_start, starts) with block carrying r-1 values of overlap.

    `starts` is the number of window starts in this block whose value is <= x;
    the generator stops once a start value exceeds x.
    """
    carry = np.empty(0, dtype=np.int64)
    n_start = 1
    for values in iter_member_arrays(x, cache_dir):
        block = np.concatenate([carry, values]) if carry.size else values
        if block.size < r:
            carry = block
            continue
        starts = block.size - r + 1
        within = int(np.searchsorted(block[:starts], x, "right"))
        if within < starts:
            if within:
                yield block, n_start, within
            return
        yield block, n_start, starts
        carry = block[starts:]
        n_start += starts


def _occurrence(block: np.ndarray, n_start: int, pos: int, r: int) -> Occurrence:
    return Occurrence(n_start + pos, tuple(block[pos : pos + r].tolist()))


def match_pattern(spec: PatternSpec, x: int, cache_dir: str | None = None) -> MatchResult:
    """Count windows matching `spec` with start value <= x.

    Also reports the first MAX_OCCURRENCES matches. A count of 0 is the
    legitimate output for patterns containing a non-admissible class.
    Residues come from `_residues`, in int32 for every q below 2^31, and
    classes are compared elementwise rather than encoded as base-q codes,
    which would overflow int64 once q^r exceeds 2^63.
    """
    q, r = spec.q.value, spec.r
    count = 0
    occurrences: list[Occurrence] = []
    for block, n_start, starts in _iter_window_blocks(x, r, cache_dir):
        res = _residues(block, q)
        mask = res[:starts] == spec.classes[0]
        for i in range(1, r):
            mask &= res[i : starts + i] == spec.classes[i]
        block_count = int(np.count_nonzero(mask))
        if block_count and len(occurrences) < MAX_OCCURRENCES:
            for pos in np.flatnonzero(mask)[: MAX_OCCURRENCES - len(occurrences)].tolist():
                occurrences.append(_occurrence(block, n_start, pos, r))
        count += block_count
    return MatchResult(count, tuple(occurrences))


def find_first_occurrence(
    spec: PatternSpec, bound: int, cache_dir: str | None = None
) -> Occurrence | None:
    """Smallest n whose window matches with E_n <= bound, or None."""
    occurrences = match_pattern(spec, bound, cache_dir).occurrences
    return occurrences[0] if occurrences else None


def census_report(
    q: FactoredInteger, r: int, x: int, cache_dir: str | None = None
) -> CensusReport:
    """One pass computing counts for every r-tuple of classes simultaneously,
    with the first MAX_OCCURRENCES matches of each.

    The size of the pattern universe, admissible_count(q)^r, is checked
    against PATTERN_CAP before `admissible_mask` lists any class. Each
    member's class is replaced by its index among the sorted admissible
    classes, read from its int32 residue through a table in the smallest
    unsigned dtype that holds len(adm), which also marks the inadmissible
    classes; a member whose class is not admissible raises
    InternalInconsistency. A window is encoded in base len(adm) (first class
    most significant), so codes lie in [0, len(adm)^r) and sort
    lexicographically like their tuples; they are built in place in the
    smallest unsigned dtype that holds them (uint8 for q=5, r=3) and counted
    with `np.bincount` over slices of at least _BINCOUNT_SLICE codes, which
    bounds the intp copy bincount makes of its input.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    k = admissible_count(q)
    universe = k**r
    if universe > PATTERN_CAP:
        raise TooManyPatterns(f"{k}^{r} admissible tuples exceed cap {PATTERN_CAP}")
    admissible = admissible_mask(q)
    adm = tuple(np.flatnonzero(admissible).tolist())
    qv = q.value
    index = np.full(qv, k, dtype=np.min_scalar_type(k))
    index[admissible] = np.arange(k)
    code_dtype = np.min_scalar_type(universe - 1)
    step = max(_BINCOUNT_SLICE, universe)
    counts = np.zeros(universe, dtype=np.int64)
    need = np.full(universe, MAX_OCCURRENCES, dtype=np.int64)
    occ: dict[int, list[Occurrence]] = {}
    total = 0
    for block, n_start, starts in _iter_window_blocks(x, r, cache_dir):
        idx = index[_residues(block, qv)]
        if idx.max() == k:
            raise InternalInconsistency(f"a member of E has an inadmissible class mod {qv}")
        codes = idx[:starts].astype(code_dtype)
        for i in range(1, r):
            codes *= k
            codes += idx[i : starts + i]
        block_counts = np.zeros(universe, dtype=np.int64)
        for lo in range(0, starts, step):
            block_counts += np.bincount(codes[lo : lo + step], minlength=universe)
        counts += block_counts
        total += starts
        want = np.minimum(need, block_counts)
        need -= want
        _collect_first_hits(codes, want, block, n_start, r, occ)

    def decode(code: int) -> tuple[int, ...]:
        out = []
        for _ in range(r):
            code, i = divmod(code, k)
            out.append(adm[i])
        return tuple(reversed(out))

    seen = np.flatnonzero(counts).tolist()
    return CensusReport(
        q=qv,
        r=r,
        x=x,
        counts={decode(c): int(counts[c]) for c in seen},
        occurrences={decode(c): occ.get(c, []) for c in seen},
        total_windows=total,
        admissible=adm,
    )


def _residues(block: np.ndarray, q: int) -> np.ndarray:
    """block % q, computed in int32 from offsets to a multiple of q.

    The offsets are exact whenever the block spans less than 2^31: a block
    is one segment (at most 2^27 integers) plus r - 1 carried members. Only
    a window of about 10^8 members, which PATTERN_CAP allows only for q = 1,
    spans more, and a q of 2^31 or more does not fit int32; both take int64
    residues.
    """
    origin = int(block[0]) - int(block[0]) % q
    dtype = np.int32 if max(int(block[-1]) - origin, q) < 2**31 else np.int64
    res = np.subtract(block, np.int64(origin), dtype=dtype)
    res %= q
    return res


def _collect_first_hits(
    codes: np.ndarray,
    want: np.ndarray,
    block: np.ndarray,
    n_start: int,
    r: int,
    occ: dict[int, list[Occurrence]],
) -> None:
    """Append to occ[code] the first want[code] windows of this block with that code.

    Scans prefixes that double from 4096 windows and stops once every wanted
    hit is taken. In each stretch it loops in ascending n over the windows
    whose code still wants hits. `want` is consumed in place.
    """
    remaining = int(want.sum())
    lo, hi = 0, 4096
    while remaining > 0 and lo < codes.size:
        sub = codes[lo:hi]
        pos = np.flatnonzero(want[sub] > 0)
        for p, code in zip((pos + lo).tolist(), sub[pos].tolist()):
            if want[code] > 0:
                want[code] -= 1
                remaining -= 1
                occ.setdefault(code, []).append(_occurrence(block, n_start, p, r))
        lo, hi = hi, 2 * hi
