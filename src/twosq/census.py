"""Residue-pattern census over the increasing sequence of sums of two squares.

Counts windows of r consecutive members E_n, E_{n+1}, ..., E_{n+r-1} whose
classes mod q match a prescribed tuple, for all starts with E_n <= x. The
bound is one-sided: a window whose later members exceed x still counts,
so the stream is extended past x far enough to complete every window.

Counting reads the sieve's bitmaps, not arrays of member values. A
member's label depends only on n mod q, so the labels of a bitmap block's
members are the block's bitmap compressing a period-q row of labels: one
`np.compress` per block of _LABEL_BLOCK entries, with r - 1 labels carried
between blocks. `census_report` serves every pattern in one pass: it
checks the size of the pattern universe, counted in closed form by
`admissible_count`, against PATTERN_CAP before `admissible_mask` lists any
class, labels each member by its class's index among the admissible
classes, codes each window in base len(adm) in the smallest unsigned dtype
that holds every code, and counts the codes with `np.bincount`. Values are
read only where needed: the x bound counts the bitmap up to x, first hits
read a doubling prefix of it and the carry a tail of it. `census_report`
and `match_pattern` share one label stream and one first-hit collector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import sieve
from .admissibility import (
    admissible_classes,  # no longer called here, but perfbench/tracing.py wraps census.admissible_classes
    admissible_count,
    admissible_mask,
)
from .arith import FactoredInteger
from .errors import InternalInconsistency, TooManyPatterns
from .sieve import iter_member_arrays  # no longer called here, but perfbench/tracing.py wraps census.iter_member_arrays

# First matches kept per pattern, and the most patterns one census counts.
MAX_OCCURRENCES = 10
PATTERN_CAP = 1 << 20
# Fewest codes per np.bincount call in census_report.
_BINCOUNT_SLICE = 1 << 16
# Bitmap entries labelled per np.compress.
_LABEL_BLOCK = 1 << 18


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


@dataclass
class _LabelBlock:
    """Labels of one bitmap block's members after the carried ones; windows
    n_start.. start at positions [0, starts). `values`, the carried values at
    first, grows by the members of a prefix of `bits`, the bitmap from lo,
    that doubles from 4096 entries until it holds the window asked for."""

    labels: np.ndarray
    n_start: int
    starts: int
    bits: np.ndarray
    lo: int
    values: list[int]
    span: int = 0

    def occurrence(self, pos: int, r: int) -> Occurrence:
        while len(self.values) < pos + r:
            start, self.span = self.span, max(2 * self.span, 4096)
            self.values += (np.flatnonzero(self.bits[start : self.span]) + (self.lo + start)).tolist()
        return Occurrence(self.n_start + pos, tuple(self.values[pos : pos + r]))


def _iter_label_blocks(
    x: int, r: int, labels: Callable[[int, int], np.ndarray], cache_dir: str | None
) -> Iterator[_LabelBlock]:
    """A _LabelBlock per bitmap block of up to _LABEL_BLOCK entries that
    completes a window, labelled by labels(lo, n) for [lo, lo + n). The labels
    and values after the last window start carry into the next block. Stops
    at the first window that starts past x."""
    carry, carry_labels, n_start = [], None, 1
    for seg in sieve.iter_segments(x, cache_dir):
        for b in range(0, seg.bits.size, _LABEL_BLOCK):
            bits, lo = seg.bits[b : b + _LABEL_BLOCK], seg.lo + b
            lab = np.compress(bits, labels(lo, bits.size))
            if carry:
                lab = np.concatenate((carry_labels, lab))
            starts = max(lab.size - r + 1, 0)
            if lo + bits.size > x + 1:  # the block reaches past x
                within = sum(v <= x for v in carry) + int(np.count_nonzero(bits[: max(x + 1 - lo, 0)]))
                if within < starts:
                    if within:
                        yield _LabelBlock(lab, n_start, within, bits, lo, list(carry))
                    return
            if starts:
                yield _LabelBlock(lab, n_start, starts, bits, lo, list(carry))
            carry, carry_labels = _last_values(carry, bits, lo, lab.size - starts), lab[starts:]
            n_start += starts


def _last_values(carry: list[int], bits: np.ndarray, lo: int, k: int) -> list[int]:
    """The last k of carry and the members of bits, the bitmap from lo, read
    from a tail of bits that grows fourfold until it holds k or all of bits."""
    span = 64 * k
    while (start := max(bits.size - span, 0)) and np.count_nonzero(bits[start:]) < k:
        span *= 4
    tail = (np.flatnonzero(bits[start:]) + (lo + start)).tolist()
    return (carry + tail)[len(carry) + len(tail) - k :]


def match_pattern(spec: PatternSpec, x: int, cache_dir: str | None = None) -> MatchResult:
    """Count windows matching `spec` with start value <= x.

    Also reports the first MAX_OCCURRENCES matches. A count of 0 is the
    legitimate output for patterns containing a non-admissible class.
    Members are labelled 1..d by their class's place among the spec's d
    distinct classes, else 0: each class marks one strided slice of a row,
    from an offset taken in Python ints, so numpy never sees q, which may
    pass int64, and no O(q) table is built. First hits are code 1 of the
    window mask.
    """
    q, r = spec.q.value, spec.r
    distinct = list(dict.fromkeys(spec.classes))
    targets = [distinct.index(c) + 1 for c in spec.classes]

    def labels(lo: int, n: int) -> np.ndarray:
        row = np.zeros(n, dtype=np.min_scalar_type(len(distinct)))
        for label, c in enumerate(distinct, 1):
            row[(c - lo) % q :: q] = label
        return row

    count = 0
    occ: dict[int, list[Occurrence]] = {}
    for block in _iter_label_blocks(x, r, labels, cache_dir):
        lab, starts = block.labels, block.starts
        mask = lab[:starts] == targets[0]
        for i in range(1, r):
            mask &= lab[i : starts + i] == targets[i]
        block_count = int(np.count_nonzero(mask))
        want = np.array([0, min(block_count, MAX_OCCURRENCES - len(occ.get(1, ())))])
        _collect_first_hits(mask.view(np.uint8), want, block, r, occ)
        count += block_count
    return MatchResult(count, tuple(occ.get(1, ())))


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
    against PATTERN_CAP before `admissible_mask` lists any class. A member's
    label is its class's index among the sorted admissible classes, read
    from a table in the smallest unsigned dtype that holds len(adm), which
    marks the inadmissible classes with len(adm) and is tiled once per call
    over _LABEL_BLOCK entries plus one period; a member whose class is not
    admissible raises InternalInconsistency. A window is encoded in base
    len(adm) (first class most significant), so codes sort like their tuples;
    they are built in place in the smallest unsigned dtype that holds them
    (uint8 for q=5, r=3) and counted with `np.bincount` over slices of at
    least _BINCOUNT_SLICE codes, which bounds the intp copy it makes. Seen
    codes are named in one numpy pass from their base len(adm) digits (not
    by `np.unravel_index`, whose shape of r axes numpy refuses for q=1, r=70).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    k = admissible_count(q)
    universe = k**r
    if universe > PATTERN_CAP:
        raise TooManyPatterns(f"{k}^{r} admissible tuples exceed cap {PATTERN_CAP}")
    admissible = admissible_mask(q)
    adm = np.flatnonzero(admissible)
    qv = q.value
    index = np.full(qv, k, dtype=np.min_scalar_type(k))
    index[admissible] = np.arange(k)
    tiled = np.tile(index, _LABEL_BLOCK // qv + 2)
    code_dtype = np.min_scalar_type(universe - 1)
    step = max(_BINCOUNT_SLICE, universe)
    counts = np.zeros(universe, dtype=np.int64)
    need = np.full(universe, MAX_OCCURRENCES, dtype=np.int64)
    occ: dict[int, list[Occurrence]] = {}
    total = 0
    for block in _iter_label_blocks(x, r, lambda lo, n: tiled[lo % qv : lo % qv + n], cache_dir):
        idx, starts = block.labels, block.starts
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
        _collect_first_hits(codes, want, block, r, occ)

    seen = np.flatnonzero(counts)
    digits = seen[:, None] // k ** np.arange(r - 1, -1, -1) % k
    patterns = list(map(tuple, adm[digits].tolist()))
    return CensusReport(
        q=qv,
        r=r,
        x=x,
        counts=dict(zip(patterns, counts[seen].tolist())),
        occurrences={p: occ.get(c, []) for p, c in zip(patterns, seen.tolist())},
        total_windows=total,
        admissible=tuple(adm.tolist()),
    )


def _collect_first_hits(
    codes: np.ndarray, want: np.ndarray, block: _LabelBlock, r: int, occ: dict[int, list[Occurrence]]
) -> None:
    """Append to occ[code] the first want[code] windows of this block with that code.

    Scans prefixes that double from 4096 windows and stops once every wanted
    hit is taken, looping in ascending n over the windows whose code still
    wants hits; their values come from `block.occurrence`, which reads only
    a prefix of the bitmap. `want` is consumed in place.
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
                occ.setdefault(code, []).append(block.occurrence(p, r))
                if not remaining:
                    return
        lo, hi = hi, 2 * hi
