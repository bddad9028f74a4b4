import itertools
import time

import numpy as np
import pytest

from twosq import census, sieve
from twosq.admissibility import admissible_classes
from twosq.arith import factorize
from twosq.census import (
    CensusReport,
    Occurrence,
    PatternSpec,
    census_report,
    find_first_occurrence,
    match_pattern,
)
from twosq.errors import InternalInconsistency, TooManyPatterns
from twosq.sieve import count_N


def test_match_examples():
    q4 = factorize(4)
    r = match_pattern(PatternSpec(q4, (1,)), 10)
    assert r.count == 3
    assert [o.values[0] for o in r.occurrences] == [1, 5, 9]
    r = match_pattern(PatternSpec(q4, (1, 2)), 10)
    assert r.count == 2
    assert [o.values for o in r.occurrences] == [(1, 2), (9, 10)]
    assert match_pattern(PatternSpec(q4, (3,)), 5000).count == 0


def test_match_with_modulus_past_int32():
    # q = 2^32 and 2^31 + 11 (prime) exceed int32, so residues go through
    # int64, and every member up to x is its own residue
    for q in (2**32, 2**31 + 11):
        r = match_pattern(PatternSpec(factorize(q), (9, 10)), 100)
        assert r.count == 1 and [o.values for o in r.occurrences] == [(9, 10)]
        assert match_pattern(PatternSpec(factorize(q), (q - 1,)), 100).count == 0


def test_match_counts_window_past_x():
    # start 10 <= x, continuation 13 > x must still be examined
    r = match_pattern(PatternSpec(factorize(4), (2, 1)), 10)
    assert r.occurrences[-1].values == (10, 13)


def test_census_examples():
    rep = census_report(factorize(4), 1, 10)
    assert rep.counts == {(0,): 3, (1,): 3, (2,): 2}
    assert rep.total_windows == 8
    rep = census_report(factorize(1), 3, 10)
    assert rep.counts == {(0, 0, 0): 8} and rep.total_windows == 8
    rep = census_report(factorize(4), 2, 10)
    assert rep.count_for((1, 2)) == 2
    assert rep.total_windows == 8


def test_partition_identity_small(monkeypatch):
    for q, r in ((4, 1), (4, 2), (5, 2), (3, 3)):
        x = 20_000
        rep = census_report(factorize(q), r, x)
        assert sum(rep.counts.values()) == rep.total_windows == count_N(x)
    # count_N reads the member arrays, not the census's label blocks, so it
    # checks where the label stream stops: at, just below and just above
    # the last window start of the second block.
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LEN", 999)
    for q, r in ((4, 1), (4, 2), (5, 2), (3, 3)):
        last_start = int(sieve.sieve_segment(0, 2 * 999).members()[-r])
        for x in (last_start - 1, last_start, last_start + 1):
            rep = census_report(factorize(q), r, x)
            assert sum(rep.counts.values()) == rep.total_windows == count_N(x)


def test_zero_on_inadmissible():
    rep = census_report(factorize(4), 2, 50_000)
    for tup in itertools.product(range(4), repeat=2):
        if 3 in tup:
            assert rep.count_for(tup) == 0


def test_shard_determinism(monkeypatch):
    fq = factorize(5)
    baseline = census_report(fq, 3, 30_000)
    for seg_len in (1 << 12, 1 << 14, 999):
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LEN", seg_len)
        other = census_report(fq, 3, 30_000)
        assert other.counts == baseline.counts
        assert other.occurrences == baseline.occurrences
        assert other.total_windows == baseline.total_windows


def test_census_matches_match_pattern():
    fq = factorize(5)
    rep = census_report(fq, 2, 10_000)
    for tup in rep.pattern_universe():
        spec = PatternSpec(fq, tup)
        match = match_pattern(spec, 10_000)
        assert rep.count_for(tup) == match.count
        first = rep.occurrences.get(tup, [])
        shorter = min(len(first), len(match.occurrences))
        assert first[:shorter] == list(match.occurrences[:shorter])
        assert find_first_occurrence(spec, 10_000) == (first[0] if first else None)


def test_occurrence_capping(monkeypatch):
    monkeypatch.setattr(census, "MAX_OCCURRENCES", 4)
    rep = census_report(factorize(4), 1, 10_000)
    assert all(len(v) == 4 for v in rep.occurrences.values())
    monkeypatch.setattr(census, "MAX_OCCURRENCES", 10)
    full = census_report(factorize(4), 1, 10_000)
    for tup, lst in rep.occurrences.items():
        assert lst == full.occurrences[tup][:4]


def test_first_occurrence_examples():
    q4 = factorize(4)
    occ = find_first_occurrence(PatternSpec(q4, (1, 2, 0)), 100)
    assert occ is not None and occ.n == 2 and occ.values == (1, 2, 4)
    assert find_first_occurrence(PatternSpec(q4, (0, 3)), 10_000) is None
    occ = find_first_occurrence(PatternSpec(factorize(1), (0,)), 0)
    assert occ is not None and occ.n == 1 and occ.values == (0,)


def test_pattern_cap():
    with pytest.raises(TooManyPatterns):
        census_report(factorize(5), 9, 100)  # 5^9 admissible tuples > PATTERN_CAP = 2^20


def test_pattern_spec_validation():
    with pytest.raises(ValueError):
        PatternSpec(factorize(4), ())
    with pytest.raises(ValueError):
        PatternSpec(factorize(4), (4,))


def _reference_window_blocks(x, r):
    """Yield (block, n_start, starts): member values per segment with r - 1
    carried before them, and the number of window starts <= x; stops at the
    first start past x. Reads member arrays, not the census's label stream."""
    carry = np.empty(0, dtype=np.int64)
    n_start = 1
    for values in sieve.iter_member_arrays(x):
        block = np.concatenate([carry, values])
        starts = block.size - r + 1
        if starts < 1:
            carry = block
            continue
        within = int(np.searchsorted(block[:starts], x, "right"))
        if within < starts:
            if within:
                yield block, n_start, within
            return
        yield block, n_start, starts
        carry = block[starts:]
        n_start += starts


def _reference_occurrence(block, n_start, pos, r):
    return Occurrence(n_start + pos, tuple(block[pos : pos + r].tolist()))


def _reference_census_report(q, r, x):
    """The earlier kernel: base-q codes from block % q, np.unique counts,
    and a stable argsort of every block's codes for the first occurrences."""
    adm = tuple(c.value for c in admissible_classes(q))
    qv = q.value
    weights = [qv ** (r - 1 - i) for i in range(r)]
    counts: dict[int, int] = {}
    occ: dict[int, list[Occurrence]] = {}
    total = 0
    for block, n_start, starts in _reference_window_blocks(x, r):
        res = block % qv
        codes = res[:starts] * weights[0]
        for i in range(1, r):
            codes = codes + res[i : starts + i] * weights[i]
        uniq, cnts = np.unique(codes, return_counts=True)
        for code, c in zip(uniq.tolist(), cnts.tolist()):
            counts[code] = counts.get(code, 0) + c
        total += starts
        order = np.argsort(codes, kind="stable")
        boundaries = np.flatnonzero(np.diff(codes[order])) + 1
        for grp in np.split(order, boundaries):
            lst = occ.setdefault(int(codes[grp[0]]), [])
            need = census.MAX_OCCURRENCES - len(lst)
            for pos in grp[:need].tolist():
                lst.append(_reference_occurrence(block, n_start, pos, r))

    def decode(code):
        out = []
        for _ in range(r):
            code, c = divmod(code, qv)
            out.append(c)
        return tuple(reversed(out))

    return CensusReport(
        q=qv,
        r=r,
        x=x,
        counts={decode(c): n for c, n in sorted(counts.items())},
        occurrences={decode(c): lst for c, lst in sorted(occ.items())},
        total_windows=total,
        admissible=adm,
    )


def _assert_same_report(q, r, x):
    fq = factorize(q)
    got, ref = census_report(fq, r, x), _reference_census_report(fq, r, x)
    assert list(got.counts.items()) == list(ref.counts.items())
    assert list(got.occurrences.items()) == list(ref.occurrences.items())
    assert got.total_windows == ref.total_windows
    return got


@pytest.mark.parametrize("q", [1, 4, 5, 12, 48])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_matches_reference_kernel(q, r):
    _assert_same_report(q, r, 40_000)


@pytest.mark.parametrize("cap", [1, 10, 50])
@pytest.mark.parametrize("seg_len", [None, 1 << 12, 999])
def test_matches_reference_kernel_across_blocks(monkeypatch, cap, seg_len):
    monkeypatch.setattr(census, "MAX_OCCURRENCES", cap)
    if seg_len is not None:
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LEN", seg_len)
    for q, r in ((5, 3), (12, 2)):
        _assert_same_report(q, r, 60_000)


def test_matches_reference_kernel_for_rare_patterns(monkeypatch):
    # One block; several patterns have fewer than MAX_OCCURRENCES hits, and
    # some of those hits lie past the first prefixes of 4096 windows, so the
    # prefix scan has to reach them.
    monkeypatch.setattr(census, "MAX_OCCURRENCES", 50)
    rep = _assert_same_report(48, 3, 200_000)
    rare = [t for t, n in rep.counts.items() if n < 50]
    assert rare
    assert all(len(rep.occurrences[t]) == rep.counts[t] for t in rare)
    assert max(rep.occurrences[t][-1].n for t in rare) > 4 * 4096


def test_matches_reference_kernel_long_windows():
    # 3^12 admissible tuples fit PATTERN_CAP although 4^12 would not.
    _assert_same_report(4, 12, 50_000)


@pytest.mark.parametrize(
    "q, r",
    [
        (289, 1),  # 289 class indices and codes: past uint8
        (289, 2),  # 83,521 codes: past uint16
        (4, 5),  # 243 codes: the last r for uint8 codes
        (4, 6),  # 729 codes: past uint8
    ],
)
def test_matches_reference_kernel_at_dtype_boundaries(q, r):
    _assert_same_report(q, r, 40_000)


def test_pattern_cap_checked_before_enumerating_classes():
    # 10000019 = 3 (mod 4) is prime, so every one of its classes is admissible;
    # listing them takes seconds, counting them does not.
    fq = factorize(10_000_019)
    start = time.perf_counter()
    with pytest.raises(TooManyPatterns):
        census_report(fq, 1, 100)
    assert time.perf_counter() - start < 1.0


def test_inadmissible_member_raises(monkeypatch):
    # A bitmap with 0..5 set holds 3, whose class mod 4 is not admissible.
    def fake_segment(lo, hi, cache_dir=None):
        bits = np.zeros(hi - lo, dtype=bool)
        bits[:6] = True
        return sieve.TwoSqSegment(lo, hi, bits)

    monkeypatch.setattr(sieve, "sieve_segment", fake_segment)
    with pytest.raises(InternalInconsistency):
        census_report(factorize(4), 2, 10)


def test_match_with_modulus_past_int64():
    # q = 2^70: every member up to x is its own class, and numpy never sees q.
    r = match_pattern(PatternSpec(factorize(2**70), (1,)), 100)
    assert r.count == 1 and r.occurrences == (Occurrence(2, (1,)),)


def test_pattern_longer_than_a_label_block():
    # q = 1048573 (prime, 1 mod 4): one period of class labels spans four
    # label blocks of 2^18 entries, and x = 2.2e6 runs into a third period.
    _assert_same_report(1_048_573, 1, 2_200_000)


def _assert_same_match(q, classes, x):
    """match_pattern against a count of block % q over the reference windows."""
    got = match_pattern(PatternSpec(factorize(q), classes), x)
    count, first = 0, []
    for block, n_start, starts in _reference_window_blocks(x, len(classes)):
        res = block % q
        mask = np.ones(starts, dtype=bool)
        for i, c in enumerate(classes):
            mask &= res[i : starts + i] == c
        count += int(np.count_nonzero(mask))
        for pos in np.flatnonzero(mask)[: census.MAX_OCCURRENCES].tolist():
            first.append(_reference_occurrence(block, n_start, pos, len(classes)))
    assert got.count == count > 0
    assert list(got.occurrences) == first[: census.MAX_OCCURRENCES]


def test_period_not_dividing_the_label_block():
    # The label blocks of 2^18 entries start at a new phase mod 7 or 1001 each
    # time. The second, a full block from 2^18 = 883 (mod 1001), reads the
    # tiled table of 1001 labels into its last period.
    x = (1 << 21) + 300_000
    _assert_same_report(7, 2, x)
    _assert_same_report(1001, 1, x)
    for classes in ((1, 2), (0, 4, 2), (2,)):
        _assert_same_match(7, classes, x)


@pytest.mark.parametrize("seg_len", [3, 7])
def test_carry_across_segments_shorter_than_a_window(monkeypatch, seg_len):
    # Segments of 3 or 7 entries often hold fewer than r = 3 members, so the
    # carried members span several segments.
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LEN", seg_len)
    monkeypatch.setattr(census, "MAX_OCCURRENCES", 50)
    for q in (4, 5):
        _assert_same_report(q, 3, 3_000)
        _assert_same_match(q, (1, 2, 0), 3_000)
