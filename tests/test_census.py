import itertools

import pytest

from twosq import census, sieve
from twosq.arith import factorize
from twosq.census import PatternSpec, census_report, find_first_occurrence, match_pattern
from twosq.errors import TooManyPatterns
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


def test_partition_identity_small():
    for q, r in ((4, 1), (4, 2), (5, 2), (3, 3)):
        x = 20_000
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
        assert rep.count_for(tup) == match_pattern(PatternSpec(fq, tup), 10_000).count


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
    assert not PatternSpec(factorize(4), (1, 3)).all_admissible()
    assert PatternSpec(factorize(4), (1, 2)).all_admissible()
