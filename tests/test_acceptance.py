"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from twosq import sieve
from twosq.admissibility import admissibility_reason, admissible_classes
from twosq.arith import FactorBudget, FactoredInteger, factorize, is_sum_two_squares
from twosq.census import PatternSpec, census_report, match_pattern
from twosq.forcing import bin_plan, build_blocking_system, delta_constant
from twosq.sieve import count_N, sieve_segment
from twosq.witness import build_family, build_witness_family, iter_base_solutions, iter_shift_pairs, scan_family

from .conftest import brute_admissible_set, criterion_membership, spf_table

DATA = Path(__file__).parent / "data"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_admissibility_oracle():
    t0 = time.time()
    mismatches = 0
    for q in range(1, 301):
        fq = factorize(q)
        mine = {c.value for c in admissible_classes(fq)}
        if mine != brute_admissible_set(q):
            mismatches += 1
    _report(
        1,
        mismatches == 0,
        f"admissibility == brute force for all q <= 300 ({time.time() - t0:.1f}s)",
    )


def test_criterion_02_sieve_oracle():
    t0 = time.time()
    limit = 10**6
    seg = sieve_segment(0, limit + 1)
    spf = spf_table(limit)
    bad = sum(
        1 for n in range(limit + 1) if bool(seg.bits[n]) != criterion_membership(n, spf)
    )
    rng = random.Random(20260811)
    lo = 10**12
    high_seg = sieve_segment(lo, lo + 10**6)
    bad_high = 0
    for _ in range(1000):
        n = lo + rng.randrange(10**6)
        if (n in high_seg) != is_sum_two_squares(factorize(n)):
            bad_high += 1
    _report(
        2,
        bad == 0 and bad_high == 0,
        f"sieve == factorization criterion on [0,1e6] and 1000 points near 1e12 "
        f"({time.time() - t0:.1f}s)",
    )


def test_criterion_03_partition_identity():
    t0 = time.time()
    x = 10**6
    total = count_N(x)
    ok = True
    for qv, r in ((4, 1), (4, 2), (5, 1), (5, 2), (5, 3)):
        rep = census_report(factorize(qv), r, x)
        if sum(rep.counts.values()) != total or rep.total_windows != total:
            ok = False
        for tup in itertools.product(range(qv), repeat=r):
            if any(admissibility_reason(c, factorize(qv).factors) is not None for c in tup):
                if rep.count_for(tup) != 0:
                    ok = False
    _report(
        3,
        ok,
        f"sum over patterns == N(1e6) == {total} for five (q,r) configs "
        f"({time.time() - t0:.1f}s)",
    )


def test_criterion_04_census_fixtures():
    c1 = match_pattern(PatternSpec(factorize(4), (1,)), 10).count
    c2 = match_pattern(PatternSpec(factorize(4), (1, 2)), 10).count
    _report(4, c1 == 3 and c2 == 2, f"N(10;4,[1]) = {c1}, N(10;4,[1,2]) = {c2}")


def test_criterion_05_witness_fixture():
    t0 = time.time()
    base = next(iter_base_solutions(1, factorize(4)))
    shift = next(iter_shift_pairs(base, 4))
    fam = build_family(base, shift, 8)
    ok = fam.T == 2 and (fam.A, fam.B, fam.C + fam.k) == (8, 4, 9)
    result = scan_family(fam, 4)
    ok = ok and [c.t for c in result.certificates] == [0, 2, 4]
    ok = ok and [c.n for c in result.certificates] == [1, 41, 145]
    ok = ok and all(c.verify() for c in result.certificates)
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _report(5, ok, f"(4,1,4,8): T=2, F(t)=8t^2+4t+9, hits at t=0,2,4 ({elapsed:.2f}s)")


def test_criterion_06_witness_invariants(witness_families):
    t0 = time.time()
    import math

    ok = True
    for fam in witness_families:
        q, a = fam.q.value, fam.a
        d0 = fam.B**2 - 4 * fam.A * fam.C
        if d0 > 0 or math.isqrt(-d0) ** 2 != -d0 or fam.B**2 - 4 * fam.A * (fam.C + fam.k) > 0:
            ok = False
            break
        for t in range(1001):
            n = fam.n_value(t)
            if n % q != a or n != fam.x_of(t) ** 2 + fam.y_of(t) ** 2:
                ok = False
                break
            if n + fam.h != (fam.x_of(t) + fam.u) ** 2 + (fam.y_of(t) + fam.v) ** 2:
                ok = False
                break
        if not ok:
            break
    _report(
        6,
        ok,
        f"identities exact for 100 families, all t in [0,1000] ({time.time() - t0:.1f}s)",
    )


def test_criterion_07_witness_productivity(witness_families):
    t0 = time.time()
    budget = FactorBudget(trial_bound=10_000)
    t_cap = 10**5
    misses = []
    hit_t = []
    for fam in witness_families:
        res = scan_family(fam, t_cap, budget=budget, stop_after=1)
        if res.certificates:
            hit_t.append(res.certificates[0].t)
        else:
            misses.append(fam)
    if misses:
        # soft failure: increase the budget once and retry the missed families
        print(f"ACCEPTANCE  7 SOFT  {len(misses)} families missed, retrying with larger budget")
        big = FactorBudget(trial_bound=1_000_000, rho_rounds=48, rho_iterations=1 << 21)
        misses = [f for f in misses if not scan_family(f, t_cap, budget=big, stop_after=1).certificates]
    _report(
        7,
        not misses,
        f"every family certified with t <= 1e5 (max first t = {max(hit_t)}, "
        f"{time.time() - t0:.1f}s)",
    )


def test_criterion_08_blocking_battery():
    t0 = time.time()
    systems = 0
    for qv in (1, 3, 4, 5):
        fq = factorize(qv)
        adm = [c.value for c in admissible_classes(fq)]
        for a, b, c in itertools.product(adm, repeat=3):
            build_blocking_system(fq, a, b, c)  # full verify() runs inside
            systems += 1
    _report(8, systems == 180, f"{systems} blocking systems verified ({time.time() - t0:.1f}s)")


def test_criterion_09_q5_census_fixture(monkeypatch):
    t0 = time.time()
    rep = census_report(factorize(5), 3, 10**7)
    payload = {
        "q": "5",
        "r": "3",
        "x": str(10**7),
        "total_windows": str(rep.total_windows),
        "patterns": [
            {
                "pattern": [str(c) for c in tup],
                "count": str(rep.count_for(tup)),
                "first_n": str(rep.occurrences[tup][0].n),
                "first_values": [str(v) for v in rep.occurrences[tup][0].values],
            }
            for tup in rep.pattern_universe()
        ],
    }
    rendered = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    frozen = (DATA / "census_q5_r3_1e7.json").read_text(encoding="utf-8")
    ok = rendered == frozen and all(rep.count_for(t) > 0 for t in rep.pattern_universe())
    # reproduce byte-identically under a different sharding
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LEN", 1 << 22)
    rep2 = census_report(factorize(5), 3, 10**7)
    ok = ok and rep2.counts == rep.counts and rep2.occurrences == rep.occurrences
    _report(
        9,
        ok,
        f"all 125 patterns below 1e7, byte-identical to fixture ({time.time() - t0:.1f}s)",
    )


def test_criterion_10_delta_and_bins():
    d = delta_constant(1 / 40, 1 / 40)
    plan = bin_plan(2, 1 / 40, 1 / 40)
    ok = abs(d - 2.9656) <= 1e-3 and plan == [53, 16385]
    _report(10, ok, f"Delta(1/40,1/40) = {d:.6f}, bin_plan = {plan}")


def test_criterion_11_equidistribution_report():
    t0 = time.time()
    x = 10**7
    rep = census_report(factorize(5), 1, x)
    total = rep.total_windows
    deviations = {
        cls: rep.count_for((cls,)) / total - 1 / 5 for cls in range(5)
    }
    max_dev = max(abs(v) for v in deviations.values())
    print(
        "ACCEPTANCE 11 REPORT  max |N(x;5,a)/N(x) - 1/5| = "
        f"{max_dev:.6f} at x = 1e7 (per-class: "
        + ", ".join(f"{c}: {v:+.6f}" for c, v in deviations.items())
        + f", {time.time() - t0:.1f}s)"
    )
    _report(11, total == sum(rep.counts.values()), "equidistribution deviations emitted (report-only)")
