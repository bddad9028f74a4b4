import dataclasses
import itertools
import json
import math
import random
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twosq.arith as arith
import twosq.certificate as certificate
import twosq.witness as witness
from twosq.admissibility import admissible_classes, is_admissible_value
from twosq.arith import (
    _TRIAL_PRIMES,
    DEFAULT_BUDGET,
    FactorBudget,
    FactoredInteger,
    ResidueClass,
    crt_combine,
    factorize,
    is_prime,
    is_sum_two_squares,
    represent_two_squares,
    small_primes,
    sqrt_mod_prime_power,
    valuation,
)
from twosq.certificate import TripleCertificate
from twosq.errors import (
    BudgetExceeded,
    InternalInconsistency,
    ObstructionFound,
    SearchExhausted,
)
from twosq.forcing import build_blocking_system
from twosq.witness import (
    ScanResult,
    ShiftPair,
    _base_target,
    _gcd_bound,
    _iter_crt_pairs,
    _iter_uv_local,
    _shift_target,
    _sieved_t,
    _strip_stray_primes,
    _two_adic_feasible,
    build_family,
    build_witness_family,
    check_hypotheses,
    check_local_obstructions,
    iter_base_solutions,
    iter_shift_pairs,
    scan_family,
)


def test_hypotheses_examples():
    assert check_hypotheses(factorize(4), 1, 4, 8).ok
    v = check_hypotheses(factorize(4), 2, 2, 4)
    assert not v.ok and v.failed_clause == "two_adic_nonvanishing"
    v = check_hypotheses(factorize(9), 1, 3, 6)
    assert not v.ok and v.failed_clause == "two_adic_valuation"
    v = check_hypotheses(factorize(4), 1, 4, 4)
    assert not v.ok and v.failed_clause == "offsets_distinct"


def test_hypotheses_clause_order():
    assert check_hypotheses(factorize(4), 1, 0, 8).failed_clause == "offsets_positive"
    assert check_hypotheses(factorize(27), 1, 4, 8).failed_clause == "odd_prime_valuation"
    assert check_hypotheses(factorize(16), 3, 4, 8).failed_clause == "admissible_a"
    assert check_hypotheses(factorize(16), 1, 2, 8).failed_clause == "admissible_a+h"


@pytest.fixture
def default_digit_limit():
    """Run at the interpreter's default int-to-str digit limit (4,300), which
    no earlier test may have lifted; Python before 3.10.7 has no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_family_over_a_modulus_past_the_digit_limit(default_digit_limit):
    # T_blk of the q = 9 pattern [0, 0, 0] has 15,810 bits, about 4,760 digits
    system = build_blocking_system(factorize(9), 0, 0, 0)
    T, a_T, h, k = system.T_blk, system.a_T.value, system.h, system.k
    assert T.value.bit_length() == 15810
    family = build_witness_family(T, a_T, h, k)
    family.verify()
    # a_T + 1 is p_1 times a unit mod p_1^2; the verdict names both sides by size
    verdict = check_hypotheses(T, a_T + 1, h, k)
    assert not verdict.ok and verdict.failed_clause == "admissible_a"
    assert verdict.detail.endswith("mod a 15810-bit number")
    with pytest.raises(ObstructionFound, match="15810-bit"):
        check_local_obstructions(dataclasses.replace(family, k=1))


def _assert_base_targets(base):
    """gcd(x0, y0) has the prescribed valuation, capped at e, at every p^e || q."""
    g0 = math.gcd(base.x0, base.y0)
    for p, e in base.q.factors.items():
        assert min(valuation(g0, p), e) == _base_target(base.a.value, p, e), (base, p)


def test_solve_base_examples():
    base = next(iter_base_solutions(1, factorize(4)))
    assert (base.x0, base.y0) == (1, 0)
    _assert_base_targets(base)
    base = next(iter_base_solutions(0, factorize(9)))
    assert (base.x0, base.y0) == (3, 0)
    assert _base_target(0, 3, 2) == 1
    _assert_base_targets(base)
    base = next(iter_base_solutions(2, factorize(8)))
    assert (base.x0, base.y0) == (1, 1)
    _assert_base_targets(base)


def test_construct_shift_example():
    base = next(iter_base_solutions(1, factorize(4)))
    shift = next(iter_shift_pairs(base, 4))
    assert (shift.u, shift.v, shift.gcd_uv) == (1, 1, 1)
    assert ((base.x0 + shift.u) ** 2 + (base.y0 + shift.v) ** 2) % 4 == (1 + 4) % 4


def test_shift_identity_when_h_multiple_of_q():
    # h = 0 mod q collapses the shifted congruence onto the base one
    base = next(iter_base_solutions(1, factorize(20)))
    shift = next(iter_shift_pairs(base, 20))
    lhs = (base.x0 + shift.u) ** 2 + (base.y0 + shift.v) ** 2
    assert lhs % 20 == 1


def test_build_family_fixture():
    base = next(iter_base_solutions(1, factorize(4)))
    shift = next(iter_shift_pairs(base, 4))
    fam = build_family(base, shift, 8)
    assert (fam.T, fam.r0, fam.s0) == (2, 0, 0)
    assert (fam.A, fam.B, fam.C) == (8, 4, 1)
    assert fam.B**2 - 4 * fam.A * fam.C == -16
    assert fam.eta == 4
    assert fam.B**2 - 4 * fam.A * (fam.C + fam.k) == -272


def test_local_obstructions_fixture():
    fam = build_witness_family(factorize(4), 1, 4, 8)
    assert check_local_obstructions(fam) is None


def _with_changes(family, k, **coefficients):
    """A copy of the family with offset k, and with the given coefficients
    set past the frozen dataclass: no built family has A = 56 and B = 28."""
    family = dataclasses.replace(family, k=k)
    for name, value in coefficients.items():
        object.__setattr__(family, name, value)
    return family


@pytest.mark.parametrize(
    "q,a,h,k,changes",
    [
        # a + k = 6 mod 9: odd valuation short of e at p = 3
        (36, 1, 4, 8, {"k": 5}),
        # F(t) = 8t^2 + 4t + 3 is constantly 3 mod 4
        (4, 1, 4, 8, {"k": 2}),
        # F(t) = 7(8t^2 + 4t + 12), and the cofactor has no root mod 7
        (4, 1, 4, 8, {"A": 56, "B": 28, "k": 83}),
    ],
)
def test_local_obstructions_raise(q, a, h, k, changes):
    fam = _with_changes(build_witness_family(factorize(q), a, h, k), **changes)
    with pytest.raises(ObstructionFound):
        check_local_obstructions(fam)


def test_local_obstructions_allow_square_of_small_prime():
    # F(t) = 56t^2 + 28t + 14 vanishes identically mod 7, yet
    # F(1) = 98 = 7^2 + 7^2 and F(9) = 4802 = 2 * 7^4
    fam = _with_changes(build_witness_family(factorize(4), 1, 4, 8), A=56, B=28, k=13)
    assert (fam.F(1), fam.F(9)) == (98, 4802)
    assert check_local_obstructions(fam) is None


def test_scan_fixture():
    fam = build_witness_family(factorize(4), 1, 4, 8)
    result = scan_family(fam, 4)
    assert [c.t for c in result.certificates] == [0, 2, 4]
    assert [c.n for c in result.certificates] == [1, 41, 145]
    assert result.skipped_t == []
    for cert in result.certificates:
        assert cert.verify()
    # t = 1 gives F = 21 = 3 * 7, not a sum of two squares
    assert fam.F(1) == 21


def test_scan_stop_after():
    fam = build_witness_family(factorize(4), 1, 4, 8)
    result = scan_family(fam, 1000, stop_after=1)
    assert len(result.certificates) == 1 and result.certificates[0].t == 0


def test_family_invariants_battery(witness_families):
    for fam in witness_families:
        q, a = fam.q.value, fam.a
        d0 = fam.B**2 - 4 * fam.A * fam.C
        assert d0 <= 0 and math.isqrt(-d0) ** 2 == -d0
        assert fam.B**2 - 4 * fam.A * (fam.C + fam.k) <= 0
        for t in range(0, 1001, 97):
            n = fam.n_value(t)
            assert n % q == a
            assert n == fam.x_of(t) ** 2 + fam.y_of(t) ** 2
            assert n + fam.h == (fam.x_of(t) + fam.u) ** 2 + (fam.y_of(t) + fam.v) ** 2


def test_base_and_shift_valuation_invariants(witness_inputs, witness_families):
    from twosq.admissibility import class_exponent

    # op-level contracts on a sample of raw inputs
    for q, a, h, k in witness_inputs[:25]:
        fq = factorize(q)
        base = next(iter_base_solutions(a, fq))
        assert (base.x0**2 + base.y0**2 - a) % q == 0
        _assert_base_targets(base)
        shift = next(iter_shift_pairs(base, h))
        assert ((base.x0 + shift.u) ** 2 + (base.y0 + shift.v) ** 2 - a - h) % q == 0

    # valuation pattern on all 100 assembled families
    for fam in witness_families:
        fq = fam.q
        g0 = math.gcd(fam.x0, fam.y0)
        g = math.gcd(fam.u, fam.v)
        assert (2 * g0) % g == 0  # gcd(u,v) | 2 gcd(x0,y0)
        bound = 1 << max(fq.exponent(2) // 2 - 1, 0)
        for p, e in fq.factors.items():
            if p % 4 == 3:
                bound *= p ** (e // 2)
        assert bound % g == 0  # gcd(u,v) | 2^(v2/2-1) prod p^(vp/2)
        for p, e in fq.factors.items():
            if p % 4 == 1:
                assert valuation(g0, p) == 0
                assert valuation(g, p) == 0
            else:
                beta = class_exponent(fam.a % p**e, p, e)
                assert valuation(g0, p) == beta // 2


def test_distinct_t_distinct_representations(witness_families):
    for fam in witness_families[:20]:
        seen = set()
        for t in range(50):
            pair = (fam.x_of(t), fam.y_of(t))
            assert pair not in seen
            seen.add(pair)


def test_certificate_roundtrip():
    fam = build_witness_family(factorize(4), 1, 4, 8)
    cert = scan_family(fam, 4).certificates[0]
    blob = json.dumps(cert.to_json_dict(), sort_keys=True)
    again = TripleCertificate.from_json_dict(json.loads(blob))
    assert again == cert and again.verify()


def test_certificate_rejects_tampering():
    fam = build_witness_family(factorize(4), 1, 4, 8)
    cert = scan_family(fam, 4).certificates[0]
    data = cert.to_json_dict()
    data["n"] = "2"
    assert not TripleCertificate.from_json_dict(data).verify()


def test_scan_budget_skips():
    fam = build_witness_family(factorize(4), 1, 4, 8)
    # too small to split odd composites (9 and 49 still factor as squares)
    tiny = FactorBudget(trial_bound=2, rho_rounds=0, rho_iterations=1)
    result = scan_family(fam, 4, budget=tiny)
    assert [c.t for c in result.certificates] == [0, 2]
    assert result.skipped_t == [1, 3, 4]


def test_scan_skips_only_undecided():
    fam = build_witness_family(factorize(4), 1, 4, 8)
    # F(7) = 429 = 3 * 11 * 13 exceeds this budget, but 3 divides it once
    tiny = FactorBudget(trial_bound=4, rho_rounds=0, rho_iterations=1)
    result = scan_family(fam, 7, budget=tiny)
    assert fam.F(7) == 429
    assert [c.t for c in result.certificates] == [0, 2, 4, 5]
    assert result.skipped_t == []
    assert result.sieved == 4  # F = 21, 93, 321, 429 at t = 1, 3, 6, 7
    assert _reference_scan(fam, 7, tiny).skipped_t == [7]


def _reference_scan(family, t_max, budget=DEFAULT_BUDGET, stop_after=None):
    """The former unsieved scan, kept verbatim as the reference: it factors
    F(t) at every t."""
    certs = []
    skipped = []
    for t in range(t_max + 1):
        value = family.F(t)
        try:
            fact = factorize(value, budget)
        except BudgetExceeded:
            skipped.append(t)
            continue
        if not is_sum_two_squares(fact):
            continue
        rep_k = represent_two_squares(fact)
        certs.append(
            TripleCertificate(
                n=family.n_value(t),
                q=family.q.value,
                a=family.a,
                h=family.h,
                k=family.k,
                t=t,
                reps=(family.rep_n(t), family.rep_n_plus_h(t), rep_k),
            )
        )
        if stop_after is not None and len(certs) >= stop_after:
            break
    return ScanResult(certs, skipped, t_max, 0)


_SIEVE_PRIMES = [p for p in small_primes(311) if p % 4 == 3]


def _once_divided(value, bound=311):
    """Whether some prime p = 3 mod 4 up to bound divides value to the power
    1 or 3, the odd valuations the sieve strikes."""
    return any(valuation(value, p) in (1, 3) for p in _SIEVE_PRIMES if p <= bound)


# The (q, a, h, k) families and scan bounds of the benchmark's witness pool.
_POOL = (
    ((4, 1, 4, 8), 4000),
    ((4, 1, 8, 16), 4000),
    ((20, 1, 4, 8), 1500),
    ((52, 1, 4, 8), 2500),
    ((80, 42, 191, 392), 250),
)


@pytest.mark.parametrize("params,t_max", _POOL)
def test_sieved_scan_matches_reference(params, t_max):
    q, a, h, k = params
    fam = build_witness_family(factorize(q), a, h, k)
    result = scan_family(fam, t_max)
    reference = _reference_scan(fam, t_max)
    assert result.certificates == reference.certificates
    assert result.skipped_t == reference.skipped_t
    assert result.sieved == sum(_once_divided(fam.F(t)) for t in range(t_max + 1))


@pytest.mark.parametrize("params,t_max", _POOL)
def test_scan_proves_each_prime_once(monkeypatch, params, t_max):
    """`is_prime` runs at most once per prime recorded in a factor map, and
    never twice on one number within a factorization."""
    q, a, h, k = params
    fam = build_witness_family(factorize(q), a, h, k)
    calls, maps = [], []

    def counting(n):
        calls[-1].append(n)
        return is_prime(n)

    def recording(n, *args):
        calls.append([])
        fact = factorize(n, *args)
        maps.append(fact.factors)
        return fact

    monkeypatch.setattr(arith, "is_prime", counting)
    monkeypatch.setattr(witness, "factorize", recording)
    scan_family(fam, t_max)
    assert maps and sum(map(len, calls)) <= sum(map(len, maps))
    assert all(len(tested) == len(set(tested)) for tested in calls)


@pytest.fixture(scope="module")
def tamper_sources():
    """A pool family and the family over the q = 5 [1, 2, 3] blocking system."""
    system = build_blocking_system(factorize(5), 1, 2, 3)
    return {
        "pool": build_witness_family(factorize(80), 42, 191, 392),
        "blocking": build_witness_family(system.T_blk, system.a_T.value, system.h, system.k),
    }


@pytest.mark.parametrize("source", ["pool", "blocking"])
@pytest.mark.parametrize(
    "change,error",
    [
        (lambda f: {"r0": f.r0 + 1}, InternalInconsistency),
        (lambda f: {"C": f.C + f.q.value}, ValueError),
        (lambda f: {"B": -f.B}, ValueError),
        (lambda f: {"h": f.h + 1}, InternalInconsistency),
        (lambda f: {"A": f.A + f.q.value}, ValueError),
        (lambda f: {"k": 0}, InternalInconsistency),
        (lambda f: {"T": f.T + 1}, ValueError),
    ],
    ids=["r0+1", "C+q", "-B", "h+1", "A+q", "k=0", "T+1"],
)
def test_family_verify_rejects_tampering(tamper_sources, source, change, error):
    """A change of the family's choices fails `verify()`; T, A, B and C are
    derived from them, and `dataclasses.replace` refuses to set them."""
    family = tamper_sources[source]
    family.verify()
    assert family.B != 0
    with pytest.raises(error):
        dataclasses.replace(family, **change(family)).verify()


@pytest.mark.parametrize("params", [params for params, _ in _POOL] + ["blocking"])
def test_eta_is_the_root_of_minus_b2_minus_4ac(tamper_sources, params):
    if params == "blocking":
        family = tamper_sources["blocking"]
    else:
        q, a, h, k = params
        family = build_witness_family(factorize(q), a, h, k)
    A, B, C = family.A, family.B, family.C
    assert family.eta == math.isqrt(-(B * B - 4 * A * C))


def test_sieved_scan_stop_after_crosses_blocks(monkeypatch):
    monkeypatch.setattr(witness, "SIEVE_BLOCK", 64)
    fam = build_witness_family(factorize(4), 1, 4, 8)
    result = scan_family(fam, 1000, stop_after=40)
    reference = _reference_scan(fam, 1000, stop_after=40)
    assert result.certificates == reference.certificates
    last = result.certificates[-1].t
    assert last > 2 * 64 and last % 64  # stops inside its third block
    assert result.sieved == sum(_once_divided(fam.F(t)) for t in range(last + 1))


def test_sieved_scan_matches_reference_under_budget():
    fam = build_witness_family(factorize(20), 1, 4, 8)
    budget = FactorBudget(trial_bound=20, rho_rounds=0, rho_iterations=1)
    result = scan_family(fam, 300, budget=budget)
    reference = _reference_scan(fam, 300, budget=budget)
    assert result.certificates == reference.certificates
    # the sieve decides some budget skips, and only those
    struck = [t for t in reference.skipped_t if _once_divided(fam.F(t), 20)]
    assert struck
    assert result.skipped_t == [t for t in reference.skipped_t if t not in struck]


@st.composite
def _positive_quadratics(draw):
    """(A, B, C) with A t^2 + B t + C > 0 for t >= 0, biased to the
    degenerate shapes at one small prime p = 3 mod 4."""
    p = draw(st.sampled_from([3, 7, 11, 19, 23]))
    a, b, c = (draw(st.integers(1, 10**6)) for _ in range(3))
    shape = draw(st.sampled_from(["generic", "p|A", "p|A,B", "double", "p|F", "p^2|F"]))
    if shape == "double":
        # a (t - r)^2 + p (x t + y) has the double root r mod p
        r, x, y = draw(st.integers(0, p - 1)), draw(st.integers(0, 50)), draw(st.integers(1, 50))
        if a % p == 0:
            a += 1
        return a, -2 * a * r + p * x, a * r * r + p * y
    scale = {"p|A": (p, 1, 1), "p|A,B": (p, p, 1), "p|F": (p, p, p), "p^2|F": (p * p,) * 3}
    sa, sb, sc = scale.get(shape, (1, 1, 1))
    return a * sa, b * sb, c * sc


def _sieved_in_blocks(coeffs, block):
    """`_sieved_t` over t <= 300 for F = A t^2 + B t + C, SIEVE_BLOCK = block,
    with F as a function."""
    A, B, C = coeffs
    with mock.patch.object(witness, "SIEVE_BLOCK", block):
        return (lambda t: (A * t + B) * t + C), list(_sieved_t(A, B, C, DEFAULT_BUDGET, 300))


@settings(max_examples=150, deadline=None)
@given(_positive_quadratics(), st.integers(1, 300))
def test_sieve_strikes_exactly_single_valuations(coeffs, split):
    F, kept = _sieved_in_blocks(coeffs, split)
    assert [t for t, _ in kept] == [t for t in range(301) if not _once_divided(F(t))]


@settings(max_examples=150, deadline=None)
@given(_positive_quadratics(), st.integers(1, 300))
def test_divisor_words_mark_exactly_the_dividing_trial_primes(coeffs, split):
    F, kept = _sieved_in_blocks(coeffs, split)
    for t, divisors in kept:
        assert divisors == [p for p in _TRIAL_PRIMES if F(t) % p == 0], t


@pytest.mark.parametrize("budget,calls", [(DEFAULT_BUDGET, 64), (FactorBudget(trial_bound=20), 8)])
def test_scan_finds_roots_once_per_trial_prime(budget, calls):
    """One `_roots_mod_p` per trial prime up to max(trial_bound, 2): the
    strike classes of the primes 3 mod 4 reuse the divisor-word roots."""
    fam = build_witness_family(factorize(4), 1, 4, 8)
    with mock.patch.object(witness, "_roots_mod_p", wraps=witness._roots_mod_p) as roots:
        scan_family(fam, 100, budget=budget)
    assert roots.call_count == calls


def test_roots_mod_p_matches_brute_force():
    """`_roots_mod_p` against the zeros of F mod p at every prime p <= 47:
    every coefficient triple up to p = 13, a seeded sample of 3,000 above,
    each also shifted by multiples of p (B by p * 10^30). None exactly
    when F vanishes at every t."""
    rng = random.Random(47)
    for p in small_primes(47):
        if p <= 13:
            triples = itertools.product(range(p), repeat=3)
        else:
            triples = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(3000)]
        for A, B, C in triples:
            zeros = [t for t in range(p) if (A * t * t + B * t + C) % p == 0]
            expected = None if len(zeros) == p else zeros
            shifted = (A + p * rng.randrange(1, 100), B - p * 10**30, C + p * rng.randrange(-99, 100))
            assert witness._roots_mod_p(A, B, C, p) == expected, (A, B, C, p)
            assert witness._roots_mod_p(*shifted, p) == expected, (shifted, p)


@pytest.mark.parametrize("trial_bound", [1, 2, 4, 20, 311, 10**6])
@pytest.mark.parametrize("params,t_max", [((20, 1, 4, 8), 400), ((80, 42, 191, 392), 40)])
def test_sieved_scan_matches_reference_at_every_trial_bound(params, t_max, trial_bound):
    """The trial primes the sieve names stand in for the full trial stage:
    the same certificates, and the same budget skips but for those the
    sieve strikes. One short rho round leaves some values undecided."""
    q, a, h, k = params
    fam = build_witness_family(factorize(q), a, h, k)
    budget = FactorBudget(trial_bound=trial_bound, rho_rounds=1, rho_iterations=64)
    result = scan_family(fam, t_max, budget=budget)
    reference = _reference_scan(fam, t_max, budget=budget)
    assert result.certificates == reference.certificates
    struck = [_once_divided(fam.F(t), trial_bound) for t in range(t_max + 1)]
    assert result.skipped_t == [t for t in reference.skipped_t if not struck[t]]
    assert result.sieved == sum(struck)


def test_scan_rejects_negative_t_max():
    fam = build_witness_family(factorize(4), 1, 4, 8)
    with pytest.raises(ValueError):
        scan_family(fam, -1)
    assert scan_family(fam, 0).certificates[0].t == 0


def _res_val(x, p, e):
    """Valuation of a residue x mod p^e, capped at e (0 counts as e)."""
    if x % p**e == 0:
        return e
    return valuation(x % p**e, p)


def _reference_xy_local(x0, y0, c, p, e, target):
    """The former local enumerator, kept as the reference for the shared one:
    it reduces the shifted point at every step and always goes through
    `sqrt_mod_prime_power`; lexicographic in (v, u)."""
    mod = p**e
    c %= mod
    for v in range(mod):
        vv = _res_val(v, p, e)
        if vv < target:
            continue
        yv = (y0 + v) % mod
        for u in sorted((x - x0) % mod for x in sqrt_mod_prime_power(c - yv * yv, p, e)):
            vu = _res_val(u, p, e)
            if min(vu, vv) == target:
                yield u, v


def _local_shifts(p, e):
    """Base points for the enumerator tests: none, a multiple of p with one
    coordinate above p^e, and one of CRT size."""
    mod = p**e
    return [(0, 0), (p, mod + 3), (3**2000 + 1, 5**900 + 2 * p)]


@pytest.mark.parametrize(
    "p,e",
    [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in range(1, 8) if p**e <= 13**2]
    + [(19, 2), (1019, 2)],
)
def test_base_enumerator_matches_reference(p, e):
    mod = p**e
    count = None
    if mod <= 13**2:
        cases = [(c, target) for c in range(mod) for target in range(e + 1)]
    elif mod < 1000:
        cases = [(c, 0) for c in range(mod)]
    else:
        # The first 1,200 pairs at unit c only. At c = 1 the scan passes v
        # with p | w = c - (y0+v)^2, which take the general path.
        cases = [(c, 0) for c in (1, 2, 3, mod - 1, 123457, 654321)]
        count = 1200
    for x0, y0 in _local_shifts(p, e):
        for c, target in cases:
            got = itertools.islice(_iter_uv_local(x0, y0, c, p, e, target), count)
            want = itertools.islice(_reference_xy_local(x0, y0, c, p, e, target), count)
            assert list(got) == list(want), (x0, y0, c, target)


def _reference_crt_pairs(q: FactoredInteger, local, missing: str, value: int):
    """The former eager CRT enumerator, kept as the reference for the
    odometer: it lists the first LOCAL_CANDIDATES local pairs at every prime
    before it glues the first combination. Only its message, which takes the
    value apart from the label, and its prime order, odd primes ascending and
    then 2, follow `_iter_crt_pairs`."""
    primes = sorted(q.primes(), key=lambda p: p == 2)
    locals_: list[list[tuple[int, int]]] = []
    for p in primes:
        e = q.factors[p]
        cands = list(itertools.islice(local(p, e), witness.LOCAL_CANDIDATES))
        if not cands:
            raise SearchExhausted(f"{missing}={value} at prime power {p}^{e}")
        locals_.append(cands)
    moduli = [p ** q.factors[p] for p in primes]
    for combo in itertools.islice(itertools.product(*locals_), witness.COMBO_CAP):
        yield (
            crt_combine([ResidueClass(xy[0], m) for xy, m in zip(combo, moduli)]).value,
            crt_combine([ResidueClass(xy[1], m) for xy, m in zip(combo, moduli)]).value,
        )


def _crt_outcome(enumerate_pairs, q, local):
    """Every pair the enumerator glues, or the SearchExhausted message it raises."""
    try:
        return list(enumerate_pairs(q, local, "nothing for x", 0))
    except SearchExhausted as exc:
        return str(exc)


def _base_local(a):
    return lambda p, e: _iter_uv_local(0, 0, a, p, e, _base_target(a, p, e))


def _shift_local(base, h):
    a = base.a.value
    return lambda p, e: _iter_uv_local(base.x0, base.y0, a + h, p, e, _shift_target(a, h, p, e))


@pytest.mark.parametrize(
    "qv,blocked",
    [
        # blocked (p, e, r): the class r mod p^e has no base point
        (4 * 9 * 5**2, (3, 2, 3)),
        (16 * 3**2 * 7**2 * 13, (7, 2, 7)),
        (64 * 11**2 * 19**2, (19, 2, 19)),
    ],
)
@pytest.mark.parametrize("local_candidates,combo_cap", [(3, 40), (2, 1000), (6, 150)])
def test_crt_odometer_matches_eager_reference(monkeypatch, qv, blocked, local_candidates, combo_cap):
    monkeypatch.setattr(witness, "LOCAL_CANDIDATES", local_candidates)
    monkeypatch.setattr(witness, "COMBO_CAP", combo_cap)
    q = factorize(qv)
    p, e, r = blocked
    bad = crt_combine([ResidueClass(r, p**e), ResidueClass(1, qv // p**e)]).value
    base = next(iter_base_solutions(1, q))
    locals_ = [_base_local(a) for a in (1, 2, 5, bad)]
    locals_ += [_shift_local(base, h) for h in (4, 8, 20, bad - 1)]
    outcomes = []
    for local in locals_:
        outcome = _crt_outcome(_iter_crt_pairs, q, local)
        assert outcome == _crt_outcome(_reference_crt_pairs, q, local)
        outcomes.append(outcome)
    messages = [o for o in outcomes if isinstance(o, str)]
    assert f"nothing for x=0 at prime power {p}^{e}" in messages
    capped = [o for o in outcomes if isinstance(o, list) and len(o) == combo_cap]
    assert bool(capped) == (local_candidates ** len(q.factors) > combo_cap)


def test_crt_odometer_draws_lazily():
    q = factorize(16 * 3**2 * 7**2 * 13)
    drawn = dict.fromkeys(q.primes(), 0)

    def local(p, e):
        for pair in _base_local(1)(p, e):
            drawn[p] += 1
            yield pair

    pairs = _iter_crt_pairs(q, local, "nothing for x", 0)
    next(pairs)
    assert drawn == {2: 1, 3: 1, 7: 1, 13: 1}
    list(itertools.islice(pairs, 2))  # the next two combinations turn only 2, walked last
    assert drawn == {2: 3, 3: 1, 7: 1, 13: 1}


@pytest.mark.parametrize(
    "qv,a,b,c,h,k", [(16, 8, 8, 0, 1024, 1032), (16, 8, 8, 8, 1024, 2048), (8, 0, 0, 5, 256, 509)]
)
def test_family_over_blocking_system_turns_2_first(qv, a, b, c, h, k):
    # Over these blocking moduli the first shift pair at 2 builds no family,
    # so the search must turn 2 before the odd primes' combinations run out.
    system = build_blocking_system(factorize(qv), a, b, c)
    assert (system.h, system.k) == (h, k)
    start = time.perf_counter()
    family = build_witness_family(system.T_blk, system.a_T.value, system.h, system.k)
    family.verify()
    check_local_obstructions(family)
    assert time.perf_counter() - start < 30


_TWO_ADIC_MODULI = (16, 64, 256, 16 * 5, 64 * 9)
# Cases drawn per modulus; None runs every case (about 220k over the five
# moduli, minutes rather than seconds).
_TWO_ADIC_SAMPLE: int | None = 300


def _two_adic_cases(qv):
    """(q, base, h) with a admissible mod q, a's first base point, and
    h <= 3q with a + h admissible: a seeded sample of _TWO_ADIC_SAMPLE of
    them, or all."""
    q = factorize(qv)
    cases = [
        (cls.value, h)
        for cls in admissible_classes(q)
        for h in range(1, 3 * qv + 1)
        if is_admissible_value(cls.value + h, q)
    ]
    if _TWO_ADIC_SAMPLE is not None and len(cases) > _TWO_ADIC_SAMPLE:
        cases = sorted(random.Random(qv).sample(cases, _TWO_ADIC_SAMPLE))
    bases = {}
    for a, h in cases:
        if a not in bases:
            bases[a] = next(iter_base_solutions(a, q))
        yield q, bases[a], h


def _assembles(base, h, local_pairs):
    """Whether the CRT glue of one local pair per prime of q, in any of the
    four (du, dv) variants of `iter_shift_pairs`, meets the gcd bounds and
    builds a verified family."""
    q = base.q
    qv = q.value
    moduli = [p ** q.factors[p] for p in q.primes()]
    u0, v0 = (
        crt_combine([ResidueClass(pair[i], m) for pair, m in zip(local_pairs, moduli)]).value
        for i in (0, 1)
    )
    for du, dv in itertools.product((0, -1), repeat=2):
        stripped = _strip_stray_primes(u0 + du * qv, v0 + dv * qv, qv)
        if stripped is None:
            continue
        u, v = stripped
        g = math.gcd(u, v)
        if _gcd_bound(q) % g or 2 * math.gcd(base.x0, base.y0) % g:
            continue
        try:
            build_family(base, ShiftPair(u, v, h), h + 1)
        except InternalInconsistency:
            continue
        return True
    return False


@pytest.mark.parametrize("qv", _TWO_ADIC_MODULI)
def test_two_adic_filter_drops_only_failing_pairs(qv):
    dropped = 0
    for q, base, h in _two_adic_cases(qv):
        a, e = base.a.value, q.exponent(2)
        gamma = _shift_target(a, h, 2, e)
        odd_parts = [next(_shift_local(base, h)(p, q.factors[p]), None) for p in q.primes()[1:]]
        if None in odd_parts:
            continue
        for pair in _iter_uv_local(base.x0, base.y0, a + h, 2, e, gamma):
            if not _two_adic_feasible(base.x0, base.y0, h, e, gamma, *pair):
                dropped += 1
                assert not _assembles(base, h, [pair] + odd_parts), (qv, a, h, pair)
    assert dropped


@pytest.mark.parametrize("qv", _TWO_ADIC_MODULI)
def test_two_adic_filter_keeps_families(monkeypatch, qv):
    monkeypatch.setattr(witness, "COMBO_CAP", 200)
    compared = 0
    for q, base, h in _two_adic_cases(qv):
        a = base.a.value
        k = next((k for k in range(h + 1, h + qv + 1) if check_hypotheses(q, a, h, k).ok), None)
        if k is None:
            continue
        with monkeypatch.context() as m:
            m.setattr(witness, "_two_adic_feasible", lambda *args: True)
            try:
                unfiltered = build_witness_family(q, a, h, k)
            except SearchExhausted:
                continue
        assert build_witness_family(q, a, h, k) == unfiltered
        compared += 1
    assert compared


def _consecutive_cert(n, h, k, reps, evidence):
    return TripleCertificate(
        n=n, q=1, a=0, h=h, k=k, t=None, reps=reps, consecutive=True, evidence=evidence
    )


def test_consecutive_certificate_evidence():
    reps = ((0, 2), (1, 2), (2, 2))  # 4, 5, 8 with 6 and 7 between
    assert _consecutive_cert(4, 1, 4, reps, ((6, 3), (7, 7))).verify()
    assert _consecutive_cert(4, 1, 4, reps, ((7, 7), (6, 3))).verify()
    for evidence in (
        ((6, 3),),  # too few
        ((6, 3), (7, 7), (7, 7)),  # too many
        ((6, 3), (6, 3)),  # repeated
        ((6, 3), (5, 5)),  # n+h is not between
        ((6, 3), (9, 3)),  # out of range
        ((6, 3), (7, -1)),  # -1 = 3 mod 4 in Python, and no prime
        ((6, 3), (7, 3)),  # does not divide
    ):
        assert not _consecutive_cert(4, 1, 4, reps, evidence).verify()


def test_forged_negative_prime_evidence():
    # -5 = 3 mod 4 and -5 divides 5 once, but 5 = 1 + 4 sits between 4 and 8
    reps = ((0, 2), (2, 2), (0, 3))
    assert not _consecutive_cert(4, 4, 5, reps, ((5, -5), (6, 3), (7, 7))).verify()


def test_evidence_prime_must_divide_m_before_it_is_tested(monkeypatch):
    # 2^127 - 1 is a prime = 3 mod 4 that divides neither 6 nor 7: the item is
    # rejected before the primality test runs
    real, calls = certificate.is_prime, []
    monkeypatch.setattr(certificate, "is_prime", lambda p: calls.append(p) or real(p))
    reps = ((0, 2), (1, 2), (2, 2))  # 4, 5, 8 with 6 and 7 between
    assert not _consecutive_cert(4, 1, 4, reps, ((6, 2**127 - 1), (7, 7))).verify()
    assert calls == []
    assert _consecutive_cert(4, 1, 4, reps, ((6, 3), (7, 7))).verify()
    assert calls == [3, 7]


def test_forged_composite_evidence():
    # 15 = 3 mod 4 divides 45 once, but 45 = 36 + 9 sits between 41 and 49
    reps = ((4, 5), (0, 7), (1, 7))
    evidence = ((42, 3), (43, 43), (44, 11), (45, 15), (46, 23), (47, 47), (48, 3))
    assert not _consecutive_cert(41, 8, 9, reps, evidence).verify()


@pytest.mark.parametrize("consecutive", [True, False, None])
@pytest.mark.parametrize(
    "n,h,k,reps",
    [
        (1, 1, 1, ((0, 1), (1, 1), (1, 1))),  # h = k
        (1, 0, 0, ((0, 1), (0, 1), (0, 1))),  # h = k = 0
        (5, -1, -4, ((1, 2), (0, 2), (0, 1))),  # n + k < n + h < n
    ],
)
def test_forged_offsets_are_rejected(n, h, k, reps, consecutive):
    cert = TripleCertificate(n=n, q=1, a=0, h=h, k=k, t=None, reps=reps, consecutive=consecutive)
    assert not cert.verify()


def test_consecutive_needs_h_below_k():
    reps = ((0, 2), (2, 2), (1, 2))  # 4, 8, 5: a triple, but not in order
    assert TripleCertificate(n=4, q=1, a=0, h=4, k=1, t=None, reps=reps).verify()
    assert not _consecutive_cert(4, 4, 1, reps, ()).verify()


@pytest.mark.parametrize("flag", ["no", "true", 1, 0, []])
def test_certificate_consecutive_must_be_a_json_flag(flag):
    data = _consecutive_cert(4, 1, 4, ((0, 2), (1, 2), (2, 2)), ((6, 3), (7, 7))).to_json_dict()
    assert TripleCertificate.from_json_dict(data).verify()
    with pytest.raises(ValueError, match="consecutive"):
        TripleCertificate.from_json_dict(dict(data, consecutive=flag))


def test_forged_gap_is_rejected_at_once():
    # k = 10**18 would need about 10**18 evidence items; rejecting it must not
    # build the range of integers in between.
    y = 10**9
    cert = _consecutive_cert(0, 1, 10**18, ((0, 0), (0, 1), (0, y)), ())
    assert not cert.verify()


def test_scan_certifies_only_represented_values(monkeypatch):
    # represent_two_squares is the scan's one membership test: None skips t.
    import twosq.witness as witness

    fam = build_witness_family(factorize(4), 1, 4, 8)
    assert len(scan_family(fam, 4).certificates) == 3
    monkeypatch.setattr(witness, "represent_two_squares", lambda fact: None)
    assert scan_family(fam, 4).certificates == []


def test_base_without_shift_pairs_is_passed_over(monkeypatch):
    q = factorize(16)
    first, second = itertools.islice(witness.iter_base_solutions(1, q), 2)
    monkeypatch.setattr(
        witness, "_two_adic_feasible", lambda x0, y0, *rest: (x0, y0) != (first.x0, first.y0)
    )
    with pytest.raises(SearchExhausted, match="no shift solution for h=4 at prime power 2"):
        next(iter_shift_pairs(first, 4))
    fam = build_witness_family(q, 1, 4, 8)
    assert (fam.x0, fam.y0) == (second.x0, second.y0)
    fam.verify()
