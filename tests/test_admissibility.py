import math

import pytest

from twosq.admissibility import (
    admissibility_reason,
    admissible_classes,
    admissible_count,
    class_exponent,
    is_admissible_value,
    lift_admissible,
)
from twosq.arith import FactoredInteger, ResidueClass, factorize
from twosq.errors import ModulusMismatch, NoAdmissibleLift

from .conftest import brute_admissible_set


def test_examples():
    assert admissibility_reason(3, factorize(4).factors) == ("two_adic", 2, 0, 3)
    for q in (1, 2, 7, 12, 36, 250):
        assert admissibility_reason(0, factorize(q).factors) is None
    assert admissibility_reason(6, factorize(8).factors) == ("two_adic", 3, 1, 3)


def test_odd_prime_reason():
    assert admissibility_reason(3, factorize(9).factors) == ("odd_prime", 3, 1, 2)


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        lift_admissible(ResidueClass(1, 8), factorize(4))


def test_exhaustive_equivalence_small():
    # every q up to 150, then moduli mixing larger prime powers
    for q in [*range(1, 151), 243, 343, 441, 468, 520, 540]:
        fq = factorize(q)
        mine = {c.value for c in admissible_classes(fq)}
        assert mine == brute_admissible_set(q), q
        assert {a for a in range(q) if is_admissible_value(a + q, fq)} == mine, q


def _reference_reason(a, factors):
    """The failure reason with f_p computed at every prime, none skipped."""
    for p, e in factors.items():
        f = class_exponent(a, p, e)
        if p == 2:
            if e - f >= 2 and (a >> f) % 4 == 3:
                return ("two_adic", e, f, 3)
        elif p % 4 == 3:
            if f % 2 == 1 and f != e:
                return ("odd_prime", p, f, e)
    return None


def test_reasons_match_full_exponent_scan():
    fq = factorize(4 * 27 * 49)
    kinds = set()
    for a in range(fq.value):
        reason = admissibility_reason(a, fq.factors)
        assert reason == _reference_reason(a, fq.factors), a
        assert is_admissible_value(a + 3 * fq.value, fq) == (reason is None), a
        if reason is not None:
            kinds.add(reason[:2])
    assert kinds == {("two_adic", 2), ("odd_prime", 3), ("odd_prime", 7)}


def test_multiplicativity():
    # every coprime pair with q1 * q2 <= 300
    for q1 in range(1, 301):
        for q2 in range(q1 + 1, 300 // q1 + 1):
            if math.gcd(q1, q2) != 1:
                continue
            f1, f2, f12 = factorize(q1), factorize(q2), factorize(q1 * q2)
            adm12 = {c.value for c in admissible_classes(f12)}
            for a in range(q1 * q2):
                expected = (
                    admissibility_reason(a % q1, f1.factors) is None
                    and admissibility_reason(a % q2, f2.factors) is None
                )
                assert (a in adm12) == expected, (q1, q2, a)


def test_admissible_classes_examples():
    assert [c.value for c in admissible_classes(factorize(4))] == [0, 1, 2]
    assert [c.value for c in admissible_classes(factorize(1))] == [0]
    assert [c.value for c in admissible_classes(factorize(5))] == [0, 1, 2, 3, 4]


def test_admissible_count_matches_enumeration():
    for q in range(1, 1001):
        fq = factorize(q)
        assert admissible_count(fq) == len(admissible_classes(fq)), q


def test_admissible_count_large_prime_powers():
    # Past the enumerated range. 2^e: 0, 2^(e-1) and the classes whose odd
    # part is 1 mod 4; 7^4: valuations 0 and 2, and 0; 5^3: every class.
    assert admissible_count(factorize(2**20)) == 2**19 + 1
    assert admissible_count(factorize(7**4 * 5**3)) == (2058 + 42 + 1) * 125
    with pytest.raises(ValueError):
        admissible_count(FactoredInteger(0, {}))


def test_lift_examples():
    q16 = factorize(16)
    assert lift_admissible(ResidueClass(1, 4), q16) == ResidueClass(1, 16)
    assert lift_admissible(ResidueClass(2, 4), q16) == ResidueClass(2, 16)


def test_lift_reduces_and_passes():
    for q, Q in ((4, 16), (3, 9), (5, 100), (12, 144)):
        fQ = factorize(Q)
        for a in (c.value for c in admissible_classes(factorize(q))):
            lifted = lift_admissible(ResidueClass(a, q), fQ)
            assert lifted.value % q == a
            assert admissibility_reason(lifted.value, fQ.factors) is None


def test_lift_window_empty():
    # no class = 3 mod 4 is admissible mod 4
    with pytest.raises(NoAdmissibleLift):
        lift_admissible(ResidueClass(3, 4), factorize(16))


def test_lift_require_predicate():
    got = lift_admissible(
        ResidueClass(2, 3), FactoredInteger.from_factors({2: 2, 3: 2}),
        require=lambda m: m % 2 == 1,
    )
    assert got.value == 5


def _two_window_lift(a, q, Q, require):
    """The least lift of a mod q in (0, q^2], else in (0, Q], with whether
    the second window was needed; None when neither holds one."""
    for widened, hi in ((False, q * q), (True, Q.value)):
        for b in range(a or q, hi + 1, q):
            if require(b) and admissibility_reason(b, Q.factors) is None:
                return b, widened
    return None


def test_blocking_lift_one_window_matches_two_windows():
    # Q = 4q^2 and the blocking build's `require`, which rejects 0: the
    # ascending scan of [0, 4q^2) finds the least lift of (0, q^2] whenever
    # there is one
    classes = widened = 0
    for q in range(1, 61):
        Q = factorize(4 * q * q)
        half = 1 << (Q.exponent(2) - 1)

        def require(m):
            return m % half != 0

        for cls in admissible_classes(factorize(q)):
            ref = _two_window_lift(cls.value, q, Q, require)
            try:
                got = lift_admissible(cls, Q, require=require).value
            except NoAdmissibleLift:
                got = None
            assert (got, got is not None and got > q * q) == (ref or (None, False)), (q, cls)
            classes += 1
            widened += ref is not None and ref[1]
    assert (classes, widened) == (1629, 0)  # no class with q <= 60 needs (q^2, 4q^2]
    # a `require` that rejects all of (0, q^2] takes both rules to the wide window
    Q = factorize(4 * 25)
    for cls in admissible_classes(factorize(5)):
        got = lift_admissible(cls, Q, require=lambda m: m > 25).value
        assert (got, got > 25) == _two_window_lift(cls.value, 5, Q, lambda m: m > 25), cls
