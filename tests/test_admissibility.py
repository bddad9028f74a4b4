import math

import pytest

from twosq.admissibility import (
    admissible_classes,
    class_exponent,
    is_admissible,
    lift_admissible,
)
from twosq.arith import FactoredInteger, ResidueClass, factorize
from twosq.errors import ModulusMismatch, NoAdmissibleLift

from .conftest import brute_admissible_set


def test_examples():
    v = is_admissible(ResidueClass(3, 4), factorize(4))
    assert not v.admissible and v.reason == ("two_adic", 2, 0, 3)
    for q in (1, 2, 7, 12, 36, 250):
        assert is_admissible(ResidueClass(0, q), factorize(q)).admissible
    v = is_admissible(ResidueClass(6, 8), factorize(8))
    assert not v.admissible and v.reason == ("two_adic", 3, 1, 3)


def test_odd_prime_reason():
    v = is_admissible(ResidueClass(3, 9), factorize(9))
    assert not v.admissible and v.reason == ("odd_prime", 3, 1, 2)


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        is_admissible(ResidueClass(1, 8), factorize(4))


def test_exhaustive_equivalence_small():
    # every q up to 150, then moduli mixing larger prime powers
    for q in [*range(1, 151), 243, 343, 441, 468, 520, 540]:
        fq = factorize(q)
        mine = {c.value for c in admissible_classes(fq)}
        assert mine == brute_admissible_set(q), q


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
        verdict = is_admissible(ResidueClass(a, fq.value), fq)
        assert verdict.reason == _reference_reason(a, fq.factors), a
        if verdict.reason is not None:
            kinds.add(verdict.reason[:2])
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
                    is_admissible(ResidueClass(a % q1, q1), f1).admissible
                    and is_admissible(ResidueClass(a % q2, q2), f2).admissible
                )
                assert (a in adm12) == expected, (q1, q2, a)


def test_admissible_classes_examples():
    assert [c.value for c in admissible_classes(factorize(4))] == [0, 1, 2]
    assert [c.value for c in admissible_classes(factorize(1))] == [0]
    assert [c.value for c in admissible_classes(factorize(5))] == [0, 1, 2, 3, 4]


def test_lift_examples():
    q16 = factorize(16)
    assert lift_admissible(ResidueClass(1, 4), q16) == ResidueClass(1, 16)
    assert lift_admissible(ResidueClass(2, 4), q16) == ResidueClass(2, 16)
    assert lift_admissible(ResidueClass(0, 1), factorize(4), window=(0, 1)) == ResidueClass(1, 4)


def test_lift_reduces_and_passes():
    for q, Q in ((4, 16), (3, 9), (5, 100), (12, 144)):
        fQ = factorize(Q)
        for a in (c.value for c in admissible_classes(factorize(q))):
            lifted = lift_admissible(ResidueClass(a, q), fQ)
            assert lifted.value % q == a
            assert is_admissible(lifted, fQ).admissible


def test_lift_window_empty():
    # no class = 3 mod 4 is admissible mod 4, whatever the window
    with pytest.raises(NoAdmissibleLift):
        lift_admissible(ResidueClass(3, 4), factorize(16), window=(0, 16))


def test_lift_require_predicate():
    got = lift_admissible(
        ResidueClass(2, 3), FactoredInteger.from_factors({2: 2, 3: 2}), window=(0, 9),
        require=lambda m: m % 2 == 1,
    )
    assert got.value == 5
