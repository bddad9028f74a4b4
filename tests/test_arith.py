import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosq import arith
from twosq.arith import (
    FactorBudget,
    FactoredInteger,
    ResidueClass,
    crt_combine,
    ext_gcd,
    factorize,
    is_prime,
    is_sum_two_squares,
    represent_two_squares,
    sqrt_mod_prime_power,
    valuation,
)
from twosq.errors import DegenerateInput, InternalInconsistency, NonCoprimeModuli

from .conftest import brute_representation, brute_two_square_set


def test_factorize_examples():
    assert factorize(1).factors == {}
    assert factorize(45).factors == {3: 2, 5: 1}
    assert factorize(49).factors == {7: 2}
    assert factorize(0).is_zero and factorize(0).factors == {}


def test_factorize_reconstructs():
    for n in list(range(1, 2000)) + [10**12 + 39, 2**40, 600851475143]:
        f = factorize(n)
        prod = 1
        for p, e in f.factors.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q, FactorBudget(trial_bound=1000))
    assert f.factors == {p: 1, q: 1}


def test_factored_integer_validation():
    with pytest.raises(ValueError):
        FactoredInteger(10, {2: 1})
    with pytest.raises(ValueError):
        FactoredInteger(0, {2: 1})
    with pytest.raises(ValueError):
        FactoredInteger(4, {4: 1})
    assert FactoredInteger.from_factors({2: 2, 3: 1}).value == 12


def test_valuation_examples():
    assert valuation(45, 3) == 2
    assert valuation(45, 7) == 0
    assert valuation(8, 2) == 3


def test_ext_gcd_examples():
    assert ext_gcd(1, 1) in ((1, 1, 0), (1, 0, 1))
    g, x, y = ext_gcd(4, 6)
    assert g == 2 and 4 * x + 6 * y == 2
    assert ext_gcd(0, 5) == (5, 0, 1)
    with pytest.raises(DegenerateInput):
        ext_gcd(0, 0)


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_ext_gcd_identity(a, b):
    if a == 0 and b == 0:
        return
    g, x, y = ext_gcd(a, b)
    assert g > 0 and a * x + b * y == g
    assert a % g == 0 and b % g == 0


def test_crt_examples():
    assert crt_combine([ResidueClass(2, 3), ResidueClass(3, 5)]) == ResidueClass(8, 15)
    assert crt_combine([ResidueClass(0, 1)]) == ResidueClass(0, 1)
    # oracle: the unique value in [0, 36) hitting both congruences
    expected = [v for v in range(36) if v % 4 == 1 and v % 9 == 8]
    assert expected == [17]
    assert crt_combine([ResidueClass(1, 4), ResidueClass(8, 9)]) == ResidueClass(17, 36)


def test_crt_noncoprime_reports_pair():
    with pytest.raises(NonCoprimeModuli) as err:
        crt_combine([ResidueClass(1, 4), ResidueClass(1, 6)])
    assert set(err.value.moduli) == {4, 6}


@given(st.lists(st.sampled_from([(3, 5), (1, 4), (6, 7), (10, 11), (8, 9)]), unique=True, max_size=4))
def test_crt_reduces_to_inputs(pairs):
    classes = [ResidueClass(v, m) for v, m in pairs]
    combined = crt_combine(classes)
    for cls in classes:
        assert combined.value % cls.modulus == cls.value


def test_membership_examples():
    assert is_sum_two_squares(factorize(45))
    assert not is_sum_two_squares(factorize(21))
    assert is_sum_two_squares(factorize(0))


def test_membership_against_bruteforce():
    limit = 10**5
    members = brute_two_square_set(limit)
    for n in range(limit + 1):
        assert is_sum_two_squares(factorize(n)) == (n in members), n


def test_factorize_budget_exceeded():
    from twosq.errors import BudgetExceeded

    hard = (10**9 + 7) * (10**9 + 9)
    with pytest.raises(BudgetExceeded):
        factorize(hard, FactorBudget(trial_bound=100, rho_rounds=0))


def test_representation_examples():
    assert represent_two_squares(factorize(25)) == (0, 5)
    assert represent_two_squares(factorize(45)) == (3, 6)
    assert represent_two_squares(factorize(21)) is None


def test_representation_matches_bruteforce():
    for n in range(0, 1500):
        assert represent_two_squares(factorize(n)) == brute_representation(n), n


def test_representation_exactness_large():
    for n in (10**12, 10**12 + 1, 2 * 10**14 + 2, 999999999989):
        rep = represent_two_squares(factorize(n))
        if rep is not None:
            x, y = rep
            assert x * x + y * y == n and 0 <= x <= y
        assert (rep is not None) == is_sum_two_squares(factorize(n))


def _brute_sqrt(a, mod):
    return [x for x in range(mod) if (x * x - a) % mod == 0]


def test_sqrt_mod_examples():
    assert sqrt_mod_prime_power(1, 5, 1).expand() == [1, 4]
    assert sqrt_mod_prime_power(2, 3, 1).expand() == []
    assert sqrt_mod_prime_power(1, 2, 3).expand() == [1, 3, 5, 7]
    # a = 0 with a large p: one residue, not p roots
    big = sqrt_mod_prime_power(0, 1000003, 2)
    assert big.residues == (0,) and big.step == 1000003 and big.modulus == 1000003**2
    # v = 2: 4 * 7^2 mod 7^3 has roots 7 * (+-2 mod 7) + j * 49
    rs = sqrt_mod_prime_power(4 * 49, 7, 3)
    assert rs.residues == (14, 35) and rs.step == 49
    assert rs.expand() == _brute_sqrt(4 * 49, 7**3)
    with pytest.raises(TypeError):
        iter(rs)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2), (11, 1), (13, 2)])
def test_sqrt_mod_exhaustive(p, e):
    mod = p**e
    for a in range(mod):
        rs = sqrt_mod_prime_power(a, p, e)
        assert rs.modulus == mod and mod % rs.step == 0, (a, p, e)
        assert list(rs.residues) == sorted(rs.residues), (a, p, e)
        assert all(0 <= r < rs.step for r in rs.residues), (a, p, e)
        assert len(rs.expand()) == len(rs.residues) * (mod // rs.step), (a, p, e)
        assert rs.expand() == _brute_sqrt(a, mod), (a, p, e)


@settings(max_examples=200)
@given(st.sampled_from([3, 5, 7, 11, 13, 10007, 1000003]), st.integers(0, 10**9))
def test_sqrt_mod_prime_roots_square_back(p, a):
    # (r + j*step)^2 - a = (r^2 - a) + 2*r*j*step + j^2*step^2, so these
    # congruences make every root r + j*step square back to a mod p^2.
    rs = sqrt_mod_prime_power(a, p, 2)
    assert rs.modulus == p * p
    assert (p * p) % rs.step == 0
    for r in rs.residues:
        assert 0 <= r < rs.step
        assert (r * r - a) % (p * p) == 0
        assert (2 * r * rs.step) % (p * p) == 0
        assert (rs.step**2) % (p * p) == 0


def test_cornacchia_without_root_raises(monkeypatch):
    monkeypatch.setattr(arith, "sqrt_mod_prime", lambda a, p: None)
    with pytest.raises(InternalInconsistency):
        arith._cornacchia_prime(13)


def test_cornacchia_non_square_remainder_raises(monkeypatch):
    # an isqrt that comes out one short makes the remainder check fail
    monkeypatch.setattr(arith, "math", SimpleNamespace(isqrt=lambda n: max(math.isqrt(n) - 1, 0)))
    with pytest.raises(InternalInconsistency):
        arith._cornacchia_prime(13)
