import dataclasses
import itertools
import math
import random
from types import SimpleNamespace

import numpy as np
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
    obstructing_prime,
    represent_two_squares,
    small_primes,
    sqrt_mod_prime_power,
    sqrt_unit_odd,
    valuation,
)
from twosq.errors import BudgetExceeded, DegenerateInput, InternalInconsistency, NonCoprimeModuli

from .conftest import brute_representation, brute_two_square_set, empty_prime_tables


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


# psi_k: the smallest strong pseudoprime to the first k prime bases, for
# k = 1..7, 9 and 12 (psi_8 = psi_7, psi_10 = psi_11 = psi_9).
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
)


def test_is_prime_rejects_strong_pseudoprimes():
    for n in STRONG_PSEUDOPRIMES:
        assert not is_prime(n), n


def test_is_prime_matches_sieve():
    primes = set(small_primes(1 << 17))
    for n in range(1 << 17):
        assert is_prime(n) == (n in primes), n


def test_factorize_psi12():
    f = factorize(318665857834031151167461)
    assert f.factors == {399165290221: 1, 798330580441: 1}


PSI_13 = 3317044064679887385961981  # = 1287836182261 * 2575672364521


def test_is_prime_baillie_psw_above_psi13():
    assert 1287836182261 * 2575672364521 == PSI_13
    assert not is_prime(PSI_13)  # passes all 13 Miller-Rabin bases
    assert not is_prime((2**89 - 1) * (2**107 - 1))
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1)


# Strong Lucas pseudoprimes with Selfridge's parameters below 30000 (OEIS A217255).
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199)


def test_strong_lucas_pseudoprimes():
    for n in STRONG_LUCAS_PSEUDOPRIMES:
        assert arith._strong_lucas(n), n
    primes = set(small_primes(30000))
    for n in range(43, 30000, 2):
        expected = n in primes or n in STRONG_LUCAS_PSEUDOPRIMES
        assert arith._strong_lucas(n) == expected, n


def _reference_factorize(n, budget):
    """The former `factorize`, kept verbatim as the reference: trial division
    up to min(trial_bound, isqrt(n)), then `_reference_factor_hard`."""
    if n < 0:
        raise ValueError("factorize expects n >= 0")
    if n == 0:
        return FactoredInteger(0)
    factors = {}
    m = n
    bound = min(budget.trial_bound, math.isqrt(m))
    for p in small_primes(max(bound, 2)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors[p] = e
    if m > 1:
        _reference_factor_hard(m, factors, budget)
    return FactoredInteger(n, dict(sorted(factors.items())))


def _reference_factor_hard(m, factors, budget):
    stack = [m]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        root = math.isqrt(m)
        if root * root == m and is_prime(root):
            factors[root] = factors.get(root, 0) + 2
            continue
        if m < budget.trial_bound * budget.trial_bound or is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = None
        for c in range(1, budget.rho_rounds + 1):
            d = arith._rho_brent(m, c, budget.rho_iterations)
            if d is not None:
                break
        if d is None:
            raise BudgetExceeded(f"could not split composite {m}")
        stack.append(d)
        stack.append(m // d)


def _outcome(factor, n, budget):
    try:
        return factor(n, budget).factors
    except BudgetExceeded:
        return BudgetExceeded


def _primes_near(x, count):
    """The `count` largest primes <= x (fewer for tiny x) and the `count` smallest above x."""
    below = [p for p in range(x, max(x - 1000, 1), -1) if is_prime(p)][:count]
    above = itertools.islice((p for p in itertools.count(x + 1) if is_prime(p)), count)
    return below + list(above)


def _equivalence_inputs(t):
    near = sorted(set(_primes_near(311, 3) + _primes_near(t, 2)))
    pairs = [a * b for a, b in itertools.combinations_with_replacement(near, 2)]
    triples = [m * c for m in pairs for c in (311, 313)]
    squares = [p * p for p in near + [10007, 1000003, 2**31 - 1]]
    big = [p for p in _primes_near(max(t, 1000) * 1000, 1) if p > t]
    semiprimes = [a * b for a, b in itertools.combinations_with_replacement(big, 2)]
    cubes = [p**3 for p in big[:1]]
    return pairs + triples + squares + semiprimes + cubes


EQUIVALENCE_BUDGETS = [(t, r) for t in (2, 10, 100, 1000, 10**6) for r in (0, 24)]


@pytest.mark.parametrize("trial_bound,rho_rounds", EQUIVALENCE_BUDGETS)
def test_factorize_matches_reference(trial_bound, rho_rounds):
    """Same factor map as the former trial-division-first code, or
    BudgetExceeded from both."""
    budget = FactorBudget(trial_bound=trial_bound, rho_rounds=rho_rounds)
    for n in itertools.chain(range(1 << 14), _equivalence_inputs(trial_bound)):
        assert _outcome(factorize, n, budget) == _outcome(_reference_factorize, n, budget), n


def test_factorize_falls_back_when_rho_fails(monkeypatch):
    """A cofactor below trial_bound^2 that rho cannot split is trial-divided."""
    monkeypatch.setattr(arith, "_rho_brent", lambda n, c, max_iters: None)
    budget = FactorBudget(trial_bound=10**5)
    for n in (313 * 317, 313**2 * 9973, 2 * 3 * 9967 * 9973, 10007 * 10009, 3 * 10007**2):
        f = _outcome(factorize, n, budget)
        assert f == _outcome(_reference_factorize, n, budget), n
        assert f != BudgetExceeded and math.prod(p**e for p, e in f.items()) == n


def _next_prime(n):
    return next(p for p in itertools.count(n) if is_prime(p))


def test_rho_splits_large_composites_without_trial_division(monkeypatch):
    """At or above trial_bound^2, rho splits these composites on its own:
    trial division never runs, and the factor maps match the reference."""
    calls = []
    trial_divide = arith._trial_divide

    def counting(m, factors, bound):
        calls.append(m)
        return trial_divide(m, factors, bound)

    monkeypatch.setattr(arith, "_trial_divide", counting)
    budget = FactorBudget()
    a, b = _next_prime(1 << 30), _next_prime(3 << 28)
    composites = (
        a * b,
        1009 * _next_prime(1 << 63),
        _next_prime(10**5) * _next_prime(5 * 10**5) * _next_prime(999_000),
    )
    assert (a * b).bit_length() == 60
    for n in composites:
        assert n >= budget.trial_bound**2
        assert factorize(n, budget).factors == _reference_factorize(n, budget).factors, n
    assert calls == []


def test_trial_division_backs_up_rho_above_the_square(monkeypatch):
    """With rho failing at or above trial_bound^2, trial division recovers a
    small factor there, and two primes above the bound raise BudgetExceeded,
    as in the reference."""
    budget = FactorBudget(trial_bound=10**4)
    square = budget.trial_bound**2
    rho = arith._rho_brent
    monkeypatch.setattr(arith, "_rho_brent", lambda n, c, it: None if n >= square else rho(n, c, it))
    big = _next_prime(square)
    recovered = (1009 * big, 1009**2 * 9973 * big, 1009 * 9967 * 9973, 313 * 9973 * 10007)
    for n in recovered:
        f = _outcome(factorize, n, budget)
        assert f == _outcome(_reference_factorize, n, budget), n
        assert f != BudgetExceeded and math.prod(p**e for p, e in f.items()) == n
    for n in (10007 * 10009, 1009 * 10007 * 10009, big * _next_prime(big + 1)):
        assert _outcome(factorize, n, budget) == BudgetExceeded, n
        assert _outcome(_reference_factorize, n, budget) == BudgetExceeded, n


def test_trial_primes_are_the_first_64():
    assert arith._TRIAL_PRIMES == tuple(small_primes(arith._TRIAL_NEXT - 1))
    assert len(arith._TRIAL_PRIMES) == 64 and arith._TRIAL_PRIMES[-1] == 311
    assert is_prime(arith._TRIAL_NEXT)


def _reference_primes(bound: int) -> np.ndarray:
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


@pytest.mark.parametrize("segment,top", [(4099, 16), (None, 22)], ids=["small_segments", "default"])
def test_prime_table_matches_reference_sieve(monkeypatch, segment, top):
    """Grown from empty, bucket edge by bucket edge, the tables hold exactly
    the primes of a plain sieve at 2^k - 1, 2^k and 2^k + 1, and those of
    them = 3 (mod 4), whichever accessor grows them."""
    empty_prime_tables(monkeypatch)
    if segment is not None:
        monkeypatch.setattr(arith, "_PRIME_SEGMENT", segment)
    reference = _reference_primes((1 << top) + 1)
    for k in range(4, top + 1):
        for bound in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            if k % 2:  # 2^k + 1 grows the tables: through each accessor in turn
                got_3_mod_4, got = arith.primes_3_mod_4(bound), arith.prime_array(bound)
            else:
                got, got_3_mod_4 = arith.prime_array(bound), arith.primes_3_mod_4(bound)
            want = reference[reference <= bound]
            for table in (got, got_3_mod_4):
                assert table.dtype == np.int32 and not table.flags.writeable
            assert np.array_equal(got, want), bound
            assert np.array_equal(got_3_mod_4, want[want % 4 == 3]), bound
            if k <= 16:
                assert small_primes(bound) == want.tolist(), bound
    # The stream, with the cap at 2^10: chunks of 7 primes of the table below
    # the cap and freshly sieved segments above it, the table never growing
    # past it. 1019, 4099 and 59999 are primes = 3 (mod 4); (cap + 1, cap + 2)
    # sieves a segment of one even integer, which holds no odd entry.
    empty_prime_tables(monkeypatch)
    cap = 1 << 10
    monkeypatch.setattr(arith, "PRIME_CAP", cap)
    monkeypatch.setattr(arith, "_TABLE_CHUNK", 7)
    want = reference[reference % 4 == 3]
    for lo, hi in [(0, 1), (0, 500), (7, 1019), (100, cap + 1), (1019, 4099), (cap, 4099),
                   (4099, 59_999), (cap - 1, 1 << 16), (0, 1 << 16), (cap + 1, cap + 2)]:
        chunks = list(arith.iter_primes_3_mod_4(lo, hi))
        assert all(c.dtype == np.int64 for c in chunks), (lo, hi)
        got = np.concatenate([np.zeros(0, dtype=np.int64), *chunks])
        assert np.array_equal(got, want[(lo < want) & (want <= hi)]), (lo, hi)
        assert arith._prime_limit <= cap, (lo, hi)


@pytest.mark.parametrize("accessor", ["prime_array", "primes_3_mod_4"])
def test_prime_tables_refuse_bounds_past_int32(monkeypatch, accessor):
    def no_growth(limit):
        raise AssertionError(f"grew the tables to {limit}")

    monkeypatch.setattr(arith, "_extend_primes", no_growth)
    with pytest.raises(ValueError, match="2\\^31"):
        getattr(arith, accessor)(1 << 31)


def test_prime_table_built_in_one_jump(monkeypatch):
    empty_prime_tables(monkeypatch)
    bound = (1 << 22) + 1
    reference = _reference_primes(bound)
    assert np.array_equal(arith.prime_array(bound), reference)
    assert arith._prime_limit == 1 << 23
    assert np.array_equal(arith.primes_3_mod_4(bound), reference[reference % 4 == 3])


def test_shared_prime_table_keeps_python_lists():
    reference = _reference_primes(10**6)
    assert arith._TRIAL_PRIMES == tuple(reference[reference <= 311].tolist())
    primes = small_primes(10**6)
    assert primes == reference.tolist() and len(primes) == 78498
    assert all(type(p) is int for p in (*arith._TRIAL_PRIMES, primes[0], primes[-1]))


def test_known_composite_tested_once(monkeypatch):
    """A composite cofactor at or above trial_bound^2 that trial division
    leaves whole goes to rho without a second primality test."""
    p = next(n for n in range((1 << 200) + 1, (1 << 200) + 10**5, 2) if is_prime(n))
    q = next(n for n in range(p + 2, p + 10**5, 2) if is_prime(n))
    m = p * q
    assert m.bit_length() == 401
    tested = []

    def counting(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    with pytest.raises(BudgetExceeded):
        factorize(m, FactorBudget(trial_bound=10**4, rho_rounds=0))
    assert tested.count(m) == 1


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


def _euclid_ext_gcd(a, b):
    """Reference: the extended Euclid loop, run to the end on every input."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def test_ext_gcd_matches_euclid_on_small_grid():
    for a in range(-40, 41):
        for b in range(-40, 41):
            if a or b:
                assert ext_gcd(a, b) == _euclid_ext_gcd(a, b), (a, b)


@settings(max_examples=300)
@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12), st.integers(1, 10**4))
def test_ext_gcd_matches_euclid(a, b, scale):
    for x, y in ((a, b), (a * scale, b * scale), (0, b * scale), (a * scale, 0)):
        if x or y:
            assert ext_gcd(x, y) == _euclid_ext_gcd(x, y), (x, y)


@given(
    st.integers(1, 10**9),
    st.integers(-10**9, 10**9),
    st.sampled_from([1, 2]),
    st.sampled_from([1, -1]),
)
def test_ext_gcd_matches_euclid_when_b_over_g_is_small(g, c, ratio, sign):
    # a = g c and b = +-ratio g, so |b| / gcd(a, b) is 1 or 2 once c is odd
    c = 2 * c + 1 if ratio == 2 else c
    a, b = g * c, sign * ratio * g
    assert math.gcd(a, b) == g and abs(b) // g == ratio
    assert ext_gcd(a, b) == _euclid_ext_gcd(a, b)
    assert ext_gcd(b, a) == _euclid_ext_gcd(b, a)


_4000_BITS = st.integers(2**3999, 2**4000 - 1)


@settings(max_examples=40, deadline=None)
@given(_4000_BITS, _4000_BITS, st.sampled_from([1, -1]), st.sampled_from([1, -1]), st.integers(1, 2**64))
def test_ext_gcd_matches_euclid_on_4000_bit_pairs(a, b, sign_a, sign_b, scale):
    a, b = sign_a * a, sign_b * b
    for x, y in ((a, b), (a * scale, b * scale)):
        assert ext_gcd(x, y) == _euclid_ext_gcd(x, y)


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


def test_crt_modulus_one_between_classes():
    classes = [ResidueClass(2, 3), ResidueClass(0, 1), ResidueClass(3, 5)]
    assert crt_combine(classes) == ResidueClass(8, 15)
    assert crt_combine([ResidueClass(0, 1), ResidueClass(0, 1)]) == ResidueClass(0, 1)


def test_crt_noncoprime_names_earlier_modulus():
    # 6 clashes with 4 and with 9; the first earlier modulus is named
    with pytest.raises(NonCoprimeModuli) as err:
        crt_combine([ResidueClass(1, 4), ResidueClass(2, 9), ResidueClass(1, 6)])
    assert err.value.moduli == (4, 6)


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
    assert sqrt_mod_prime_power(1, 5, 1) == [1, 4]
    assert sqrt_mod_prime_power(2, 3, 1) == []
    assert sqrt_mod_prime_power(1, 2, 3) == [1, 3, 5, 7]
    # a = 0: every multiple of p^ceil(e/2)
    assert sqrt_mod_prime_power(0, 1009, 2) == list(range(0, 1009**2, 1009))
    assert sqrt_mod_prime_power(0, 1009, 3) == list(range(0, 1009**3, 1009**2))
    # v = 2: 4 * 7^2 mod 7^3 has roots 7 * (+-2 mod 7) + j * 49
    assert sqrt_mod_prime_power(4 * 49, 7, 3) == _brute_sqrt(4 * 49, 7**3)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2), (7, 3), (11, 1), (13, 2), (17, 2), (19, 2), (23, 2), (41, 2)])
def test_sqrt_mod_exhaustive(p, e):
    mod = p**e
    for a in range(mod):
        assert sqrt_mod_prime_power(a, p, e) == _brute_sqrt(a, mod), (a, p, e)


@settings(max_examples=200)
@given(st.sampled_from([3, 5, 7, 11, 13, 10007, 1000003]), st.integers(0, 10**9))
def test_sqrt_mod_prime_roots_square_back(p, a):
    roots = sqrt_mod_prime_power(a, p, 2)
    if a % (p * p) == 0:
        # p roots, too many to square one by one at p = 1000003
        assert roots == list(range(0, p * p, p))
        return
    assert roots == sorted(set(roots))
    for r in roots:
        assert 0 <= r < p * p
        assert (r * r - a) % (p * p) == 0


@pytest.mark.parametrize("p", [257, 641, 65537])
@pytest.mark.parametrize("e", [2, 3])
def test_sqrt_unit_odd_prime_powers_with_many_steps(p, e):
    # p - 1 = 2^8, 2^7 * 5 and 2^16: up to s - 1 rounds of Tonelli-Shanks
    mod = p**e
    rng = random.Random(p * e)
    samples = [1, mod - 1, *(rng.randrange(1, mod) for _ in range(150))]
    samples += [pow(rng.randrange(1, mod), 2, mod) for _ in range(150)]
    for a in samples:
        if a % p == 0:
            continue
        roots = sqrt_unit_odd(a, p, e)
        if pow(a, (p - 1) // 2, p) == 1:
            assert len(roots) == 2 and 0 < roots[0] < roots[1] < mod, (a, p, e)
            assert roots[0] + roots[1] == mod and all(r * r % mod == a for r in roots), (a, p, e)
        else:
            assert roots == (), (a, p, e)


def test_cornacchia_without_root_raises(monkeypatch):
    # 2 is a residue mod 17, so the power taken as a root of -1 squares to 1
    monkeypatch.setattr(arith, "_jacobi", lambda a, n: -1)
    with pytest.raises(InternalInconsistency):
        arith._cornacchia_prime(17)


def _cornacchia_by_sqrt_unit_odd(p):
    """Cornacchia's pair for p from the larger root of -1 that
    `sqrt_unit_odd` finds by Tonelli-Shanks."""
    a, b = p, sqrt_unit_odd(p - 1, p, 1)[1]
    while b * b > p:
        a, b = b, a % b
    return b, math.isqrt(p - b * b)


def test_cornacchia_root_matches_sqrt_unit_odd():
    for bits in (13, 20, 32, 48, 61, 62, 64, 100):
        for cls in (1, 5):
            primes = (n for n in itertools.count((1 << bits) + cls, 8) if is_prime(n))
            for p in itertools.islice(primes, 12):
                x, y = arith._cornacchia_prime(p)
                assert (x, y) == _cornacchia_by_sqrt_unit_odd(p) and x * x + y * y == p, p


def test_cornacchia_non_square_remainder_raises(monkeypatch):
    # an isqrt that comes out one short makes the remainder check fail
    monkeypatch.setattr(arith, "math", SimpleNamespace(isqrt=lambda n: max(math.isqrt(n) - 1, 0)))
    with pytest.raises(InternalInconsistency):
        arith._cornacchia_prime(13)


def _check_unit_roots(a, p, roots):
    assert len(roots) == 2 and 0 < roots[0] < roots[1] < p and roots[0] + roots[1] == p, (a, p)
    assert all(r * r % p == a for r in roots), (a, p)


def test_sqrt_mod_prime_every_residue_below_2000():
    for p in small_primes(2000)[1:]:
        squares = {x * x % p for x in range(p)}
        for a in range(1, p):
            roots = sqrt_unit_odd(a, p, 1)
            if a in squares:
                _check_unit_roots(a, p, roots)
            else:
                assert roots == (), (a, p)


def test_sqrt_mod_prime_large_primes_in_every_class():
    rng = random.Random(2024)
    for bits in (40, 64, 127, 200):
        for cls in (1, 3, 5, 7):
            p = next(n for n in itertools.count((1 << bits) + cls, 8) if is_prime(n))
            # 1 needs no Tonelli-Shanks round; p - 1 is refused at p = 3 mod 4, else needs one
            for a in [1, 2, p - 1, *(rng.randrange(1, p) for _ in range(40))]:
                roots = sqrt_unit_odd(a, p, 1)
                if pow(a, (p - 1) // 2, p) == 1:
                    _check_unit_roots(a, p, roots)
                else:
                    assert roots == (), (a, p)


def test_cornacchia_table_holds_the_trial_primes():
    assert sorted(arith._TRIAL_CORNACCHIA) == [p for p in arith._TRIAL_PRIMES if p % 4 == 1]
    assert len(arith._TRIAL_CORNACCHIA) == 29
    for p, (x, y) in arith._TRIAL_CORNACCHIA.items():
        assert (x, y) == arith._cornacchia_prime(p) and x * x + y * y == p


def _reference_represent(n):
    """The former `represent_two_squares`, kept verbatim as the reference: it
    tries every conjugation choice at every prime = 1 mod 4."""
    if n.is_zero:
        return (0, 0)
    if not is_sum_two_squares(n):
        return None
    scalar = 1
    two_odd = False
    split = []
    for p in n.primes():
        e = n.factors[p]
        if p == 2:
            scalar <<= e // 2
            two_odd = e % 2 == 1
        elif p % 4 == 3:
            scalar *= p ** (e // 2)
        else:
            split.append((arith._cornacchia_prime(p), e))
    total = 1
    for _, e in split:
        total *= e + 1
    choice_space = [range(e + 1) for _, e in split]
    if total > arith.REPRESENT_COMBO_CAP:
        choice_space = [range(e, e + 1) for _, e in split]
    powers = []
    for (a, b), e in split:
        pw = [(1, 0)]
        for _ in range(e):
            pw.append(arith._gauss_mul(pw[-1], (a, b)))
        conj = [(x, -y) for x, y in pw]
        powers.append((pw, conj, e))
    best = None
    for choice in itertools.product(*choice_space):
        rep = (1, 0)
        for (pw, conj, e), j in zip(powers, choice):
            rep = arith._gauss_mul(rep, arith._gauss_mul(pw[j], conj[e - j]))
        if two_odd:
            rep = arith._gauss_mul(rep, (1, 1))
        x, y = abs(rep[0]) * scalar, abs(rep[1]) * scalar
        cand = (x, y) if x <= y else (y, x)
        if best is None or cand < best:
            best = cand
    return best


def _split_products():
    """Products of up to eight primes = 1 mod 4, with exponents, times 2^e
    and a square of a prime = 3 mod 4; the last two are at and above the
    cap."""
    rng = random.Random(7)
    split = [5, 13, 17, 29, 37, 41, 313, 317, next(n for n in itertools.count((1 << 61) + 1, 4) if is_prime(n))]
    out = []
    for size in range(1, 9):
        for _ in range(3):
            primes = rng.sample(split, min(size, len(split)))
            factors = {p: rng.randint(1, 3) for p in primes}
            factors[2] = rng.randint(0, 3)
            factors[3] = rng.choice((0, 2))
            out.append(FactoredInteger.from_factors({p: e for p, e in factors.items() if e}))
    at_cap = {5: 3, 13: 3, 17: 3, 29: 3, 37: 3, 41: 3, 2: 1}
    capped = FactoredInteger.from_factors({**at_cap, 53: 1})
    assert math.prod(e + 1 for p, e in at_cap.items() if p % 4 == 1) == arith.REPRESENT_COMBO_CAP
    assert math.prod(e + 1 for p, e in capped.factors.items() if p % 4 == 1) > arith.REPRESENT_COMBO_CAP
    return out + [FactoredInteger.from_factors(at_cap), capped]


def test_representation_matches_former_implementation():
    rng = random.Random(11)
    inputs = [factorize(n) for n in range(20000)]
    inputs += [factorize(rng.randrange(10**12)) for _ in range(300)]
    inputs += _split_products()
    for n in inputs:
        assert represent_two_squares(n) == _reference_represent(n), n.value


def test_second_trial_pass_is_skipped(monkeypatch):
    """A piece that one trial pass up to the bound left composite, and that
    rho cannot split, raises without a second pass."""
    calls = []
    trial_divide = arith._trial_divide

    def counting(m, factors, bound):
        calls.append(m)
        return trial_divide(m, factors, bound)

    monkeypatch.setattr(arith, "_trial_divide", counting)
    with pytest.raises(BudgetExceeded):
        factorize(1009 * 10007 * 10009, FactorBudget(trial_bound=10**4, rho_rounds=0))
    assert calls == [1009 * 10007 * 10009]


def test_factorize_with_known_trial_divisors():
    """Given exactly the trial primes that divide n, the factor map is the
    one the full trial stage gives; a list that misses one cannot pass a
    composite off as prime."""
    big = [10**12 + 39, 2**61 - 1, 600851475143, 3**40 * 311, 2 * 313**2 * 10007]
    for bound in (1, 2, 20, 311, 10**6):
        budget = FactorBudget(trial_bound=bound)
        for n in itertools.chain(range(1, 5000), big):
            divisors = [p for p in arith._TRIAL_PRIMES if n % p == 0]
            assert factorize(n, budget, divisors).factors == factorize(n, budget).factors, (n, bound)
    with pytest.raises(ValueError):
        factorize(9, FactorBudget(), ())
    # 13 * 17 * 53: the loop stops with the trial prime 53 as the cofactor
    assert factorize(11713, FactorBudget(), [13, 17, 53]).factors == {13: 1, 17: 1, 53: 1}
    assert factorize(11713, FactorBudget(), [13, 17]).factors == {13: 1, 17: 1, 53: 1}


@pytest.mark.parametrize(
    "n,divisors",
    [
        (11713, [13, 53]),  # misses 17; the cofactor 901 = 17 * 53 is below stop^2
        (7 * 10007 * 10009, []),  # misses 7; the cofactor is above stop^2
        (7 * 10007 * 10009, [3, 5]),
        (2 * 3 * 10007, [3]),
        (16 * 7, [4]),  # names a non-prime that divides n
        (9 * 1009, [9]),
        (313 * 1009, [313]),  # a prime, but not a trial prime
    ],
)
def test_factorize_rejects_a_wrong_trial_list(n, divisors):
    with pytest.raises(ValueError):
        factorize(n, FactorBudget(), divisors)


def test_factored_integer_is_frozen():
    """Neither the value nor the factor map can be changed once checked, and
    a later change to the caller's dict does not reach the object."""
    twelve = factorize(12)
    with pytest.raises(dataclasses.FrozenInstanceError):
        twelve.value = 7
    with pytest.raises(TypeError):
        twelve.factors[127] = 4
    assert twelve == FactoredInteger(12, {2: 2, 3: 1})
    factors = {2: 2, 3: 1}
    built = FactoredInteger(12, factors)
    factors[5] = 1
    assert built.factors == {2: 2, 3: 1}
    assert built.factors | {5: 1} == {2: 2, 3: 1, 5: 1} and sorted(built.factors) == [2, 3]


def test_factor_map_is_ascending_whatever_order_it_is_given_in():
    """The record owns the order of its factor map, on both construction
    paths, so `primes()` and `obstructing_prime` read it as it stands."""
    for built in (
        FactoredInteger(21, {7: 1, 3: 1}),
        FactoredInteger._proven(21, {7: 1, 3: 1}),
        FactoredInteger.from_factors({7: 1, 3: 1}),
    ):
        assert list(built.factors) == [3, 7]
        assert built.primes() == [3, 7]
        assert obstructing_prime(built) == 3


def test_proven_checks_product_and_exponents():
    assert FactoredInteger._proven(12, {2: 2, 3: 1}) == FactoredInteger(12, {2: 2, 3: 1})
    with pytest.raises(ValueError):
        FactoredInteger._proven(10, {2: 1})
    with pytest.raises(ValueError):
        FactoredInteger._proven(6, {2: 1, 3: 1, 5: 0})
