"""Exact integer and modular arithmetic: factorization, valuations, CRT,
modular square roots, and explicit two-square representations.

Everything here is deterministic: factoring retries, nonresidue scans and
tie-breaking all follow fixed orders, so identical inputs give identical
outputs across runs.
"""

from __future__ import annotations

import bisect
import math
import types
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import BudgetExceeded, DegenerateInput, InternalInconsistency, NonCoprimeModuli

if TYPE_CHECKING:
    import numpy as np

# Miller-Rabin uses the first k prime bases for n below the k-th bound: each
# bound is psi_k, the smallest strong pseudoprime to those bases (psi_7 = psi_8
# and psi_9 = psi_11, so 8, 10 and 11 bases are never needed). At and above
# psi_12 all 13 bases run, which is exact below psi_13 ~ 3.3e24; from psi_13
# on a strong Lucas test follows them, which makes the test Baillie-PSW.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LEVELS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
)
_PSI_13 = 3317044064679887385961981

# The package's prime tables: every prime up to _prime_limit, and those of
# them = 3 (mod 4), as read-only int32 arrays, sieved together in segments of
# _PRIME_SEGMENT integers when a caller first asks past their end. They start
# empty, so importing this module does not import numpy; the first build does.
# `iter_primes_3_mod_4` reads them only up to PRIME_CAP (about 4 and 2 MB
# there), in chunks of _TABLE_CHUNK primes, and sieves the segments above it
# afresh without keeping them.
_PRIME_SEGMENT = 1 << 20
PRIME_CAP = 1 << 24
_TABLE_CHUNK = 1 << 16
_primes = _primes_3_mod_4 = ()
_prime_limit = 1


@dataclass
class FactorBudget:
    """Effort limits for `factorize`.

    trial_bound: largest prime attempted by trial division.
    rho_rounds: number of Pollard-Brent parameter retries per composite.
    rho_iterations: iteration cap per rho round.
    """

    trial_bound: int = 1_000_000
    rho_rounds: int = 24
    rho_iterations: int = 1 << 18


DEFAULT_BUDGET = FactorBudget()


@dataclass(frozen=True)
class ResidueClass:
    """An element of Z/mZ with its canonical representative in [0, m)."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            object.__setattr__(self, "value", self.value % self.modulus)

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


def _ascending(factors: Mapping[int, int]) -> Mapping[int, int]:
    """A read-only copy of a factor map with its primes in ascending order."""
    return types.MappingProxyType(dict(sorted(factors.items())))


@dataclass(frozen=True)
class FactoredInteger:
    """A nonnegative integer carried together with its full factorization.

    `factors` maps each prime to its positive exponent; the empty map
    represents 1, and 0 is represented by value 0 with an empty map. The
    object is frozen and `factors` is a read-only copy of the mapping given,
    with its primes in ascending order whatever order they were given in,
    so neither can drift from the other once checked, and every reader of
    the map can rely on its order.
    """

    value: int
    factors: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "factors", _ascending(self.factors))
        if self.value < 0:
            raise ValueError("FactoredInteger is nonnegative")
        if self.value == 0:
            if self.factors:
                raise ValueError("zero carries an empty factor map")
            return
        self._check_product()
        for p in self.factors:
            if not is_prime(p):
                raise ValueError(f"factor {p} is not prime")

    @classmethod
    def _proven(cls, value: int, factors: Mapping[int, int]) -> "FactoredInteger":
        """value >= 1 with a factor map whose primes the caller has proved
        (`factorize`, or primes read from the prime table): the exponents
        and the product are checked, primality is not. The map is ordered
        as the checked constructor orders it."""
        out = cls.__new__(cls)
        object.__setattr__(out, "value", value)
        object.__setattr__(out, "factors", _ascending(factors))
        out._check_product()
        return out

    def _check_product(self) -> None:
        prod = 1
        for p, e in self.factors.items():
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1")
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors multiply to {prod}, not {self.value}")

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def exponent(self, p: int) -> int:
        return self.factors.get(p, 0)

    def primes(self) -> list[int]:
        return list(self.factors)

    @classmethod
    def from_factors(cls, factors: dict[int, int]) -> "FactoredInteger":
        value = 1
        for p, e in factors.items():
            value *= p**e
        return cls(value, factors)


def _sieve_primes(lo: int, hi: int, base: list[int]) -> np.ndarray:
    """The primes in [lo, hi) (2 <= lo) as int64, by a sieve of Eratosthenes
    over the segment's odd integers, entry i standing for (lo | 1) + 2i;
    base holds every prime up to isqrt(hi - 1) in order."""
    import numpy as np

    start = lo | 1
    seg = np.ones(max(hi - start + 1, 0) // 2, dtype=bool)
    for p in base[1:]:  # 2 strikes no odd integer
        if p * p >= hi:
            break
        # from the least odd multiple of p at or above both p^2 and lo
        seg[((max(p, -(-start // p)) | 1) * p - start) // 2 :: p] = False
    odd = np.flatnonzero(seg)
    odd *= 2  # in place: no second array of the segment's primes
    odd += start
    return np.concatenate(([2], odd)) if lo <= 2 < hi else odd


def _extend_primes(limit: int) -> None:
    """Extend both prime tables to limit segment by segment, taking the base
    primes up to isqrt(limit) from the table."""
    global _primes, _primes_3_mod_4, _prime_limit
    if limit <= _prime_limit:
        return
    import numpy as np

    root = math.isqrt(limit)
    _extend_primes(root)
    base = [int(p) for p in _primes[: bisect.bisect_right(_primes, root)]]
    # the empty tables are () until the first segment is sieved
    parts = [np.asarray(_primes, dtype=np.int32)]
    parts_3_mod_4 = [np.asarray(_primes_3_mod_4, dtype=np.int32)]
    for lo in range(_prime_limit + 1, limit + 1, _PRIME_SEGMENT):
        fresh = _sieve_primes(lo, min(lo + _PRIME_SEGMENT, limit + 1), base).astype(np.int32)
        parts.append(fresh)
        parts_3_mod_4.append(fresh[fresh & 3 == 3])
    _primes = np.concatenate(parts)
    _primes_3_mod_4 = np.concatenate(parts_3_mod_4)
    _primes.flags.writeable = _primes_3_mod_4.flags.writeable = False
    _prime_limit = limit


def _table_limit(bound: int) -> int:
    """The power of two at or above bound, and at least 16, that the prime
    tables grow to; ValueError for a bound of 2^31 or more."""
    if bound >= 1 << 31:
        raise ValueError(f"prime tables end below 2^31, got a bound of {bound}")
    return 1 << max((bound - 1).bit_length(), 4)


def prime_array(bound: int) -> np.ndarray:
    """All primes <= bound as a read-only int32 array (bound < 2^31).

    The tables grow to the power of two at or above bound (at least 16), so
    nearby bounds share one extension. A bound of 2^31 or more raises
    ValueError, as its primes would wrap in int32.
    """
    import numpy as np

    _extend_primes(_table_limit(bound))
    # an int32 key, so that numpy does not convert the whole table to search it
    return _primes[: np.searchsorted(_primes, np.int32(bound), "right")]


def primes_3_mod_4(bound: int) -> np.ndarray:
    """The primes p = 3 (mod 4) <= bound (< 2^31), from a table grown with
    `prime_array`'s."""
    import numpy as np

    _extend_primes(_table_limit(bound))
    return _primes_3_mod_4[: np.searchsorted(_primes_3_mod_4, np.int32(bound), "right")]


def iter_primes_3_mod_4(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The primes p = 3 (mod 4) with lo < p <= hi (hi <= PRIME_CAP^2) in
    ascending int64 chunks: up to PRIME_CAP, slices of _TABLE_CHUNK primes
    of the table; above it, those of each segment of _PRIME_SEGMENT
    integers, sieved afresh and not kept."""
    import numpy as np

    table = primes_3_mod_4(min(hi, PRIME_CAP))
    # an int32 key, so that numpy does not convert the whole table to search it
    first = int(np.searchsorted(table, np.int32(min(lo, PRIME_CAP)), "right"))
    for i in range(first, table.size, _TABLE_CHUNK):
        yield table[i : i + _TABLE_CHUNK].astype(np.int64)
    if hi > PRIME_CAP:
        base = prime_array(math.isqrt(hi)).tolist()
        for start in range(max(lo, PRIME_CAP) + 1, hi + 1, _PRIME_SEGMENT):
            fresh = _sieve_primes(start, min(start + _PRIME_SEGMENT, hi + 1), base)
            yield fresh[fresh & 3 == 3]


def small_primes(bound: int) -> list[int]:
    """All primes <= bound as a list of Python ints."""
    return prime_array(bound).tolist()


# `factorize` divides by these first 64 primes before any primality test;
# found by trial division, so that no prime table is built on import.
_TRIAL_PRIMES = tuple(n for n in range(2, 312) if all(n % d for d in range(2, math.isqrt(n) + 1)))
_TRIAL_SET = frozenset(_TRIAL_PRIMES)
_TRIAL_NEXT = 313
# _TRIAL_STOPS[i] is the least prime above the first i trial primes, and
# _TRIAL_PRODUCTS[i] is their product.
_TRIAL_STOPS = _TRIAL_PRIMES + (_TRIAL_NEXT,)
_TRIAL_PRODUCTS = tuple(math.prod(_TRIAL_PRIMES[:i]) for i in range(len(_TRIAL_STOPS)))


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases, exact below 3.3e24; from there on
    followed by a strong Lucas test (Baillie-PSW, no known counterexample)."""
    if n < _TRIAL_NEXT:
        return n in _TRIAL_SET
    for p in _MR_BASES:
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = len(_MR_BASES)
    for limit, count in _MR_LEVELS:
        if n < limit:
            k = count
            break
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 41 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4. With n + 1 = d 2^s, d odd, n passes when U_d = 0 or
    V_(d 2^r) = 0 mod n for some 0 <= r < s."""
    root = math.isqrt(n)
    if root * root == n:  # no D would have (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # gcd(D, n) > 1
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        x %= n
        return (x + n if x & 1 else x) // 2

    u, v, qk = 1, 1, Q % n  # U_1, V_1 and Q^1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _rho_brent(n: int, c: int, max_iters: int) -> int | None:
    """One Pollard-Brent round with increment c on an odd n; returns a
    nontrivial factor or None."""
    y, m, g, r, q = 2, 128, 1, 1, 1
    x = ys = y
    iters = 0
    while g == 1 and iters < max_iters:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
        iters += r
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    if 1 < g < n:
        return g
    return None


def factorize(
    n: int, budget: FactorBudget = DEFAULT_BUDGET, trial_primes: Sequence[int] = _TRIAL_PRIMES
) -> FactoredInteger:
    """Complete factorization of n >= 0.

    Trial division by the primes up to min(311, trial_bound), then
    deterministic Miller-Rabin on the cofactor. A composite cofactor is split
    by Pollard-Brent rho with a fixed retry schedule, and only a piece rho
    cannot split is trial-divided up to trial_bound. Raises BudgetExceeded
    when a piece that trial division left composite cannot be split by rho
    either, which only happens at or above trial_bound^2, where trial
    division cannot reach its square root.

    trial_primes lists, ascending, the primes up to 311 to divide by; a
    caller that knows which of them divide n (a sieve over the values of a
    polynomial) passes only those. Each prime of the map is proved once: a
    trial prime by the table, the cofactor by `is_prime` or by lying below
    the square of the least trial prime above the bound, and each piece of
    a composite cofactor by `_split_composite`. A list that names a divisor
    of n outside the trial primes, or misses a trial prime up to the bound
    that divides n, raises ValueError, so it cannot pass a composite off as
    prime.
    """
    if n < 0:
        raise ValueError("factorize expects n >= 0")
    if n == 0:
        return FactoredInteger(0)
    factors: dict[int, int] = {}
    bound = max(min(budget.trial_bound, math.isqrt(n)), 2)
    m = n
    for p in trial_primes:
        if p > bound or p * p > m:
            break
        if m % p == 0:
            if p not in _TRIAL_SET:
                raise ValueError(f"trial divisor {p} is not a prime up to 311")
            m = _divide_out(m, p, factors)
    # With the trial primes up to bound divided out, m has no prime factor
    # below stop, the least trial prime above bound. An early stop at
    # p * p > m can leave a trial prime up to bound as m itself.
    i = bisect.bisect_right(_TRIAL_PRIMES, bound)
    if math.gcd(m, _TRIAL_PRODUCTS[i]) != 1 and m not in _TRIAL_SET:
        raise ValueError("the trial list misses a prime divisor of n")
    stop = _TRIAL_STOPS[i]
    if m < stop * stop or is_prime(m):
        if m > 1:
            factors[m] = 1
    else:
        _split_composite(m, factors, budget, bound, stop)
    return FactoredInteger._proven(n, factors)


def _divide_out(m: int, p: int, factors: dict[int, int]) -> int:
    """Record every factor p of m into `factors` and return the cofactor."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    factors[p] = factors.get(p, 0) + e
    return m


def _split_composite(m: int, factors: dict[int, int], budget: FactorBudget, bound: int, stop: int) -> None:
    """Factor a composite m with no prime factor below stop into `factors`,
    proving each prime it records once.

    Each piece gets the perfect-square check, then the budget's rho rounds.
    A piece rho cannot split is trial-divided up to bound, which reaches its
    square root below trial_bound^2. A piece that trial division leaves
    whole, or that rho cannot split after one trial pass, raises
    BudgetExceeded: a second pass would find nothing. A square root, a rho
    piece and a trial-division rest are proved prime by `is_prime` or, below
    stop^2, by having no prime factor below stop; a prime that trial division
    divides out comes from the prime table.
    """
    prime_below = stop * stop
    stack = [(m, False)]  # (piece, whether a trial pass up to bound left it)

    def settle(piece: int, divided: bool) -> None:
        # a piece below stop^2 with no prime factor below stop is prime
        if piece < prime_below or is_prime(piece):
            if piece > 1:
                factors[piece] = factors.get(piece, 0) + 1
        else:
            stack.append((piece, divided))

    while stack:
        m, divided = stack.pop()
        root = math.isqrt(m)
        if root * root == m and is_prime(root):
            factors[root] = factors.get(root, 0) + 2
            continue
        for c in range(1, budget.rho_rounds + 1):
            d = _rho_brent(m, c, budget.rho_iterations)
            if d is not None:
                settle(d, divided)
                settle(m // d, divided)
                break
        else:
            # a second pass over what one pass left composite finds nothing
            rest = m if divided else _trial_divide(m, factors, bound)
            if rest == m:
                raise BudgetExceeded(f"could not split composite {m}")
            settle(rest, True)


def _trial_divide(m: int, factors: dict[int, int], bound: int) -> int:
    """Divide out the primes from 313 up to bound into `factors`; return the
    cofactor, which is prime or 1 when bound reaches its square root."""
    for p in prime_array(min(bound, math.isqrt(m)))[len(_TRIAL_PRIMES) :].tolist():
        if p * p > m:
            break
        if m % p == 0:
            m = _divide_out(m, p, factors)
    return m


def valuation(n: int, p: int) -> int:
    """Largest k with p^k dividing n (n >= 1)."""
    if n < 1:
        raise ValueError("valuation expects n >= 1")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(a, b) > 0.

    The triple is the one Euclid's loop ends with, in closed form: (g, a/g, 0)
    for b = 0. Otherwise x is the inverse of a/g mod m = |b|/g taken in
    (-m/2, m/2], or in [-m/2, m/2) when b < 0; only m = 2 can tie, and m = 1
    gives x = 0, so (g, 0, b/g).
    """
    if a == 0 and b == 0:
        raise DegenerateInput("ext_gcd(0, 0) is undefined")
    g = math.gcd(a, b)
    if b == 0:
        return g, a // g, 0
    m = abs(b) // g
    x = pow(a // g, -1, m)
    if 2 * x > m or (2 * x == m and b < 0):
        x -= m
    return g, x, (g - a * x) // b


def crt_combine(congruences: list[ResidueClass]) -> ResidueClass:
    """Combine congruences with pairwise coprime moduli into one class.

    Raises NonCoprimeModuli naming the first earlier modulus that clashes.
    """
    x, m = 0, 1
    for i, cls in enumerate(congruences):
        if math.gcd(m, cls.modulus) != 1:
            prev = next(c.modulus for c in congruences[:i] if math.gcd(c.modulus, cls.modulus) != 1)
            raise NonCoprimeModuli(prev, cls.modulus)
        x += m * ((cls.value - x) * pow(m, -1, cls.modulus) % cls.modulus)
        m *= cls.modulus
    return ResidueClass(x % m, m)


def obstructing_prime(n: FactoredInteger) -> int | None:
    """The least prime p = 3 mod 4 dividing n to an odd power, or None.

    The scan follows the factor map, which `FactoredInteger` keeps in
    ascending order on every construction path.
    """
    for p, e in n.factors.items():
        if p % 4 == 3 and e % 2:
            return p
    return None


def is_sum_two_squares(n: FactoredInteger) -> bool:
    """Membership in E = {x^2 + y^2}: every prime = 3 mod 4 to an even power.

    0 counts as a member (0 = 0^2 + 0^2).
    """
    return obstructing_prime(n) is None


def sqrt_unit_odd(a: int, p: int, e: int) -> tuple[int, ...]:
    """Sorted roots of x^2 = a mod p^e for odd p and a a unit; () when a is a nonresidue.

    Tonelli-Shanks in the units mod p^e, a cyclic group of order
    phi(p^e) = m 2^s with m odd. One power w = a^((m-1)/2) gives the first
    guess r = a^((m+1)/2) and t = a^m with r^2 = a t, so r is a root when
    t = 1. Otherwise s - 1 squarings of t give Euler's criterion, and while
    t != 1 a power of c = z^m, z the least nonresidue mod p, cuts the order
    of t. For p = 3 mod 4, s = 1 and a residue has t = 1: one power, with no
    search for z.
    """
    mod = p**e
    a %= mod
    m, s = mod // p * (p - 1) >> 1, 1  # p - 1 is even
    while not m & 1:
        m >>= 1
        s += 1
    w = pow(a, m >> 1, mod)  # m is odd: m >> 1 = (m - 1)/2
    r = a * w % mod
    t = r * w % mod
    if t != 1:
        x = t
        for _ in range(s - 1):
            x = x * x % mod
        if x != 1:
            return ()
        z = 2
        while _jacobi(z, p) != -1:
            z += 1
        c = pow(z, m, mod)
        while t != 1:
            # the least i with t^(2^i) = 1; then b = c^(2^(s-i-1)) has order 2^(i+1)
            i, x = 0, t
            while x != 1:
                x = x * x % mod
                i += 1
            b = pow(c, 1 << (s - i - 1), mod)
            r = r * b % mod
            c = b * b % mod
            t = t * c % mod
            s = i
    # r is a unit, so r and mod - r are the two distinct roots.
    return (r, mod - r) if 2 * r < mod else (mod - r, r)


def _sqrt_unit_two(a: int, e: int) -> tuple[int, ...]:
    """Sorted roots of x^2 = a mod 2^e for odd a."""
    mod = 1 << e
    a %= mod
    if e == 1:
        return (1,)
    if e == 2:
        return (1, 3) if a % 4 == 1 else ()
    if a % 8 != 1:
        return ()
    x = 1
    for k in range(3, e):
        if (x * x - a) % (1 << (k + 1)) != 0:
            x += 1 << (k - 1)
    return tuple(sorted({x % mod, (mod - x) % mod, (x + mod // 2) % mod, (mod - x + mod // 2) % mod}))


def sqrt_mod_prime_power(a: int, p: int, e: int) -> list[int]:
    """All x in [0, p^e) with x^2 = a mod p^e, sorted.

    For a = 0 mod p^e the roots are the multiples of p^ceil(e/2). For
    a = p^v * u with u a unit and v < e, there are roots only when v is
    even and u is a square; they are p^(v/2) * x1 + j * p^(e - v/2), where
    x1 runs over the roots of u modulo p^(e-v). Otherwise there are none.
    """
    if e < 1:
        raise ValueError("exponent must be >= 1")
    mod = p**e
    a %= mod
    if a % p:
        return list(_sqrt_unit_two(a, e) if p == 2 else sqrt_unit_odd(a, p, e))
    if a == 0:
        return list(range(0, mod, p ** ((e + 1) // 2)))
    v = valuation(a, p)
    if v % 2 == 1:
        return []
    half = p ** (v // 2)
    step = mod // half
    # each x1 < p^(e-v), so half * x1 < step and j-major order is sorted
    units = sqrt_mod_prime_power(a // p**v, p, e - v)
    return [half * x1 + j * step for j in range(half) for x1 in units]


def _cornacchia_prime(p: int) -> tuple[int, int]:
    """(x, y) with x^2 + y^2 = p for a prime p = 1 mod 4.

    The root of -1 is one power s = c^((p-1)/4), c the least nonresidue:
    Euler's criterion gives c^((p-1)/2) = -1 for prime p, and s^2 = -1 is
    checked. Euclid's remainders on (p, s), down to the first below
    sqrt(p), give x. Either root gives the same x: for the root r < p/2,
    Euclid on (p, p - r) passes p - r > sqrt(p) and then runs on as Euclid
    on (p, r).
    """
    c = 2
    while _jacobi(c, p) == 1:  # stops at the latest at p's least prime factor
        c += 1
    s = pow(c, (p - 1) // 4, p)
    if s * s % p != p - 1:
        # p can run past the int-to-str digit limit, so name its size only
        raise InternalInconsistency(f"no square root of -1 modulo a {p.bit_length()}-bit p")
    a, b = p, s
    limit = math.isqrt(p)
    while b > limit:
        a, b = b, a % b
    y2 = p - b * b
    y = math.isqrt(y2)
    if y * y != y2:
        raise InternalInconsistency(f"Cornacchia remainder not a square for a {p.bit_length()}-bit p")
    return b, y


# The Cornacchia pairs of the trial primes = 1 mod 4, built once at import.
_TRIAL_CORNACCHIA = {p: _cornacchia_prime(p) for p in _TRIAL_PRIMES if p % 4 == 1}

# Above this many conjugation choices, `represent_two_squares` takes only one.
REPRESENT_COMBO_CAP = 4096


def _gauss_mul(r1: tuple[int, int], r2: tuple[int, int]) -> tuple[int, int]:
    a, b = r1
    c, d = r2
    return a * c - b * d, a * d + b * c


def _canon_pair(x: int, y: int) -> tuple[int, int]:
    x, y = abs(x), abs(y)
    return (x, y) if x <= y else (y, x)


def represent_two_squares(n: FactoredInteger) -> tuple[int, int] | None:
    """A representation (x, y) with x^2 + y^2 = n and 0 <= x <= y, or None.

    Built multiplicatively: Cornacchia at each prime = 1 mod 4, (1, 1) for 2,
    and scalar p^(e/2) for primes = 3 mod 4, composed via the Gaussian norm
    identity. Every representation of n arises from a conjugation choice at
    each prime p = g conj(g) = 1 mod 4, the factor g^j conj(g)^(e-j) of p^e
    for some 0 <= j <= e. Up to REPRESENT_COMBO_CAP of those combinations
    are enumerated, prime by prime as a list of partial products, and the
    lexicographically smallest pair is returned, so e.g. 25 gives (0, 5)
    rather than (3, 4). Conjugating every choice at once gives the same |x|
    and |y| (with the factor 1 + i too, which conjugation turns into
    -i (1 + i)), so the first prime = 1 mod 4 takes only j <= e/2. Above the
    cap only j = e is taken at every prime. Deterministic for fixed n.
    """
    if n.is_zero:
        return (0, 0)
    if not is_sum_two_squares(n):
        return None
    scalar = 1
    reps = [(1, 0)]
    split: list[tuple[int, int]] = []
    for p, e in n.factors.items():
        if p == 2:
            scalar <<= e // 2
            if e % 2:
                reps = [(1, 1)]
        elif p % 4 == 3:
            scalar *= p ** (e // 2)
        else:
            split.append((p, e))
    capped = math.prod(e + 1 for _, e in split) > REPRESENT_COMBO_CAP
    for index, (p, e) in enumerate(split):
        g = _TRIAL_CORNACCHIA.get(p) or _cornacchia_prime(p)
        pw = [(1, 0)]
        for _ in range(e):
            pw.append(_gauss_mul(pw[-1], g))
        if capped:
            choices = range(e, e + 1)
        else:
            choices = range(e // 2 + 1 if index == 0 else e + 1)
        options = [_gauss_mul(pw[j], (pw[e - j][0], -pw[e - j][1])) for j in choices]
        reps = [_gauss_mul(rep, option) for rep in reps for option in options]
    x, y = min(_canon_pair(x, y) for x, y in reps)
    return x * scalar, y * scalar
