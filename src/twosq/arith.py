"""Exact integer and modular arithmetic: factorization, valuations, CRT,
modular square roots, and explicit two-square representations.

Everything here is deterministic: factoring retries, nonresidue scans and
tie-breaking all follow fixed orders, so identical inputs give identical
outputs across runs.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, DegenerateInput, InternalInconsistency, NonCoprimeModuli

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

# The package's one table of primes: every prime up to _prime_limit as a
# read-only int32 array, sieved in segments of _PRIME_SEGMENT integers when a
# caller first asks past its end.
_PRIME_SEGMENT = 1 << 18
_primes = np.zeros(0, dtype=np.int32)
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

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


@dataclass
class FactoredInteger:
    """A nonnegative integer carried together with its full factorization.

    `factors` maps each prime to its positive exponent; the empty map
    represents 1, and 0 is represented by value 0 with an empty map.
    """

    value: int
    factors: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("FactoredInteger is nonnegative")
        if self.value == 0:
            if self.factors:
                raise ValueError("zero carries an empty factor map")
            return
        prod = 1
        for p, e in self.factors.items():
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1")
            if not is_prime(p):
                raise ValueError(f"factor {p} is not prime")
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors multiply to {prod}, not {self.value}")

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def exponent(self, p: int) -> int:
        return self.factors.get(p, 0)

    def primes(self) -> list[int]:
        return sorted(self.factors)

    @classmethod
    def from_factors(cls, factors: dict[int, int]) -> "FactoredInteger":
        value = 1
        for p, e in factors.items():
            value *= p**e
        return cls(value, dict(sorted(factors.items())))

    def __int__(self) -> int:
        return self.value


def _extend_primes(limit: int) -> None:
    """Extend the prime table to every prime <= limit by a segmented sieve of
    Eratosthenes, taking the base primes up to isqrt(limit) from the table."""
    global _primes, _prime_limit
    if limit <= _prime_limit:
        return
    root = math.isqrt(limit)
    _extend_primes(root)
    base = _primes[: np.searchsorted(_primes, np.int32(root), "right")].tolist()
    parts = [_primes]
    for lo in range(_prime_limit + 1, limit + 1, _PRIME_SEGMENT):
        hi = min(lo + _PRIME_SEGMENT, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base:
            if p * p >= hi:
                break
            seg[max(p * p, -(-lo // p) * p) - lo :: p] = False
        parts.append((np.flatnonzero(seg) + lo).astype(np.int32))
    _primes = np.concatenate(parts)
    _primes.flags.writeable = False
    _prime_limit = limit


def prime_array(bound: int) -> np.ndarray:
    """All primes <= bound as a read-only int32 array (bound < 2^31).

    The table grows to the power of two at or above bound (at least 16), so
    nearby bounds share one extension.
    """
    _extend_primes(1 << max((bound - 1).bit_length(), 4))
    # an int32 key, so that numpy does not convert the whole table to search it
    return _primes[: np.searchsorted(_primes, np.int32(bound), "right")]


def small_primes(bound: int) -> list[int]:
    """All primes <= bound as a list of Python ints."""
    return prime_array(bound).tolist()


# `factorize` divides by these first 64 primes before any primality test.
_TRIAL_PRIMES = tuple(small_primes(311))
_TRIAL_SET = frozenset(_TRIAL_PRIMES)
_TRIAL_NEXT = 313
# _TRIAL_STOPS[i] is the least prime above the first i trial primes.
_TRIAL_STOPS = _TRIAL_PRIMES + (_TRIAL_NEXT,)


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
    """One Pollard-Brent round with increment c; returns a nontrivial factor or None."""
    if n % 2 == 0:
        return 2
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
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
        iters += r
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
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
    polynomial) passes only those. A list that misses a divisor cannot give
    a wrong map: `FactoredInteger` re-tests every prime.
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
            m = _divide_out(m, p, factors)
    # m has no prime factor below stop, the least trial prime above bound;
    # an early stop at p * p > m left m < p^2 <= stop^2
    stop = _TRIAL_STOPS[bisect.bisect_right(_TRIAL_PRIMES, bound)]
    if m < stop * stop or is_prime(m):
        if m > 1:
            factors[m] = 1
    else:
        _split_composite(m, factors, budget, bound, stop)
    return FactoredInteger(n, dict(sorted(factors.items())))


def _divide_out(m: int, p: int, factors: dict[int, int]) -> int:
    """Record every factor p of m into `factors` and return the cofactor."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    factors[p] = factors.get(p, 0) + e
    return m


def _split_composite(m: int, factors: dict[int, int], budget: FactorBudget, bound: int, stop: int) -> None:
    """Factor a composite m with no prime factor below stop into `factors`.

    Each piece gets the perfect-square check, then the budget's rho rounds.
    A piece rho cannot split is trial-divided up to bound, which reaches its
    square root below trial_bound^2. A piece that trial division leaves
    whole, or that rho cannot split after one trial pass, raises
    BudgetExceeded: a second pass would find nothing.
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

    When a != 0 and |b|/g > 2, Euclid's x is the inverse of a/g mod |b|/g
    taken in (-|b|/2g, |b|/2g], so one modular inverse gives the same triple;
    the loop runs only for the remaining degenerate inputs.
    """
    if a == 0 and b == 0:
        raise DegenerateInput("ext_gcd(0, 0) is undefined")
    g = math.gcd(a, b)
    m = abs(b) // g
    if a and m > 2:
        x = pow(a // g, -1, m)
        if 2 * x > m:
            x -= m
        return g, x, (g - a * x) // b
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


def crt_combine(congruences: list[ResidueClass]) -> ResidueClass:
    """Combine congruences with pairwise coprime moduli into one class.

    Raises NonCoprimeModuli naming the first earlier modulus that clashes.
    """
    x, m = 0, 1
    seen: list[int] = []
    for cls in congruences:
        if math.gcd(m, cls.modulus) != 1:
            prev = next(p for p in seen if math.gcd(p, cls.modulus) != 1)
            raise NonCoprimeModuli(prev, cls.modulus)
        x += m * ((cls.value - x) * pow(m, -1, cls.modulus) % cls.modulus)
        m *= cls.modulus
        seen.append(cls.modulus)
    return ResidueClass(x % m, m)


def obstructing_prime(n: FactoredInteger) -> int | None:
    """The least prime p = 3 mod 4 dividing n to an odd power, or None.

    The scan follows the factor map, which `factorize` and `from_factors`
    keep sorted.
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


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """One square root of a mod an odd prime p, or None when a is a nonresidue.

    One modular power for p = 3 mod 4 and, by Atkin's formula, for
    p = 5 mod 8; Tonelli-Shanks for p = 1 mod 8. Which of the two roots
    comes back depends on the method, so callers pick their own.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        # a^((p+1)/4) squares to a exactly when a is a residue.
        r = pow(a, (p + 1) // 4, p)
    elif p % 8 == 5:
        # Atkin: with b = (2a)^((p-5)/8), i = 2ab^2 squares to -1 when a is a
        # residue, and then ab(i - 1) squares to a.
        b = pow(2 * a, (p - 5) // 8, p)
        r = a * b * (2 * a * b * b - 1) % p
    else:
        return _tonelli_shanks(a, p)
    return r if r * r % p == a else None


def _tonelli_shanks(a: int, p: int) -> int | None:
    """A square root of a unit a mod a prime p = 1 mod 8, or None.

    With p - 1 = q 2^s, q odd, one power w = a^((q-1)/2) gives the first
    guess r = a^((q+1)/2) and t = a^q, and s - 1 squarings of t give
    Euler's criterion.
    """
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    w = pow(a, (q - 1) // 2, p)
    r = a * w % p
    t = r * w % p
    x = t
    for _ in range(s - 1):
        x = x * x % p
    if x != 1:
        return None
    z = 3  # 2 is a residue mod p = 1 mod 8
    while _jacobi(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    m = s
    while t != 1:
        i, x = 0, t
        while x != 1:
            x = x * x % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def _sqrt_unit_odd(a: int, p: int, e: int) -> tuple[int, ...]:
    """Sorted roots of x^2 = a mod p^e for odd p and a a unit; () when a is a nonresidue."""
    r = sqrt_mod_prime(a, p)
    if r is None:
        return ()
    pk, mod = p, p**e
    while pk < mod:
        # Hensel step doubles the precision: r <- r - (r^2 - a) / (2r).
        pk_next = min(pk * pk, mod)
        inv = pow(2 * r % pk_next, -1, pk_next)
        r = (r - (r * r - a) * inv) % pk_next
        pk = pk_next
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


@dataclass(frozen=True, slots=True)
class SqrtModRoots:
    """The square roots of some a modulo `modulus`, held compactly.

    The roots are exactly r + j*step for r in `residues` and
    0 <= j < modulus // step. `step` is a power of p dividing `modulus`,
    and `residues` is sorted with every entry in [0, step). The value is
    not iterable on purpose: `expand()` lists every root.
    """

    residues: tuple[int, ...]
    step: int
    modulus: int

    def expand(self) -> list[int]:
        """Every root in [0, modulus), sorted."""
        if self.step == self.modulus:
            return list(self.residues)
        roots = (range(r, self.modulus, self.step) for r in self.residues)
        return sorted(itertools.chain.from_iterable(roots))


def sqrt_mod_prime_power(a: int, p: int, e: int) -> SqrtModRoots:
    """All x in [0, p^e) with x^2 = a mod p^e, as a compact root set.

    For a = 0 mod p^e the roots are the multiples of p^ceil(e/2). For
    a = p^v * u with u a unit and v < e, there are roots only when v is
    even and u is a square; they are p^(v/2) * x1 + j * p^(e - v/2), where
    x1 runs over the roots of u modulo p^(e-v). Otherwise there are none.
    The result holds at most 4 residues for p = 2 and at most 2 otherwise,
    whatever the number of roots.
    """
    if e < 1:
        raise ValueError("exponent must be >= 1")
    mod = p**e
    a %= mod
    if a % p:
        base = _sqrt_unit_two(a, e) if p == 2 else _sqrt_unit_odd(a, p, e)
        return SqrtModRoots(base, mod, mod)
    if a == 0:
        return SqrtModRoots((0,), p ** ((e + 1) // 2), mod)
    v = valuation(a, p)
    if v % 2 == 1:
        return SqrtModRoots((), mod, mod)
    half = p ** (v // 2)
    roots = sqrt_mod_prime_power(a // p**v, p, e - v).residues
    return SqrtModRoots(tuple([half * x1 for x1 in roots]), mod // half, mod)


def _cornacchia_prime(p: int) -> tuple[int, int]:
    """(x, y) with x^2 + y^2 = p for a prime p = 1 mod 4."""
    t = sqrt_mod_prime(p - 1, p)
    if t is None or t * t % p != p - 1:
        # p can run past the int-to-str digit limit, so name its size only
        raise InternalInconsistency(f"no square root of -1 modulo a {p.bit_length()}-bit p")
    t = max(t, p - t)
    a, b = p, t
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
    x, y = min((abs(x), abs(y)) if abs(x) <= abs(y) else (abs(y), abs(x)) for x, y in reps)
    return x * scalar, y * scalar
