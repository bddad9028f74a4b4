"""Constructive quadratic families producing triples n, n+h, n+k of sums of
two squares with n = a mod q.

Pipeline: solve the base congruence x0^2 + y0^2 = a mod q, find a shift
(u, v) with (x0+u)^2 + (y0+v)^2 = a+h mod q, set T = q / (2 gcd(u, v)),
solve an integer linear equation for (r0, s0), and expand

    n(t) = (x0 + T(r0 + (v/g) t))^2 + (y0 + T(s0 - (u/g) t))^2

into F(t) = A t^2 + B t + (C + k) with n(t) = F(t) - k. By construction
n(t) and n(t)+h are sums of two squares and n(t) = a mod q for every t;
scanning t for F(t) itself a sum of two squares yields certificate triples.

The base and shift must satisfy prime-by-prime valuation patterns (four
cases: primes away from q, primes 1 mod 4, primes 3 mod 4, and 2). Local
solutions are enumerated in a fixed order and combined by CRT, drawing each
prime's next local solution only when the product order reaches it. At 2
the divisibility bookkeeping alone is not sufficient: shift pairs whose B
or C would miss their class mod 2^v2(q) are dropped before the CRT step. A
candidate is accepted only after the assembled family verifies exactly.
First verified candidate wins, so families are reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .admissibility import admissibility_reason, class_exponent, is_admissible_value
from .arith import (
    _TRIAL_PRIMES,
    DEFAULT_BUDGET,
    FactorBudget,
    FactoredInteger,
    ResidueClass,
    crt_combine,  # no longer called here, but perfbench/tracing.py wraps witness.crt_combine
    ext_gcd,
    factorize,
    is_prime,
    is_sum_two_squares,
    obstructing_prime,
    represent_two_squares,
    sqrt_mod_prime,
    sqrt_mod_prime_power,
    valuation,
)
from .errors import (
    BudgetExceeded,
    HypothesisViolation,
    InternalInconsistency,
    ObstructionFound,
    SearchExhausted,
)

# Bounded-search limits: residue scans per prime power, local candidates kept
# per prime, CRT combinations tried, and base points tried by the pipeline.
LOCAL_SCAN_CAP = 1 << 20
LOCAL_CANDIDATES = 48
COMBO_CAP = 20000
BASE_CAP = 12
# t values `scan_family` sieves at a time before factoring the survivors.
SIEVE_BLOCK = 4096


@dataclass(frozen=True)
class HypothesisVerdict:
    ok: bool
    failed_clause: str | None = None
    detail: str = ""


@dataclass(frozen=True)
class BaseSolution:
    """A point with x0^2 + y0^2 = a mod q and the prescribed gcd valuations."""

    x0: int
    y0: int
    a: ResidueClass
    q: FactoredInteger


@dataclass(frozen=True)
class ShiftPair:
    """(u, v) moving the base point to the class a + h mod q."""

    u: int
    v: int
    gcd_uv: int
    h: int


@dataclass
class WitnessFamily:
    q: FactoredInteger
    a: int
    h: int
    k: int
    x0: int
    y0: int
    u: int
    v: int
    T: int
    r0: int
    s0: int
    A: int
    B: int
    C: int

    @property
    def g(self) -> int:
        return math.gcd(self.u, self.v)

    @property
    def eta(self) -> int:
        """sqrt(4AC - B^2). Lagrange's identity gives B^2 - 4AC =
        -4T^2 (X0 u/g + Y0 v/g)^2 with (X0, Y0) = (x_of(0), y_of(0))."""
        g = self.g
        return 2 * self.T * abs(self.x_of(0) * (self.u // g) + self.y_of(0) * (self.v // g))

    def x_of(self, t: int) -> int:
        return self.x0 + self.T * (self.r0 + (self.v // self.g) * t)

    def y_of(self, t: int) -> int:
        return self.y0 + self.T * (self.s0 - (self.u // self.g) * t)

    def F(self, t: int) -> int:
        return self.A * t * t + self.B * t + self.C + self.k

    def n_value(self, t: int) -> int:
        return self.F(t) - self.k

    def rep_n(self, t: int) -> tuple[int, int]:
        return _canon_pair(self.x_of(t), self.y_of(t))

    def rep_n_plus_h(self, t: int) -> tuple[int, int]:
        return _canon_pair(self.x_of(t) + self.u, self.y_of(t) + self.v)

    def verify(self) -> None:
        """Exact verification of every family invariant; raises on failure.

        Each big quantity is formed once: x(t) and y(t) step from
        (X0, Y0) = (x_of(0), y_of(0)), and B^2 - 4AC is checked against eta^2.
        """
        q, T, A, B, C = self.q.value, self.T, self.A, self.B, self.C
        u, v = self.u, self.v
        g = self.g
        if g == 0 or q % (2 * g) != 0 or T != q // (2 * g):
            raise InternalInconsistency("T != q / (2 gcd(u, v))")
        if (T * T) % q != 0:
            raise InternalInconsistency("q does not divide T^2")
        if A <= 0:
            raise InternalInconsistency("leading coefficient not positive")
        if A % q != 0 or B % q != 0 or C % q != self.a % q:
            raise InternalInconsistency("F(t) - k is not constantly a mod q")
        ub, vb = u // g, v // g
        X0, Y0 = self.x0 + T * self.r0, self.y0 + T * self.s0
        dx, dy = T * vb, T * ub
        for t in (0, 1, 2):
            n = A * t * t + B * t + C
            x, y = X0 + dx * t, Y0 - dy * t
            if n != x * x + y * y:
                raise InternalInconsistency(f"n(t) identity fails at t={t}")
            if n + self.h != (x + u) ** 2 + (y + v) ** 2:
                raise InternalInconsistency(f"n(t)+h identity fails at t={t}")
        d0 = B * B - 4 * A * C
        eta = 2 * T * abs(X0 * ub + Y0 * vb)
        if d0 > 0 or eta * eta != -d0:
            raise InternalInconsistency("B^2 - 4AC is not minus a perfect square")
        if d0 - 4 * A * self.k > 0:
            raise InternalInconsistency("positive discriminant")

    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * (self.C + self.k)


@dataclass(frozen=True)
class TripleCertificate:
    """Self-verifying record of a triple of sums of two squares.

    reps carry explicit (x, y) with x^2+y^2 equal to n, n+h, n+k in order,
    for distinct offsets h, k >= 1. When `consecutive` is set, 0 < h < k and
    evidence lists one witness (m, p) per integer m strictly between n and
    n+k (other than n+h): a prime p = 3 mod 4 divides m to an odd power, so
    m is not a sum of two squares.
    """

    n: int
    q: int
    a: int
    h: int
    k: int
    t: int | None
    reps: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    consecutive: bool | None = None
    evidence: tuple[tuple[int, int], ...] = ()

    def verify(self) -> bool:
        if self.h < 1 or self.k < 1 or self.h == self.k:
            return False
        targets = (self.n, self.n + self.h, self.n + self.k)
        for (x, y), m in zip(self.reps, targets):
            if x * x + y * y != m:
                return False
        if self.q < 1 or self.n % self.q != self.a % self.q:
            return False
        if self.consecutive:
            # Count first, so the cost stays bounded by the evidence itself:
            # n+h is the one member strictly between n and n+k.
            if self.h > self.k or len(self.evidence) != self.k - 2:
                return False
            covered = set()
            for m, p in self.evidence:
                if not self.n < m < self.n + self.k or m == self.n + self.h or m in covered:
                    return False
                if p % 4 != 3 or not is_prime(p) or valuation(m, p) % 2 == 0:
                    return False
                covered.add(m)
        return True

    def to_json_dict(self) -> dict:
        """Wire form: one JSON object per certificate, integers as decimal strings."""
        out = {
            "n": str(self.n),
            "q": str(self.q),
            "a": str(self.a),
            "h": str(self.h),
            "k": str(self.k),
            "t": None if self.t is None else str(self.t),
            "reps": [[str(x), str(y)] for x, y in self.reps],
            "consecutive": self.consecutive,
        }
        if self.consecutive:
            out["evidence"] = [[str(m), str(p)] for m, p in self.evidence]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "TripleCertificate":
        """Inverse of to_json_dict; raises KeyError, TypeError or ValueError
        on anything that is not a certificate in the wire form."""
        if not isinstance(data, dict):
            raise ValueError(f"certificate must be a JSON object, not {type(data).__name__}")
        reps = tuple((_decimal(x), _decimal(y)) for x, y in data["reps"])
        if len(reps) != 3:
            raise ValueError("certificate needs exactly three representations")
        consecutive = data.get("consecutive")
        if consecutive is not None and not isinstance(consecutive, bool):
            raise ValueError(f"consecutive must be true, false or null, got {consecutive!r:.40}")
        return cls(
            n=_decimal(data["n"]),
            q=_decimal(data["q"]),
            a=_decimal(data["a"]),
            h=_decimal(data["h"]),
            k=_decimal(data["k"]),
            t=None if data.get("t") is None else _decimal(data["t"]),
            reps=reps,
            consecutive=consecutive,
            evidence=tuple((_decimal(m), _decimal(p)) for m, p in data.get("evidence", [])),
        )


@dataclass
class ScanResult:
    certificates: list[TripleCertificate]
    skipped_t: list[int]
    t_max: int
    sieved: int


def _decimal(text) -> int:
    """An integer from its wire form, a decimal string; int() rejects other strings."""
    if not isinstance(text, str):
        raise ValueError(f"expected a decimal string, got {text!r:.40}")
    return int(text)


def _canon_pair(x: int, y: int) -> tuple[int, int]:
    x, y = abs(x), abs(y)
    return (x, y) if x <= y else (y, x)


def check_hypotheses(q: FactoredInteger, a: int, h: int, k: int) -> HypothesisVerdict:
    """Verify the preconditions of the family construction, clause by clause.

    Requires: h, k >= 1 and h != k; even valuation at every prime 3 mod 4;
    valuation of 2 even and at least 2; a, a+h, a+k admissible mod q and not
    0 mod 2^(v2 - 1). Returns the first violated clause.
    """
    if h < 1 or k < 1:
        return HypothesisVerdict(False, "offsets_positive", f"h={h}, k={k}")
    if h == k:
        return HypothesisVerdict(False, "offsets_distinct", f"h = k = {h}")
    p = obstructing_prime(q)
    if p is not None:
        return HypothesisVerdict(False, "odd_prime_valuation", f"nu_{p} = {q.factors[p]} is odd")
    nu2 = q.exponent(2)
    if nu2 % 2 == 1 or nu2 < 2:
        return HypothesisVerdict(
            False, "two_adic_valuation", f"nu_2 = {nu2} (needs to be even and >= 2)"
        )
    qv = q.value
    for label, value in (("a", a), ("a+h", a + h), ("a+k", a + k)):
        if not is_admissible_value(value % qv, q):
            return HypothesisVerdict(False, f"admissible_{label}", f"{label} = {value % qv} mod {qv}")
    half = 1 << (nu2 - 1)
    for label, value in (("a", a), ("a+h", a + h), ("a+k", a + k)):
        if value % half == 0:
            return HypothesisVerdict(
                False, "two_adic_nonvanishing", f"{label} = 0 mod 2^{nu2 - 1}"
            )
    return HypothesisVerdict(True)


def _base_target(c: int, p: int, e: int) -> int:
    """Required exact valuation of gcd(x0, y0) at p for the base congruence."""
    if p % 4 == 1:
        return 0
    beta = class_exponent(c % p**e, p, e)
    return beta // 2


def _iter_uv_local(x0: int, y0: int, c: int, p: int, e: int, target: int):
    """(u, v) mod p^e with (x0+u)^2 + (y0+v)^2 = c, min valuation exactly `target`.

    Scans v ascending and resolves u by modular square roots, so output is
    lexicographic in (v, u). With x0 = y0 = 0 this enumerates the base
    congruence x^2 + y^2 = c.
    """
    mod = p**e
    c %= mod
    for v in range(min(mod, LOCAL_SCAN_CAP)):
        vv = class_exponent(v, p, e)
        if vv < target:
            continue
        yv = (y0 + v) % mod
        us = sqrt_mod_prime_power(c - yv * yv, p, e).expand()
        if x0:  # expand() is sorted; only a nonzero shift can reorder it
            us = sorted([(x - x0) % mod for x in us])
        for u in us:
            vu = class_exponent(u, p, e)
            if min(vu, vv) == target:
                yield u, v


def _iter_crt_pairs(q: FactoredInteger, local, missing: str):
    """Pairs mod q glued by CRT from per-prime local pairs, in product order.

    `local(p, e)` enumerates the local pairs at each p^e || q; the first
    LOCAL_CANDIDATES of each are used and at most COMBO_CAP combinations
    are glued. Raises SearchExhausted naming the first prime with none.

    The product is walked as an odometer whose last prime turns fastest, and
    a prime's next local pair is drawn only when the odometer first reaches
    it: the first combinations move only the last one or two primes, so the
    other enumerators stop after their first pair.
    """
    primes = q.primes()
    sources = [itertools.islice(local(p, q.factors[p]), LOCAL_CANDIDATES) for p in primes]
    drawn: list[list[tuple[int, int]]] = []
    for p, source in zip(primes, sources):
        first = next(source, None)
        if first is None:
            raise SearchExhausted(f"{missing} at prime power {p}^{q.factors[p]}")
        drawn.append([first])
    # Garner's mixed radix: each p^e with the product M of the moduli before
    # it and M^-1 mod p^e, shared by both coordinates of every combination.
    radix, prod = [], 1
    for p in primes:
        m = p ** q.factors[p]
        radix.append((m, prod, pow(prod % m, -1, m)))
        prod *= m
    index = [0] * len(primes)
    for _ in range(COMBO_CAP):
        x = y = 0
        for pairs, i, (m, prefix, inv) in zip(drawn, index, radix):
            r, s = pairs[i]
            x += prefix * ((r - x % m) * inv % m)
            y += prefix * ((s - y % m) * inv % m)
        yield x, y
        j = len(primes) - 1
        while j >= 0:
            index[j] += 1
            if index[j] == len(drawn[j]):
                pair = next(sources[j], None)
                if pair is not None:
                    drawn[j].append(pair)
            if index[j] < len(drawn[j]):
                break
            index[j] = 0
            j -= 1
        else:  # every prime wrapped round: the product is exhausted
            return


def iter_base_solutions(a: int, q: FactoredInteger):
    """Base solutions in deterministic order (per-prime (y, x)-lex, CRT-combined)."""
    qv = q.value
    a %= qv
    if qv == 1:
        yield BaseSolution(0, 0, ResidueClass(0, 1), q)
        return
    pairs = _iter_crt_pairs(
        q,
        lambda p, e: _iter_uv_local(0, 0, a, p, e, _base_target(a, p, e)),
        f"no base solution for a={a}",
    )
    for x0, y0 in pairs:
        if x0 == 0 and y0 == 0:
            continue
        yield BaseSolution(x0, y0, ResidueClass(a, qv), q)


def solve_base(a: int, q: FactoredInteger) -> BaseSolution:
    """First base solution in canonical order.

    Raises SearchExhausted when the bounded scan finds nothing (a budget
    signal, not a mathematical failure when a is admissible).
    """
    if not is_admissible_value(a % q.value, q):
        raise HypothesisViolation(f"{a} mod {q.value} is not admissible")
    for base in iter_base_solutions(a, q):
        return base
    raise SearchExhausted(f"base search exhausted for a={a} mod {q.value}")


def _shift_target(a: int, h: int, p: int, e: int) -> int:
    """Required exact valuation of gcd(u, v) at p."""
    if p % 4 == 1:
        return 0
    mod = p**e
    beta = class_exponent(a % mod, p, e)
    if p == 2:
        gamma = class_exponent((a + h) % mod, p, e)
        if gamma < beta:
            return gamma // 2
        if gamma > beta:
            return beta // 2
        return beta // 2 if beta % 2 == 0 else (beta + 1) // 2
    alpha = min(valuation(h, p), e)
    return min(alpha, beta) // 2


def _q_smooth_part(n: int, primes: list[int]) -> int:
    s = 1
    for p in primes:
        while n % p == 0:
            n //= p
            s *= p
    return s


def _strip_stray_primes(u: int, v: int, qv: int, primes: list[int]) -> tuple[int, int] | None:
    """Adjust u by multiples of q until gcd(u, v) has no factor outside q.

    If p divides both u and v but not q, then u + q is not divisible by p,
    so one bump clears every current stray at once; iteration handles strays
    introduced by the bump itself.
    """
    for _ in range(64):
        g = math.gcd(u, v)
        if g == 0:
            return None
        if g // _q_smooth_part(g, primes) == 1:
            return u, v
        if v == 0:
            return None
        u += qv
    return None


def _gcd_bound(q: FactoredInteger) -> int:
    """The divisor of q that gcd(u, v) must divide: 2^(v2/2 - 1) * prod p^(vp/2)."""
    nu2 = q.exponent(2)
    bound = 1 << max(nu2 // 2 - 1, 0)
    for p, e in q.factors.items():
        if p % 4 == 3:
            bound *= p ** (e // 2)
    return bound


def _two_adic_feasible(x0: int, y0: int, h: int, e: int, gamma: int, u: int, v: int) -> bool:
    """Whether the shift pair (u, v) mod 2^e can give a family at 2.

    gamma is the exact v_2 of gcd(u, v) and e = v_2(q). With g = gcd(u, v),
    B = 0 mod q needs x0 (v/g) - y0 (u/g) = 0 mod 2^gamma. When gamma = 1 and
    x0, y0 are not both even, that forces x0 r0 + y0 s0 = R mod 2, so
    C = a mod q also needs R, the right-hand side of `build_family`'s linear
    equation, even. Both tests read u and v mod 2^e only (2 gamma <= e), so
    adding multiples of q to u or v leaves them unchanged; when 2 gamma > e
    the pair is kept.
    """
    if gamma == 0 or 2 * gamma > e:
        return True
    mask = (1 << gamma) - 1
    if (x0 * (v >> gamma) - y0 * (u >> gamma)) & mask:
        return False
    if gamma == 1 and (x0 | y0) & 1:
        return not ((h - u * u - v * v - 2 * (u * x0 + v * y0)) >> e) & 1
    return True


def iter_shift_pairs(base: BaseSolution, h: int):
    """Locally valid shift pairs in deterministic order.

    Yields integer pairs satisfying the congruence to a+h and both gcd
    divisibility constraints, skipping local pairs at 2 that
    `_two_adic_feasible` rules out; the remaining global family conditions
    are checked by the caller on assembly.
    """
    q = base.q
    qv = q.value
    a = base.a.value
    target_cls = (a + h) % qv
    if not is_admissible_value(target_cls, q):
        raise HypothesisViolation(f"a+h = {target_cls} mod {qv} is not admissible")
    primes = q.primes()

    def local(p: int, e: int):
        target = _shift_target(a, h, p, e)
        found = _iter_uv_local(base.x0, base.y0, a + h, p, e, target)
        if p != 2:
            return found
        return (uv for uv in found if _two_adic_feasible(base.x0, base.y0, h, e, target, *uv))

    pairs = _iter_crt_pairs(q, local, f"no shift solution for h={h}")
    gbound = _gcd_bound(q)
    g0_twice = 2 * math.gcd(base.x0, base.y0)
    for u0, v0 in pairs:
        for du, dv in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
            u, v = u0 + du * qv, v0 + dv * qv
            if u == 0 and v == 0:
                continue
            stripped = _strip_stray_primes(u, v, qv, primes)
            if stripped is None:
                continue
            u, v = stripped
            g = math.gcd(u, v)
            if gbound % g != 0 or g0_twice % g != 0:
                continue
            if ((base.x0 + u) ** 2 + (base.y0 + v) ** 2 - a - h) % qv != 0:
                continue
            yield ShiftPair(u, v, g, h)


def construct_shift(base: BaseSolution, h: int) -> ShiftPair:
    """First locally valid shift pair in canonical order."""
    for pair in iter_shift_pairs(base, h):
        return pair
    raise SearchExhausted(f"shift search exhausted for h={h}")


def build_family(base: BaseSolution, shift: ShiftPair, k: int) -> WitnessFamily:
    """Assemble and fully verify the quadratic family for offsets (h, k).

    Solves (u/g) r0 + (v/g) s0 = (h - u^2 - v^2 - 2(u x0 + v y0)) / q exactly
    and expands the coefficients. Raises InternalInconsistency when the
    right-hand side is not an integer or any family invariant fails.
    """
    q = base.q.value
    u, v, g, h = shift.u, shift.v, shift.gcd_uv, shift.h
    if g == 0 or q % (2 * g) != 0:
        raise InternalInconsistency("2 gcd(u, v) does not divide q")
    T = q // (2 * g)
    rhs_num = h - u * u - v * v - 2 * (u * base.x0 + v * base.y0)
    if rhs_num % q != 0:
        raise InternalInconsistency("linear equation right-hand side is not integral")
    R = rhs_num // q
    ub, vb = u // g, v // g
    d, sx, sy = ext_gcd(ub, vb)
    if d != 1:
        raise InternalInconsistency("u/g and v/g are not coprime")
    r0, s0 = sx * R, sy * R
    X0 = base.x0 + T * r0
    Y0 = base.y0 + T * s0
    A = T * T * (ub * ub + vb * vb)
    B = 2 * T * (X0 * vb - Y0 * ub)
    C = X0 * X0 + Y0 * Y0
    family = WitnessFamily(
        q=base.q, a=base.a.value, h=h, k=k,
        x0=base.x0, y0=base.y0, u=u, v=v,
        T=T, r0=r0, s0=s0, A=A, B=B, C=C,
    )
    family.verify()
    return family


def build_witness_family(q: FactoredInteger, a: int, h: int, k: int) -> WitnessFamily:
    """End-to-end construction: hypotheses, base, shift, verified family.

    Candidate (base, shift) pairs over the first BASE_CAP bases are tried in
    canonical order until one assembles into a family passing full
    verification. `iter_shift_pairs` has already dropped the shift pairs that
    fail at 2 whatever the other primes give; verification rules out the
    rest. A base left with no shift pair at some prime is passed over.
    """
    verdict = check_hypotheses(q, a, h, k)
    if not verdict.ok:
        raise HypothesisViolation(f"{verdict.failed_clause}: {verdict.detail}")
    for base in itertools.islice(iter_base_solutions(a, q), BASE_CAP):
        try:
            for shift in iter_shift_pairs(base, h):
                try:
                    return build_family(base, shift, k)
                except InternalInconsistency:
                    continue
        except SearchExhausted:
            continue
    raise SearchExhausted(f"no verified family for (q, a, h, k) = ({q.value}, {a}, {h}, {k})")


def _roots_mod_p(A: int, B: int, C: int, p: int) -> list[int] | None:
    """Sorted roots of A t^2 + B t + C mod a prime p, or None when it
    vanishes at every t mod p. For p = 2 the roots are read off the values
    at t = 0 and t = 1; for odd p, None means every coefficient is 0 mod p."""
    if p == 2:
        roots = [t for t, value in ((0, C), (1, A + B + C)) if value % 2 == 0]
        return None if len(roots) == 2 else roots
    a, b, c = A % p, B % p, C % p
    if a == 0:
        if b == 0:
            return None if c == 0 else []
        return [-c * pow(b, -1, p) % p]
    s = sqrt_mod_prime(b * b - 4 * a * c, p)
    if s is None:
        return []
    inv = pow(2 * a, -1, p)
    return sorted({(-b + s) * inv % p, (-b - s) * inv % p})


def _odd_valuation_classes(
    A: int, B: int, C: int, p: int, roots: list[int] | None, valuations: tuple[int, ...] = (1, 3)
) -> list[tuple[int, int, int]]:
    """Progressions (r, m, sign), t = r mod m, whose signed indicators sum to 1
    where v_p(F(t)) is one of `valuations`, for F(t) = A t^2 + B t + C and an
    odd prime p, and to 0 elsewhere. `roots` is `_roots_mod_p(A, B, C, p)`.

    The default is the odd valuations 1 and 3: a simple root r mod p lifts
    by Newton steps to one class mod p^2, p^3 and p^4 each, with signs +1
    mod p, -1 mod p^2, +1 mod p^3 and -1 mod p^4. The recursion covers every
    other shape too: F is divided by the p-power of its content, and t = r +
    p x at each root r mod p substitutes a polynomial in x whose content is
    at least p. At every t, the running sum over the list in order stays 0
    or 1.
    """
    if not valuations:
        return []
    top = p ** (max(valuations) + 1)  # F mod top decides every valuation asked for
    A, B, C = A % top, B % top, C % top
    if A == B == C == 0:
        return []
    if roots is None:  # every coefficient is 0 mod p
        A, B, C, valuations = A // p, B // p, C // p, tuple(v - 1 for v in valuations if v)
        return _odd_valuation_classes(A, B, C, p, _roots_mod_p(A, B, C, p), valuations)
    classes = [(0, 1, 1)] + [(r, p, -1) for r in roots] if 0 in valuations else []
    for r in roots:
        slope = (2 * A * r + B) % p
        if slope:
            # a simple root: v_p(F(t)) >= j on just the Newton lift of r mod p^j
            inv, x, pk, lifts = pow(slope, -1, p), r, p, []
            for _ in range(max(valuations) + 1):
                lifts.append((x, pk))
                x += pk * (-((A * x + B) * x + C) // pk * inv % p)
                pk *= p
            for j in valuations:
                if j:
                    classes += [(*lifts[j - 1], 1), (*lifts[j], -1)]
            continue
        # F(r + p x) = A p^2 x^2 + (2 A r + B) p x + F(r), every coefficient 0 mod p
        lifted = _odd_valuation_classes(
            A * p * p, (2 * A * r + B) * p, (A * r + B) * r + C, p, None, valuations
        )
        classes += [(r + p * s, p * m, sign) for s, m, sign in lifted]
    return classes


def _word_primes(word: int) -> list[int]:
    """The trial primes whose bits are set in a divisor word, ascending."""
    primes = []
    while word:
        low = word & -word
        primes.append(_TRIAL_PRIMES[low.bit_length() - 1])
        word ^= low
    return primes


def _sieved_t(family: WitnessFamily, budget: FactorBudget, t_max: int):
    """(t, trial primes dividing F(t)) for the t in [0, t_max] that no strike
    class strikes, ascending. F's roots mod each trial prime up to
    max(trial_bound, 2) are found once and also seed the strike classes of
    the primes 3 mod 4. Each block of SIEVE_BLOCK values of t then fills the
    strike count and the divisor words in one pass over the primes."""
    A, B, C = family.A, family.B, family.C + family.k
    sieve = []  # (p, its divisor-word bit, the t mod p where p | F(t), strike classes)
    for i, p in enumerate(_TRIAL_PRIMES):
        if p > max(budget.trial_bound, 2):
            break
        roots = _roots_mod_p(A, B, C, p)
        classes = _odd_valuation_classes(A, B, C, p, roots) if p % 4 == 3 else []
        sieve.append((p, np.uint64(1 << i), range(p) if roots is None else roots, classes))
    for lo in range(0, t_max + 1, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, t_max + 1)
        # each prime's running sum stays 0 or 1: int8 holds the 34 primes 3 mod 4
        count = np.zeros(hi - lo, dtype=np.int8)
        words = np.zeros(hi - lo, dtype=np.uint64)
        for p, bit, roots, classes in sieve:
            for r in roots:
                words[(r - lo) % p :: p] |= bit
            for r, m, sign in classes:
                start = (r - lo) % m
                if start < hi - lo:  # most classes mod p^3 and p^4 miss a block
                    count[start::m] += sign
        kept = np.flatnonzero(count <= 0)
        yield from zip((lo + kept).tolist(), map(_word_primes, words[kept].tolist()))


def check_local_obstructions(family: WitnessFamily) -> None:
    """Raise ObstructionFound when F(t) has a local obstruction to being a
    sum of two squares.

    At each prime power p^e || q with p = 3 mod 4 the values sit in the class
    k + a, which must be admissible. At powers of 2 the only obstruction shape
    is F(t) constantly 3 * 2^(alpha-2) mod 2^alpha; powers up to 2^(v2+2) are
    checked exhaustively. At the small primes p = 3 mod 4 that do not divide
    q, F must not be p times a polynomial with no root mod p, which would put
    p exactly once into every F(t).
    """
    q = family.q
    value = family.a + family.k
    coeffs = (family.A, family.B, family.C + family.k)
    obstructed = any(
        admissibility_reason(value % p**e, {p: e}) is not None
        for p, e in q.factors.items()
        if p % 4 == 3
    ) or any(
        all(family.F(t) % (1 << alpha) == 3 << (alpha - 2) for t in range(1 << alpha))
        for alpha in range(2, q.exponent(2) + 3)
    ) or any(
        _roots_mod_p(*coeffs, p) is None and _roots_mod_p(*(c // p for c in coeffs), p) == []
        for p in (3, 7, 11, 19, 23, 31, 43, 47)
        if q.value % p
    )
    if obstructed:
        raise ObstructionFound(f"local obstruction for family {family}")


def scan_family(
    family: WitnessFamily,
    t_max: int,
    budget: FactorBudget = DEFAULT_BUDGET,
    stop_after: int | None = None,
) -> ScanResult:
    """Scan t = 0..t_max and certify every t with F(t) a sum of two squares.

    Blocks of SIEVE_BLOCK values of t are first sieved: a t at which a trial
    prime p = 3 mod 4 (p <= trial_bound) divides F(t) to the power 1 or 3
    gives no certificate, is counted in `sieved` and is never factored. The
    same roots of F mod each trial prime tell which trial primes divide
    each F(t) left, and `factorize` divides by those only. skipped_t lists
    the t the budget left undecided: factoring F(t) exceeded it. With
    stop_after set, the scan ends early once that many certificates have
    been collected.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    certs: list[TripleCertificate] = []
    skipped: list[int] = []
    tested, end = 0, t_max + 1
    for t, divisors in _sieved_t(family, budget, t_max):
        tested += 1
        value = family.F(t)
        try:
            fact = factorize(value, budget, divisors)
        except BudgetExceeded:
            skipped.append(t)
            continue
        if not is_sum_two_squares(fact):
            continue
        rep_k = represent_two_squares(fact)
        if rep_k is None:
            raise InternalInconsistency(f"F({t}) is a sum of two squares with no representation")
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
            end = t + 1
            break
    return ScanResult(certs, skipped, t_max, sieved=end - tested)
