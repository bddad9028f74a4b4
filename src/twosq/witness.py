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
from dataclasses import dataclass, field

from .admissibility import admissibility_reason, class_exponent, is_admissible_value
from .arith import (
    _TRIAL_PRIMES,
    _canon_pair,
    DEFAULT_BUDGET,
    FactorBudget,
    FactoredInteger,
    ResidueClass,
    crt_combine,  # no longer called here, but perfbench/tracing.py wraps witness.crt_combine
    ext_gcd,
    factorize,
    obstructing_prime,
    represent_two_squares,
    sqrt_mod_prime_power,
    sqrt_unit_odd,
    valuation,
)
from .certificate import TripleCertificate
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


def _brief(n: int) -> str:
    """n in decimal, or named by its bit length above 256 bits: a blocking
    modulus can run past the int-to-str digit limit, and no reader wants its
    digits in a message."""
    return str(n) if n.bit_length() <= 256 else f"a {n.bit_length()}-bit number"


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
    h: int

    @property
    def gcd_uv(self) -> int:
        return math.gcd(self.u, self.v)


@dataclass(frozen=True)
class WitnessFamily:
    """The family n(t) = x_of(t)^2 + y_of(t)^2, stored as its choices: the
    base point (x0, y0), the shift (u, v) and (r0, s0), for offsets h, k.
    T = q / 2g with g = gcd(u, v), and A, B, C are derived once, on
    construction, and cannot be set: with (X0, Y0) = (x_of(0), y_of(0)),
    dx = T v/g and dy = T u/g, n(t) = (X0 + dx t)^2 + (Y0 - dy t)^2, so
    A = dx^2 + dy^2, B = 2(X0 dx - Y0 dy) and C = X0^2 + Y0^2."""

    q: FactoredInteger
    a: int
    h: int
    k: int
    x0: int
    y0: int
    u: int
    v: int
    T: int = field(init=False)
    r0: int
    s0: int
    A: int = field(init=False)
    B: int = field(init=False)
    C: int = field(init=False)

    def __post_init__(self):
        g = self.g
        if g == 0 or self.q.value % (2 * g) != 0:
            raise InternalInconsistency("2 gcd(u, v) does not divide q")
        T = self.q.value // (2 * g)
        X0, Y0 = self.x0 + T * self.r0, self.y0 + T * self.s0
        dx, dy = T * (self.v // g), T * (self.u // g)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "A", dx * dx + dy * dy)
        object.__setattr__(self, "B", 2 * (X0 * dx - Y0 * dy))
        object.__setattr__(self, "C", X0 * X0 + Y0 * Y0)

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
        """Check the conditions the certificates rest on, exactly; raises on
        failure: q | T^2, and A = B = 0 and C = a mod q, so n(t) = a mod q;
        h = 2(X0 u + Y0 v) + u^2 + v^2, so n(t) + h = (x(t) + u)^2 +
        (y(t) + v)^2 at every t, the t terms cancelling; and k >= 1. As
        Lagrange's identity gives B^2 - 4AC = -eta^2 and A > 0, the
        discriminant B^2 - 4A(C + k) is then negative.
        """
        q, u, v = self.q.value, self.u, self.v
        if (self.T * self.T) % q != 0:
            raise InternalInconsistency("q does not divide T^2")
        if self.A % q != 0 or self.B % q != 0 or self.C % q != self.a % q:
            raise InternalInconsistency("F(t) - k is not constantly a mod q")
        if 2 * (self.x_of(0) * u + self.y_of(0) * v) + u * u + v * v != self.h:
            raise InternalInconsistency("n(t)+h identity fails")
        if self.k < 1:
            raise InternalInconsistency("k is not positive")


@dataclass
class ScanResult:
    certificates: list[TripleCertificate]
    skipped_t: list[int]
    t_max: int
    sieved: int


def check_hypotheses(q: FactoredInteger, a: int, h: int, k: int) -> HypothesisVerdict:
    """Verify the preconditions of the family construction, clause by clause.

    Requires: h, k >= 1 and h != k; even valuation at every prime 3 mod 4;
    valuation of 2 even and at least 2; a, a+h, a+k admissible mod q and not
    0 mod 2^(v2 - 1). Returns the first violated clause.
    """
    if h < 1 or k < 1:
        return HypothesisVerdict(False, "offsets_positive", f"h={_brief(h)}, k={_brief(k)}")
    if h == k:
        return HypothesisVerdict(False, "offsets_distinct", f"h = k = {_brief(h)}")
    p = obstructing_prime(q)
    if p is not None:
        return HypothesisVerdict(False, "odd_prime_valuation", f"nu_{_brief(p)} = {q.factors[p]} is odd")
    nu2 = q.exponent(2)
    if nu2 % 2 == 1 or nu2 < 2:
        return HypothesisVerdict(
            False, "two_adic_valuation", f"nu_2 = {nu2} (needs to be even and >= 2)"
        )
    qv = q.value
    for label, value in (("a", a), ("a+h", a + h), ("a+k", a + k)):
        if not is_admissible_value(value % qv, q):
            return HypothesisVerdict(
                False, f"admissible_{label}", f"{label} = {_brief(value % qv)} mod {_brief(qv)}"
            )
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

    At an odd p with target 0, a unit w = c - (y0+v)^2 has exactly the two
    unit roots of `sqrt_unit_odd`, and min(v_p(u), v_p(v)) = 0 just means
    p does not divide both u and v.
    """
    mod = p**e
    x0, y0, c = x0 % mod, y0 % mod, c % mod
    odd_unit_path = p != 2 and target == 0
    for v in range(min(mod, LOCAL_SCAN_CAP)):
        yv = y0 + v
        w = (c - yv * yv) % mod
        if odd_unit_path and w % p:
            roots = sqrt_unit_odd(w, p, e)
            if not roots:
                continue
            u1, u2 = (roots[0] - x0) % mod, (roots[1] - x0) % mod
            for u in (u1, u2) if u1 < u2 else (u2, u1):
                if v % p or u % p:
                    yield u, v
            continue
        vv = class_exponent(v, p, e)
        if vv < target:
            continue
        us = sqrt_mod_prime_power(w, p, e)
        if x0:  # the roots are sorted; only a nonzero shift can reorder them
            us = sorted([(x - x0) % mod for x in us])
        for u in us:
            vu = class_exponent(u, p, e)
            if min(vu, vv) == target:
                yield u, v


def _iter_crt_pairs(q: FactoredInteger, local, missing: str, value: int):
    """Pairs mod q glued by CRT from per-prime local pairs, in product order.

    `local(p, e)` enumerates the local pairs at each p^e || q; the first
    LOCAL_CANDIDATES of each are used and at most COMBO_CAP combinations
    are glued. Raises SearchExhausted naming the first prime with none, as
    "{missing}={value}", the value formatted only then.

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
            raise SearchExhausted(f"{missing}={_brief(value)} at prime power {p}^{q.factors[p]}")
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

    def local(p: int, e: int):
        c = a % p**e  # one big reduction serves the target and the enumerator
        return _iter_uv_local(0, 0, c, p, e, _base_target(c, p, e))

    pairs = _iter_crt_pairs(q, local, "no base solution for a", a)
    for x0, y0 in pairs:
        if x0 == 0 and y0 == 0:
            continue
        yield BaseSolution(x0, y0, ResidueClass(a, qv), q)


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


def _strip_stray_primes(u: int, v: int, qv: int) -> tuple[int, int] | None:
    """Adjust u by multiples of q until gcd(u, v) has no factor outside q.

    If p divides both u and v but not q, then u + q is not divisible by p,
    so one bump clears every current stray at once; iteration handles strays
    introduced by the bump itself. No prime's exponent in g reaches
    g.bit_length(), so g divides q^g.bit_length() just when it has no stray.
    """
    for _ in range(64):
        g = math.gcd(u, v)
        if g == 0:
            return None
        if pow(qv, g.bit_length(), g) == 0:  # every prime of g divides q
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

    Yields integer pairs satisfying the congruence to a+h (each local pair
    does mod its p^e, and the CRT glue keeps it mod q) and both gcd
    divisibility constraints, skipping local pairs at 2 that
    `_two_adic_feasible` rules out; the remaining global family conditions
    are checked by the caller on assembly.
    """
    q = base.q
    qv = q.value
    a = base.a.value
    target_cls = (a + h) % qv
    if not is_admissible_value(target_cls, q):
        raise HypothesisViolation(f"a+h = {_brief(target_cls)} mod {_brief(qv)} is not admissible")

    def local(p: int, e: int):
        c = a % p**e  # one big reduction serves the target and the enumerator
        target = _shift_target(c, h, p, e)
        found = _iter_uv_local(base.x0, base.y0, c + h, p, e, target)
        if p != 2:
            return found
        return (uv for uv in found if _two_adic_feasible(base.x0, base.y0, h, e, target, *uv))

    pairs = _iter_crt_pairs(q, local, "no shift solution for h", h)
    gbound = _gcd_bound(q)
    g0_twice = 2 * math.gcd(base.x0, base.y0)
    for u0, v0 in pairs:
        for du, dv in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
            u, v = u0 + du * qv, v0 + dv * qv
            if u == 0 and v == 0:
                continue
            stripped = _strip_stray_primes(u, v, qv)
            if stripped is None:
                continue
            u, v = stripped
            g = math.gcd(u, v)
            if gbound % g != 0 or g0_twice % g != 0:
                continue
            yield ShiftPair(u, v, h)


def build_family(base: BaseSolution, shift: ShiftPair, k: int) -> WitnessFamily:
    """Assemble and fully verify the quadratic family for offsets (h, k).

    Solves (u/g) r0 + (v/g) s0 = (h - u^2 - v^2 - 2(u x0 + v y0)) / q
    exactly. Raises InternalInconsistency when 2g does not divide q, the
    right-hand side is not an integer or `WitnessFamily.verify` fails.
    """
    q = base.q.value
    u, v, h = shift.u, shift.v, shift.h
    rhs_num = h - u * u - v * v - 2 * (u * base.x0 + v * base.y0)
    if rhs_num % q != 0:
        raise InternalInconsistency("linear equation right-hand side is not integral")
    R = rhs_num // q
    # (u/g) sx + (v/g) sy = 1: scaling by g leaves Euclid's quotients alone
    _, sx, sy = ext_gcd(u, v)
    family = WitnessFamily(
        q=base.q, a=base.a.value, h=h, k=k,
        x0=base.x0, y0=base.y0, u=u, v=v, r0=sx * R, s0=sy * R,
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
    raise SearchExhausted(
        f"no verified family for (q, a, h, k) = ({', '.join(map(_brief, (q.value, a, h, k)))})"
    )


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
    d = (b * b - 4 * a * c) % p
    inv = pow(2 * a, -1, p)
    if d == 0:
        return [-b * inv % p]
    return sorted([(s - b) * inv % p for s in sqrt_unit_odd(d, p, 1)])


def _odd_valuation_classes(
    A: int, B: int, C: int, p: int, roots: list[int] | None, valuations: tuple[int, ...] = (1, 3)
) -> list[tuple[int, int]]:
    """Progressions (r, m), t = r mod m, such that a t lies in an odd number
    of them just where v_p(F(t)) is one of `valuations`, for F(t) = A t^2 +
    B t + C and an odd prime p. `roots` is `_roots_mod_p(A, B, C, p)`.

    The default is the odd valuations 1 and 3: a simple root r mod p lifts
    by Newton steps to one class mod p^2, p^3 and p^4 each, and a t lies in
    the classes of r mod p^j for the j <= v_p(F(t)), an odd number of them
    just when v_p(F(t)) is 1 or 3. Each valuation j asked for adds the
    nested pair mod p^j and p^(j+1), which holds t just when v_p(F(t)) = j.
    The recursion covers every other shape too: F is divided by the p-power
    of its content, and t = r + p x at each root r mod p substitutes a
    polynomial in x whose content is at least p.
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
    classes = [(0, 1)] + [(r, p) for r in roots] if 0 in valuations else []
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
                    classes += [lifts[j - 1], lifts[j]]
            continue
        # F(r + p x) = A p^2 x^2 + (2 A r + B) p x + F(r), every coefficient 0 mod p
        lifted = _odd_valuation_classes(
            A * p * p, (2 * A * r + B) * p, (A * r + B) * r + C, p, None, valuations
        )
        classes += [(r + p * s, p * m) for s, m in lifted]
    return classes


def _sieved_t(A: int, B: int, C: int, budget: FactorBudget, t_max: int):
    """(t, trial primes dividing F(t)) for the t in [0, t_max] that no prime
    p = 3 mod 4 strikes, ascending, for F(t) = A t^2 + B t + C. F's roots mod
    each trial prime up to max(trial_bound, 2) are found once and also seed
    the strike classes of the primes 3 mod 4.

    Each block of SIEVE_BLOCK values of t is a Python int with bit i for
    t = lo + i. A class t = r mod m is a comb of bits m apart, built once a
    scan per modulus and shifted to the class's first t in the block. A
    prime strikes the XOR of its classes' combs, which holds t just where
    v_p(F(t)) is 1 or 3 (`_odd_valuation_classes`), so no count of strikes
    can overflow, and the kept t are the bits no prime strikes. Written out
    as a string, the kept bits give each root r mod p its kept t as every
    p-th character from r on, and p is appended to the list of each.
    """
    width = min(SIEVE_BLOCK, t_max + 1)
    combs: dict[int, int] = {}

    def comb(m: int) -> int:
        """Bits 0, m, 2m, ..., at least as many as a block of width t needs,
        by doubling: a shift and an OR double the number of teeth."""
        if m not in combs:
            teeth, reach = 1, m
            while reach < width:
                teeth |= teeth << reach
                reach *= 2
            combs[m] = teeth
        return combs[m]

    # per trial prime, (p, its classes t = r mod p where p | F(t), or t = 0 mod 1 when
    # p divides every F(t)); per prime 3 mod 4, its strike classes
    divisors, strikes = [], []
    for p in _TRIAL_PRIMES:
        if p > max(budget.trial_bound, 2):
            break
        roots = _roots_mod_p(A, B, C, p)
        divisors.append((p, [(0, 1)] if roots is None else [(r, p) for r in roots]))
        if p % 4 == 3:
            strikes.append(_odd_valuation_classes(A, B, C, p, roots))
    for lo in range(0, t_max + 1, width):
        span = min(width, t_max + 1 - lo)
        struck = 0
        for classes in strikes:
            odd = 0
            for r, m in classes:
                start = (r - lo) % m
                if start < span:  # most classes mod p^3 and p^4 miss a block
                    odd ^= comb(m) << start
            struck |= odd
        bits = format(~struck & ((1 << span) - 1), "b")[::-1]  # character i is t = lo + i
        kept: dict[int, list[int]] = {}  # i -> the trial primes dividing F(lo + i)
        i = bits.find("1")
        while i >= 0:
            kept[i] = []
            i = bits.find("1", i + 1)
        for p, classes in divisors:
            for r, m in classes:
                start = (r - lo) % m
                hits = bits[start::m]
                j = hits.find("1")
                while j >= 0:
                    kept[start + j * m].append(p)
                    j = hits.find("1", j + 1)
        yield from zip([lo + i for i in kept], kept.values())


def check_local_obstructions(family: WitnessFamily) -> None:
    """Raise ObstructionFound when F(t) has a local obstruction to being a
    sum of two squares.

    At each prime power p^e || q with p = 3 mod 4 the values sit in the class
    k + a, which must be admissible. At powers of 2 the only obstruction shape
    is F(t) constantly 3 * 2^(alpha-2) mod 2^alpha; powers up to 2^(v2+2) are
    checked exhaustively. At the primes p = 3 mod 4 up to 47 not dividing q,
    F must not be p times a polynomial with no root mod p, which would put p
    exactly once into every F(t).
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
        for p in _TRIAL_PRIMES
        if p <= 47 and p % 4 == 3 and q.value % p
    )
    if obstructed:
        raise ObstructionFound(
            "local obstruction for the family with (q, a, h, k) = "
            f"({', '.join(map(_brief, (q.value, family.a, family.h, family.k)))})"
        )


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
    A, B, Ck = family.A, family.B, family.C + family.k
    q, a, h, k, u, v, g = family.q.value, family.a, family.h, family.k, family.u, family.v, family.g
    # x(t) = X0 + dx t and y(t) = Y0 - dy t, as `x_of` and `y_of` give them
    X0, Y0 = family.x_of(0), family.y_of(0)
    dx, dy = family.T * (v // g), family.T * (u // g)
    for t, divisors in _sieved_t(A, B, Ck, budget, t_max):
        tested += 1
        value = (A * t + B) * t + Ck
        try:
            fact = factorize(value, budget, divisors)
        except BudgetExceeded:
            skipped.append(t)
            continue
        rep_k = represent_two_squares(fact)
        if rep_k is None:  # F(t) is not a sum of two squares
            continue
        x, y = X0 + dx * t, Y0 - dy * t
        certs.append(
            TripleCertificate(
                n=value - k, q=q, a=a, h=h, k=k, t=t,
                reps=(_canon_pair(x, y), _canon_pair(x + u, y + v), rep_k),
            )
        )
        if stop_after is not None and len(certs) >= stop_after:
            end = t + 1
            break
    return ScanResult(certs, skipped, t_max, sieved=end - tested)
