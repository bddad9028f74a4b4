"""CRT blocking constructions that force consecutiveness, plus the
two-class tuple scaffolding (bin plans and greedy offset selection).

A blocking system for a target pattern [a, b, c] mod q lifts the classes to
a modulus 4q^2, fixes offsets h < k realizing the pattern, and attaches one
prime p_i = 3 mod 4 to every intermediate offset i so that a_T + i is
divisible by p_i exactly once modulo p_i^2. Any n = a_T mod T_blk with
n, n+h, n+k all sums of two squares then gives three *consecutive* sums of
two squares in the pattern. Witnesses inside the progression are
astronomically large, so the desk-scale companion locates actual triples by
census scan instead; the blocking system itself is verified structurally
with exact arithmetic (its factorization is known by construction, nothing
is ever factored).
"""

from __future__ import annotations

import math
import types
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .admissibility import admissibility_reason, is_admissible_value, lift_admissible
from .arith import (
    FactoredInteger,
    ResidueClass,
    crt_combine,
    factorize,
    is_prime,  # not called here; perfbench/tracing.py wraps forcing.is_prime
    obstructing_prime,
    primes_3_mod_4,
    represent_two_squares,
    small_primes,
)
from .census import Occurrence, PatternSpec, match_pattern
from .certificate import TripleCertificate
from .errors import (
    DomainError,
    HypothesisViolation,
    InternalInconsistency,
    NoneFoundWithinBudget,
    SearchExhausted,
)
from .witness import check_hypotheses

DELTA_COEFF_NUM = math.sqrt(2.0) * (math.pi + 2.0)
DELTA_COEFF_DEN = 32.0 * math.pi

# Largest offset `construct_two_class_tuple` tries, and the census triples
# `end_to_end_triple` certifies.
OFFSET_CAP = 10_000_000
MAX_CERTIFICATES = 3


def delta_constant(theta1: float, theta2: float) -> float:
    """The bin-size constant sqrt(2)(pi+2)/(32 pi) * (1+theta1)/sqrt(theta1 theta2).

    Domain: theta1, theta2 > 0 with theta1 + theta2 < 1/18 (strict).
    """
    if not (theta1 > 0 and theta2 > 0 and theta1 + theta2 < 1.0 / 18.0):
        raise DomainError(f"need 0 < theta1 + theta2 < 1/18, got {theta1}, {theta2}")
    return DELTA_COEFF_NUM / DELTA_COEFF_DEN * (1.0 + theta1) / math.sqrt(theta1 * theta2)


def bin_plan(M: int, theta1: float, theta2: float) -> list[int]:
    """Minimal bin sizes: first at least 2*Delta^3, then strictly above 2^(7i)."""
    if M < 1:
        raise DomainError(f"M must be >= 1, got {M}")
    delta = delta_constant(theta1, theta2)
    sizes = [math.ceil(2.0 * delta**3)]
    for i in range(2, M + 1):
        sizes.append(2 ** (7 * i) + 1)
    return sizes


@dataclass
class TupleDesign:
    """Offsets h_1 < ... < h_k realizing a constant-then-constant class pattern."""

    q: int
    a: int
    b: int
    j: int
    bins: list[int]
    offsets: list[int]

    @property
    def M(self) -> int:
        return len(self.bins)

    @property
    def transition_index(self) -> int:
        """Offsets up to (not including) this index are in class a, the rest in b."""
        return sum(self.bins[: self.j])

    def form_admissibility_witnesses(self) -> dict[int, int]:
        """For each prime p up to the tuple length, the least n mod p avoiding
        every root of prod (q n + h_i): the least n with -q n mod p taken by
        no offset. Raises when some prime has no such n."""
        offsets = np.array(self.offsets, dtype=np.int64)
        witnesses: dict[int, int] = {}
        for p in small_primes(len(self.offsets)):
            taken = np.bincount(offsets % p, minlength=p).astype(bool)
            free = ~taken[-(self.q % p) * np.arange(p) % p]  # free[n]: -q n mod p untaken
            n = int(np.argmax(free))
            if not free[n]:
                raise InternalInconsistency(f"no admissible residue mod {p}")
            witnesses[p] = n
        return witnesses


def _require_admissible(q: FactoredInteger, **classes: int) -> None:
    """Raise HypothesisViolation naming the first class not admissible mod q."""
    for label, cls in classes.items():
        if not is_admissible_value(cls % q.value, q):
            raise HypothesisViolation(f"class {label} = {cls} is not admissible mod {q.value}")


def construct_two_class_tuple(
    q: FactoredInteger,
    a: int,
    b: int,
    j: int,
    sizes: list[int],
) -> TupleDesign:
    """Greedy ascending offsets: h_i = 1 mod 4, h_i in class a for the first j
    bins and class b afterwards, keeping the forms {q n + h_i} admissible.

    For a prime p <= k not dividing q the forms vanish at n = -h q^-1 mod p,
    a bijection of h mod p, so the forms stay admissible mod p while the
    offsets leave some residue mod p free. A candidate is rejected only by a
    prime whose offsets already take p - 1 residues, and only if it takes
    the last one; a prime dividing q rejects exactly the class 0 mod p.
    Plans that can only exhaust the search are refused before any prime is
    listed. q must be odd.
    """
    qv = q.value
    if qv % 2 == 0:
        raise HypothesisViolation("tuple construction needs odd q")
    if not 1 <= j <= len(sizes):
        raise DomainError(f"transition bin j={j} outside 1..{len(sizes)}")
    if min(sizes) < 1:
        raise DomainError(f"bin sizes must be >= 1, got {sizes}")
    _require_admissible(q, a=a, b=b)
    k = sum(sizes)
    transition = sum(sizes[:j])
    step = 4 * qv
    # Offsets of one class are step apart at least, and only the one change
    # of class may close in by less.
    if step * (k - 2) >= OFFSET_CAP:
        raise SearchExhausted(f"{k} offsets cannot all lie below the offset cap {OFFSET_CAP}")
    in_use = (a, b) if transition < k else (a,)
    for p in q.factors:
        if p <= k and any(cls % p == 0 for cls in in_use):
            raise SearchExhausted(f"a class in use is 0 mod {p}, which divides q")
    # the progression h = 1 mod 4, h = class mod q of each class, as its least member
    starts = [next(s for s in range(cls % qv, step, qv) if s % 4 == 1) for cls in (a, b)]
    primes = {p for p in small_primes(k) if qv % p != 0}
    filling: dict[int, set[int]] = {}  # prime -> the residues the offsets take
    free: dict[int, int] = {}  # a prime whose offsets take p - 1 residues -> the last one
    offsets: list[int] = []
    h = 0
    for index in range(k):
        cand = h + 1 + (starts[index >= transition] - h - 1) % step
        while cand <= OFFSET_CAP and any(cand % p == r for p, r in free.items()):
            cand += step
        if cand > OFFSET_CAP:
            raise SearchExhausted(f"offset cap {OFFSET_CAP} hit at index {index}")
        p = index + 2  # with cand there are p - 1 offsets, the fewest that take p - 1 residues
        if p in primes:
            filling[p] = {x % p for x in offsets}
        for p, taken in list(filling.items()):
            taken.add(cand % p)
            if len(taken) == p - 1:
                # 0 + 1 + ... + (p - 1) less the residues taken
                free[p] = p * (p - 1) // 2 - sum(filling.pop(p))
        offsets.append(cand)
        h = cand
    design = TupleDesign(q=qv, a=a % qv, b=b % qv, j=j, bins=list(sizes), offsets=offsets)
    design.form_admissibility_witnesses()
    return design


def _four_q_squared(q: FactoredInteger) -> FactoredInteger:
    """4q^2 with its factor map; q's primes are proved."""
    factors = {p: 2 * e for p, e in q.factors.items()}
    factors[2] = factors.get(2, 0) + 2
    return FactoredInteger._proven(4 * q.value**2, dict(sorted(factors.items())))


@dataclass(frozen=True)
class BlockingSystem:
    """A consecutiveness-forcing construction, stored as its choices: the
    pattern, its lifts mod 4q^2, h < k and a blocking prime p_i per offset i
    (kept as a read-only copy of the mapping given). Derived once, on
    construction, and not settable: T_blk = 4q^2 prod p_i^2, a_T (the CRT of
    a3 mod 4q^2 and p_i - i mod p_i^2, so a repeated prime or one of q raises
    NonCoprimeModuli) and lift_window_widened (a lift > q^2)."""

    q: FactoredInteger
    a: int
    b: int
    c: int
    a3: int
    b3: int
    c3: int
    h: int
    k: int
    blocking_primes: Mapping[int, int]
    T_blk: FactoredInteger = field(init=False)
    a_T: ResidueClass = field(init=False)
    lift_window_widened: bool = field(init=False)

    def __post_init__(self):
        # a read-only copy, so that the caller's dict cannot leave T_blk and a_T stale
        object.__setattr__(self, "blocking_primes", types.MappingProxyType(dict(self.blocking_primes)))
        four_q2 = _four_q_squared(self.q)
        congruences = [ResidueClass(self.a3, four_q2.value)]
        congruences += [ResidueClass(p - i, p * p) for i, p in self.blocking_primes.items()]
        a_T = crt_combine(congruences)
        # primes of q and of the prime table; _proven checks the product
        squares = {p: 2 for p in self.blocking_primes.values()}
        T_blk = FactoredInteger._proven(a_T.modulus, dict(sorted((four_q2.factors | squares).items())))
        object.__setattr__(self, "T_blk", T_blk)
        object.__setattr__(self, "a_T", a_T)
        object.__setattr__(self, "lift_window_widened", max(self.a3, self.b3, self.c3) > self.q.value**2)

    def verify(self) -> None:
        """Check the theorem's conditions exactly; raises on failure.

        The lifts reduce to the pattern mod q and the offsets to the lifts
        mod 4q^2, with 0 < h < k. `_blocked_offsets`, one pass over the prime
        powers of T_blk, so nothing is factored, must give exactly 1..k-1
        less h; the first offset that breaks this is named. Last comes
        `check_hypotheses`.
        """
        qv = self.q.value
        if (self.a3 - self.a) % qv or (self.b3 - self.b) % qv or (self.c3 - self.c) % qv:
            raise InternalInconsistency("lifts do not reduce to the pattern mod q")
        q2_4 = 4 * qv**2
        if (self.a3 + self.h - self.b3) % q2_4 != 0 or (self.a3 + self.k - self.c3) % q2_4 != 0:
            raise InternalInconsistency("offset congruences fail")
        if not 0 < self.h < self.k:
            raise InternalInconsistency("need 0 < h < k")
        intermediate = set(range(1, self.k)) - {self.h}
        wrong = self._blocked_offsets() ^ intermediate
        if wrong:
            i = min(wrong)
            if i in intermediate:
                raise InternalInconsistency(f"a_T + {i} should not be admissible")
            raise InternalInconsistency(f"a_T + {i} should be admissible")
        verdict = check_hypotheses(self.T_blk, self.a_T.value, self.h, self.k)
        if not verdict.ok:
            raise InternalInconsistency(
                f"constructed system violates {verdict.failed_clause}: {verdict.detail}"
            )

    def _blocked_offsets(self) -> set[int]:
        """The offsets i in [0, k] with a_T + i inadmissible mod T_blk, found
        in one pass over its prime powers. A prime = 1 mod 4 never blocks,
        and an odd p = 3 mod 4 can block only where it divides a_T + i, so
        it is tried at i = -a_T mod p only; 2 is tried at every i."""
        blocked: set[int] = set()
        for p, e in self.T_blk.factors.items():
            if p % 4 == 1:
                continue
            pe = p**e
            r = self.a_T.value % pe
            start, step = (0, 1) if p == 2 else (-r % p, p)
            for i in range(start, self.k + 1, step):
                if admissibility_reason((r + i) % pe, {p: e}) is not None:
                    blocked.add(i)
        return blocked

    def to_json_dict(self) -> dict:
        return {
            "q": str(self.q.value),
            "pattern": [str(self.a), str(self.b), str(self.c)],
            "lifts": [str(self.a3), str(self.b3), str(self.c3)],
            "h": str(self.h),
            "k": str(self.k),
            "blocking_primes": {str(i): str(p) for i, p in sorted(self.blocking_primes.items())},
            "T_blk": str(self.T_blk.value),
            "T_blk_factors": {str(p): str(e) for p, e in sorted(self.T_blk.factors.items())},
            "a_T": str(self.a_T.value),
            "lift_window_widened": self.lift_window_widened,
        }


def build_blocking_system(q: FactoredInteger, a: int, b: int, c: int) -> BlockingSystem:
    """Construct and verify the blocking system for the pattern [a, b, c] mod q.

    Lifts each class to its least admissible representative in [0, 4q^2)
    that is not 0 mod 2^(v2-1), which the downstream hypotheses need (so
    the lift is positive). Offsets h < k are the least positive solutions,
    with 4q^2 added to restore order or break a tie. Blocking primes are the
    least primes = 3 (mod 4) above k not dividing q, in ascending index
    order, so the whole construction is deterministic.
    """
    qv = q.value
    _require_admissible(q, a=a, b=b, c=c)
    four_q2 = _four_q_squared(q)
    half = 1 << (four_q2.exponent(2) - 1)

    def lift(cls: int) -> int:
        # 0 = 0 mod half fails `require`, so every lift is positive
        return lift_admissible(ResidueClass(cls, qv), four_q2, require=lambda m: m % half != 0).value

    a3, b3, c3 = lift(a), lift(b), lift(c)
    mod4q2 = four_q2.value
    h = (b3 - a3) % mod4q2 or mod4q2
    k = (c3 - a3) % mod4q2 or mod4q2
    if h >= k:
        k += mod4q2
    bound = 2 * k
    while len(primes := [p for p in primes_3_mod_4(bound).tolist() if p > k and qv % p]) < k - 2:
        bound *= 2
    system = BlockingSystem(
        q=q, a=a % qv, b=b % qv, c=c % qv,
        a3=a3, b3=b3, c3=c3, h=h, k=k,
        blocking_primes=dict(zip((i for i in range(1, k) if i != h), primes)),
    )
    system.verify()
    return system


@dataclass
class TripleSearchReport:
    """Blocking system plus desk-scale census evidence for one pattern."""

    x_budget: int
    blocking: BlockingSystem
    count: int
    occurrences: tuple[Occurrence, ...]
    certificates: list[TripleCertificate] = field(default_factory=list)

    @property
    def q(self) -> int:
        return self.blocking.q.value

    @property
    def pattern(self) -> tuple[int, int, int]:
        return (self.blocking.a, self.blocking.b, self.blocking.c)


def _consecutive_certificate(q: int, a: int, values: tuple[int, ...]) -> TripleCertificate:
    """Certificate for three consecutive members, with exclusion evidence."""
    v1, v2, v3 = values
    reps = []
    for m in values:
        rep = represent_two_squares(factorize(m))
        if rep is None:
            raise InternalInconsistency(f"census member {m} is not a sum of two squares")
        reps.append(rep)
    evidence = []
    for m in range(v1 + 1, v3):
        if m == v2:
            continue
        p = obstructing_prime(factorize(m))
        if p is None:
            raise InternalInconsistency(f"{m} between census members is a sum of two squares")
        evidence.append((m, p))
    return TripleCertificate(
        n=v1, q=q, a=a % q, h=v2 - v1, k=v3 - v1, t=None,
        reps=(reps[0], reps[1], reps[2]),
        consecutive=True, evidence=tuple(evidence),
    )


def end_to_end_triple(
    q: FactoredInteger,
    a: int,
    b: int,
    c: int,
    x_budget: int = 10_000_000,
    cache_dir: str | None = None,
) -> TripleSearchReport:
    """Build the blocking system, then find actual consecutive triples by
    census scan up to x_budget and certify the first MAX_CERTIFICATES.

    Raises NoneFoundWithinBudget when the census finds no occurrence (a
    budget statement, not a refutation).
    """
    blocking = build_blocking_system(q, a, b, c)
    spec = PatternSpec(q, (blocking.a, blocking.b, blocking.c))
    result = match_pattern(spec, x_budget, cache_dir=cache_dir)
    if result.count == 0:
        raise NoneFoundWithinBudget(
            f"pattern {spec.classes} mod {q.value} not seen below {x_budget}"
        )
    certs = [
        _consecutive_certificate(q.value, a, occ.values)
        for occ in result.occurrences[:MAX_CERTIFICATES]
    ]
    for cert in certs:
        if not cert.verify():
            raise InternalInconsistency("certificate failed self-verification")
    return TripleSearchReport(
        x_budget=x_budget,
        blocking=blocking,
        count=result.count,
        occurrences=result.occurrences,
        certificates=certs,
    )
