"""Admissible residue classes: those a mod q for which x^2 + y^2 = a mod q
has a solution.

The working criterion is in terms of the exponents of (a, q): writing
q = prod p^e_p and (a, q) = prod p^f_p, the class a is admissible iff
 - for every prime p = 3 mod 4, f_p is even or f_p = e_p, and
 - if e_2 - f_2 >= 2, the odd-ish part a / 2^f_2 is not 3 mod 4.

f_p is computed from the canonical representative, with a = 0 treated as
f_p = e_p for all p (the gcd-of-class convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .arith import FactoredInteger, ResidueClass, valuation
from .errors import ModulusMismatch, NoAdmissibleLift

# Failure reasons are tagged tuples:
#   ("odd_prime", p, f_p, e_p)          f_p odd and short of e_p at p = 3 mod 4
#   ("two_adic", e_2, f_2, quot_mod_4)  a / 2^f_2 = 3 mod 4 with e_2 - f_2 >= 2
Reason = tuple


@dataclass(frozen=True)
class AdmissibilityVerdict:
    cls: ResidueClass
    admissible: bool
    reason: Reason | None = None


def class_exponent(a_value: int, p: int, e: int) -> int:
    """f_p of the class a mod p^e (and of any modulus with p^e exactly dividing it)."""
    if a_value == 0:
        return e
    return min(valuation(a_value, p), e)


def admissibility_reason(a_value: int, factors: dict[int, int]) -> Reason | None:
    """None when a mod q is admissible, else the first violated condition.

    Int-level core shared by the verdict API and the bulk verification loops.
    A prime 1 mod 4 never fails, nor does a prime 3 mod 4 not dividing a
    (f_p = 0), so only the other primes need f_p.
    """
    for p, e in factors.items():
        if p == 2:
            f = class_exponent(a_value, p, e)
            if e - f >= 2 and (a_value >> f) % 4 == 3:
                return ("two_adic", e, f, 3)
        elif p % 4 == 3 and a_value % p == 0:
            f = class_exponent(a_value, p, e)
            if f % 2 == 1 and f != e:
                return ("odd_prime", p, f, e)
    return None


def is_admissible(a: ResidueClass, q: FactoredInteger) -> AdmissibilityVerdict:
    """Verdict for a mod q, with a structured witness on failure."""
    if a.modulus != q.value:
        raise ModulusMismatch(f"class modulus {a.modulus} != q = {q.value}")
    reason = admissibility_reason(a.value, q.factors)
    return AdmissibilityVerdict(a, reason is None, reason)


def is_admissible_value(a_value: int, q: FactoredInteger) -> bool:
    return admissibility_reason(a_value % q.value, q.factors) is None


def admissible_classes(q: FactoredInteger) -> list[ResidueClass]:
    """All admissible classes mod q in ascending order."""
    if q.value < 1:
        raise ValueError("q must be >= 1")
    return [
        ResidueClass(a, q.value)
        for a in range(q.value)
        if admissibility_reason(a, q.factors) is None
    ]


def lift_admissible(
    a: ResidueClass,
    Q: FactoredInteger,
    window: tuple[int, int] | None = None,
    require: Callable[[int], bool] | None = None,
) -> ResidueClass:
    """Smallest admissible lift of a mod q to a class mod Q (q | Q).

    Without a window the scan covers representatives in [0, Q), the window
    (-1, Q-1]. With window = (lo, hi] only integers lo < b <= hi are
    considered, which is how the blocking-system pipeline enforces its
    normalization. `require` is an extra predicate candidates must satisfy.

    Raises NoAdmissibleLift when the scan space contains no candidate.
    """
    q = a.modulus
    if Q.value % q != 0:
        raise ModulusMismatch(f"{q} does not divide Q = {Q.value}")
    lo, hi = window if window is not None else (-1, Q.value - 1)
    b = a.value if a.value > lo else a.value + ((lo - a.value) // q + 1) * q
    while b <= hi:
        if (require is None or require(b)) and admissibility_reason(b, Q.factors) is None:
            return ResidueClass(b % Q.value, Q.value)
        b += q
    raise NoAdmissibleLift(
        f"no admissible lift of {a} modulo {Q.value} in window ({lo}, {hi}]"
    )
