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

import math
from typing import Callable

from .arith import FactoredInteger, ResidueClass, valuation
from .errors import ModulusMismatch, NoAdmissibleLift

# Failure reasons are tagged tuples:
#   ("odd_prime", p, f_p, e_p)          f_p odd and short of e_p at p = 3 mod 4
#   ("two_adic", e_2, f_2, quot_mod_4)  a / 2^f_2 = 3 mod 4 with e_2 - f_2 >= 2
Reason = tuple


def class_exponent(a_value: int, p: int, e: int) -> int:
    """f_p of the class a mod p^e (and of any modulus with p^e exactly dividing it)."""
    if a_value == 0:
        return e
    return min(valuation(a_value, p), e)


def admissibility_reason(a_value: int, factors: dict[int, int]) -> Reason | None:
    """None when a mod q is admissible, else the first violated condition.

    Int-level core of every admissibility check in the package.
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


def is_admissible_value(a_value: int, q: FactoredInteger) -> bool:
    """Whether a_value mod q is admissible. Only 2 and the primes = 3 mod 4
    dividing a can fail; for a q with many primes, one gcd finds those faster
    than a division of a by each prime."""
    a = a_value % q.value
    g = math.gcd(a, q.value)
    factors = {p: e for p, e in q.factors.items() if p == 2 or g % p == 0}
    return admissibility_reason(a, factors) is None


def admissible_classes(q: FactoredInteger) -> list[ResidueClass]:
    """All admissible classes mod q in ascending order."""
    if q.value < 1:
        raise ValueError("q must be >= 1")
    return [
        ResidueClass(a, q.value)
        for a in range(q.value)
        if admissibility_reason(a, q.factors) is None
    ]


def admissible_mask(q: FactoredInteger):
    """Boolean numpy array whose entry a says whether a mod q is admissible,
    for every a in [0, q), without a Python loop over the classes.

    Admissibility is a condition at each p^e || q, and only 2 and the primes
    3 mod 4 can fail it, so the mask is the AND over those p^e of each one's
    local mask, read at a mod p^e. A local mask takes f_p of every class mod
    p^e from strided counts, one per power p^j, j = 1..e, that divides it.
    """
    import numpy as np  # here only, so that `twosq admissible` does not import it

    if q.value < 1:
        raise ValueError("q must be >= 1")
    mask = np.ones(q.value, dtype=bool)
    for p, e in q.factors.items():
        if p % 4 == 1:
            continue
        local = np.arange(p**e)
        f = np.zeros(p**e, dtype=local.dtype)  # f_p of each class, e for the class 0
        for j in range(1, e + 1):
            f[:: p**j] += 1
        if p == 2:
            fails = (e - f >= 2) & ((local >> f) % 4 == 3)
        else:
            fails = (f % 2 == 1) & (f != e)
        mask &= ~fails[np.arange(q.value) % p**e]
    return mask


def admissible_count(q: FactoredInteger) -> int:
    """len(admissible_classes(q)) without enumerating the classes.

    Admissibility is a condition at each prime power p^e || q, so the count
    is the product of per-prime-power counts, summed over f = f_p (there are
    phi(p^(e-f)) classes mod p^e with f_p = f < e, and one with f_p = e):
     - p = 1 mod 4: every class, p^e;
     - p = 3 mod 4: phi(p^(e-f)) for each even f < e, plus 1 for the class 0;
     - p = 2: 2 for f >= e - 1 (the classes 0 and 2^(e-1)), plus, for each
       f <= e - 2, the phi(2^(e-f)) / 2 = 2^(e-f-2) classes whose odd part
       is 1 mod 4; in all 2^(e-1) + 1.
    """
    if q.value < 1:
        raise ValueError("q must be >= 1")
    count = 1
    for p, e in q.factors.items():
        if p == 2:
            count *= 2 ** (e - 1) + 1
        elif p % 4 == 3:
            count *= 1 + sum((p - 1) * p ** (e - f - 1) for f in range(0, e, 2))
        else:
            count *= p**e
    return count


def lift_admissible(
    a: ResidueClass,
    Q: FactoredInteger,
    require: Callable[[int], bool] | None = None,
) -> ResidueClass:
    """Smallest admissible lift of a mod q to a class mod Q (q | Q).

    The scan covers the representatives b = a + j q in [0, Q) ascending.
    `require` is an extra predicate candidates must satisfy.

    At a prime p = 3 mod 4 with p^e || q, e odd, where the class is 0 mod
    p^e and p^e is short of p's power in Q, f_p(b) = e would be odd, so
    p^(e+1) must divide b: one class of j mod p. The scan steps over the
    other j, so q = 2^62 - 1, with two such primes above 7 * 10^8, lifts 0
    at once rather than after about q candidates.

    Raises NoAdmissibleLift when the scan space contains no candidate.
    """
    q = a.modulus
    if Q.value % q != 0:
        raise ModulusMismatch(f"{q} does not divide Q = {Q.value}")
    j0, step = 0, 1  # the j allowed so far: j = j0 mod step
    for p, E in Q.factors.items():
        pe = p ** (e := valuation(q, p))
        if p % 4 == 3 and e % 2 and e < E and a.value % pe == 0:
            j = -(a.value // pe) * pow(q // pe, -1, p) % p
            j0 += step * ((j - j0) * pow(step, -1, p) % p)
            step *= p
    for b in range(a.value + j0 * q, Q.value, step * q):
        if (require is None or require(b)) and admissibility_reason(b, Q.factors) is None:
            return ResidueClass(b, Q.value)
    raise NoAdmissibleLift(f"no admissible lift of {a} modulo {Q.value}")
