"""Exception types shared across the package."""


class TwoSqError(Exception):
    """Base class for all package errors."""


class BudgetExceeded(TwoSqError):
    """A factorization could not be completed within the configured effort."""


class DegenerateInput(TwoSqError):
    """An input was degenerate, e.g. ext_gcd(0, 0)."""


class NonCoprimeModuli(TwoSqError):
    """Two CRT moduli share a common factor."""

    def __init__(self, m1: int, m2: int):
        self.moduli = (m1, m2)
        super().__init__(f"moduli {m1} and {m2} share a common factor")


class SegmentTooLarge(TwoSqError):
    """Requested sieve segment exceeds the configured memory cap."""


class ModulusMismatch(TwoSqError):
    """A residue class was paired with a modulus it does not belong to."""


class NoAdmissibleLift(TwoSqError):
    """No admissible lift exists modulo the requested modulus."""


class SearchExhausted(TwoSqError):
    """A bounded constructive search ran out of budget before succeeding."""


class HypothesisViolation(TwoSqError):
    """Inputs violate the hypotheses required by a construction."""


class InternalInconsistency(TwoSqError):
    """An identity that must hold by construction failed to verify."""


class ObstructionFound(TwoSqError):
    """A local obstruction was detected where none should exist."""


class TooManyPatterns(TwoSqError):
    """The requested pattern universe exceeds the configured cap."""


class NoneFoundWithinBudget(TwoSqError):
    """A scan finished without finding the requested object (not a refutation)."""


class DomainError(TwoSqError):
    """A real-valued parameter lies outside its admitted domain."""
