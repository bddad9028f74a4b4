"""Sums of two squares in arithmetic progressions: enumeration, pattern
census, and constructive witness machinery."""

from .arith import (
    FactorBudget,
    FactoredInteger,
    ResidueClass,
    crt_combine,
    ext_gcd,
    factorize,
    is_sum_two_squares,
    represent_two_squares,
    sqrt_mod_prime_power,
    valuation,
)
from .admissibility import AdmissibilityVerdict, admissible_classes, is_admissible, lift_admissible
from .census import CensusReport, PatternSpec, census_report, find_first_occurrence, match_pattern
from .forcing import (
    BlockingSystem,
    TupleDesign,
    bin_plan,
    build_blocking_system,
    construct_two_class_tuple,
    delta_constant,
    end_to_end_triple,
)
from .sieve import TwoSqSegment, count_N, sieve_segment, stream_E
from .witness import (
    BaseSolution,
    ShiftPair,
    TripleCertificate,
    WitnessFamily,
    build_family,
    build_witness_family,
    check_hypotheses,
    check_local_obstructions,
    construct_shift,
    scan_family,
    solve_base,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityVerdict",
    "BaseSolution",
    "BlockingSystem",
    "CensusReport",
    "FactorBudget",
    "FactoredInteger",
    "PatternSpec",
    "ResidueClass",
    "ShiftPair",
    "TripleCertificate",
    "TupleDesign",
    "TwoSqSegment",
    "WitnessFamily",
    "admissible_classes",
    "bin_plan",
    "build_blocking_system",
    "build_family",
    "build_witness_family",
    "census_report",
    "check_hypotheses",
    "check_local_obstructions",
    "construct_shift",
    "construct_two_class_tuple",
    "count_N",
    "crt_combine",
    "delta_constant",
    "end_to_end_triple",
    "ext_gcd",
    "factorize",
    "find_first_occurrence",
    "is_admissible",
    "is_sum_two_squares",
    "lift_admissible",
    "match_pattern",
    "represent_two_squares",
    "scan_family",
    "sieve_segment",
    "solve_base",
    "sqrt_mod_prime_power",
    "stream_E",
    "valuation",
]
