"""Sums of two squares in arithmetic progressions: enumeration, pattern
census, and constructive witness machinery."""

__version__ = "0.1.0"
