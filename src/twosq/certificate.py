"""The trusted verifier: `TripleCertificate`, its wire form and the rule that
checks it. A certificate re-verifies by squaring, modular reduction and, for
its evidence, one primality test per prime, so this module needs nothing from
the package but `arith`'s `is_prime` and `valuation`.

This module owns the JSON wire form of the whole package: `to_wire` writes
every payload, the CLI's and `BlockingSystem.to_json_dict`'s too, with each
integer as a decimal string, and `_decimal` reads one back.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .arith import is_prime, valuation


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
        if self.h < 1 or self.k < 1 or self.h == self.k or len(self.reps) != 3:
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
                # p | m first: it bounds the primality test by m's own size
                if p % 4 != 3 or m % p or not is_prime(p) or valuation(m, p) % 2 == 0:
                    return False
                covered.add(m)
        return True

    def to_json_dict(self) -> dict:
        """Wire form: one JSON object per certificate, integers as decimal strings."""
        out = {
            "n": self.n,
            "q": self.q,
            "a": self.a,
            "h": self.h,
            "k": self.k,
            "t": self.t,
            "reps": self.reps,
            "consecutive": self.consecutive,
        }
        if self.consecutive:
            out["evidence"] = self.evidence
        return to_wire(out)

    @classmethod
    def from_json_dict(cls, data: dict) -> "TripleCertificate":
        """Inverse of to_json_dict; raises KeyError, TypeError or ValueError
        on anything that is not a certificate in the wire form."""
        if not isinstance(data, dict):
            raise ValueError(f"certificate must be a JSON object, not {type(data).__name__}")
        reps = _decimal_pairs(data["reps"], "reps")
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
            evidence=_decimal_pairs(data.get("evidence", []), "evidence"),
        )


def to_wire(value):
    """value in the wire form: an int as its decimal string, a tuple or list as
    a list and a mapping with its keys as strings, each item in the wire form;
    None, a bool or a str as itself. Anything else, a numpy integer or a float
    among them, raises TypeError, so no number reaches JSON as a number."""
    if type(value) is int:
        return str(value)
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [to_wire(item) for item in value]
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if type(key) is int:
                key = str(key)
            elif not isinstance(key, str):
                raise TypeError(f"a {type(key).__name__} key has no wire form")
            out[key] = to_wire(item)
        return out
    raise TypeError(f"{type(value).__name__} has no wire form")


def _decimal(text) -> int:
    """An integer from its wire form: ASCII decimal digits with an optional
    minus sign. int() alone would also take spaces, underscores, a plus sign
    and non-ASCII digits."""
    if not (isinstance(text, str) and text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"expected a decimal string, got {text!r:.40}")
    return int(text)


def _decimal_pairs(items, field: str) -> tuple[tuple[int, int], ...]:
    """Integer pairs from their wire form, a JSON array of 2-element arrays of
    decimal strings; a string or an object would unpack into its characters
    or keys."""
    if not isinstance(items, list) or not all(isinstance(pair, list) and len(pair) == 2 for pair in items):
        raise ValueError(f"{field} must be an array of 2-element arrays")
    return tuple((_decimal(x), _decimal(y)) for x, y in items)
