"""Shared oracles and fixtures.

Oracles here are deliberately independent of the implementation paths they
check: membership by brute-force enumeration of x^2 + y^2, factorization by
a smallest-prime-factor sieve, admissibility by exhaustive residue sums.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from twosq import arith
from twosq.arith import factorize
from twosq.witness import build_witness_family, check_hypotheses


def brute_two_square_set(limit: int) -> set[int]:
    """All sums of two squares <= limit, by direct enumeration."""
    out = set()
    for x in range(math.isqrt(limit) + 1):
        x2 = x * x
        for y in range(x, math.isqrt(limit) + 1):
            s = x2 + y * y
            if s > limit:
                break
            out.add(s)
    return out


def brute_representation(n: int) -> tuple[int, int] | None:
    """Smallest-x representation by scanning x = 0..sqrt(n)."""
    for x in range(math.isqrt(n) + 1):
        y2 = n - x * x
        y = math.isqrt(y2)
        if y * y == y2 and x <= y:
            return (x, y)
    return None


def brute_admissible_set(q: int) -> set[int]:
    """Classes a mod q with x^2 + y^2 = a mod q solvable, exhaustively."""
    squares = {x * x % q for x in range(q)}
    return {(s + t) % q for s in squares for t in squares}


def spf_table(limit: int) -> np.ndarray:
    """Smallest prime factor for every n <= limit (0 for n < 2)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            spf[p] = p
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    rest = np.flatnonzero(spf == 0)
    rest = rest[rest >= 2]
    spf[rest] = rest
    return spf


def criterion_membership(n: int, spf: np.ndarray) -> bool:
    """Factorization criterion via the SPF table: primes 3 mod 4 to even powers."""
    if n < 2:
        return True
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if p % 4 == 3 and e % 2 == 1:
            return False
    return True


def empty_prime_tables(monkeypatch) -> None:
    """Start `arith`'s prime tables from empty for the rest of the test."""
    monkeypatch.setattr(arith, "_primes", np.zeros(0, dtype=np.int32))
    monkeypatch.setattr(arith, "_primes_3_mod_4", np.zeros(0, dtype=np.int32))
    monkeypatch.setattr(arith, "_prime_limit", 1)


def hypothesis_satisfying_inputs(count: int = 100, seed: int = 12345) -> list[tuple[int, int, int, int]]:
    """Deterministic pseudo-random (q, a, h, k) with 4 | q, q <= 400, passing
    every hypothesis clause. Shared by the invariant and productivity tests."""
    rng = random.Random(seed)
    pool = []
    for q in range(4, 401, 4):
        f = factorize(q)
        if f.exponent(2) % 2 == 0 and all(
            e % 2 == 0 for p, e in f.factors.items() if p % 4 == 3
        ):
            pool.append(f)
    out = []
    while len(out) < count:
        fq = pool[rng.randrange(len(pool))]
        a = rng.randrange(fq.value)
        h = rng.randrange(1, 3 * fq.value)
        k = rng.randrange(h + 1, h + 3 * fq.value)
        if check_hypotheses(fq, a, h, k).ok:
            out.append((fq.value, a, h, k))
    return out


@pytest.fixture(scope="session")
def witness_inputs() -> list[tuple[int, int, int, int]]:
    return hypothesis_satisfying_inputs()


@pytest.fixture(scope="session")
def witness_families(witness_inputs):
    return [
        build_witness_family(factorize(q), a, h, k) for q, a, h, k in witness_inputs
    ]
