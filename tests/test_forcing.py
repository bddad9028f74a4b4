import dataclasses
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from twosq import arith, forcing
from twosq.admissibility import admissible_classes, is_admissible_value
from twosq.arith import FactoredInteger, ResidueClass, crt_combine, factorize, is_prime
from twosq.cli import run
from twosq.errors import (
    DomainError,
    HypothesisViolation,
    InternalInconsistency,
    NoneFoundWithinBudget,
    SearchExhausted,
)
from twosq.forcing import (
    bin_plan,
    build_blocking_system,
    construct_two_class_tuple,
    delta_constant,
    end_to_end_triple,
)
from twosq.witness import build_witness_family, check_hypotheses


def test_delta_examples():
    assert delta_constant(1 / 40, 1 / 40) == pytest.approx(2.9656, abs=1e-3)
    # symmetric thetas reduce the surd to (1 + theta) / theta
    c = math.sqrt(2) * (math.pi + 2) / (32 * math.pi)
    for theta in (0.01, 0.02, 1 / 40):
        assert delta_constant(theta, theta) == pytest.approx(c * (1 + theta) / theta)
    with pytest.raises(DomainError):
        delta_constant(1 / 18, 1 / 18)
    with pytest.raises(DomainError):
        delta_constant(-0.01, 0.02)


def test_bin_plan_examples():
    assert bin_plan(2, 1 / 40, 1 / 40) == [53, 16385]
    assert bin_plan(1, 1 / 40, 1 / 40) == [53]
    assert bin_plan(3, 1 / 40, 1 / 40)[2] == 2097153
    with pytest.raises(DomainError):
        bin_plan(0, 1 / 40, 1 / 40)


def test_bin_plan_minimality():
    delta = delta_constant(1 / 40, 1 / 40)
    sizes = bin_plan(4, 1 / 40, 1 / 40)
    assert sizes[0] >= 2 * delta**3 > sizes[0] - 1
    for i, size in enumerate(sizes[1:], start=2):
        assert size > 2 ** (7 * i) >= size - 1


def test_tuple_example():
    design = construct_two_class_tuple(factorize(5), 1, 2, 1, [2, 3])
    assert len(design.offsets) == 5
    assert all(h % 4 == 1 for h in design.offsets)
    assert [h % 5 for h in design.offsets[:2]] == [1, 1]
    assert [h % 5 for h in design.offsets[2:]] == [2, 2, 2]
    assert all(a < b for a, b in zip(design.offsets, design.offsets[1:]))
    # forms admissibility at p = 3, exhaustively
    assert any(
        all((5 * n + h) % 3 != 0 for h in design.offsets) for n in range(3)
    )
    witnesses = design.form_admissibility_witnesses()
    for p, n in witnesses.items():
        assert all((5 * n + h) % p != 0 for h in design.offsets)


def test_tuple_single_transition():
    design = construct_two_class_tuple(factorize(5), 1, 2, 1, [2, 3])
    pattern = [h % 5 for h in design.offsets]
    changes = sum(1 for x, y in zip(pattern, pattern[1:]) if x != y)
    assert changes == 1


def test_tuple_degenerate_transition():
    design = construct_two_class_tuple(factorize(5), 1, 2, 2, [2, 3])
    assert [h % 5 for h in design.offsets] == [1] * 5
    assert design.transition_index == 5


@pytest.mark.parametrize("sizes", [[-1, 3], [3, 0], [0]])
def test_tuple_rejects_bin_sizes_below_one(capsys, sizes):
    with pytest.raises(DomainError):
        construct_two_class_tuple(factorize(5), 1, 2, 1, sizes)
    argv = ["tuple", "5", "1", "2", "1", "2", "0.025", "0.025", "--sizes=" + ",".join(map(str, sizes))]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and json.loads(line)["error"] == "DomainError"


def test_tuple_requires_odd_q():
    with pytest.raises(HypothesisViolation):
        construct_two_class_tuple(factorize(4), 1, 2, 1, [2, 3])


def test_tuple_search_exhausted(monkeypatch):
    monkeypatch.setattr(forcing, "OFFSET_CAP", 10)
    with pytest.raises(SearchExhausted):
        construct_two_class_tuple(factorize(5), 1, 2, 1, [2, 3])


def test_blocking_system_q1_fixture():
    bs = build_blocking_system(factorize(1), 0, 0, 0)
    assert (bs.a3, bs.b3, bs.c3) == (1, 1, 1)
    assert (bs.h, bs.k) == (4, 8)
    assert bs.blocking_primes == {1: 11, 2: 19, 3: 23, 5: 31, 6: 43, 7: 47}
    assert not bs.lift_window_widened
    assert bs.T_blk.value == 4 * (11 * 19 * 23 * 31 * 43 * 47) ** 2


def _reference_primes_3mod4_above(bound, avoid_divisors_of):
    """The former stream: every n = 3 mod 4 above bound through `is_prime`."""
    n = bound + 1
    n += (3 - n) % 4
    while True:
        if is_prime(n) and avoid_divisors_of % n != 0:
            yield n
        n += 4


@pytest.mark.parametrize("avoid", [1, 3 * 7 * 11 * 19 * 23])
@pytest.mark.parametrize("bound", [0, 1, 2, 3, 200, 1023])
def test_prime_stream_matches_is_prime(monkeypatch, bound, avoid):
    # From an empty table, so the stream has to grow it while it runs;
    # 1023 sits just below a power of two.
    monkeypatch.setattr(arith, "_primes", np.zeros(0, dtype=np.int32))
    monkeypatch.setattr(arith, "_prime_limit", 1)

    def no_prime_test(n):
        raise AssertionError("the stream reads the prime table")

    monkeypatch.setattr(forcing, "is_prime", no_prime_test)
    stream = forcing._primes_3mod4_above(bound, avoid)
    first = next(stream)
    limit_at_first = arith._prime_limit
    got = [first] + list(itertools.islice(stream, 199))
    assert arith._prime_limit > limit_at_first
    assert got == list(itertools.islice(_reference_primes_3mod4_above(bound, avoid), 200))


def test_blocking_system_invariants_spot():
    bs = build_blocking_system(factorize(5), 2, 0, 3)
    # blocked offsets carry exactly one factor of their prime
    for i, p in bs.blocking_primes.items():
        assert (bs.a_T.value + i) % p == 0
        assert (bs.a_T.value + i) % (p * p) == p
    nu2 = bs.T_blk.exponent(2)
    assert nu2 % 2 == 0
    assert check_hypotheses(bs.T_blk, bs.a_T.value, bs.h, bs.k).ok
    bs.verify()


def test_blocking_rejects_inadmissible():
    with pytest.raises(HypothesisViolation):
        build_blocking_system(factorize(4), 3, 0, 0)


# sha256 of each pattern's blocking system and the witness family over it.
# The 176 digests other than q = 4 [2, 2, 0], [2, 2, 1] and [2, 2, 2] were
# recorded before the shift search filtered its pairs at 2 and before the
# CRT walk became lazy; those three patterns built no family until then.
FAMILY_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "blocking_families_sha256.json").read_text(encoding="utf-8")
)


def _family_digest(system, family) -> str:
    fields = {f.name: getattr(family, f.name) for f in dataclasses.fields(family)}
    fields["q"] = family.q.value
    payload = {
        "blocking_system": system.to_json_dict(),
        "family": {name: hex(value) for name, value in fields.items()},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _check_family_battery(qv):
    """Build every pattern's blocking system and the family over it, verify
    both, and compare them with the recorded digest."""
    fq = factorize(qv)
    adm = [c.value for c in admissible_classes(fq)]
    for a, b, c in itertools.product(adm, repeat=3):
        system = build_blocking_system(fq, a, b, c)  # verify() runs inside
        family = build_witness_family(system.T_blk, system.a_T.value, system.h, system.k)
        family.verify()
        assert _family_digest(system, family) == FAMILY_DIGESTS[f"{qv}:{a},{b},{c}"], (a, b, c)


def test_blocking_battery_q3_q4():
    assert len(FAMILY_DIGESTS) == 27 + 27 + 125
    for qv in (3, 4):
        _check_family_battery(qv)


def test_blocking_family_digests_q5():
    _check_family_battery(5)


def _retarget(system, i, residue):
    """The system with a_T moved to a_T + i = residue mod p_i^2, and kept
    mod every other prime power of T_blk."""
    p2 = system.blocking_primes[i] ** 2
    rest = system.T_blk.value // p2
    a_T = crt_combine([ResidueClass(system.a_T.value, rest), ResidueClass(residue - i, p2)])
    return dataclasses.replace(system, a_T=a_T)


def test_blocker_first_verdicts_and_tampering():
    system = build_blocking_system(factorize(4), 2, 2, 0)
    four_q2 = factorize(4 * 4**2)
    intermediate = [i for i in range(1, system.k) if i != system.h]
    free = [i for i in intermediate if not is_admissible_value(system.a3 + i, four_q2)]
    held = [i for i in intermediate if i not in free]
    assert free and held

    def verdicts(tampered):
        blocked = tampered._blocked_offsets()
        return [i not in blocked for i in range(system.k + 1)]

    def swept(tampered):
        return [is_admissible_value(tampered.a_T.value + i, tampered.T_blk) for i in range(system.k + 1)]

    assert verdicts(system) == swept(system)
    assert [i for i, ok in enumerate(verdicts(system)) if ok] == [0, system.h, system.k]
    # p_i no longer blocks i: the sweep decides, and finds a_T + i admissible
    # exactly when 4q^2 does not block it either.
    for i in (free[0], held[0]):
        tampered = _retarget(system, i, 1)
        assert verdicts(tampered) == swept(tampered)
        assert verdicts(tampered)[i] == (i in held)
        with pytest.raises(InternalInconsistency, match=f"a_T wrong mod p_{i}"):
            tampered.verify()
    # p_i still divides a_T + i once, but a_T is off its class mod p_i^2.
    i = held[-1]
    tampered = _retarget(system, i, 2 * system.blocking_primes[i])
    assert not verdicts(tampered)[i]
    with pytest.raises(InternalInconsistency, match=f"a_T wrong mod p_{i}"):
        tampered.verify()


def test_end_to_end_example():
    rep = end_to_end_triple(factorize(4), 1, 2, 0, x_budget=100)
    assert rep.occurrences[0].n == 2
    assert rep.occurrences[0].values == (1, 2, 4)
    assert rep.certificates and all(c.verify() for c in rep.certificates)
    assert all(c.consecutive for c in rep.certificates)


def test_end_to_end_budget_miss():
    # pattern [3, ...] is inadmissible mod 4 -> hypothesis violation, not a miss
    with pytest.raises(HypothesisViolation):
        end_to_end_triple(factorize(4), 3, 0, 0, x_budget=100)
    # admissible but absent below a tiny bound
    with pytest.raises(NoneFoundWithinBudget):
        end_to_end_triple(factorize(5), 3, 3, 3, x_budget=10)
