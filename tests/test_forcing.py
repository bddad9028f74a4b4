import dataclasses
import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from twosq import arith, forcing
from twosq.admissibility import admissible_classes, is_admissible_value
from twosq.arith import FactoredInteger, ResidueClass, crt_combine, factorize, is_prime
from twosq.cli import run
from twosq.errors import (
    BudgetExceeded,
    DomainError,
    HypothesisViolation,
    InternalInconsistency,
    NonCoprimeModuli,
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

from .conftest import empty_prime_tables


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
    with pytest.raises(DomainError, match="sqrt"):  # theta1 theta2 underflows to 0
        delta_constant(1e-300, 1e-300)


def test_bin_plan_examples():
    assert bin_plan(2, 1 / 40, 1 / 40) == [53, 16385]
    assert bin_plan(1, 1 / 40, 1 / 40) == [53]
    assert bin_plan(3, 1 / 40, 1 / 40)[2] == 2097153
    with pytest.raises(DomainError):
        bin_plan(0, 1 / 40, 1 / 40)
    with pytest.raises(DomainError, match="Delta"):  # 2 Delta^3 overflows
        bin_plan(2, 1e-150, 1e-150)
    # 53 + 16385 + 2097153 + 268435457 passes the cap after four bins, so a
    # plan of 10^5 bins is refused without building 2^(7i) + 1 for every i
    with pytest.raises(SearchExhausted, match="bins 1..4 of 100000"):
        bin_plan(100_000, 1 / 40, 1 / 40)


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


def test_tuple_refuses_more_offsets_than_its_cap(monkeypatch):
    """The greedy grows about as k^2, so a plan of more than MAX_TUPLE_K
    offsets is refused before any prime is listed: the M = 3 plan at q = 1,
    whose 2,113,591 offsets lie under the offset cap. The paper's M = 2 plan
    stays under it."""
    assert sum(bin_plan(2, 0.025, 0.025)) == 16_438 <= forcing.MAX_TUPLE_K
    sizes = bin_plan(3, 0.025, 0.025)
    assert sum(sizes) == 2_113_591 and 4 * (sum(sizes) - 2) < forcing.OFFSET_CAP

    def no_primes(bound):
        raise AssertionError(f"listed the primes up to {bound}")

    monkeypatch.setattr(forcing, "small_primes", no_primes)
    with pytest.raises(SearchExhausted, match="tuple greedy's cap 32768"):
        construct_two_class_tuple(factorize(1), 0, 0, 1, sizes)


def _reference_witnesses(design):
    """The former `TupleDesign.form_admissibility_witnesses`, through q^-1 mod p."""
    k = len(design.offsets)
    witnesses: dict[int, int] = {}
    for p in arith.small_primes(k):
        forbidden = set()
        if design.q % p == 0:
            if any(h % p == 0 for h in design.offsets):
                raise InternalInconsistency(f"forms vanish identically mod {p}")
        else:
            qinv = pow(design.q, -1, p)
            forbidden = {(-h * qinv) % p for h in design.offsets}
        for n in range(p):
            if n not in forbidden:
                witnesses[p] = n
                break
        else:
            raise InternalInconsistency(f"no admissible residue mod {p}")
    return witnesses


def _reference_tuple(q, a, b, j, sizes, offset_cap):
    """The former `construct_two_class_tuple`: every candidate tested against
    every prime p <= k through q^-1 mod p, with the offset cap a parameter."""
    qv = q.value
    if qv % 2 == 0:
        raise HypothesisViolation("tuple construction needs odd q")
    if not 1 <= j <= len(sizes):
        raise DomainError(f"transition bin j={j} outside 1..{len(sizes)}")
    if min(sizes) < 1:
        raise DomainError(f"bin sizes must be >= 1, got {sizes}")
    for cls, label in ((a, "a"), (b, "b")):
        if not is_admissible_value(cls % qv, q):
            raise HypothesisViolation(f"class {label} = {cls} is not admissible mod {qv}")
    k = sum(sizes)
    primes = arith.small_primes(k)
    roots: dict[int, set[int]] = {p: set() for p in primes}
    qinv = {p: pow(qv, -1, p) for p in primes if qv % p != 0}
    transition = sum(sizes[:j])
    offsets: list[int] = []
    h = 0
    for index in range(k):
        cls = a if index < transition else b
        # Candidates run in the progression determined by h = 1 mod 4 and
        # h = cls mod q (q odd, so the two conditions combine mod 4q).
        start = crt_combine([ResidueClass(1, 4), ResidueClass(cls % qv, qv)]).value
        if start == 0:
            start = 4 * qv
        cand = start
        while cand <= h:
            cand += 4 * qv
        while True:
            if cand > offset_cap:
                raise SearchExhausted(f"offset cap {offset_cap} hit at index {index}")
            ok = True
            for p in primes:
                if qv % p == 0:
                    if cand % p == 0:
                        ok = False
                        break
                else:
                    root = (-cand * qinv[p]) % p
                    if root not in roots[p] and len(roots[p]) + 1 >= p:
                        ok = False
                        break
            if ok:
                break
            cand += 4 * qv
        for p in primes:
            if qv % p != 0:
                roots[p].add((-cand * qinv[p]) % p)
        offsets.append(cand)
        h = cand
    design = forcing.TupleDesign(q=qv, a=a % qv, b=b % qv, j=j, bins=list(sizes), offsets=offsets)
    return offsets, _reference_witnesses(design)


def _outcome(build):
    try:
        return build()
    except SearchExhausted as exc:
        return type(exc)


@pytest.mark.parametrize("cap", [4_000, 100_000])
def test_tuple_matches_reference_builder(monkeypatch, cap):
    # Every design of this grid ends under a cap of 10^5 as under the real
    # cap, and the reference's scans to it stay short; at 4,000 many
    # searches run out of candidates inside the greedy loop.
    monkeypatch.setattr(forcing, "OFFSET_CAP", cap)
    rng = random.Random(19)
    ends = {"built": 0, "exhausted": 0}
    for qv in (1, 3, 5, 7, 9, 11, 13, 15, 21, 25, 45, 49, 63):
        fq = factorize(qv)
        adm = [c.value for c in admissible_classes(fq)]
        for _ in range(40):
            sizes = [rng.randint(1, 40) for _ in range(rng.randint(1, 4))]
            j = rng.randint(1, len(sizes))
            a, b = rng.choice(adm), rng.choice(adm)

            def build():
                design = construct_two_class_tuple(fq, a, b, j, sizes)
                return design.offsets, design.form_admissibility_witnesses()

            want = _outcome(lambda: _reference_tuple(fq, a, b, j, sizes, cap))
            assert _outcome(build) == want, (qv, a, b, j, sizes)
            ends["exhausted" if want is SearchExhausted else "built"] += 1
    assert min(ends.values()) > 100, ends


def test_witnesses_refuse_a_design_with_no_free_residue():
    every_residue = forcing.TupleDesign(q=5, a=1, b=2, j=1, bins=[3], offsets=[1, 5, 9])
    with pytest.raises(InternalInconsistency, match="mod 3$"):
        every_residue.form_admissibility_witnesses()
    # 3 | q: the forms take -3 n = 0 mod 3 at every n, and 3 and 15 sit there
    vanishing = forcing.TupleDesign(q=3, a=0, b=1, j=1, bins=[3], offsets=[3, 7, 15])
    with pytest.raises(InternalInconsistency, match="mod 3$"):
        vanishing.form_admissibility_witnesses()
    fine = forcing.TupleDesign(q=3, a=1, b=2, j=1, bins=[3], offsets=[1, 5, 13])
    assert fine.form_admissibility_witnesses() == _reference_witnesses(fine) == {2: 0, 3: 0}


def test_tuple_refuses_a_plan_past_the_cap_before_listing_primes(monkeypatch):
    def no_primes(n):
        raise AssertionError("the cap check runs before any prime is listed")

    monkeypatch.setattr(forcing, "small_primes", no_primes)
    with pytest.raises(SearchExhausted):
        construct_two_class_tuple(factorize(5), 1, 2, 1, bin_plan(3, 0.025, 0.025))


def test_tuple_cap_admits_an_offset_at_the_cap(monkeypatch):
    # The change of class closes in by less than 4q: [1, 5] fits a cap of 5.
    monkeypatch.setattr(forcing, "OFFSET_CAP", 5)
    assert construct_two_class_tuple(factorize(5), 1, 0, 1, [1, 1]).offsets == [1, 5]
    monkeypatch.setattr(forcing, "OFFSET_CAP", 4)
    with pytest.raises(SearchExhausted):
        construct_two_class_tuple(factorize(5), 1, 0, 1, [1, 1])


def test_tuple_refuses_a_class_zero_mod_a_prime_of_q(monkeypatch):
    # Every candidate of class 0 is 0 mod 5; below this cap the former
    # builder stepped through them without end.
    monkeypatch.setattr(forcing, "OFFSET_CAP", 10**18)
    with pytest.raises(SearchExhausted, match="0 mod 5"):
        construct_two_class_tuple(factorize(5), 0, 1, 1, [2, 3])


def test_tuple_cli_refuses_an_impossible_plan_at_once(capsys):
    assert run(["tuple", "5", "1", "2", "1", "3", "0.025", "0.025"]) == 1
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and json.loads(line)["error"] == "SearchExhausted"


def test_blocking_system_q1_fixture():
    bs = build_blocking_system(factorize(1), 0, 0, 0)
    assert (bs.a3, bs.b3, bs.c3) == (1, 1, 1)
    assert (bs.h, bs.k) == (4, 8)
    assert bs.blocking_primes == {1: 11, 2: 19, 3: 23, 5: 31, 6: 43, 7: 47}
    assert not bs.lift_window_widened
    assert bs.T_blk.value == 4 * (11 * 19 * 23 * 31 * 43 * 47) ** 2


def _reference_primes_3mod4_above(bound, avoid_divisors_of):
    """Every n = 3 mod 4 above bound through `is_prime`, skipping the
    divisors of the given integer."""
    n = bound + 1
    n += (3 - n) % 4
    while True:
        if is_prime(n) and avoid_divisors_of % n != 0:
            yield n
        n += 4


@pytest.mark.parametrize("avoid", [1, 3 * 7 * 11 * 19 * 23])
@pytest.mark.parametrize("bound", [0, 1, 2, 3, 200, 1023])
def test_prime_stream_matches_is_prime(monkeypatch, bound, avoid):
    # The slice `build_blocking_system` reads: the table's primes = 3 (mod 4)
    # above bound that do not divide avoid, from a table grown from empty by
    # the read itself. 1023 sits just below a power of two.
    want = list(itertools.islice(_reference_primes_3mod4_above(bound, avoid), 200))
    empty_prime_tables(monkeypatch)
    got = [p for p in arith.primes_3_mod_4(want[-1]).tolist() if p > bound and avoid % p]
    assert arith._prime_limit >= want[-1]
    assert got == want


def test_blocking_primes_are_the_least_valid_from_an_empty_table(monkeypatch):
    # For q = 11 and q = 19, [1, 5, 9] has h = 4 and k = 8, so the prime of
    # q lies above k and must be skipped.
    empty_prime_tables(monkeypatch)

    def no_prime_test(n):
        raise AssertionError("blocking primes come from the prime table")

    monkeypatch.setattr(forcing, "is_prime", no_prime_test)
    systems = {
        (qv, pattern): build_blocking_system(factorize(qv), *pattern)
        for qv, pattern in [(11, (1, 5, 9)), (19, (1, 5, 9)), (3, (0, 1, 2)),
                            (4, (2, 2, 0)), (5, (1, 2, 3)), (5, (4, 4, 4))]
    }
    assert systems[11, (1, 5, 9)].blocking_primes == {1: 19, 2: 23, 3: 31, 5: 43, 6: 47, 7: 59}
    assert systems[19, (1, 5, 9)].blocking_primes == {1: 11, 2: 23, 3: 31, 5: 43, 6: 47, 7: 59}
    for (qv, _), bs in systems.items():
        want = list(itertools.islice(_reference_primes_3mod4_above(bs.k, qv), bs.k - 2))
        assert list(bs.blocking_primes.values()) == want
        assert list(bs.blocking_primes) == [i for i in range(1, bs.k) if i != bs.h]


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


def test_blocking_verify_checks_lifts_against_pattern():
    system = build_blocking_system(factorize(5), 1, 2, 3)
    assert (system.a3, system.b3, system.c3) == (1, 17, 13)
    for changes in ({"a": 4, "b": 0, "c": 0}, {"a": 2}, {"b": 3}, {"c": 4}):
        with pytest.raises(InternalInconsistency, match="pattern"):
            dataclasses.replace(system, **changes).verify()


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
    both, and compare them with the recorded digest. The system's JSON must
    agree with itself: T_blk = 4q^2 prod p_i^2, and the lift window is
    widened just when a lift lies above q^2."""
    fq = factorize(qv)
    adm = [c.value for c in admissible_classes(fq)]
    for a, b, c in itertools.product(adm, repeat=3):
        system = build_blocking_system(fq, a, b, c)  # verify() runs inside
        data = system.to_json_dict()
        primes = map(int, data["blocking_primes"].values())
        assert int(data["T_blk"]) == 4 * qv**2 * math.prod(p * p for p in primes), (a, b, c)
        assert data["lift_window_widened"] == (max(map(int, data["lifts"])) > qv**2), (a, b, c)
        family = build_witness_family(system.T_blk, system.a_T.value, system.h, system.k)
        family.verify()
        assert _family_digest(system, family) == FAMILY_DIGESTS[f"{qv}:{a},{b},{c}"], (a, b, c)


def test_blocking_battery_q3_q4():
    assert len(FAMILY_DIGESTS) == 27 + 27 + 125
    for qv in (3, 4):
        _check_family_battery(qv)


def test_blocking_family_digests_q5():
    _check_family_battery(5)


def test_blocking_derived_fields_are_not_settable():
    """T_blk, a_T and lift_window_widened follow from the system's choices,
    and `dataclasses.replace` refuses them: neither a T_blk widened by 13^2
    nor a widened lift window with every lift below q^2 can be set."""
    system = build_blocking_system(factorize(5), 1, 2, 3)
    assert max(system.a3, system.b3, system.c3) < 25 and not system.lift_window_widened
    T = system.T_blk
    wider = FactoredInteger(T.value * 13**2, T.factors | {13: 2})
    for changes in (
        {"T_blk": wider, "a_T": ResidueClass(system.a_T.value, wider.value)},
        {"T_blk": wider},
        {"a_T": ResidueClass(system.a_T.value + 1, T.value)},
        {"lift_window_widened": True},
    ):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(system, **changes)


def test_blocking_primes_are_a_read_only_copy():
    """Neither an assignment into the system's blocking primes nor a change to
    the caller's dict afterwards reaches the system, whose T_blk and a_T were
    derived from the primes it was given."""
    system = build_blocking_system(factorize(5), 1, 2, 3)
    assert system.blocking_primes[1] == 127
    with pytest.raises(TypeError):
        system.blocking_primes[1] = 10007
    primes = dict(system.blocking_primes)
    copy = dataclasses.replace(system, blocking_primes=primes)
    primes[1] = 10007
    assert copy.blocking_primes[1] == 127 and copy == system
    assert copy.to_json_dict() == system.to_json_dict()
    copy.verify()


def test_blocking_moduli_are_read_only():
    """q and T_blk cannot drift from the factorizations the system's JSON
    lists: neither their factor maps nor their values can be set."""
    system = build_blocking_system(factorize(5), 1, 2, 3)
    before = system.to_json_dict()
    with pytest.raises(TypeError):
        system.T_blk.factors[127] = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.q.value = 7
    system.verify()
    assert system.to_json_dict() == before


def test_blocker_first_verdicts_and_tampering():
    system = build_blocking_system(factorize(4), 2, 2, 0)
    four_q2 = factorize(4 * 4**2)
    intermediate = [i for i in range(1, system.k) if i != system.h]
    free = [i for i in intermediate if not is_admissible_value(system.a3 + i, four_q2)]
    held = [i for i in intermediate if i not in free]
    assert free and held

    def verdicts(tampered):
        blocked = tampered._blocked_offsets()
        return [i not in blocked for i in range(tampered.k + 1)]

    def swept(tampered):
        return [is_admissible_value(tampered.a_T.value + i, tampered.T_blk) for i in range(tampered.k + 1)]

    def without_prime(i):
        primes = {j: p for j, p in system.blocking_primes.items() if j != i}
        return dataclasses.replace(system, blocking_primes=primes)

    assert verdicts(system) == swept(system)
    assert [i for i, ok in enumerate(verdicts(system)) if ok] == [0, system.h, system.k]
    # 4q^2 alone blocks a free offset, so the system stays sound without
    # its prime, and verify() passes.
    lean = without_prime(free[0])
    lean.verify()
    assert verdicts(lean) == verdicts(system)
    assert lean.T_blk.value * system.blocking_primes[free[0]] ** 2 == system.T_blk.value
    # A held offset without its prime, or with a prime = 1 (mod 4), is
    # admissible: 4q^2 does not block it, and the sweep agrees.
    i = held[0]
    p1 = next(p for p in itertools.count(system.k + 1) if p % 4 == 1 and is_prime(p))
    with_p1 = dataclasses.replace(system, blocking_primes=system.blocking_primes | {i: p1})
    for tampered in (without_prime(i), with_p1):
        assert verdicts(tampered) == swept(tampered)
        assert verdicts(tampered)[i]
        with pytest.raises(InternalInconsistency, match=rf"a_T \+ {i} should not be admissible"):
            tampered.verify()
    # k moved up by 4q^2: the old k is now an intermediate offset, and no
    # prime blocks it.
    tampered = dataclasses.replace(system, k=system.k + four_q2.value)
    with pytest.raises(InternalInconsistency, match=rf"a_T \+ {system.k} should not be admissible"):
        tampered.verify()
    # A prime given to two offsets fails in the CRT.
    twice = system.blocking_primes | {i: system.blocking_primes[held[1]]}
    with pytest.raises(NonCoprimeModuli):
        dataclasses.replace(system, blocking_primes=twice)


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


def test_blocking_build_refuses_k_past_its_cap_before_listing_primes(monkeypatch):
    def no_primes(bound):
        raise AssertionError(f"listed primes below {bound}")

    monkeypatch.setattr(forcing, "primes_3_mod_4", no_primes)
    with pytest.raises(BudgetExceeded, match="k = 19208"):
        build_blocking_system(factorize(49), 0, 0, 0)


def test_blocking_verify_refusals():
    system = build_blocking_system(factorize(5), 1, 2, 3)
    assert (system.a3, system.b3, system.c3, system.h, system.k) == (1, 17, 13, 16, 112)
    with pytest.raises(InternalInconsistency, match="offset congruences fail"):
        dataclasses.replace(system, k=system.k + 1).verify()
    # h and b3 moved together keep a3 + h = b3 mod 4q^2, but h passes k
    with pytest.raises(InternalInconsistency, match="need 0 < h < k"):
        dataclasses.replace(system, h=system.h + 100, b3=system.b3 + 100).verify()
    # an unused prime = 3 (mod 4) above k, given offset 0, blocks a_T itself
    spare = next(
        p for p in itertools.count(system.k + 1)
        if p % 4 == 3 and is_prime(p) and p not in system.blocking_primes.values()
    )
    with pytest.raises(InternalInconsistency, match=r"a_T \+ 0 should be admissible"):
        dataclasses.replace(system, blocking_primes=system.blocking_primes | {0: spare}).verify()
    # lifts that reduce to [1, 2, 3] and keep the offsets, but a3 = 6 = 0 mod 2
    with pytest.raises(InternalInconsistency, match="two_adic_nonvanishing"):
        dataclasses.replace(system, a3=6, b3=22, c3=118).verify()


def test_end_to_end_census_runs_before_blocking_primes_are_listed(monkeypatch):
    def no_primes(bound):
        raise AssertionError(f"listed primes below {bound}")

    monkeypatch.setattr(forcing, "primes_3_mod_4", no_primes)
    # k = 8192, within the cap: a search that finds nothing lists no prime
    with pytest.raises(NoneFoundWithinBudget):
        end_to_end_triple(factorize(32), 0, 0, 0, x_budget=0)


def test_blocking_build_takes_q27_000():
    # k = 5832, the largest k among the blocking systems the project builds
    system = build_blocking_system(factorize(27), 0, 0, 0)
    assert system.k == 5832 <= forcing.MAX_BLOCKING_K
