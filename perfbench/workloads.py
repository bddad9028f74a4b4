"""The four benchmark workloads.

Each workload turns the seed into inputs of equal cost, hands out its work
as rounds of operations, checks each operation's output right after it (out
of its timing, with code that does not share the timed path), and names its
representative CLI command with the exact stdout the library result implies.
Outputs are dropped once checked, so memory does not grow with run length.

An operation is a callable returning `Done`. The harness times it under the
workload's per-operation deadline. Library functions are looked up through
their modules at call time (`twosq.census.census_report`, not a name bound
at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial

import twosq.admissibility
import twosq.arith
import twosq.census
import twosq.errors
import twosq.forcing
import twosq.sieve
import twosq.witness

# Landau-Ramanujan constant K: N(x) ~ K x / sqrt(log x).
LR_CONSTANT = 0.7642236536
# N(x) / (K x / sqrt(log x)) sits a few percent above 1 in the ranges used
# here and approaches 1 slowly; outside this band the census is wrong.
LR_BAND = (0.95, 1.25)


def lr_ratio(n_x: int, x: int) -> float:
    return n_x / (LR_CONSTANT * x / math.sqrt(math.log(x)))


@dataclass
class Done:
    items: int
    certs: int = 0
    payload: object = None
    error: str | None = None


def _factored(q: int) -> twosq.arith.FactoredInteger:
    return twosq.arith.factorize(q)


def _is_square_sum(x: int, y: int, n: int) -> bool:
    return x >= 0 and y >= 0 and x * x + y * y == n


def _odd_valuation(m: int, p: int) -> bool:
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e % 2 == 1


def check_triple(cert: twosq.witness.TripleCertificate) -> str | None:
    """Re-derive a certificate's claims with plain integer arithmetic."""
    targets = (cert.n, cert.n + cert.h, cert.n + cert.k)
    for (x, y), m in zip(cert.reps, targets):
        if not _is_square_sum(x, y, m):
            return f"representation of {m} fails"
    if cert.n % cert.q != cert.a % cert.q:
        return f"n={cert.n} not in class {cert.a} mod {cert.q}"
    if cert.consecutive:
        between = [m for m in range(cert.n + 1, cert.n + cert.k) if m != cert.n + cert.h]
        witnessed = {m: p for m, p in cert.evidence}
        if sorted(witnessed) != between:
            return f"evidence does not cover ({cert.n}, {cert.n + cert.k})"
        for m, p in witnessed.items():
            if p % 4 != 3 or not _odd_valuation(m, p):
                return f"evidence ({m}, {p}) does not exclude {m}"
    return None


class Workload:
    """Base: subclasses set the class attributes and the three hooks."""

    name = ""
    item = ""  # the unit of work items_per_s counts
    certifies = False  # produces certificates, so certs_per_s applies
    deadline_s = 60.0  # per operation
    trace_rounds = 1  # rounds per phase of the traced run
    # Interpreted work slows with the CPU's contention as the speed probe
    # does; numpy-bound work does not, so its operations are not corrected.
    contention_corrected = True

    def __init__(self, seed: int, tiny: bool, work_dir: str):
        self.rng = random.Random(seed)
        self.cli_source = None  # the library output the CLI leg must reproduce

    def round(self) -> list[tuple[str, object, bool]]:
        """Operations of one round as (kind, callable, counts as a latency sample)."""
        raise NotImplementedError

    def check(self, kind: str, payload) -> list[str]:
        """Failure messages for one operation's output (empty when correct)."""
        raise NotImplementedError

    def cli(self) -> tuple[list[list[str]], bytes, object]:
        """(argv list piped in order, expected stdout of the first, library call)."""
        raise NotImplementedError


class Census(Workload):
    """census_report for q=5, r=3 up to a seed-jittered bound near 8e6.

    Each operation streams one block of about 8e6 integers (1.6e6 windows)
    through the window kernel; a bound near 1e8 would leave two or three
    latency samples per run.
    """

    name = "census"
    item = "windows counted"
    trace_rounds = 20
    contention_corrected = False

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.q = _factored(5)
        self.x_base = 200_000 if tiny else 8_000_000

    def round(self):
        x = self.x_base + self.rng.randrange(self.x_base // 64)
        return [("report", partial(self._report, x), True)]

    def _report(self, x):
        rep = twosq.census.census_report(self.q, 3, x)
        return Done(items=rep.total_windows, payload=rep)

    def check(self, kind, rep):
        if self.cli_source is None:
            self.cli_source = rep
        failures = []
        if sum(rep.counts.values()) != rep.total_windows:
            failures.append(f"x={rep.x}: counts do not sum to total_windows")
        lr = lr_ratio(rep.total_windows, rep.x)
        if not LR_BAND[0] <= lr <= LR_BAND[1]:
            failures.append(f"x={rep.x}: Landau-Ramanujan ratio {lr:.4f} outside {LR_BAND}")
        return failures

    def cli(self):
        rep = self.cli_source
        rows = ["pattern,count"]
        for tup in rep.pattern_universe():
            label = "[" + ",".join(str(c) for c in tup) + "]"
            rows.append(f'"{label}",{rep.count_for(tup)}')
        expected = "".join(r + "\n" for r in rows).encode()
        argv = ["census", "5", "3", str(rep.x)]
        return [argv], expected, partial(twosq.census.census_report, self.q, 3, rep.x)


class SieveFar(Workload):
    """Narrow windows and wide segments at seed-chosen positions in 1e11-1e13.

    Every round sieves twelve 1000-wide windows near 1e11 (the latency
    samples), one narrow window near 1e12 and one near 1e13, a 2^20-wide
    segment near 1e11 and a 2^18-wide one near 1e12. A fixed quarter of the
    1e11 windows goes through the benchmark's cache directory and is queried
    again at the end of the round.
    """

    name = "sieve_far"
    item = "integers classified"
    trace_rounds = 2
    NARROW = 1000
    WIDE = (1 << 20, 1 << 18)  # near the low and the middle anchor

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.cache_dir = work_dir
        if tiny:
            self.anchors = (10**9, 10**9, 10**10)
            self.narrow_count = 4
            self.wide = (1 << 12, 1 << 12)
        else:
            self.anchors = (10**11, 10**12, 10**13)
            self.narrow_count = 12
            self.wide = self.WIDE
        self.sample_rng = random.Random(seed + 1)
        self.fresh: dict[tuple[int, int], object] = {}  # cached windows' first sieve

    def _position(self, anchor: int) -> int:
        return anchor + self.rng.randrange(anchor // 100)

    def round(self):
        low, mid, high = self.anchors
        ops, again = [], []
        for i in range(self.narrow_count):
            lo = self._position(low)
            cached = i % 4 == 0
            ops.append(("narrow", partial(self._window, lo, lo + self.NARROW, cached), True))
            if cached:
                again.append(("cached", partial(self._window, lo, lo + self.NARROW, True), False))
        for anchor in (mid, high):
            lo = self._position(anchor)
            ops.append(("far", partial(self._window, lo, lo + self.NARROW, False), False))
        for anchor, width in zip((low, mid), self.wide):
            lo = self._position(anchor)
            ops.append(("wide", partial(self._window, lo, lo + width, False), False))
        return ops + again

    def _window(self, lo, hi, cached):
        seg = twosq.sieve.sieve_segment(lo, hi, cache_dir=self.cache_dir if cached else None)
        return Done(items=hi - lo, payload=(seg, cached))

    def check(self, kind, payload):
        seg, cached = payload
        if kind == "cached":
            first = self.fresh.pop((seg.lo, seg.hi), None)
            if first is None or not (first == seg.bits).all():
                return [f"cached re-read of [{seg.lo}, {seg.hi}) differs from sieving"]
            return []
        if kind == "narrow" and cached:
            self.fresh[(seg.lo, seg.hi)] = seg.bits
        if kind == "narrow" and self.cli_source is None:
            # The first window is checked at every point, the others at two.
            self.cli_source = seg
            points = range(seg.lo, seg.hi)
        else:
            points = [
                seg.lo + int(pool[self.sample_rng.randrange(len(pool))])
                for pool in (seg.bits.nonzero()[0], (~seg.bits).nonzero()[0])
                if len(pool)
            ]
        wrong = [
            n for n in points
            if bool(seg.bits[n - seg.lo])
            != twosq.arith.is_sum_two_squares(twosq.arith.factorize(n))
        ]
        return [f"membership of {n} is wrong" for n in wrong[:3]]

    def cli(self):
        seg = self.cli_source
        lines = "".join(f"{v}\n" for v in seg.members().tolist())
        expected = ("value\n" + lines).encode()
        argv = ["sieve", str(seg.lo), str(seg.hi)]
        return [argv], expected, partial(twosq.sieve.sieve_segment, seg.lo, seg.hi)


# (q, a, h, k) and the scan bound t_max; bounds make each operation cost
# about the same (roughly a quarter second on a 2-vCPU Xeon VM).
WITNESS_POOL = (
    ((4, 1, 4, 8), 4000),
    ((4, 1, 8, 16), 4000),
    ((20, 1, 4, 8), 1500),
    ((52, 1, 4, 8), 2500),
    ((80, 42, 191, 392), 250),
)


class Witness(Workload):
    """Family build, obstruction check, scan and certificate re-verification.

    Every round runs each family of the pool once, in a seed-permuted order,
    with t_max jittered upward by under 1%.
    """

    name = "witness"
    item = "t values tested"
    certifies = True
    trace_rounds = 4

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.pool = [(params, 40 if tiny else tmax) for params, tmax in WITNESS_POOL]

    def round(self):
        order = list(self.pool)
        self.rng.shuffle(order)
        ops = []
        for params, tmax in order:
            tmax += self.rng.randrange(tmax // 100 + 1)
            ops.append(("family", partial(self._family, params, tmax), True))
        return ops

    def _family(self, params, tmax):
        q, a, h, k = params
        family = twosq.witness.build_witness_family(_factored(q), a, h, k)
        twosq.witness.check_local_obstructions(family)
        result = twosq.witness.scan_family(family, tmax)
        rejected = sum(1 for c in result.certificates if not c.verify())
        error = None
        if rejected:
            error = f"{rejected} certificates failed verify()"
        elif result.skipped_t:
            error = f"{len(result.skipped_t)} values skipped for budget"
        return Done(
            items=tmax + 1,
            certs=len(result.certificates) - rejected,
            payload=(params, tmax, result.certificates),
            error=error,
        )

    def check(self, kind, payload):
        params, tmax, certs = payload
        # The CLI leg reruns the first pool family, so its cost does not depend on the seed.
        if self.cli_source is None and params == self.pool[0][0]:
            self.cli_source = payload
        for cert in certs:
            problem = check_triple(cert)
            if problem:
                return [f"{params} t={cert.t}: {problem}"]
        return []

    def cli(self):
        (q, a, h, k), tmax, certs = self.cli_source
        expected = "".join(
            json.dumps(c.to_json_dict(), sort_keys=True) + "\n" for c in certs
        ).encode()
        argv = ["witness", str(q), str(a), str(h), str(k), "--tmax", str(tmax)]
        return [argv, ["verify"]], expected, partial(self._family, (q, a, h, k), tmax)


def blocking_patterns(moduli=(3, 4, 5)) -> list[tuple[int, int, int, int]]:
    out = []
    for q in moduli:
        adm = [c.value for c in twosq.admissibility.admissible_classes(_factored(q))]
        out += [(q, a, b, c) for a in adm for b in adm for c in adm]
    return out


class Blocking(Workload):
    """Every admissible pattern for q in {3, 4, 5}, in a seed-permuted order.

    Each operation builds and verifies the blocking system, then builds the
    witness family over it. Two seed-chosen q=5 patterns and the CLI leg's
    fixed one also run end_to_end_triple at a small x budget. The whole
    operation runs under a fixed deadline; the family builds of the q=4
    patterns [2,2,0], [2,2,1] and [2,2,2] overrun it and count as failures
    until the family search handles them.
    """

    name = "blocking"
    item = "patterns fully processed"
    certifies = True
    deadline_s = 1.5
    trace_rounds = 1
    X_BUDGET = 1_000_000
    CLI_PATTERN = (5, 1, 2, 3)

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        patterns = blocking_patterns((3,) if tiny else (3, 4, 5))
        self.rng.shuffle(patterns)
        self.patterns = patterns
        self.cli_pattern = (3, 1, 2, 0) if tiny else self.CLI_PATTERN
        others = [p for p in patterns if p[0] == self.cli_pattern[0] and p != self.cli_pattern]
        self.triples = {self.cli_pattern, *self.rng.sample(others, 2)}
        self.x_budget = 20_000 if tiny else self.X_BUDGET

    def round(self):
        return [
            ("pattern", partial(self._pattern, p, p in self.triples), True)
            for p in self.patterns
        ]

    def _pattern(self, pattern, triple):
        q, a, b, c = pattern
        qf = _factored(q)
        system = twosq.forcing.build_blocking_system(qf, a, b, c)
        family = twosq.witness.build_witness_family(system.T_blk, system.a_T.value, system.h, system.k)
        report = None
        if triple:
            report = twosq.forcing.end_to_end_triple(qf, a, b, c, x_budget=self.x_budget)
        certs = 1 + (len(report.certificates) if report else 0)
        return Done(items=1, certs=certs, payload=(pattern, system, family, report))

    def check(self, kind, payload):
        pattern, system, family, report = payload
        if pattern == self.cli_pattern:
            self.cli_source = payload
        try:
            system.verify()
            family.verify()
        except twosq.errors.TwoSqError as exc:
            return [f"{pattern}: {type(exc).__name__}: {exc}"]
        failures = []
        if family.q.value != system.T_blk.value or family.a != system.a_T.value:
            failures.append(f"{pattern}: family is not over the blocking system")
        for cert in report.certificates if report else ():
            problem = check_triple(cert) or (None if cert.verify() else "verify() failed")
            if problem:
                failures.append(f"{pattern} n={cert.n}: {problem}")
        return failures

    def cli(self):
        (q, a, b, c), _, _, report = self.cli_source
        payload = {
            "q": str(report.q),
            "pattern": [str(v) for v in report.pattern],
            "x_budget": str(report.x_budget),
            "count": str(report.count),
            "occurrences": [
                {"n": str(o.n), "values": [str(v) for v in o.values]} for o in report.occurrences
            ],
            "certificates": [cert.to_json_dict() for cert in report.certificates],
            "blocking_system": report.blocking.to_json_dict(),
        }
        expected = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
        argv = ["force-triple", str(q), str(a), str(b), str(c), "--xbudget", str(self.x_budget)]
        call = partial(twosq.forcing.end_to_end_triple, _factored(q), a, b, c, x_budget=self.x_budget)
        return [argv], expected, call


WORKLOADS = {w.name: w for w in (Census, SieveFar, Witness, Blocking)}
