"""Span tracing of the twosq layers, kept entirely outside the library.

`Tracer.installed()` swaps module attributes of the library for wrappers
that record one span per call (name, start, end, parent, attributes) and
restores the originals on exit. The wrappers sit at the call sites the
library itself uses (for example `twosq.witness.factorize`, which is the
name `scan_family` looks up), so library-internal calls are traced without
touching the library. The benchmark calls the library through the same
module attributes, so its own calls are traced too.

Arithmetic helpers run up to tens of thousands of times per operation, so
their calls are folded: each call adds its count and time to the enclosing
span instead of becoming a span of its own. Self times stay exact, and the
span count stays proportional to the operations.

Spans are kept in memory and written out once, at the end of the run.
`layer_metrics` turns them into the per-layer numbers: busy time (spans of
a layer not nested in another span of the same layer), self time (span
time minus time in child spans and folded calls), and counts.
"""

from __future__ import annotations

import contextlib
import json
import time

import twosq.census
import twosq.forcing
import twosq.sieve
import twosq.witness
from workloads import lr_ratio

# (module, attribute, span name); the layer is the span name's first part.
FUNCTION_SITES = [
    (twosq.sieve, "sieve_segment", "sieve.segment"),
    (twosq.census, "census_report", "census.report"),
    (twosq.census, "match_pattern", "census.match"),
    (twosq.census, "find_first_occurrence", "census.first"),
    (twosq.forcing, "match_pattern", "census.match"),
    (twosq.census, "admissible_classes", "admissibility.classes"),
    (twosq.witness, "is_admissible_value", "admissibility.value"),
    (twosq.forcing, "is_admissible_value", "admissibility.value"),
    (twosq.forcing, "lift_admissible", "admissibility.lift"),
    (twosq.witness, "factorize", "arith.factorize"),
    (twosq.forcing, "factorize", "arith.factorize"),
    (twosq.witness, "represent_two_squares", "arith.represent"),
    (twosq.forcing, "represent_two_squares", "arith.represent"),
    (twosq.witness, "sqrt_mod_prime_power", "arith.sqrt_mod"),
    (twosq.witness, "crt_combine", "arith.crt"),
    (twosq.forcing, "crt_combine", "arith.crt"),
    (twosq.forcing, "is_prime", "arith.is_prime"),
    (twosq.witness, "build_witness_family", "witness.build"),
    (twosq.witness, "build_family", "witness.build_family"),
    (twosq.witness, "check_local_obstructions", "witness.obstructions"),
    (twosq.witness, "scan_family", "witness.scan"),
    (twosq.forcing, "check_hypotheses", "witness.hypotheses"),
    (twosq.forcing, "build_blocking_system", "forcing.build"),
    (twosq.forcing, "end_to_end_triple", "forcing.triple"),
]

# Call sites folded into the enclosing span as (calls, ns, roots returned).
FOLDED = {
    "arith.factorize", "arith.represent", "arith.sqrt_mod", "arith.crt",
    "arith.is_prime", "admissibility.value",
}

# (class, method, span name); load is a classmethod.
METHOD_SITES = [
    (twosq.sieve.TwoSqSegment, "save", "sieve.cache_write"),
    (twosq.sieve.TwoSqSegment, "load", "sieve.cache_read"),
    (twosq.witness.TripleCertificate, "verify", "witness.verify"),
    (twosq.forcing.BlockingSystem, "verify", "forcing.verify"),
]


def _attrs_sieve(args, kwargs, out):
    return {"ints": out.hi - out.lo}


def _attrs_census(args, kwargs, out):
    x = args[2] if len(args) > 2 else kwargs["x"]
    kept = sum(len(lst) for lst in out.occurrences.values())
    return {"windows": out.total_windows, "kept": kept, "x": x}


def _attrs_scan(args, kwargs, out):
    return {"tested": out.t_max + 1, "certs": len(out.certificates), "skipped": len(out.skipped_t)}


def _attrs_blocking(args, kwargs, out):
    return {"bits": out.T_blk.value.bit_length(), "primes": len(out.blocking_primes)}


ATTRS = {
    "sieve.segment": _attrs_sieve,
    "census.report": _attrs_census,
    "witness.scan": _attrs_scan,
    "forcing.build": _attrs_blocking,
}

# Per-layer metrics: name -> (unit, better). Order is the report order.
PER_LAYER = {
    "sieve.calls": ("count", "higher"),
    "sieve.busy_s": ("s", "lower"),
    "sieve.ns_per_int": ("ns", "lower"),
    "sieve.segments_unused": ("count", "lower"),
    "sieve.cache_hits": ("count", "higher"),
    "sieve.cache_read_s": ("s", "lower"),
    "sieve.cache_write_s": ("s", "lower"),
    "census.busy_s": ("s", "lower"),
    "census.self_s": ("s", "lower"),
    "census.windows": ("count", "higher"),
    "census.ns_per_window": ("ns", "lower"),
    "census.occ_kept_ratio": ("ratio", "higher"),
    "census.lr_ratio": ("ratio", "lower"),
    "arith.factorize.calls": ("count", "higher"),
    "arith.factorize.busy_s": ("s", "lower"),
    "arith.factorize.us_per_call": ("us", "lower"),
    "arith.represent.busy_s": ("s", "lower"),
    "arith.is_prime.calls": ("count", "lower"),
    "arith.is_prime.busy_s": ("s", "lower"),
    "arith.sqrt_mod.calls": ("count", "lower"),
    "arith.sqrt_mod.roots": ("count", "lower"),
    "arith.crt.busy_s": ("s", "lower"),
    "admissibility.calls": ("count", "lower"),
    "admissibility.busy_s": ("s", "lower"),
    "witness.build.busy_s": ("s", "lower"),
    "witness.build.rejected": ("count", "lower"),
    "witness.scan.busy_s": ("s", "lower"),
    "witness.scan.self_s": ("s", "lower"),
    "witness.scan.cert_yield": ("ratio", "higher"),
    "witness.scan.skipped": ("count", "lower"),
    "witness.verify.calls": ("count", "higher"),
    "witness.verify.busy_s": ("s", "lower"),
    "forcing.build.busy_s": ("s", "lower"),
    "forcing.build.self_s": ("s", "lower"),
    "forcing.verify.busy_s": ("s", "lower"),
    "forcing.prime_tests_per_prime": ("ratio", "lower"),
    "forcing.T_blk_bits": ("bits", "lower"),
    "forcing.triple.busy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "trace.rate_ratio": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}


class Tracer:
    """In-memory span recorder.

    A span is [name, start_ns, end_ns, parent, attrs, folded], where folded
    maps a folded call site to [calls, ns, roots] made directly inside it.
    """

    def __init__(self):
        self.spans: list[list] = [["root", 0, 0, -1, None, None]]
        self._stack: list[int] = [0]

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1], None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        if name in FOLDED:
            return self._fold(name, fn)
        attrs = ATTRS.get(name)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    rec[4] = attrs(args, kwargs, out)
                return out
            except BaseException as exc:
                rec[4] = {"error": type(exc).__name__}
                raise
            finally:
                self._close(rec)

        return traced

    def _fold(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                parent = spans[stack[-1]]
                if parent[5] is None:
                    parent[5] = {}
                totals = parent[5].setdefault(name, [0, 0, 0])
                totals[0] += 1
                totals[1] += clock() - start
                if isinstance(out, list):
                    totals[2] += len(out)

        return traced

    def wrap_generator(self, name: str, fn):
        """Trace each next() of the generator `fn` returns as its own span."""

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    rec = self._open(name)
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    except BaseException as exc:
                        rec[4] = {"error": type(exc).__name__}
                        raise
                    finally:
                        self._close(rec)
                    yield value
            finally:
                inner.close()

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name in FUNCTION_SITES:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            saved.append((twosq.census, "iter_member_arrays", twosq.census.iter_member_arrays))
            twosq.census.iter_member_arrays = self.wrap_generator(
                "sieve.next_block", twosq.census.iter_member_arrays
            )
            for cls, attr, name in METHOD_SITES:
                raw = cls.__dict__[attr]
                saved.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, raw))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs, folded) in enumerate(self.spans):
                if i == 0:
                    continue
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent if parent > 0 else None, "attrs": attrs,
                         "folded": folded},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer busy/self times and counts derived from the spans alone."""
    n = len(spans)
    names = [s[0] for s in spans]
    layer = [name.split(".", 1)[0] for name in names]
    dur = [(s[2] - s[1]) / 1e9 for s in spans]
    child = [sum(ns for _, ns, _ in (s[5] or {}).values()) / 1e9 for s in spans]
    above: list[frozenset] = [frozenset()] * n  # layers on the ancestor path
    under_build = [False] * n  # inside a forcing.build span
    for i in range(1, n):
        p = spans[i][3]
        child[p] += dur[i]
        above[i] = above[p] | {layer[p]}
        under_build[i] = under_build[p] or names[p] == "forcing.build"
    self_t = [dur[i] - child[i] for i in range(n)]

    def ids(name: str) -> list[int]:
        return [i for i in range(n) if names[i] == name]

    def total(name: str, values=dur) -> float:
        return sum(values[i] for i in ids(name))

    def attr_sum(name: str, key: str) -> float:
        return sum((spans[i][4] or {}).get(key, 0) for i in ids(name))

    def busy(lay: str) -> float:
        return sum(dur[i] for i in range(n) if layer[i] == lay and lay not in above[i])

    def folded(name: str, field: int, where=range(n)) -> float:
        return sum((spans[i][5] or {}).get(name, (0, 0, 0))[field] for i in where)

    def folded_s(name: str) -> float:
        return folded(name, 1) / 1e9

    hits = {spans[i][3] for i in ids("sieve.cache_read")}
    segments = ids("sieve.segment")
    fresh = [i for i in segments if i not in hits]
    fresh_ints = sum((spans[i][4] or {}).get("ints", 0) for i in fresh)
    # Segments sieved inside the census stream against blocks it consumed.
    blocks = set(ids("sieve.next_block"))
    made_in_blocks = sum(1 for i in segments if spans[i][3] in blocks)
    consumed = sum(1 for i in blocks if not (spans[i][4] or {}).get("error"))
    reports = [spans[i][4] for i in ids("census.report") if spans[i][4]]
    windows = sum(r["windows"] for r in reports)
    lr = [lr_ratio(r["windows"], r["x"]) for r in reports]
    tested = attr_sum("witness.scan", "tested")
    built = [spans[i][4] for i in ids("forcing.build") if spans[i][4] and "bits" in spans[i][4]]
    in_build = [i for i in range(n) if under_build[i] or names[i] == "forcing.build"]
    factorize_calls = folded("arith.factorize", 0)
    return {
        "sieve.calls": len(segments),
        "sieve.busy_s": busy("sieve"),
        "sieve.ns_per_int": _ratio(sum(self_t[i] for i in fresh) * 1e9, fresh_ints),
        "sieve.segments_unused": max(made_in_blocks - consumed, 0),
        "sieve.cache_hits": len(hits),
        "sieve.cache_read_s": total("sieve.cache_read"),
        "sieve.cache_write_s": total("sieve.cache_write"),
        "census.busy_s": busy("census"),
        "census.self_s": sum(self_t[i] for i in range(n) if layer[i] == "census"),
        "census.windows": windows,
        "census.ns_per_window": _ratio(total("census.report", self_t) * 1e9, windows),
        "census.occ_kept_ratio": _ratio(sum(r["kept"] for r in reports), windows),
        "census.lr_ratio": _ratio(sum(lr), len(lr)),
        "arith.factorize.calls": factorize_calls,
        "arith.factorize.busy_s": folded_s("arith.factorize"),
        "arith.factorize.us_per_call": _ratio(folded("arith.factorize", 1) / 1e3, factorize_calls),
        "arith.represent.busy_s": folded_s("arith.represent"),
        "arith.is_prime.calls": folded("arith.is_prime", 0),
        "arith.is_prime.busy_s": folded_s("arith.is_prime"),
        "arith.sqrt_mod.calls": folded("arith.sqrt_mod", 0),
        "arith.sqrt_mod.roots": folded("arith.sqrt_mod", 2),
        "arith.crt.busy_s": folded_s("arith.crt"),
        "admissibility.calls": sum(1 for x in layer if x == "admissibility")
        + folded("admissibility.value", 0),
        "admissibility.busy_s": busy("admissibility") + folded_s("admissibility.value"),
        "witness.build.busy_s": total("witness.build"),
        "witness.build.rejected": sum(
            1 for i in ids("witness.build_family") if (spans[i][4] or {}).get("error")
        ),
        "witness.scan.busy_s": total("witness.scan"),
        "witness.scan.self_s": total("witness.scan", self_t),
        "witness.scan.cert_yield": _ratio(attr_sum("witness.scan", "certs"), tested),
        "witness.scan.skipped": attr_sum("witness.scan", "skipped"),
        "witness.verify.calls": len(ids("witness.verify")),
        "witness.verify.busy_s": total("witness.verify"),
        "forcing.build.busy_s": total("forcing.build"),
        "forcing.build.self_s": total("forcing.build", self_t),
        "forcing.verify.busy_s": total("forcing.verify"),
        "forcing.prime_tests_per_prime": _ratio(
            folded("arith.is_prime", 0, in_build), sum(b["primes"] for b in built)
        ),
        "forcing.T_blk_bits": _ratio(sum(b["bits"] for b in built), len(built)),
        "forcing.triple.busy_s": total("forcing.triple"),
        "trace.spans": n - 1,
    }
