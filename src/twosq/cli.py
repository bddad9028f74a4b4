"""Command-line entry point.

Subcommands expose every pipeline with reproducible, machine-readable
output: identical invocations produce byte-identical bytes. Data goes to
standard output (or --output), progress and diagnostics to standard error.
Integers inside JSON are decimal strings throughout, since blocking-system
values overflow 64-bit words by a wide margin.

Exit codes: 0 success, 1 internal/budget errors, 2 hypothesis violations,
64 usage errors.

Conventions baked into the outputs: 0 and 1 count as sums of two squares,
and every bound is inclusive (members <= x).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

# Each command imports the layers it runs when it runs: `verify` loads only
# `certificate`, `arith` and `errors`, and `admissible` adds `admissibility`,
# so neither starts numpy or the sieve, census, witness and forcing layers.
from . import __version__
from .arith import FactoredInteger, factorize
from .errors import HypothesisViolation, TwoSqError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_HYPOTHESIS = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    """A command-line argument fails a check of the CLI's own."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


def _diagnose(error: str, detail: str, **fields) -> None:
    print(json.dumps({"error": error, "detail": detail, **fields}), file=sys.stderr)


def _csv_field(text: str) -> str:
    return f'"{text}"' if "," in text else text


def _pattern_label(classes) -> str:
    return "[" + ",".join(str(c) for c in classes) + "]"


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad integer list {text!r}") from exc


def _occurrence_json(occ) -> dict:
    return {"n": str(occ.n), "values": [str(v) for v in occ.values]}


def _modulus(q: int) -> FactoredInteger:
    if q < 1:
        raise _UsageError(f"q must be >= 1, got {q}")
    return factorize(q)


def _member_bound(x: int, name: str) -> None:
    from . import sieve

    # the member stream sieves upward from 0 through x, and the sieve ends at 2^62
    if x >= sieve.MAX_HI:
        raise _UsageError(f"{name} must be < 2^62, got {x}")


def _output_flags(sub: argparse.ArgumentParser, formats: bool = True) -> None:
    if formats:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", metavar="PATH", default=None)


def _sieve_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--cache-dir",
        default=os.environ.get("TWOSQ_CACHE_DIR") or None,  # empty counts as unset
        help="directory for sieve bitmap dumps (env: TWOSQ_CACHE_DIR)",
    )


def _cmd_sieve(args) -> int:
    from . import sieve

    # checked whole, before sieving any segment of the range
    if not 0 <= args.lo < args.hi <= sieve.MAX_HI:
        raise _UsageError(f"need 0 <= lo < hi <= 2^62, got [{args.lo}, {args.hi})")
    if args.dump is not None and args.hi - args.lo > sieve.MAX_SEGMENT_LEN:
        raise _UsageError(
            f"--dump takes one segment of at most {sieve.MAX_SEGMENT_LEN} integers, "
            f"got {args.hi - args.lo}"
        )
    # the dump format is a single segment, so --dump builds the range as one
    step = args.hi - args.lo if args.dump is not None else sieve.DEFAULT_SEGMENT_LEN
    lines = []
    for lo in range(args.lo, args.hi, step):
        seg = sieve.sieve_segment(lo, min(lo + step, args.hi), cache_dir=args.cache_dir)
        lines.extend(str(v) for v in seg.members().tolist())
    if args.dump is not None:
        seg.save(args.dump)
    if args.format == "json":
        _emit(
            _json_dumps({"lo": str(args.lo), "hi": str(args.hi), "members": lines}) + "\n",
            args.output,
        )
    else:
        _emit("value\n" + "".join(line + "\n" for line in lines), args.output)
    _status(f"{len(lines)} members in [{args.lo}, {args.hi})")
    return EXIT_OK


def _cmd_admissible(args) -> int:
    from .admissibility import admissible_classes

    q = _modulus(args.q)
    classes = [str(c.value) for c in admissible_classes(q)]
    if args.format == "json":
        _emit(_json_dumps({"q": str(args.q), "admissible": classes}) + "\n", args.output)
    else:
        _emit(",".join(classes) + "\n", args.output)
    return EXIT_OK


def _cmd_census(args) -> int:
    from . import census

    q = _modulus(args.q)
    if args.r < 1:
        raise _UsageError(f"r must be >= 1, got {args.r}")
    _member_bound(args.x, "x")
    report = census.census_report(q, args.r, args.x, cache_dir=args.cache_dir)
    if args.format == "json":
        patterns = []
        for tup in report.pattern_universe():
            entry = {
                "pattern": [str(c) for c in tup],
                "count": str(report.count_for(tup)),
            }
            occ = report.occurrences.get(tup)
            if occ:
                entry["first_n"] = str(occ[0].n)
                entry["first_values"] = [str(v) for v in occ[0].values]
            patterns.append(entry)
        _emit(
            _json_dumps(
                {
                    "q": str(report.q),
                    "r": str(report.r),
                    "x": str(report.x),
                    "total_windows": str(report.total_windows),
                    "patterns": patterns,
                }
            )
            + "\n",
            args.output,
        )
    else:
        rows = ["pattern,count"]
        for tup in report.pattern_universe():
            rows.append(f"{_csv_field(_pattern_label(tup))},{report.count_for(tup)}")
        _emit("".join(r + "\n" for r in rows), args.output)
    _status(f"{report.total_windows} windows over {len(report.counts)} observed patterns")
    return EXIT_OK


def _cmd_pattern(args) -> int:
    from . import census

    q = _modulus(args.q)
    classes = _parse_ints(args.classes)
    try:
        spec = census.PatternSpec(q, classes)
    except ValueError as exc:  # a class outside [0, q)
        raise _UsageError(str(exc)) from exc
    _member_bound(args.x, "x")
    result = census.match_pattern(spec, args.x, cache_dir=args.cache_dir)
    if args.format == "json":
        _emit(
            _json_dumps(
                {
                    "q": str(args.q),
                    "pattern": [str(c) for c in classes],
                    "x": str(args.x),
                    "count": str(result.count),
                    "occurrences": [_occurrence_json(o) for o in result.occurrences],
                }
            )
            + "\n",
            args.output,
        )
    else:
        _emit(
            "pattern,count\n"
            f"{_csv_field(_pattern_label(classes))},{result.count}\n",
            args.output,
        )
    return EXIT_OK


def _cmd_witness(args) -> int:
    from . import witness

    q = _modulus(args.q)
    if args.tmax < 0:
        raise _UsageError(f"--tmax must be >= 0, got {args.tmax}")
    family = witness.build_witness_family(q, args.a, args.h, args.k)
    witness.check_local_obstructions(family)
    _status(
        f"family: T={family.T} F(t) = {family.A}t^2 + {family.B}t + {family.C + family.k}"
    )
    result = witness.scan_family(family, args.tmax)
    lines = [json.dumps(c.to_json_dict(), sort_keys=True) for c in result.certificates]
    _emit("".join(line + "\n" for line in lines), args.output)
    _status(
        f"{len(result.certificates)} certificates, {len(result.skipped_t)} skipped,"
        f" {result.sieved} sieved, t <= {args.tmax}"
    )
    return EXIT_OK


def _cmd_force_triple(args) -> int:
    from . import forcing

    q = _modulus(args.q)
    if args.xbudget < 0:
        raise _UsageError(f"--xbudget must be >= 0, got {args.xbudget}")
    _member_bound(args.xbudget, "--xbudget")
    report = forcing.end_to_end_triple(
        q,
        args.a,
        args.b,
        args.c,
        x_budget=args.xbudget,
        cache_dir=args.cache_dir,
    )
    _emit(
        _json_dumps(
            {
                "q": str(report.q),
                "pattern": [str(v) for v in report.pattern],
                "x_budget": str(report.x_budget),
                "count": str(report.count),
                "occurrences": [_occurrence_json(o) for o in report.occurrences],
                "certificates": [c.to_json_dict() for c in report.certificates],
                "blocking_system": report.blocking.to_json_dict(),
            }
        )
        + "\n",
        args.output,
    )
    _status(f"{report.count} occurrences below {report.x_budget}")
    return EXIT_OK


def _cmd_tuple(args) -> int:
    from . import forcing

    q = _modulus(args.q)
    if args.sizes is not None:
        sizes = list(_parse_ints(args.sizes))
        delta = None
    else:
        sizes = forcing.bin_plan(args.M, args.theta1, args.theta2)
        delta = forcing.delta_constant(args.theta1, args.theta2)
    design = forcing.construct_two_class_tuple(q, args.a, args.b, args.j, sizes)
    payload = {
        "q": str(design.q),
        "a": str(design.a),
        "b": str(design.b),
        "j": str(design.j),
        "M": str(design.M),
        "bins": [str(s) for s in design.bins],
        "offsets": [str(h) for h in design.offsets],
        "transition_index": str(design.transition_index),
    }
    if delta is not None:
        payload["delta"] = repr(delta)
    _emit(_json_dumps(payload) + "\n", args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.path == "-":
        return _verify_lines(sys.stdin)
    with open(args.path, "r", encoding="utf-8") as fh:
        return _verify_lines(fh)


def _verify_lines(fh) -> int:
    """Verify the certificates of fh one line at a time, stopping at the
    first malformed or failing one. Each line read is cut as str.splitlines
    would cut the whole text, so line numbers count the same boundaries."""
    from . import certificate

    lines = (line for chunk in fh for line in chunk.splitlines())
    total = 0
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            cert = certificate.TripleCertificate.from_json_dict(json.loads(line))
        # json.loads raises RecursionError on arrays or objects nested too deep
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            _diagnose("malformed_certificate", f"{type(exc).__name__}: {exc}", line=str(lineno))
            return EXIT_INTERNAL
        if not cert.verify():
            _diagnose("verification_failed", "certificate failed verification", line=str(lineno))
            return EXIT_INTERNAL
        total += 1
    _status(f"{total} certificates verified")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twosq",
        description="Sums of two squares: enumeration, pattern census, witnesses.",
        epilog=(
            "Conventions: 0 and 1 count as sums of two squares (0 = 0^2 + 0^2), "
            "and every bound is inclusive (members <= x)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"twosq {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("sieve", help="enumerate members of E in [lo, hi)")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--dump", metavar="PATH", help="write the raw bitmap dump")
    _output_flags(p)
    _sieve_flags(p)
    p.set_defaults(func=_cmd_sieve)

    p = subs.add_parser("admissible", help="admissible classes mod q")
    p.add_argument("q", type=int)
    _output_flags(p)
    p.set_defaults(func=_cmd_admissible)

    p = subs.add_parser("census", help="all-pattern census N(x;q,a) for length r")
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.add_argument("x", type=int)
    _output_flags(p)
    _sieve_flags(p)
    p.set_defaults(func=_cmd_census)

    p = subs.add_parser("pattern", help="count one pattern, e.g. pattern 4 1,2 10")
    p.add_argument("q", type=int)
    p.add_argument("classes", help="comma-separated residue classes")
    p.add_argument("x", type=int)
    _output_flags(p)
    _sieve_flags(p)
    p.set_defaults(func=_cmd_pattern)

    p = subs.add_parser("witness", help="build the quadratic family and scan it")
    p.add_argument("q", type=int)
    p.add_argument("a", type=int)
    p.add_argument("h", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--tmax", type=int, default=100)
    _output_flags(p, formats=False)
    p.set_defaults(func=_cmd_witness)

    p = subs.add_parser("force-triple", help="blocking system plus census triples")
    p.add_argument("q", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--xbudget", type=int, default=10_000_000)
    _output_flags(p, formats=False)
    _sieve_flags(p)
    p.set_defaults(func=_cmd_force_triple)

    p = subs.add_parser("tuple", help="two-class offset tuple from a bin plan")
    p.add_argument("q", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("j", type=int)
    p.add_argument("M", type=int)
    p.add_argument("theta1", type=float)
    p.add_argument("theta2", type=float)
    p.add_argument("--sizes", help="explicit bin sizes, bypassing the plan minima")
    _output_flags(p, formats=False)
    p.set_defaults(func=_cmd_tuple)

    p = subs.add_parser("verify", help="re-verify JSONL certificates (file or stdin)")
    p.add_argument("path", nargs="?", default="-")
    p.set_defaults(func=_cmd_verify)

    return parser


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's int<->str digit limit for one command, then restore it.

    Blocking-system moduli and the values of their families run to many
    thousands of digits, past the default limit of 4300.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def run(argv: list[str] | None = None) -> int:
    with _unlimited_int_digits():
        return _run(argv)


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except HypothesisViolation as exc:
        _diagnose("hypothesis_violation", str(exc))
        return EXIT_HYPOTHESIS
    except _UsageError as exc:
        _diagnose("bad_argument", str(exc))
        return EXIT_USAGE
    except (TwoSqError, ValueError, OSError) as exc:
        _diagnose(type(exc).__name__, str(exc))
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
