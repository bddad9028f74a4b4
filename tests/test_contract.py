"""The failure contract as a property: every command answers.

Hypothesis builds argument vectors for each subcommand and runs them in
process through `cli.run` under a SIGALRM. Whatever the input, the exit code
is 0, 1, 2 or 64; on 1 or 2 the last line of stderr is a JSON diagnostic with
"error" and "detail"; no exception escapes `run`, and no example runs into
the alarm.

Arguments that set the amount of work stay small: x, hi - lo, the sieve's lo,
--tmax, --xbudget, q for `admissible`, `tuple`'s M and bin sizes, the
census's r (its output has a row per pattern, up to 2^20 of them) and the
witness's q, h and k, which set the size of every F(t) the scan factors (rho
bounds a large F(t) only at seconds per value). Every other integer comes
from EDGE, and the work-bearing ones are also drawn from its values that the
CLI refuses. `tuple`'s M = 2 plans are left out: the greedy spends about 10 s
on their 16,000-odd offsets, and CI pins the paper's one. For the same
reason the thetas are a fixed list whose M = 1 plans have at most 780
offsets (theta1 = theta2 = 0.003 would give 28,282).

The examples are fixed (`derandomize=True`): EXAMPLES of them, or as many
as `--hypothesis-profile=ci` (tests/conftest.py) asks for when that is more.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twosq.cli import run

ALARM_S = 5
EXAMPLES = max(1000, settings.default.max_examples)

EDGE = (0, 1, -1, 2, 3, 4, 5, 7, 8, 12, 16, 25, 2**31, 2**62 - 1, 2**62, 2**64, 10**30, -(10**30))
NEGATIVE = (-1, -(10**30))
BEYOND = (2**62, 2**64, 10**30)  # refused as a member bound or sieve end
FLOATS = (0.0, -0.0, 5e-324, 1e-300, 1e-150, 0.01, 0.025, -0.025, 0.05, 1 / 18, 0.5, 1.0,
          float("nan"), float("inf"), float("-inf"))
JUNK = ("", ",", "a", "1,,2", " 3", "1.5", "0x10", "1e3", "--", "-", "[1]", "\u0663")

edge = st.sampled_from(EDGE)
junk = st.sampled_from(JUNK)


def work(bound: int, *refused: int):
    """A work-bearing integer: 0..bound, a negative one or a refused one."""
    return st.one_of(st.integers(0, bound), st.sampled_from(NEGATIVE + refused))


def int_list(elements):
    """A comma-separated list, possibly empty, or junk."""
    return st.one_of(st.lists(elements.map(str), max_size=4).map(",".join), junk)


def command(name, *parts):
    """(argv, no stdin) for one subcommand: each part draws an int, a str or
    a list of further arguments."""

    def argv(drawn):
        args = [name]
        for part in drawn:
            args += map(str, part) if isinstance(part, list) else [str(part)]
        return args, None

    return st.tuples(*parts).map(argv)


def flag(name, strategy):
    return st.one_of(st.just([]), strategy.map(lambda value: [name, str(value)]))


formats = st.sampled_from(([], ["--format", "csv"], ["--format", "json"]))
floats = st.sampled_from(FLOATS).map(repr)

# `twosq witness 4 1 4 8 --tmax 4`'s first line, valid for the verifier
VALID = {
    "a": "1", "consecutive": None, "h": "4", "k": "8", "n": "1", "q": "4",
    "reps": [["0", "1"], ["1", "2"], ["0", "3"]], "t": "0",
}
wire_value = st.one_of(
    edge.map(str), junk, edge, st.none(), st.booleans(), st.just([]), st.just({}),
    st.just([["0", "1"], ["1", "1"], ["1", "1"]]), st.just([["2", "1"]]),
)
certificate_line = st.one_of(
    st.just(VALID),
    st.tuples(st.sampled_from(sorted(VALID)), wire_value).map(lambda kv: {**VALID, kv[0]: kv[1]}),
    st.sampled_from(sorted(VALID)).map(lambda key: {k: v for k, v in VALID.items() if k != key}),
).map(json.dumps) | junk | st.just("[" * 100_000)

sieve_range = st.tuples(work(10**5, *BEYOND), work(10**5)).map(lambda lw: [lw[0], lw[0] + lw[1]])
tuple_plan = st.one_of(
    st.tuples(st.integers(-1, 1000).filter(lambda M: M != 2), floats, floats).map(list),
    st.tuples(edge, floats, floats, int_list(st.integers(-1, 300))).map(lambda p: [*p[:3], "--sizes=" + p[3]]),
)

ARGV = st.one_of(
    command("sieve", sieve_range, formats),
    command("admissible", work(10**5), formats),
    command("census", edge, st.one_of(st.integers(0, 3), st.sampled_from(NEGATIVE + BEYOND + (2**31,))),
            work(10**5, *BEYOND), formats),
    command("pattern", edge, int_list(st.one_of(edge, st.integers(0, 30))), work(10**5, *BEYOND), formats),
    command("witness", st.one_of(st.integers(-1, 400), st.integers(1, 100).map(lambda n: 4 * n)), edge,
            st.integers(-1, 1000), st.integers(-1, 1000), flag("--tmax", work(1000))),
    command("force-triple", edge, edge, edge, edge, flag("--xbudget", work(10**5, *BEYOND))),
    command("tuple", edge, edge, edge, edge, tuple_plan),
    st.lists(certificate_line, max_size=3).map(lambda lines: (["verify"], "\n".join(lines) + "\n")),
)


class _Alarm(BaseException):
    """Raised by SIGALRM, past every `except Exception` of the library."""


def _ring(signum, frame):
    raise _Alarm


@contextlib.contextmanager
def _alarm(seconds: int):
    previous = signal.signal(signal.SIGALRM, _ring)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ARGV)
# the tuple plan of k = 2,113,591 offsets, whose greedy never finished
@example((["tuple", "1", "0", "0", "1", "3", "0.025", "0.025"], None))
# the family search at q = 2^64 that asked for 2^32 square roots at once
@example((["witness", str(2**64), "1", str(2**62 - 1), "25", "--tmax", "5"], None))
def test_every_command_answers(case):
    argv, stdin = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if stdin is not None:
            stack.enter_context(mock.patch.object(sys, "stdin", io.StringIO(stdin)))
        try:
            with _alarm(ALARM_S):
                code = run(argv)
        except _Alarm:
            raise AssertionError(f"no answer within {ALARM_S} s: twosq {' '.join(argv)}") from None
    assert code in (0, 1, 2, 64), (argv, code)
    if code in (1, 2):
        diagnostic = json.loads(err.getvalue().splitlines()[-1])
        assert "error" in diagnostic and "detail" in diagnostic, diagnostic
