"""twosq benchmark: one workload per process, closed-loop batch work.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the repository root. The library is imported from `src/` and the
CLI is run as `python -m twosq.cli` with PYTHONPATH=src; nothing is
installed or built. Human-readable report lines come first; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end metrics of an
untraced run; with `--trace 1` they are the per-layer metrics of a separate
traced run, whose spans are written under `.perfbench_work/`.

Exit codes: 0 success, 1 an output check failed, 2 the library source is
missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SPAWNS = 5
CLI_REPEATS = 5
PROBE_REPEATS = 3  # probe units before every operation
AROUND_UNITS = 10  # probe units before and after every child process
CLI_TIMEOUT_S = 60
TAIL_BEYOND = 10  # op_tail_s: the highest percentile with this many samples above it

# One thread per process: the load shape is one workload process at a time.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}

def _probe_unit() -> int:
    """A fixed slice of interpreted work, about 1.5 ms on a 2-vCPU Xeon VM."""
    total = 0
    for i in range(15_000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples how fast this process's CPU runs, next to every measurement.

    On a shared virtual machine the host runs other tenants on the same
    cores, which slows every instruction stream by a factor that changes
    within seconds: on a 2-vCPU Xeon VM a fixed pure-Python loop ran between
    1.0x and 1.7x its fastest time from one 2-second window to the next, and
    whole 20-second runs of one workload differed by up to 1.8x. The
    benchmark pins itself and its children to one CPU, samples the probe
    before every operation and around every child process, and divides
    times by the contention level seen next to them (mean probe time over
    the run's fastest probe, 1.0 on an idle core). That reports them at the
    CPU's uncontended speed; the report line keeps the raw ones. Operations
    of numpy-bound workloads are not corrected: the probe does not track
    their slowdowns.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, units: int = PROBE_REPEATS) -> float:
        """Run `units` probe units; return their mean time."""
        first = len(self.samples)
        for _ in range(units):
            start = time.perf_counter()
            _probe_unit()
            self.samples.append(time.perf_counter() - start)
        return statistics.fmean(self.samples[first:])

    def factor(self) -> float:
        """Mean contention level over the whole run."""
        return statistics.fmean(self.samples) / min(self.samples)

    def corrected(self, timed: list[tuple[float, float]]) -> list[float]:
        """(wall, probe level next to it) pairs to times at uncontended speed."""
        floor = min(self.samples)
        return [wall * floor / level for wall, level in timed]


class Overrun(Exception):
    """An operation passed its deadline."""


def _on_alarm(signum, frame):
    raise Overrun()


@dataclass
class OpRecord:
    kind: str
    seconds: float
    sample: bool
    items: int = 0
    certs: int = 0
    payload: object = None
    error: str | None = None
    check_failures: tuple[str, ...] = ()
    level: float = 0.0  # probe level around the operation


def timed_op(kind, fn, sample: bool, deadline_s: float, inputs=()) -> OpRecord:
    """Run one operation under a SIGALRM deadline; failures become records
    whose message names the operation's inputs."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            done = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Overrun:
        error = f"deadline {deadline_s} s overrun"
    except Exception as exc:  # the loop must go on; the failure is counted and reported
        error = f"{type(exc).__name__}: {exc}"[:300]
    else:
        elapsed = time.perf_counter() - start
        return OpRecord(kind, elapsed, sample, done.items, done.certs, done.payload, done.error)
    return OpRecord(kind, time.perf_counter() - start, sample, error=f"{inputs}: {error}")


def run_rounds(workload, probe: SpeedProbe, seconds: float | None = None,
               rounds: int | None = None, tracer=None) -> tuple[list[OpRecord], int]:
    """Whole rounds until the next would not fit in `seconds` (at least one),
    or exactly `rounds` rounds. Returns (records, rounds).

    Each operation is preceded by a speed probe and followed by the check of
    its output; neither is part of the operation's time. The output is then
    dropped. With a tracer, each operation is the root span of its calls.
    """
    records: list[OpRecord] = []
    start = time.perf_counter()
    done = 0
    while True:
        round_start = time.perf_counter()
        for kind, fn, sample in workload.round():
            inputs = getattr(fn, "args", ())
            if tracer is not None:
                fn = tracer.wrap(f"op.{kind}", fn)
            before = probe.sample()
            if records:
                records[-1].level = (records[-1].level + before) / 2
            rec = timed_op(kind, fn, sample, workload.deadline_s, inputs)
            rec.level = before
            if rec.payload is not None:
                rec.check_failures = tuple(workload.check(kind, rec.payload))
                rec.payload = None
            records.append(rec)
        done += 1
        now = time.perf_counter()
        if rounds is not None:
            if done >= rounds:
                break
        elif (now - start) + (now - round_start) > seconds:
            break
    records[-1].level = (records[-1].level + probe.sample()) / 2
    return records, done


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def subprocess_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], probe: SpeedProbe, stdin: bytes | None = None):
    """Run a child to completion under CLI_TIMEOUT_S.

    Returns (wall s, probe level around it, CompletedProcess). The deadline
    is the SIGALRM timer rather than subprocess's own timeout, whose polling
    wait rounds wall times up to 50 ms steps. On overrun, subprocess.run
    kills and reaps the child before Overrun propagates.
    """
    before = probe.sample(AROUND_UNITS)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, CLI_TIMEOUT_S)
    try:
        proc = subprocess.run(argv, input=stdin, capture_output=True, env=subprocess_env(), cwd=ROOT)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return wall, (before + probe.sample(AROUND_UNITS)) / 2, proc


def measure_setup(args, spawns: int, probe: SpeedProbe) -> list[tuple[float, float]]:
    """(wall, probe level) of fresh processes that import and warm up, then exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        argv.append("--tiny")
    timed = []
    for _ in range(spawns):
        wall, level, proc = run_process(argv, probe)
        if proc.returncode != 0:
            raise RuntimeError(f"setup process exited {proc.returncode}: {proc.stderr[-300:]!r}")
        timed.append((wall, level))
    return timed


def run_cli(pipeline: list[list[str]], repeats: int, probe: SpeedProbe) -> dict:
    """Run `twosq.cli` commands piped in order; time, hash and size the first stdout."""
    timed, hashes, sizes, errors = [], [], [], []
    for _ in range(repeats):
        wall, levels, stdin, first = 0.0, [], None, None
        for argv in pipeline:
            try:
                seconds, level, proc = run_process(
                    [sys.executable, "-m", "twosq.cli", *argv], probe, stdin
                )
            except Overrun:
                errors.append(f"{' '.join(argv)} ran over {CLI_TIMEOUT_S} s")
                return {"timed": [(CLI_TIMEOUT_S, 1.0)], "hashes": [""], "bytes": 0,
                        "errors": errors}
            wall += seconds
            levels.append(level)
            if proc.returncode != 0:
                errors.append(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-300:]!r}")
            if first is None:
                first = proc.stdout
            stdin = proc.stdout
        timed.append((wall, statistics.fmean(levels)))
        hashes.append(hashlib.sha256(first).hexdigest())
        sizes.append(len(first))
    return {"timed": timed, "hashes": hashes, "bytes": sizes[0], "errors": errors}


def cli_leg(workload, probe: SpeedProbe) -> tuple[dict, list[str], object]:
    """Run the workload's CLI command CLI_REPEATS times; a run fails unless it
    exits 0 with stdout byte-identical to what the library result implies."""
    if workload.cli_source is None:
        failure = "no operation produced the output the CLI leg reproduces"
        return {"timed": [(0.0, 1.0)], "hashes": [""], "bytes": 0, "errors": [failure],
                "failed_runs": CLI_REPEATS, "command": ""}, [failure], None
    pipeline, expected, library_call = workload.cli()
    result = run_cli(pipeline, CLI_REPEATS, probe)
    want = hashlib.sha256(expected).hexdigest()
    failures = list(result["errors"])
    if len(set(result["hashes"])) != 1:
        failures.append("CLI stdout differs between identical runs")
    mismatched = sum(1 for h in result["hashes"] if h != want)
    if mismatched:
        failures.append(f"{mismatched} CLI runs differ from the library result of the same inputs")
    result["failed_runs"] = min(len(result["errors"]) + mismatched, CLI_REPEATS)
    result["command"] = " | ".join("twosq " + " ".join(argv) for argv in pipeline)
    return result, failures, library_call


def cpu_record() -> dict:
    rec = {"nproc": os.cpu_count(), "pinned_to_cpu": sorted(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        rec["cpu_model"] = platform.processor() or "unknown"
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    rec["caches_per_cpu0"] = caches
    return rec


def environment(args) -> dict:
    import numpy

    return {
        **cpu_record(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": args.seed,
        "threads_per_process": 1,
        "tuning": "none: no CPU frequency, huge-page or kernel setting was changed; the "
                  "benchmark only pins its own processes to one CPU",
        "page_cache": "not controlled: whether sieve-cache files are read from the page cache "
                      "or from disk cannot be controlled here",
    }


def rates(records, seconds: list[float]) -> dict:
    """Rates over the summed operation time and latency percentiles."""
    items = sum(r.items for r in records if r.error is None)
    certs = sum(r.certs for r in records if r.error is None)
    latencies = [t for r, t in zip(records, seconds) if r.sample]
    tail_value, tail_pct = tail(latencies)
    return {
        "items_per_s": items / sum(seconds),
        "certs_per_s": certs / sum(seconds),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "op_tail_percentile": tail_pct,
        "items": items,
        "certs": certs,
    }


def summarize(records, probe: SpeedProbe | None) -> dict:
    """Metrics of a run's operations. With a probe, each operation's time is
    first divided by the contention level sampled around it."""
    seconds = [r.seconds for r in records]
    raw = rates(records, seconds)
    if probe is not None:
        seconds = probe.corrected([(r.seconds, r.level) for r in records])
    return {
        **rates(records, seconds),
        "raw": raw,
        "contention_factor": probe.factor() if probe is not None else 1.0,
        "busy_s": sum(r.seconds for r in records),
        "op_samples": sum(1 for r in records if r.sample),
        "ops": len(records),
        "errors": [f"{r.kind}: {r.error}" for r in records if r.error is not None],
        "wrong": [f"{r.kind}: {msg}" for r in records for msg in r.check_failures],
        "failed_ops": sum(1 for r in records if r.error is not None or r.check_failures),
    }


def emit(report: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Report line, then the result line. `correct` is false only for wrong
    outputs (failed checks, CLI runs); overruns and exceptions count in
    `failed` without making any output wrong."""
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "twosq" / "__init__.py").is_file():
        print(f"perfbench: library source not found at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    # One CPU for this process and its children, so the speed probe samples
    # the CPU every measured instruction runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import twosq.arith
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    twosq.arith.small_primes(10**6)
    work_dir = WORK / f"cache-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, str(work_dir))
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.trace:
            return traced_run(args, workload)
        return timed_run(args, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def timed_run(args, workload) -> int:
    probe = SpeedProbe()
    setup = measure_setup(args, 2 if args.tiny else SETUP_SPAWNS, probe)
    records, rounds = run_rounds(workload, probe, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = summarize(records, probe if workload.contention_corrected else None)
    cli, cli_failures, _ = cli_leg(workload, probe)
    wrong = summary["wrong"] + cli_failures
    attempted = len(records) + CLI_REPEATS
    failed = summary["failed_ops"] + cli["failed_runs"]
    values = {
        "setup_s": statistics.median(probe.corrected(setup)),
        "items_per_s": summary["items_per_s"],
        "op_p50_s": summary["op_p50_s"],
        "op_tail_s": summary["op_tail_s"],
        "cli_s": statistics.median(probe.corrected(cli["timed"])),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    report = {
        "workload": workload.name,
        "trace": 0,
        "metrics": metrics,
        "item": workload.item,
        "certs_per_s": {"value": summary["certs_per_s"], "unit": "1/s", "certs": summary["certs"]}
        if workload.certifies else "not applicable",
        "fail_ratio": {"value": failed / attempted, "unit": "ratio", "failed": failed,
                       "base": attempted},
        "contention_factor": summary["contention_factor"],
        "uncorrected": {k: summary["raw"][k] for k in ("items_per_s", "op_p50_s", "op_tail_s")},
        "op_samples": summary["op_samples"],
        "op_tail_percentile": summary["op_tail_percentile"],
        "ops": summary["ops"],
        "rounds": rounds,
        "busy_s": summary["busy_s"],
        "setup_walls_s": [wall for wall, _ in setup],
        "cli": {"command": cli["command"], "walls_s": [wall for wall, _ in cli["timed"]],
                "sha256": cli["hashes"][0], "stdout_bytes": cli["bytes"]},
        "failures": summary["errors"] + wrong,
        "environment": environment(args),
    }
    emit(report, not wrong, attempted, failed, metrics)
    return 0 if not wrong else 1


def traced_run(args, workload) -> int:
    import tracing

    rounds = 1 if args.tiny else workload.trace_rounds
    plain_probe, traced_probe = SpeedProbe(), SpeedProbe()
    plain, _ = run_rounds(workload, plain_probe, rounds=rounds)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced, _ = run_rounds(workload, traced_probe, rounds=rounds, tracer=tracer)
    cli, cli_failures, library_call = cli_leg(workload, plain_probe)
    library_s = [0.0]
    if library_call is not None:
        library_s = []
        for _ in range(3):
            start = time.perf_counter()
            library_call()
            library_s.append(time.perf_counter() - start)
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    values = tracing.layer_metrics(tracer.spans)
    corrected = workload.contention_corrected
    plain_rate = summarize(plain, plain_probe if corrected else None)["items_per_s"]
    traced_rate = summarize(traced, traced_probe if corrected else None)["items_per_s"]
    summary = summarize(plain + traced, None)
    values["cli.self_s"] = min(wall for wall, _ in cli["timed"]) - min(library_s)
    values["cli.stdout_bytes"] = cli["bytes"]
    values["trace.rate_ratio"] = traced_rate / plain_rate
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in tracing.PER_LAYER.items()}
    attempted = len(plain) + len(traced) + CLI_REPEATS
    failed = summary["failed_ops"] + cli["failed_runs"]
    wrong = summary["wrong"] + cli_failures
    report = {
        "workload": workload.name,
        "trace": 1,
        "rounds_per_phase": rounds,
        "untraced_items_per_s": plain_rate,
        "traced_items_per_s": traced_rate,
        "tracing_overhead": "trace.rate_ratio is traced items_per_s over untraced items_per_s, "
                            "equal-cost rounds in the same process",
        "spans_file": str(spans_path.relative_to(ROOT)),
        "cli_library_s": library_s,
        "fail_ratio": {"value": failed / attempted, "unit": "ratio", "failed": failed,
                       "base": attempted},
        "failures": summary["errors"] + wrong,
        "environment": environment(args),
    }
    emit(report, not wrong, attempted, failed, metrics)
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
