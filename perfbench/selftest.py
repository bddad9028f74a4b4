"""Self-test of the benchmark at tiny sizes (about a minute):

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced with `--tiny`,
and asserts that each run exits 0, that its output checks pass, that its
last line carries exactly the metrics BENCHMARK.json names with their
units, and that the report line carries the environment record. It also
asserts that the benchmark refuses to run, without printing a result,
where the library source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 300
ENVIRONMENT_KEYS = {
    "nproc", "cpu_model", "caches_per_cpu0", "python", "numpy", "seed", "tuning", "page_cache",
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=TIMEOUT_S)


def check_run(workload: str, trace: int) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, report["failures"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}, set(result["metrics"])
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        if not trace:
            assert got["value"] > 0, (m["name"], got)
    assert ENVIRONMENT_KEYS <= set(report["environment"]), report["environment"].keys()
    assert report["fail_ratio"]["base"] == result["attempted"]
    if trace:
        assert (ROOT / report["spans_file"]).stat().st_size > 0
        assert report["untraced_items_per_s"] > 0 and report["traced_items_per_s"] > 0
    else:
        assert report["op_samples"] >= 1 and 0 < report["op_tail_percentile"] <= 100
        if workload in ("witness", "blocking"):
            assert report["certs_per_s"]["value"] > 0, report["certs_per_s"]


def check_refuses_without_source() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0, "ran without the library source"
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_refuses_without_source()
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check_run(workload["name"], trace)
            print(f"ok {workload['name']} trace={trace}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
