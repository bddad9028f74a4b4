import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twosq
from twosq import sieve
from twosq.cli import run


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pattern_example(capsys):
    code, out, _ = run_capture(capsys, ["pattern", "4", "1,2", "10"])
    assert code == 0
    assert out == 'pattern,count\n"[1,2]",2\n'


def test_admissible_example(capsys):
    code, out, _ = run_capture(capsys, ["admissible", "4"])
    assert code == 0
    assert out == "0,1,2\n"


def test_admissible_json(capsys):
    code, out, _ = run_capture(capsys, ["admissible", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"q": "4", "admissible": ["0", "1", "2"]}


def test_sieve_output(capsys):
    code, out, _ = run_capture(capsys, ["sieve", "0", "11"])
    assert code == 0
    assert out.splitlines() == ["value", "0", "1", "2", "4", "5", "8", "9", "10"]


def test_sieve_chunked_equals_whole(capsys, monkeypatch):
    code, big, _ = run_capture(capsys, ["sieve", "0", "5000"])
    assert code == 0
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LEN", 700)
    code, chunked, _ = run_capture(capsys, ["sieve", "0", "5000"])
    assert code == 0
    assert big == chunked


def test_witness_jsonl_and_verify(capsys, tmp_path):
    code, out, err = run_capture(capsys, ["witness", "4", "1", "4", "8", "--tmax", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert [json.loads(l)["t"] for l in lines] == ["0", "2", "4"]
    assert [json.loads(l)["n"] for l in lines] == ["1", "41", "145"]
    path = tmp_path / "certs.jsonl"
    path.write_text(out, encoding="utf-8")
    code, _, err = run_capture(capsys, ["verify", str(path)])
    assert code == 0
    assert "3 certificates verified" in err


def _without_k(data):
    data = dict(data)
    del data["k"]
    return json.dumps(data)


def _forged_offsets(n, h, k, reps):
    """A consecutive certificate whose squares hold but whose offsets make no ordered triple."""
    cert = {"n": n, "q": "1", "a": "0", "h": h, "k": k, "t": None, "reps": reps}
    return lambda data: json.dumps(dict(cert, consecutive=True, evidence=[]))


# case -> (the diagnostic's error, the bad third line made from a good certificate)
BAD_CERTIFICATE_LINES = {
    "tampered": ("verification_failed", lambda data: json.dumps(dict(data, n="7"))),
    "missing_key": ("malformed_certificate", _without_k),
    "array": ("malformed_certificate", lambda data: json.dumps([data])),
    "non_decimal": ("malformed_certificate", lambda data: json.dumps(dict(data, n="0x29"))),
    "int_field": ("malformed_certificate", lambda data: json.dumps(dict(data, h=4))),
    "invalid_json": ("malformed_certificate", lambda data: json.dumps(data)[:-7]),
    "consecutive_string": (
        "malformed_certificate",
        lambda data: json.dumps(dict(data, consecutive="no")),
    ),
    "equal_offsets": (
        "verification_failed",
        _forged_offsets("1", "1", "1", [["0", "1"], ["1", "1"], ["1", "1"]]),
    ),
    "zero_offsets": (
        "verification_failed",
        _forged_offsets("1", "0", "0", [["0", "1"], ["0", "1"], ["0", "1"]]),
    ),
    "negative_offsets": (
        "verification_failed",
        _forged_offsets("5", "-1", "-4", [["1", "2"], ["0", "2"], ["0", "1"]]),
    ),
}


def test_verify_rejects_bad_certificate(capsys, tmp_path):
    code, out, _ = run_capture(capsys, ["witness", "4", "1", "4", "8", "--tmax", "4"])
    first = out.splitlines()[0]
    for case, (error, make_line) in BAD_CERTIFICATE_LINES.items():
        path = tmp_path / f"{case}.jsonl"
        path.write_text(first + "\n\n" + make_line(json.loads(first)) + "\n", encoding="utf-8")
        code, _, err = run_capture(capsys, ["verify", str(path)])
        assert code == 1, case
        (line,) = err.splitlines()  # one JSON diagnostic, naming the bad line
        diagnostic = json.loads(line)
        assert (diagnostic["error"], diagnostic["line"]) == (error, "3"), case


def test_witness_rejects_equal_offsets(capsys):
    code, out, err = run_capture(capsys, ["witness", "4", "1", "4", "4", "--tmax", "5"])
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "hypothesis_violation"
    assert "offsets_distinct" in json.loads(line)["detail"]


def test_verify_beyond_int_str_digit_limit(capsys, tmp_path):
    # n = y^2, n + 1 = 1 + y^2, n + 2y + 1 = (y + 1)^2 with y = 10**2600, so n
    # has 5201 digits, past Python's default int<->str limit of 4300
    y = 10**2600
    cert = {
        "n": "1" + "0" * 5200,
        "q": "1",
        "a": "0",
        "h": "1",
        "k": str(2 * y + 1),
        "t": None,
        "reps": [["0", str(y)], ["1", str(y)], ["0", str(y + 1)]],
        "consecutive": None,
    }
    path = tmp_path / "big.jsonl"
    path.write_text(json.dumps(cert) + "\n", encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    code, _, err = run_capture(capsys, ["verify", str(path)])
    assert code == 0 and "1 certificates verified" in err
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "5", "2", "100", "--format", "jsonl"],
        ["census", "5", "2", "100", "--segment-length", "999"],
        ["witness", "4", "1", "4", "8", "--format", "json"],
        ["witness", "4", "1", "4", "8", "--segment-length", "1000"],
        ["admissible", "4", "--cache-dir", "."],
        ["tuple", "5", "1", "2", "1", "2", "0.025", "0.025", "--format", "csv"],
        ["verify", "-", "--output", "x"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    code, out, _ = run_capture(capsys, argv)
    assert code == 64 and out == ""


def test_census_csv(capsys):
    code, out, _ = run_capture(capsys, ["census", "4", "1", "10"])
    assert code == 0
    assert out.splitlines() == ["pattern,count", "[0],3", "[1],3", "[2],2"]


def test_census_counts_include_zero_patterns(capsys):
    code, out, _ = run_capture(capsys, ["census", "5", "2", "10"])
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "pattern,count"
    assert len(rows) == 26  # 5^2 admissible pairs plus header
    total = sum(int(r.rsplit(",", 1)[1]) for r in rows[1:])
    assert total == 8


def test_exit_codes(capsys):
    code, _, _ = run_capture(capsys, ["no-such-command"])
    assert code == 64
    code, _, err = run_capture(capsys, ["witness", "4", "2", "2", "4"])
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"] == "hypothesis_violation"
    code, _, _ = run_capture(capsys, ["pattern", "4", "1,9", "10"])
    assert code == 64
    code, _, _ = run_capture(capsys, ["tuple", "5", "1", "2", "1", "2", "0.2", "0.2"])
    assert code == 1  # theta domain error -> TwoSqError


def test_determinism_bytes(capsys):
    first = run_capture(capsys, ["force-triple", "4", "1", "2", "0", "--xbudget", "200"])
    second = run_capture(capsys, ["force-triple", "4", "1", "2", "0", "--xbudget", "200"])
    assert first == second
    assert first[0] == 0
    payload = json.loads(first[1])
    assert payload["count"] != "0"
    assert payload["blocking_system"]["q"] == "4"


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve", "0", "2000"],
        ["admissible", "48"],
        ["census", "5", "2", "5000", "--format", "json"],
        ["pattern", "8", "1,2,4", "5000"],
        ["witness", "16", "2", "8", "24", "--tmax", "30"],
        ["tuple", "5", "0", "4", "1", "2", "0.025", "0.025", "--sizes", "2,2"],
    ],
)
def test_subcommands_byte_identical(capsys, argv):
    first = run_capture(capsys, argv)
    second = run_capture(capsys, argv)
    assert first == second and first[0] == 0


def test_output_file(capsys, tmp_path):
    path = tmp_path / "adm.csv"
    code, out, _ = run_capture(capsys, ["admissible", "5", "--output", str(path)])
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == "0,1,2,3,4\n"


def test_tuple_sizes_override(capsys):
    code, out, _ = run_capture(
        capsys, ["tuple", "5", "1", "2", "1", "2", "0.025", "0.025", "--sizes", "2,3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["offsets"] == ["1", "21", "37", "57", "97"]


def test_sieve_dump(capsys, tmp_path):
    path = tmp_path / "seg.bits"
    code, _, _ = run_capture(capsys, ["sieve", "0", "64", "--dump", str(path)])
    assert code == 0
    blob = path.read_bytes()
    assert blob[:8] == (0).to_bytes(8, "little")
    assert blob[8:16] == (64).to_bytes(8, "little")


def test_sieve_beyond_int64_limit(capsys):
    for argv in (["sieve", str(2**62 - 10), str(2**62 + 10)], ["sieve", "0", str(2**63)]):
        code, out, err = run_capture(capsys, argv)
        assert code == 64 and out == ""
        assert json.loads(err)["error"] == "bad_argument"


@pytest.mark.parametrize(
    "argv",
    [
        ["pattern", "4", "1,9", "10"],
        ["pattern", "4", "x", "10"],
        ["sieve", "-5", "10"],
        ["sieve", "5", "5"],
        ["admissible", "0"],
        ["admissible", "-3"],
        ["census", "5", "0", "10"],
        ["witness", "4", "1", "4", "8", "--tmax", "-5"],
        ["force-triple", "5", "1", "2", "3", "--xbudget", "-5"],
    ],
)
def test_usage_errors_exit_64(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 64 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "bad_argument"


def test_library_value_error_exits_1(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("raised inside the library")

    monkeypatch.setattr(twosq.cli, "census_report", broken)
    code, out, err = run_capture(capsys, ["census", "5", "2", "100"])
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["detail"] == "raised inside the library"


FILE_ERRORS = {
    "verify_missing_file": lambda tmp: ["verify", str(tmp / "missing.jsonl")],
    "verify_directory": lambda tmp: ["verify", str(tmp)],
    "output_into_missing_dir": lambda tmp: ["admissible", "5", "--output", str(tmp / "missing" / "out.csv")],
    "dump_into_missing_dir": lambda tmp: ["sieve", "0", "10", "--dump", str(tmp / "missing" / "d.seg")],
    "cache_dir_is_a_file": lambda tmp: ["sieve", "0", "10", "--cache-dir", str(tmp / "file.txt")],
}


@pytest.mark.parametrize("case", sorted(FILE_ERRORS))
def test_file_errors_exit_1_with_one_diagnostic(capsys, tmp_path, case):
    (tmp_path / "file.txt").write_text("not a directory\n", encoding="utf-8")
    code, out, err = run_capture(capsys, FILE_ERRORS[case](tmp_path))
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    diagnostic = json.loads(line)
    assert set(diagnostic) == {"error", "detail"}
    assert diagnostic["error"].endswith("Error"), diagnostic


RECORDED_STDOUT = json.loads(
    (Path(__file__).parent / "data" / "cli_stdout_sha256.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("command", sorted(RECORDED_STDOUT))
def test_stdout_matches_recorded_hash(command):
    """Each command's stdout, run as its own process, hashes to the recorded value."""
    src = str(Path(twosq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("TWOSQ_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-m", "twosq.cli", *command.split()],
        capture_output=True, env=env, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == RECORDED_STDOUT[command]
