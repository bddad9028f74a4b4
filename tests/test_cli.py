import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_force_triple_certificates_verify(capsys, tmp_path):
    # Consecutive certificates carry exclusion evidence through the reader.
    code, out, _ = run_capture(capsys, ["force-triple", "5", "1", "2", "3", "--xbudget", "100000"])
    assert code == 0
    certs = json.loads(out)["certificates"]
    assert len(certs) == 3 and all(c["consecutive"] for c in certs)
    assert any(c["evidence"] for c in certs)
    path = tmp_path / "certs.jsonl"
    path.write_text("".join(json.dumps(c) + "\n" for c in certs), encoding="utf-8")
    code, _, err = run_capture(capsys, ["verify", str(path)])
    assert code == 0
    assert err.strip().splitlines()[-1] == "3 certificates verified"


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
    "space_before_digit": ("malformed_certificate", lambda data: json.dumps(dict(data, t=" 0"))),
    "underscore_digits": ("malformed_certificate", lambda data: json.dumps(dict(data, t="0_0"))),
    "plus_sign": ("malformed_certificate", lambda data: json.dumps(dict(data, a="+1"))),
    "arabic_indic_zero": ("malformed_certificate", lambda data: json.dumps(dict(data, t="\u0660"))),
    "int_field": ("malformed_certificate", lambda data: json.dumps(dict(data, h=4))),
    "invalid_json": ("malformed_certificate", lambda data: json.dumps(data)[:-7]),
    "consecutive_string": (
        "malformed_certificate",
        lambda data: json.dumps(dict(data, consecutive="no")),
    ),
    "two_reps": ("malformed_certificate", lambda data: json.dumps(dict(data, reps=data["reps"][:2]))),
    "reps_strings": (
        "malformed_certificate",
        lambda data: json.dumps(dict(data, reps=["".join(pair) for pair in data["reps"]])),
    ),
    "evidence_object": (
        "malformed_certificate",
        lambda data: json.dumps(dict(data, consecutive=True, evidence={"33": "", "63": ""})),
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


def test_verify_diagnoses_deeply_nested_json(capsys, monkeypatch):
    # json.loads gives up on this line with a RecursionError
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 200_000 + "\n"))
    code, out, err = run_capture(capsys, ["verify", "-"])
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    diagnostic = json.loads(line)
    assert (diagnostic["error"], diagnostic["line"]) == ("malformed_certificate", "1")
    assert diagnostic["detail"].startswith("RecursionError")


def test_verify_stops_reading_at_the_first_bad_line(capsys, monkeypatch):
    class OneLineStdin(io.StringIO):
        """Serves its first line; any further read fails the test."""

        served = 0

        def readline(self, size=-1):  # iteration over a StringIO subclass calls this
            self.served += 1
            if self.served > 1:
                raise AssertionError("verify read past the bad first line")
            return super().readline(size)

        def read(self, size=-1):
            raise AssertionError("verify read the whole input")

        def readlines(self, hint=-1):
            raise AssertionError("verify read the whole input")

    monkeypatch.setattr(sys, "stdin", OneLineStdin("not json\n" + "{}\n" * 3))
    code, out, err = run_capture(capsys, ["verify"])
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    diagnostic = json.loads(line)
    assert (diagnostic["error"], diagnostic["line"]) == ("malformed_certificate", "1")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_verify_numbers_lines_as_splitlines_cuts_them(capsys, monkeypatch, tmp_path, source):
    """A form feed or a lone carriage return ends a line, as str.splitlines
    has it, though neither ends a line of a file read line by line."""
    _, out, _ = run_capture(capsys, ["witness", "4", "1", "4", "8", "--tmax", "4"])
    first, second, _ = out.splitlines()
    text = first + "\x0c" + second + "\r\n\r" + "not json" + "\n"
    path = tmp_path / "certs.jsonl"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text, newline="\n"))
    code, _, err = run_capture(capsys, ["verify", str(path) if source == "file" else "-"])
    assert code == 1
    (line,) = err.splitlines()
    assert json.loads(line)["line"] == "4"


# Runs one command with numpy unimportable, and exits with a message naming
# any of the numpy-backed layers that the command loaded.
_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from twosq.cli import run
code = run(sys.argv[1:])
loaded = [m for m in ("twosq.sieve", "twosq.census", "twosq.forcing") if m in sys.modules]
sys.exit(f"loaded {loaded}" if loaded else code)
"""


def _run_without_numpy(argv: list[str]) -> subprocess.CompletedProcess:
    src = str(Path(twosq.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120, check=False,
    )


def test_verify_runs_without_numpy(capsys, tmp_path):
    _, out, _ = run_capture(capsys, ["witness", "4", "1", "4", "8", "--tmax", "4000"])
    path = tmp_path / "certs.jsonl"
    path.write_text(out, encoding="utf-8")
    assert run_capture(capsys, ["verify", str(path)]) == (0, "", "776 certificates verified\n")
    proc = _run_without_numpy(["verify", str(path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "776 certificates verified\n")


def test_admissible_runs_without_numpy():
    proc = _run_without_numpy(["admissible", "5"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0,1,2,3,4\n", "")


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
        ["sieve", "0", str(sieve.MAX_SEGMENT_LEN + 1), "--dump", "unwritten.seg"],
        ["admissible", "0"],
        ["admissible", "-3"],
        ["census", "5", "0", "10"],
        ["witness", "4", "1", "4", "8", "--tmax", "-5"],
        ["force-triple", "5", "1", "2", "3", "--xbudget", "-5"],
        # the member stream would sieve about 2^38 segments before failing
        ["census", "5", "3", str(2**62)],
        ["pattern", "5", "1,2,3", str(2**62)],
        ["force-triple", "5", "1", "2", "3", "--xbudget", str(2**62)],
        # an empty list is not the bin plan
        ["tuple", "5", "1", "2", "1", "1", "0.025", "0.025", "--sizes", ""],
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

    monkeypatch.setattr("twosq.census.census_report", broken)
    code, out, err = run_capture(capsys, ["census", "5", "2", "100"])
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["detail"] == "raised inside the library"


FILE_ERRORS = {
    "verify_missing_file": lambda tmp: ["verify", str(tmp / "missing.jsonl")],
    "verify_directory": lambda tmp: ["verify", str(tmp)],
    "verify_empty_path": lambda tmp: ["verify", ""],
    "output_into_missing_dir": lambda tmp: ["admissible", "5", "--output", str(tmp / "missing" / "out.csv")],
    "dump_into_missing_dir": lambda tmp: ["sieve", "0", "10", "--dump", str(tmp / "missing" / "d.seg")],
    "dump_to_empty_path": lambda tmp: ["sieve", "0", "20", "--dump", ""],
    "cache_dir_is_a_file": lambda tmp: ["sieve", "0", "10", "--cache-dir", str(tmp / "file.txt")],
}


@pytest.mark.parametrize("case", sorted(FILE_ERRORS))
def test_file_errors_exit_1_with_one_diagnostic(capsys, monkeypatch, tmp_path, case):
    monkeypatch.chdir(tmp_path)  # where an empty path's temporary file goes
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))  # a path read as stdin holds nothing
    (tmp_path / "file.txt").write_text("not a directory\n", encoding="utf-8")
    code, out, err = run_capture(capsys, FILE_ERRORS[case](tmp_path))
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    diagnostic = json.loads(line)
    assert set(diagnostic) == {"error", "detail"}
    assert diagnostic["error"].endswith("Error"), diagnostic


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve", "0", "20"],
        ["census", "5", "2", "100"],
        ["pattern", "4", "1,2", "10"],
        ["force-triple", "3", "0", "1", "2", "--xbudget", "1000"],
    ],
)
def test_empty_cache_dir_variable_counts_as_unset(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TWOSQ_CACHE_DIR", raising=False)
    unset = run_capture(capsys, argv)
    assert unset[0] == 0
    monkeypatch.setenv("TWOSQ_CACHE_DIR", "")
    assert run_capture(capsys, argv) == unset
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", [["--cache-dir", ""], ["--cache-dir="]], ids=["separate", "joined"])
def test_empty_cache_dir_flag_counts_as_unset(capsys, monkeypatch, tmp_path, flag):
    """An empty --cache-dir neither reads the stale dump in the current
    directory nor tries to write one there."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TWOSQ_CACHE_DIR", raising=False)
    stale = sieve.TwoSqSegment(0, 20, np.zeros(20, dtype=bool)).to_bytes()
    (tmp_path / "twosq_0_20.seg").write_bytes(stale)

    def no_read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(sieve.TwoSqSegment, "load", staticmethod(no_read))
    code, out, _ = run_capture(capsys, ["sieve", "0", "20", *flag])
    assert code == 0
    assert out.splitlines() == ["value", "0", "1", "2", "4", "5", "8", "9", "10", "13", "16", "17", "18"]
    assert [p.name for p in tmp_path.iterdir()] == ["twosq_0_20.seg"]
    assert (tmp_path / "twosq_0_20.seg").read_bytes() == stale


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
