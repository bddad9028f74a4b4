import os
import subprocess
import sys
from pathlib import Path

import pytest

import twosq
import twosq.certificate
import twosq.forcing
import twosq.witness
from twosq.certificate import TripleCertificate
from twosq.cli import run


@pytest.mark.parametrize(
    "reps",
    [
        (),
        ((0, 2), (1, 2)),
        ((0, 2), (1, 2), (2, 2), (0, 0)),
    ],
    ids=["no_reps", "two_reps", "four_reps"],
)
def test_verify_needs_exactly_three_representations(reps):
    # 4, 5, 8 = 0^2 + 2^2, 1^2 + 2^2, 2^2 + 2^2: every pair given is right,
    # but a certificate built in-process skips the parser's count
    assert TripleCertificate(n=4, q=1, a=0, h=1, k=4, t=None, reps=((0, 2), (1, 2), (2, 2))).verify()
    assert not TripleCertificate(n=4, q=1, a=0, h=1, k=4, t=None, reps=reps).verify()


def test_every_layer_reads_one_certificate_class():
    # perfbench/tracing.py wraps twosq.witness.TripleCertificate.verify, so
    # the scan's certificates and the verifier's must be the same class
    assert twosq.witness.TripleCertificate is twosq.certificate.TripleCertificate
    assert twosq.forcing.TripleCertificate is twosq.certificate.TripleCertificate


# Runs one command with numpy and the search layers unimportable, and exits
# with a message naming any other search layer that the command loaded.
_VERIFIER_ONLY = """
import sys
for name in ("numpy", "twosq.witness", "twosq.admissibility"):
    sys.modules[name] = None
from twosq.cli import run
code = run(sys.argv[1:])
loaded = [m for m in ("twosq.sieve", "twosq.census", "twosq.forcing") if m in sys.modules]
sys.exit(f"loaded {loaded}" if loaded else code)
"""


def test_verify_loads_no_search_code(capsys, tmp_path):
    assert run(["witness", "4", "1", "4", "8", "--tmax", "4000"]) == 0
    path = tmp_path / "certs.jsonl"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    src = str(Path(twosq.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _VERIFIER_ONLY, "verify", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120, check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "776 certificates verified\n")
