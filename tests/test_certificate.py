import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import twosq
import twosq.certificate
import twosq.forcing
import twosq.witness
from twosq.certificate import TripleCertificate, to_wire
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


def test_verify_refuses_a_zero_modulus_and_a_class_mismatch():
    # 4, 5, 8 as above, with n = 4 = 1 (mod 3)
    cert = TripleCertificate(n=4, q=3, a=1, h=1, k=4, t=None, reps=((0, 2), (1, 2), (2, 2)))
    assert cert.verify()
    assert not dataclasses.replace(cert, q=0).verify()
    assert not dataclasses.replace(cert, a=2).verify()


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


def test_to_wire_keeps_bools_and_none():
    assert to_wire({"consecutive": True, "flag": False, "t": None}) == {"consecutive": True, "flag": False, "t": None}
    assert to_wire([True, 1, None]) == [True, "1", None]


def test_to_wire_writes_negative_ints():
    assert to_wire([-1, 0, -(2**70)]) == ["-1", "0", "-1180591620717411303424"]


def test_to_wire_writes_ints_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert to_wire(10**4999) == "1" + "0" * 4999
    finally:
        sys.set_int_max_str_digits(limit)


def test_to_wire_nested_tuples_and_mapping_proxy():
    value = {"reps": ((0, 2), (1, (2,))), "primes": MappingProxyType({3: 7, 5: 11}), "name": "x"}
    assert to_wire(value) == {"reps": [["0", "2"], ["1", ["2"]]], "primes": {"3": "7", "5": "11"}, "name": "x"}


@pytest.mark.parametrize(
    "value",
    [np.int64(5), [1, np.int64(5)], {"n": np.int32(1)}, {np.int64(3): "7"}, 0.5, {None: "1"}, {(1, 2): "3"}],
    ids=["int64", "int64_in_list", "int32_value", "int64_key", "float", "none_key", "tuple_key"],
)
def test_to_wire_refuses_what_has_no_wire_form(value):
    with pytest.raises(TypeError):
        to_wire(value)
