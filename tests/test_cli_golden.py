"""Frozen CLI reports: every case must print the recorded report byte for byte.

``golden_cli_reports.json`` maps a case id to the exit code and the report
the command printed when the file was written, minus ``wall_time_seconds``
and with the tensor file argument reduced to its base name.  Floats survive
a JSON round trip exactly, so comparing ``json.dumps`` of the parsed output
with ``json.dumps`` of the recorded report compares the printed bytes.

``prop31`` is not frozen here: its last digits depend on the LAPACK build.

To re-record after an intended change of output::

    PYTHONPATH=src:tests python -c "import test_cli_golden as g; g.record()"
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from sym3inv import FLOAT, Sym3Tensor, random_sym3, save_tensor
from sym3inv.cli import main

F = Fraction

GOLDEN = Path(__file__).with_name("golden_cli_reports.json")

TENSOR_FILES = {
    "rational.json": Sym3Tensor((F(3, 5), 0, 0, F(6, 5), 0, F(-4, 5), 0, F(1, 2), 0, F(-1, 2))),
    "integer.json": Sym3Tensor((1, 2, 0, 3, 0, 1, 2, 0, 1, 3)),
    "float.json": random_sym3(5, FLOAT, 2),
}

CASES = {
    "invariants_rational": ("invariants", "rational.json"),
    "invariants_rational_exact": ("invariants", "rational.json", "--exact"),
    "invariants_integer_exact": ("invariants", "integer.json", "--exact"),
    "invariants_float": ("invariants", "float.json"),
    "decompose_rational": ("decompose", "rational.json"),
    "decompose_integer": ("decompose", "integer.json"),
    "decompose_float": ("decompose", "float.json"),
    "reconstruct_rational": ("reconstruct", "rational.json"),
    "reconstruct_integer": ("reconstruct", "integer.json"),
    "reconstruct_float": ("reconstruct", "float.json"),
    "verify_syzygies": ("verify-syzygies", "--samples", "20", "--seed", "3"),
    "discover_13_10": ("discover", "--basis", "13", "--degree", "10",
                       "--seed", "3", "--samples", "100"),
    "isotropy_check": ("isotropy-check", "--samples", "200", "--seed", "4"),
    "witness_L6": ("witness", "--case", "L6"),
    "witness_K4": ("witness", "--case", "K4"),
    "witness_J6": ("witness", "--case", "J6"),
    "witness_L4": ("witness", "--case", "L4"),
    "witness_M6": ("witness", "--case", "M6"),
    "witness_M6_params_integer": ("witness", "--case", "M6", "--params", "1", "2", "3", "2"),
    "witness_M6_params_float": ("witness", "--case", "M6", "--params", "0.5", "0.25", "0", "1"),
    "witness_M6_params_recorded": ("witness", "--case", "M6", "--params", "0.7071067811865476",
                                   "0.7071067811865476", "0", "1"),
    "witness_J4": ("witness", "--case", "J4"),
    "witness_J4_theta": ("witness", "--case", "J4", "--theta", "0.7"),
}


def run_case(case, directory):
    """Exit code and normalized report of one case, tensor files written to directory."""
    for name, tensor in TENSOR_FILES.items():
        save_tensor(tensor, directory / name)
    argv = [str(directory / a) if a in TENSOR_FILES else a for a in CASES[case]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = json.loads(out.getvalue())
    assert report.pop("wall_time_seconds") is not None
    if "file" in report["parameters"]:
        report["parameters"]["file"] = os.path.basename(report["parameters"]["file"])
    return {"exit_code": code, "report": report}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    got = run_case(case, tmp_path)
    assert got["exit_code"] == expected["exit_code"]
    assert json.dumps(got["report"], indent=2) == json.dumps(expected["report"], indent=2)


def record():
    """Rewrite the golden file from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        golden = {case: run_case(case, Path(tmp)) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
