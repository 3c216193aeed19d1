"""CLI surface: subcommands, exit codes, report determinism."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from sym3inv import FLOAT, Sym3Tensor, cli, random_sym3, save_tensor
from sym3inv.cli import (
    EXIT_BAD_FILE,
    EXIT_CHECK_FAILED,
    EXIT_FIELD_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

F = Fraction

L6_WITNESS = Sym3Tensor((F(3, 5), 0, 0, F(6, 5), 0, F(-4, 5), 0, F(1, 2), 0, F(-1, 2)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


@pytest.fixture
def l6_file(tmp_path):
    path = tmp_path / "l6.json"
    save_tensor(L6_WITNESS, path)
    return str(path)


@pytest.fixture
def float_file(tmp_path):
    path = tmp_path / "f.json"
    save_tensor(random_sym3(5, FLOAT, 2), path)
    return str(path)


def test_invariants_exact(capsys, l6_file):
    code, report, _ = run_cli(capsys, "invariants", l6_file, "--exact")
    assert code == EXIT_OK
    assert report["pass"] is True
    inv = report["results"]["invariants"]
    assert inv["I4"] == "37/2"
    assert inv["I8"] == "-9/1"


def test_invariants_decimal_output(capsys, l6_file):
    code, report, _ = run_cli(capsys, "invariants", l6_file)
    assert code == EXIT_OK
    assert report["results"]["invariants"]["I4"] == 18.5


def test_invariants_field_mismatch(capsys, float_file):
    code, report, err = run_cli(capsys, "invariants", float_file, "--exact")
    assert code == EXIT_FIELD_MISMATCH
    assert report is None
    assert "exact" in err


def test_malformed_file_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "sym3-v1", "field": "rational", "components": ["1/2"]}')
    code, report, err = run_cli(capsys, "invariants", str(bad))
    assert code == EXIT_BAD_FILE
    assert report is None  # no partial output
    assert "malformed" in err

    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "invariants", str(bad))
    assert code == EXIT_BAD_FILE

    code, _, _ = run_cli(capsys, "invariants", str(tmp_path / "missing.json"))
    assert code == EXIT_BAD_FILE


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_float_file_exit_code(capsys, tmp_path, literal):
    bad = tmp_path / "nan.json"
    bad.write_text('{"format": "sym3-v1", "field": "float", "components": ['
                   + literal + ', 0, 0, 0, 0, 0, 0, 0, 0, 0]}')
    code, report, err = run_cli(capsys, "invariants", str(bad))
    assert code == EXIT_BAD_FILE
    assert report is None
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ("discover", "--basis", "13", "--degree", "10", "--seed", "1", "--samples", "10"),
    ("prop31", "--starts", "0", "--iters", "5", "--seed", "1"),
    ("witness", "--case", "M6", "--params", "nan", "0", "0", "1"),
    ("witness", "--case", "J4", "--theta", "nan"),
    ("witness", "--case", "J4", "--theta", "inf"),
    ("isotropy-check", "--samples", "3", "--seed", "1", "--tol", "nan"),
    ("isotropy-check", "--samples", "0", "--seed", "1"),
    ("isotropy-check", "--samples", "-5", "--seed", "1"),
    ("verify-syzygies", "--samples", "0", "--seed", "1"),
])
def test_rejected_argument_usage_error(capsys, argv):
    code, report, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert report is None
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_decompose(capsys, l6_file):
    code, report, _ = run_cli(capsys, "decompose", l6_file)
    assert code == EXIT_OK
    res = report["results"]
    assert res["vector"] == ["1/1", "0/1", "0/1"]
    assert res["deviator"]["independent"][3] == "1/1"
    assert res["deviator"]["dependent"]["D133"] == "-1/1"


def test_reconstruct_exact(capsys, l6_file):
    code, report, _ = run_cli(capsys, "reconstruct", l6_file)
    assert code == EXIT_OK
    assert report["results"]["I8"]["direct"] == "-9/1"
    assert report["results"]["I8"]["difference"] == "0/1"


def test_reconstruct_float(capsys, float_file):
    code, report, _ = run_cli(capsys, "reconstruct", float_file)
    assert code == EXIT_OK
    assert abs(report["results"]["K6"]["difference"]) < 1e-8


def test_reconstruct_float_test_scales_with_degree(capsys, tmp_path, monkeypatch):
    # at this scale K6 is about 1e-34: an absolute tolerance would pass 0.0
    path = tmp_path / "tiny.json"
    save_tensor(Sym3Tensor(tuple(1e-6 * c for c in (1, 2, 0, 3, 0, 1, 2, 0, 1, 3))), path)
    code, report, _ = run_cli(capsys, "reconstruct", str(path))
    assert code == EXIT_OK and report["pass"] is True
    monkeypatch.setattr(cli, "reconstruct_K6", lambda basis: 0.0)
    code, report, _ = run_cli(capsys, "reconstruct", str(path))
    assert code == EXIT_CHECK_FAILED and report["pass"] is False


def test_verify_syzygies(capsys):
    code, report, _ = run_cli(capsys, "verify-syzygies", "--samples", "10", "--seed", "7")
    assert code == EXIT_OK
    rels = report["results"]["relations"]
    assert set(rels) == {"ten_a", "ten_b", "sixteen_a", "sixteen_b", "sixteen_c"}
    assert all(r["max_abs_residual"] == "0" for r in rels.values())


def test_verify_syzygies_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-syzygies", "--samples", "10"])
    assert exc.value.code == EXIT_USAGE


def test_discover_degree_10(capsys):
    code, report, _ = run_cli(
        capsys, "discover", "--basis", "13", "--degree", "10",
        "--seed", "3", "--samples", "95",
    )
    assert code == EXIT_OK
    assert report["results"]["relation_count"] == 2
    for rel in report["results"]["relations"]:
        assert len(rel["terms"]) == 12


def test_isotropy_check(capsys):
    code, report, _ = run_cli(capsys, "isotropy-check", "--samples", "50", "--seed", "1")
    assert code == EXIT_OK
    assert report["results"]["max_relative_deviation"] < 1e-9


def test_prop31(capsys):
    code, report, _ = run_cli(
        capsys, "prop31", "--starts", "5", "--iters", "200", "--seed", "2",
    )
    assert code == EXIT_OK
    assert abs(report["results"]["best_value"] - 0.2) < 1e-3
    assert report["results"]["feasibility_defect"] < 1e-10
    assert report["results"]["iterations"] > 0
    assert report["results"]["backtracks"] > 0


def test_prop31_report_determinism_modulo_wall_time(capsys):
    reports = []
    for _ in range(2):
        _, report, _ = run_cli(capsys, "prop31", "--starts", "5", "--iters", "200", "--seed", "2")
        assert report.pop("wall_time_seconds") is not None
        reports.append(json.dumps(report))
    assert reports[0] == reports[1]


def test_witness_l6(capsys):
    code, report, _ = run_cli(capsys, "witness", "--case", "L6")
    assert code == EXIT_OK
    assert report["results"]["pass"] is True


def test_witness_l4_fails_honestly(capsys):
    code, report, _ = run_cli(capsys, "witness", "--case", "L4")
    assert code == EXIT_CHECK_FAILED
    assert report["pass"] is False
    assert "known_issue" in report["results"]


def test_witness_m6_with_params(capsys):
    code, report, _ = run_cli(
        capsys, "witness", "--case", "M6", "--params", "0", "0", "1", "1",
    )
    assert code == EXIT_OK
    inst = report["results"]["instances"][0]
    assert inst["invariants"]["M6"] == "0/1"


def test_witness_write_tensor_roundtrip(capsys, tmp_path):
    out = tmp_path / "k4.json"
    code, report, _ = run_cli(
        capsys, "witness", "--case", "K4", "--write-tensor", str(out),
    )
    assert code == EXIT_OK
    assert report["results"]["tensor_file"] == str(out)
    code, report, _ = run_cli(capsys, "reconstruct", str(out))
    assert code == EXIT_OK


def test_witness_write_tensor_j4_needs_theta(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--case", "J4", "--write-tensor", str(tmp_path / "x.json")])
    assert exc.value.code == EXIT_USAGE


def test_report_determinism_modulo_wall_time(capsys):
    outputs = []
    for _ in range(2):
        main(["verify-syzygies", "--samples", "5", "--seed", "42"])
        outputs.append(capsys.readouterr().out)
    a, b = (json.loads(o) for o in outputs)
    assert a.pop("wall_time_seconds") is not None
    assert b.pop("wall_time_seconds") is not None
    assert json.dumps(a, sort_keys=False) == json.dumps(b, sort_keys=False)


def test_report_shape(capsys, l6_file):
    _, report, _ = run_cli(capsys, "invariants", l6_file)
    assert list(report) == ["command", "parameters", "results", "pass", "wall_time_seconds"]
    assert report["command"] == "invariants"
    assert report["parameters"]["file"].endswith("l6.json")


def test_module_entry_point_subprocess(l6_file):
    proc = subprocess.run(
        [sys.executable, "-m", "sym3inv.cli", "invariants", l6_file, "--exact"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK
    report = json.loads(proc.stdout)
    assert report["results"]["invariants"]["L6"] == "-2/1"
