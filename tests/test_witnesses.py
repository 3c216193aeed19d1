"""Witness fixture integrity and the check_witness reports."""

import math

import pytest

from sym3inv import check_witness, witness_tensor, witnesses
from sym3inv.tensor_core import TensorFormatError
from sym3inv.witnesses import (
    j4_tensor,
    load_fixture,
    m6_harmonic_parts,
)


def test_all_cases_load():
    for case in ("L6", "K4", "J6", "L4", "M6", "J4"):
        fix = load_fixture(case)
        assert fix["case"] == case


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        load_fixture("X9")
    with pytest.raises(ValueError):
        check_witness("X9")


def test_family_cases_have_no_single_tensor():
    with pytest.raises(ValueError):
        witness_tensor("M6")


def test_fixture_components_get_tensor_file_validation(monkeypatch):
    fix = load_fixture("K4")
    fix["components"] = [math.nan] + fix["components"][1:]
    monkeypatch.setattr(witnesses, "load_fixture", lambda case: fix)
    with pytest.raises(TensorFormatError):
        witness_tensor("K4")


def test_k4_fixture_matches_independent_closed_form_evaluation():
    # recompute the frozen component values from scratch
    s2, s3, s6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)
    expected = [
        3 / (5 * s2), s3 / 10, 1 / 10, 4 * s2 / 15 - 1 / s3, 1 / 3 + 1 / s6,
        -s2 / 15 + 1 / s3, 3 * s3 / 10, -9 / 10, s3 / 10, 13 / 10,
    ]
    stored = load_fixture("K4")["components"]
    assert all(abs(a - b) < 1e-15 for a, b in zip(stored, expected))


def test_j6_fixture_matches_independent_closed_form_evaluation():
    r = math.sqrt(313)
    x = math.sqrt(0.5 * (149 - r)) / 6
    y = (-215 + 7 * r) / (5 * math.sqrt(8053043 - 308071 * r))
    q = (121 * (2963 - 103 * r) / (10 * (-215 + 7 * r))) * math.sqrt(
        (298 - 2 * r) / (648164815 - 26977811 * r))
    z = (3966519 - 219867 * r) / (
        5 * math.sqrt(648164815 - 26977811 * r) * (-215 + 7 * r))
    expected = [x - 18 * y, q, z, -6 * y, 1.0, -x - 6 * y, 3 * q, 1 + z, q, -1 + 3 * z]
    stored = load_fixture("J6")["components"]
    assert all(abs(a - b) < 1e-15 for a, b in zip(stored, expected))


def test_j6_fixture_consistent_with_decimal_components():
    fix = load_fixture("J6")
    for exact, rounded in zip(fix["components"], fix["decimal_components"]):
        assert abs(exact - rounded) < 5e-4


def _traceless_expand(c):
    d111, d112, d113, d122, d123, d222, d223 = c
    entry = {(0, 0, 0): d111, (0, 0, 1): d112, (0, 0, 2): d113, (0, 1, 1): d122,
             (0, 1, 2): d123, (0, 2, 2): -d111 - d122, (1, 1, 1): d222,
             (1, 1, 2): d223, (1, 2, 2): -d112 - d222, (2, 2, 2): -d113 - d223}
    rng = range(3)
    return [[[entry[tuple(sorted((i, j, k)))] for k in rng] for j in rng] for i in rng]


def test_l4_fixture_matches_independent_rebuild_of_full_precision_witness():
    # d is the root in (1.6483, 1.6484) of the nonic factor of J6
    coeffs = (768, 768, 336, 2872, -834, -5028, -12500, -19515, -12591, -2517)

    def nonic(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    lo, hi = 1.6483, 1.6484
    assert nonic(lo) < 0 < nonic(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if nonic(mid) < 0:
            lo = mid
        else:
            hi = mid
    d = lo

    # D = (1/2, 0, 0, d, 1, 0, 1); u is the unit vector along v x Bv, u1 > 0
    t = _traceless_expand((0.5, 0.0, 0.0, d, 1.0, 0.0, 1.0))
    rng = range(3)
    b = [[sum(t[i][j][k] * t[i][j][l] for i in rng for j in rng) for l in rng]
         for k in rng]
    v = [sum(b[k][l] * t[k][l][p] for k in rng for l in rng) for p in rng]
    bv = [sum(b[k][l] * v[l] for l in rng) for k in rng]
    cross = [v[1] * bv[2] - v[2] * bv[1], v[2] * bv[0] - v[0] * bv[2],
             v[0] * bv[1] - v[1] * bv[0]]
    norm = math.copysign(math.sqrt(sum(x * x for x in cross)), cross[0])
    u = [x / norm for x in cross]

    # A_ijk = D_ijk + (u_k d_ij + u_j d_ik + u_i d_jk) / 5
    order = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2),
             (0, 2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))
    expected = [
        t[i][j][k] + (u[k] * (i == j) + u[j] * (i == k) + u[i] * (j == k)) / 5
        for i, j, k in order
    ]
    stored = load_fixture("L4")["full_precision_components"]
    assert all(abs(a - b) < 1e-14 for a, b in zip(stored, expected))


def test_l4_full_precision_witness_rounds_to_printed_components():
    fix = load_fixture("L4")
    for full, printed in zip(fix["full_precision_components"], fix["components"]):
        # printed with 4 decimals, 5 below 0.1; the exact 1.0 reprs with one
        places = max(4, len(repr(printed).split(".")[1]))
        assert abs(full - printed) <= 0.5 * 10.0 ** -places


def test_check_l6_passes():
    report = check_witness("L6")
    assert report["pass"]
    assert report["invariants"]["L6"] == "-2/1"
    checked = {c["invariant"] for c in report["checks"]}
    assert checked == {"I2", "J2", "I4", "J4", "I6", "L6", "I10", "K4", "L4", "J6", "M6"}


def test_check_k4_passes():
    report = check_witness("K4")
    assert report["pass"]
    assert abs(report["invariants"]["K4"] - 8 / 9) < 1e-10


def test_check_j6_passes():
    report = check_witness("J6")
    assert report["pass"]
    # designated zeros vanish at closed-form precision
    zero_checks = {c["invariant"]: c for c in report["checks"]
                   if c["invariant"] in ("K4", "L4", "L6")}
    assert all(abs(c["computed"]) < 1e-12 for c in zero_checks.values())


def test_check_l4_reports_known_precision_issue():
    report = check_witness("L4")
    assert not report["pass"]
    assert "known_issue" in report
    by_name = {c["invariant"]: c for c in report["checks"]}
    # all stated values agree; only the L6 zero misses its tolerance
    failing = [c["invariant"] for c in report["checks"] if not c["ok"]]
    assert failing == ["L6"]
    assert 5e-3 < abs(by_name["L6"]["computed"]) < 1e-2


def test_check_m6_pair_passes():
    report = check_witness("M6")
    assert report["pass"]
    assert len(report["instances"]) == 2
    first, second = report["instances"]
    assert first["invariants"]["M6"] == "0/1"
    assert abs(second["invariants"]["M6"] - 625) < 1e-9


def test_check_m6_custom_params():
    report = check_witness("M6", params=(1, 2, 3, 2))
    assert report["pass"]
    inst = report["instances"][0]
    assert inst["invariants"]["K4"] == "0/1"
    assert inst["invariants"]["I10"] == "0/1"
    # L4 = 750*a*b*c*d is nonzero here and no check constrains it
    assert inst["invariants"]["L4"] != "0/1"


def test_check_m6_explicit_params_match_recorded_instance():
    r = math.sqrt(2) / 2
    report = check_witness("M6", params=(r, r, 0, 1))
    assert report["pass"]
    inst = report["instances"][0]
    assert abs(inst["invariants"]["M6"] - 625) < 1e-9
    checked = {c["invariant"] for c in inst["checks"]}
    assert {"I2", "J2", "I4", "J4", "M6"} <= checked


def test_m6_family_construction():
    h = m6_harmonic_parts(0, 0, 1, 1)
    assert h.vector == (0, 0, 5)
    assert h.deviator.components == (0, 0, 0, 0, 1, 0, 0)


def test_check_j4_family_passes_and_reports_discrepancy():
    report = check_witness("J4")
    assert report["pass"]
    assert len(report["thetas"]) == 32
    assert report["j4_monotone_on_first_quarter"]
    assert abs(report["j4_at_zero"] - 2.0) < 1e-9
    cf = report["closed_form_report"]
    assert cf["j4_max_deviation"] < 1e-9
    assert not cf["m6_form_matches"]
    assert cf["m6_max_deviation"] > 0.1


def test_check_j4_single_theta():
    report = check_witness("J4", theta=3 * math.pi / 4)
    assert report["pass"]
    assert len(report["thetas"]) == 1


def test_check_j4_nan_theta_fails_every_check():
    report = check_witness("J4", theta=float("nan"))
    assert not report["pass"]
    assert report["checks"] and not any(c["ok"] for c in report["checks"])


@pytest.mark.parametrize("case,kwargs", [
    ("L6", {"theta": 0.5}),
    ("K4", {"params": (1, 2, 3, 4)}),
    ("M6", {"params": (0, 0, 1)}),
])
def test_check_witness_rejects_arguments_the_case_does_not_take(case, kwargs):
    with pytest.raises(ValueError):
        check_witness(case, **kwargs)


def test_j4_instance_tensor_needs_theta():
    with pytest.raises(ValueError):
        witnesses.witness_instance_tensor("J4")


def test_static_case_loads_its_fixture_once(monkeypatch):
    calls = []

    def counting_load(case):
        calls.append(case)
        return load_fixture(case)

    monkeypatch.setattr(witnesses, "load_fixture", counting_load)
    assert check_witness("K4")["pass"]
    assert calls == ["K4"]


def test_j4_construction_at_reference_angle():
    from sym3inv import invariants_of

    iv = invariants_of(j4_tensor(3 * math.pi / 4))
    assert abs(iv["J4"] - 1.0) < 1e-12
    assert abs(iv["M6"] - 0.25) < 1e-12
