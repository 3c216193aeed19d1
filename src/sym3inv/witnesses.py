"""Golden witness tensors and their invariant-value checks.

Each witness is an explicit tensor (or one- / four-parameter family) chosen
so that a designated set of invariants vanishes while one target invariant
does not; together they separate the eleven basis invariants.  The fixture
data lives in JSON files under ``fixtures/`` with the expected invariant
values and the tolerance regime appropriate to how precisely the components
are known: exact rationals, closed-form radicals evaluated in double
precision, or 4-decimal values.

``check_witness`` builds the fixture tensor, evaluates all thirteen
invariants, and compares against the expected values.  For the angle family
(case J4) the computed J4 and M6 are additionally compared against the
recorded closed-form expressions; those comparisons are reported but do not
enter the pass flag, and any disagreement is surfaced rather than patched.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from importlib import resources

from .invariants import NAMES, invariants_of, all_invariants
from .tensor_core import (
    HarmonicParts,
    Sym3Tensor,
    Traceless3Tensor,
    format_rational,
    parse_rational,
    recompose,
)

WITNESS_CASES = ("L6", "K4", "J6", "L4", "M6", "J4")


def load_fixture(case: str) -> dict:
    if case not in WITNESS_CASES:
        raise ValueError(f"unknown witness case {case!r}")
    path = resources.files("sym3inv.fixtures").joinpath(f"{case.lower()}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def witness_tensor(case: str) -> Sym3Tensor:
    """The fixture tensor for a static case (L6, K4, J6, L4)."""
    fix = load_fixture(case)
    if "components" not in fix:
        raise ValueError(f"case {case} is a family, not a single tensor")
    if fix["field"] == "rational":
        comps = tuple(parse_rational(c) for c in fix["components"])
    else:
        comps = tuple(float(c) for c in fix["components"])
    return Sym3Tensor(comps)


def m6_harmonic_parts(a, b, c, d) -> HarmonicParts:
    """Member of the M6 family: deviator D123 = d, vector (5a, 5b, 5c)."""
    dev = Traceless3Tensor((0, 0, 0, 0, d, 0, 0))
    return HarmonicParts(dev, (5 * a, 5 * b, 5 * c))


def j4_tensor(theta: float) -> Sym3Tensor:
    """Member of the angle family behind the J4 witness."""
    c, s = math.cos(theta), math.sin(theta)
    return Sym3Tensor((
        0.6 * c, 0.2 * s, 0.0, 0.2 * c, 1.0, 0.2 * c, 0.6 * s, 1.0, 0.2 * s, -1.0,
    ))


def witness_instance_tensor(case: str, theta=None, params=None) -> Sym3Tensor:
    """The tensor a witness case evaluates.

    J4 at theta (required), M6 at params (default: the first recorded
    instance), any other case its fixture tensor.
    """
    if case == "J4":
        return j4_tensor(theta)
    if case == "M6":
        if params is None:
            params = _instance_params(load_fixture("M6")["instances"][0])
        return recompose(m6_harmonic_parts(*params))
    return witness_tensor(case)


def _instance_params(instance: dict) -> tuple:
    """(a, b, c, d) of a recorded M6 instance: its float param_values, else its params."""
    raw = instance.get("param_values") or {
        k: parse_rational(v) for k, v in instance["params"].items()
    }
    return tuple(raw[k] for k in "abcd")


def _jsonable(value):
    """Exact scalars become 'p/q' strings; floats stay JSON numbers."""
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return format_rational(value)
    return value


def _expected_value(raw, exact: bool):
    if isinstance(raw, str):
        val = parse_rational(raw)
        return val if exact else float(val)
    return raw


def _compare(computed, expected, check: dict, is_zero: bool):
    kind = check["kind"]
    if kind == "exact":
        return computed == expected, 0 if computed == expected else computed - expected
    diff = abs(computed - expected)
    if kind == "abs":
        return diff <= check["tolerance"], diff
    if kind == "rel":
        if is_zero:
            return diff <= check["zero_tolerance"], diff
        return diff <= check["tolerance"] * abs(expected), diff
    raise ValueError(f"unknown check kind {kind!r}")


def _run_value_checks(iv, expected: dict, zeros, check: dict, exact: bool):
    zero = Fraction(0) if exact else 0.0
    targets = [(name, _expected_value(raw, exact), False) for name, raw in expected.items()]
    targets += [(name, zero, True) for name in zeros]
    checks = []
    for name, expect, is_zero in targets:
        ok, err = _compare(iv[name], expect, check, is_zero)
        checks.append({
            "invariant": name,
            "expected": _jsonable(expect),
            "computed": _jsonable(iv[name]),
            "error": _jsonable(err),
            "ok": ok,
        })
    return checks, all(c["ok"] for c in checks)


def _check_static_case(case: str) -> dict:
    fix = load_fixture(case)
    iv = invariants_of(witness_tensor(case))
    exact = fix["check"]["kind"] == "exact"
    checks, ok = _run_value_checks(iv, fix["expected"], fix["zeros"], fix["check"], exact)
    report = {
        "case": case,
        "role": fix["role"],
        "invariants": {n: _jsonable(iv[n]) for n in NAMES},
        "checks": checks,
        "pass": ok,
    }
    if "known_issue" in fix:
        report["known_issue"] = fix["known_issue"]
    return report


def _check_m6_instance(instance: dict) -> dict:
    params = _instance_params(instance)
    h = m6_harmonic_parts(*params)
    iv = all_invariants(h)
    exact = instance["check"]["kind"] == "exact"
    checks, ok = _run_value_checks(
        iv, instance["expected"], instance["zeros"], instance["check"], exact
    )
    return {
        "params": {k: _jsonable(v) for k, v in zip("abcd", params)},
        "tensor": {"components": [_jsonable(c) for c in recompose(h).components]},
        "invariants": {n: _jsonable(iv[n]) for n in NAMES},
        "checks": checks,
        "pass": ok,
    }


def _check_m6_family_member(fix: dict, params) -> dict:
    """Only the parameter-independent zeros, for parameters no instance records."""
    iv = all_invariants(m6_harmonic_parts(*params))
    exact = all(not isinstance(p, float) for p in params)
    check = {"kind": "exact"} if exact else {"kind": "abs", "tolerance": 1e-9}
    checks, ok = _run_value_checks(iv, {}, fix["family_zeros"], check, exact)
    return {
        "params": {k: _jsonable(v) for k, v in zip("abcd", params)},
        "invariants": {n: _jsonable(iv[n]) for n in NAMES},
        "checks": checks,
        "pass": ok,
    }


def _check_m6_case(params=None) -> dict:
    fix = load_fixture("M6")
    if params is None:
        instances = [_check_m6_instance(inst) for inst in fix["instances"]]
    else:
        # explicit parameters matching a recorded instance get its full checks
        matched = [inst for inst in fix["instances"]
                   if all(abs(float(p) - float(r)) <= 1e-12
                          for p, r in zip(params, _instance_params(inst)))]
        instances = [_check_m6_instance(matched[0]) if matched
                     else _check_m6_family_member(fix, params)]
    return {
        "case": "M6",
        "role": fix["role"],
        "instances": instances,
        "pass": all(inst["pass"] for inst in instances),
    }


def _closed_form_j4(theta: float) -> float:
    return 2 + 4 * math.cos(theta) * math.sin(theta) + 2 * math.sin(theta) ** 2


def _closed_form_m6(theta: float) -> float:
    return math.sin(theta) ** 2 * (2 * math.cos(theta) + math.sin(theta) ** 2)


def _check_j4_case(theta=None) -> dict:
    fix = load_fixture("J4")
    if theta is not None:
        thetas = [float(theta)]
    else:
        n = fix["default_theta_count"]
        thetas = [math.pi * i / (n - 1) for i in range(n)]
    check = fix["check"]
    ok = True
    worst = {name: 0.0 for name in list(fix["expected_constant"]) + fix["zeros"]}
    j4_values = []
    m6_values = []
    for th in thetas:
        iv = invariants_of(j4_tensor(th))
        for name, expect in fix["expected_constant"].items():
            err = abs(iv[name] - expect)
            worst[name] = max(worst[name], err)
            ok &= err <= check["tolerance"]
        for name in fix["zeros"]:
            err = abs(iv[name])
            worst[name] = max(worst[name], err)
            ok &= err <= check["tolerance"]
        j4_values.append(iv["J4"])
        m6_values.append(iv["M6"])

    checks = [{"invariant": n, "max_error": worst[n], "ok": worst[n] <= check["tolerance"]}
              for n in worst]

    # monotonicity of J4 on [0, pi/4], plus its value at 0
    grid = [math.pi / 4 * i / 32 for i in range(33)]
    mono_vals = [invariants_of(j4_tensor(t))["J4"] for t in grid]
    monotone = all(b >= a - 1e-12 for a, b in zip(mono_vals, mono_vals[1:]))
    at_zero = invariants_of(j4_tensor(0.0))["J4"]
    start_ok = abs(at_zero - 2.0) <= 1e-9
    ok &= monotone and start_ok

    # closed-form comparison: reported, never patched into the pass checks
    j4_dev = max(abs(v - _closed_form_j4(t)) for t, v in zip(thetas, j4_values))
    m6_dev = max(abs(v - _closed_form_m6(t)) for t, v in zip(thetas, m6_values))
    report = {
        "case": "J4",
        "role": fix["role"],
        "thetas": thetas,
        "checks": checks,
        "j4_monotone_on_first_quarter": monotone,
        "j4_at_zero": at_zero,
        "closed_form_report": {
            "j4_form": fix["j4_closed_form"],
            "j4_max_deviation": j4_dev,
            "m6_form": fix["m6_closed_form"],
            "m6_max_deviation": m6_dev,
            "m6_form_matches": m6_dev <= 1e-9,
            "note": (
                "computed M6 values disagree with the recorded m6_form at most "
                "angles (reported, not patched); empirically they coincide with "
                "sin(t)^2*(2*cos(t) + sin(t))^2 and with the recorded reference "
                "value M6(3pi/4) = 1/4"
            ) if m6_dev > 1e-9 else "both closed forms match the computed values",
        },
        "pass": ok,
    }
    return report


def check_witness(case: str, theta=None, params=None) -> dict:
    """Build a witness fixture, evaluate invariants, compare to expected values."""
    if case in ("L6", "K4", "J6", "L4"):
        return _check_static_case(case)
    if case == "M6":
        return _check_m6_case(params)
    if case == "J4":
        return _check_j4_case(theta)
    raise ValueError(f"unknown witness case {case!r}")
