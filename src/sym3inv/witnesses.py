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
    FORMAT_TAG,
    RATIONAL,
    HarmonicParts,
    Sym3Tensor,
    Traceless3Tensor,
    field_of,
    format_rational,
    parse_rational,
    recompose,
    tensor_from_json,
)

WITNESS_CASES = ("L6", "K4", "J6", "L4", "M6", "J4")


def load_fixture(case: str) -> dict:
    if case not in WITNESS_CASES:
        raise ValueError(f"unknown witness case {case!r}")
    path = resources.files("sym3inv.fixtures").joinpath(f"{case.lower()}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def _case_fixture(case: str, theta=None, params=None, tensor: bool = False) -> dict:
    """The fixture of a witness case, once its arguments are checked.

    theta applies only to J4, params (four values a, b, c, d) only to M6,
    and a J4 tensor needs theta; anything else raises ValueError.
    """
    fix = load_fixture(case)
    if theta is not None and case != "J4":
        raise ValueError(f"theta applies only to case J4, not {case}")
    if params is not None and case != "M6":
        raise ValueError(f"params apply only to case M6, not {case}")
    if params is not None and len(params) != 4:
        raise ValueError(f"params need four values a, b, c, d, not {len(params)}")
    if tensor and case == "J4" and theta is None:
        raise ValueError("the J4 tensor needs an explicit theta")
    return fix


def _static_tensor(fix: dict) -> Sym3Tensor:
    """The tensor of a static fixture, validated like a tensor file."""
    if "components" not in fix:
        raise ValueError(f"case {fix['case']} is a family, not a single tensor")
    return tensor_from_json({**fix, "format": FORMAT_TAG})


def witness_tensor(case: str) -> Sym3Tensor:
    """The fixture tensor for a static case (L6, K4, J6, L4).

    Its field and components get the validation of a tensor file.
    """
    return _static_tensor(load_fixture(case))


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
    fix = _case_fixture(case, theta, params, tensor=True)
    if case == "J4":
        return j4_tensor(theta)
    if case == "M6":
        if params is None:
            params = _instance_params(fix["instances"][0])
        return recompose(m6_harmonic_parts(*params))
    return _static_tensor(fix)


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


def _value_report(iv, spec: dict) -> dict:
    """The invariants, checks and pass of values iv against spec's expected values and zeros.

    spec["check"] says how to compare; its kind "exact" compares exact scalars.
    """
    exact = spec["check"]["kind"] == "exact"
    zero = Fraction(0) if exact else 0.0
    targets = [(name, _expected_value(raw, exact), False)
               for name, raw in spec["expected"].items()]
    targets += [(name, zero, True) for name in spec["zeros"]]
    checks = []
    for name, expect, is_zero in targets:
        ok, err = _compare(iv[name], expect, spec["check"], is_zero)
        checks.append({
            "invariant": name,
            "expected": _jsonable(expect),
            "computed": _jsonable(iv[name]),
            "error": _jsonable(err),
            "ok": ok,
        })
    return {
        "invariants": {n: _jsonable(iv[n]) for n in NAMES},
        "checks": checks,
        "pass": all(c["ok"] for c in checks),
    }


def _check_static_case(case: str, fix: dict) -> dict:
    iv = invariants_of(_static_tensor(fix))
    report = {"case": case, "role": fix["role"], **_value_report(iv, fix)}
    if "known_issue" in fix:
        report["known_issue"] = fix["known_issue"]
    return report


def _check_m6_case(fix: dict, params) -> dict:
    specs = fix["instances"]
    if params is not None:
        # explicit parameters matching a recorded instance get its full checks,
        # others only the parameter-independent zeros
        exact = field_of(params) == RATIONAL
        check = {"kind": "exact"} if exact else {"kind": "abs", "tolerance": 1e-9}
        family = {"expected": {}, "zeros": fix["family_zeros"], "check": check}
        matched = [inst for inst in specs
                   if all(abs(float(p) - float(r)) <= 1e-12
                          for p, r in zip(params, _instance_params(inst)))]
        specs = matched[:1] or [family]
    instances = []
    for spec in specs:
        recorded = "params" in spec
        values = _instance_params(spec) if recorded else params
        h = m6_harmonic_parts(*values)
        inst = {"params": {k: _jsonable(v) for k, v in zip("abcd", values)}}
        if recorded:
            inst["tensor"] = {"components": [_jsonable(c) for c in recompose(h).components]}
        instances.append({**inst, **_value_report(all_invariants(h), spec)})
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


def _check_j4_case(fix: dict, theta) -> dict:
    if theta is not None:
        thetas = [float(theta)]
    else:
        n = fix["default_theta_count"]
        thetas = [math.pi * i / (n - 1) for i in range(n)]
    tolerance = fix["check"]["tolerance"]
    targets = {**fix["expected_constant"], **dict.fromkeys(fix["zeros"], 0.0)}
    ivs = [invariants_of(j4_tensor(th)) for th in thetas]
    errors = {n: [abs(iv[n] - expect) for iv in ivs] for n, expect in targets.items()}
    # a NaN error fails its check: every comparison with NaN is false
    checks = [{"invariant": n, "max_error": max(errs),
               "ok": all(e <= tolerance for e in errs)}
              for n, errs in errors.items()]

    # monotonicity of J4 on [0, pi/4], plus its value at 0
    grid = [math.pi / 4 * i / 32 for i in range(33)]
    mono_vals = [invariants_of(j4_tensor(t))["J4"] for t in grid]
    monotone = all(b >= a - 1e-12 for a, b in zip(mono_vals, mono_vals[1:]))
    at_zero = mono_vals[0]
    start_ok = abs(at_zero - 2.0) <= 1e-9

    # closed-form comparison: reported, never patched into the pass checks
    j4_dev = max(abs(iv["J4"] - _closed_form_j4(t)) for t, iv in zip(thetas, ivs))
    m6_dev = max(abs(iv["M6"] - _closed_form_m6(t)) for t, iv in zip(thetas, ivs))
    return {
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
        "pass": all(c["ok"] for c in checks) and monotone and start_ok,
    }


def check_witness(case: str, theta=None, params=None) -> dict:
    """Build a witness fixture, evaluate invariants, compare to expected values."""
    fix = _case_fixture(case, theta, params)
    if case == "M6":
        return _check_m6_case(fix, params)
    if case == "J4":
        return _check_j4_case(fix, theta)
    return _check_static_case(case, fix)
