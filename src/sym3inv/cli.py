"""Command-line interface: JSON reports, seeded determinism, typed exit codes.

Every subcommand prints a single report object to stdout:

    {"command": ..., "parameters": ..., "results": ..., "pass": ...,
     "wall_time_seconds": ...}

Identical arguments (including seeds) reproduce the report byte for byte
except for the wall-time field.  Randomized subcommands require an explicit
--seed; there is no silent entropy.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .function_basis import ElevenBasis, reconstruct_I8, reconstruct_K6
from .invariants import NAMES, invariants_of
from .optimizer import minimize
from .syzygy import (
    ELEVEN,
    THIRTEEN,
    builtin_relations,
    discover_relations,
    random_harmonic_parts,
    verify_relation,
)
from .tensor_core import (
    FLOAT,
    RATIONAL,
    TensorFormatError,
    load_tensor,
    decompose,
    format_rational,
    random_orthogonal,
    random_sym3,
    rotate,
    save_tensor,
)
from .witnesses import WITNESS_CASES, check_witness, witness_instance_tensor

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_FILE = 3
EXIT_FIELD_MISMATCH = 4

EXIT_CODE_HELP = """exit codes:
  0  run completed and every check passed
  1  run completed but at least one check failed
  2  usage error (unknown subcommand or bad arguments)
  3  malformed tensor file
  4  field mismatch (exact-only operation on float input)
"""


class FieldMismatchError(ValueError):
    pass


def jsonable(value):
    """Recursively convert results to JSON-ready values (Fraction -> 'p/q')."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value
    return str(value)


def cmd_invariants(args):
    tensor = load_tensor(args.file)
    if args.exact and tensor.field != RATIONAL:
        raise FieldMismatchError("--exact requires a rational-field tensor file")
    iv = invariants_of(tensor)
    if args.exact:
        values = {n: jsonable(Fraction(iv[n])) for n in NAMES}
    else:
        values = {n: float(iv[n]) for n in NAMES}
    return {"field": tensor.field, "invariants": values}, True


def cmd_decompose(args):
    tensor = load_tensor(args.file)
    h = decompose(tensor)
    d = h.deviator
    d133, d233, d333 = d.dependent_components()
    if h.field == RATIONAL:
        scalar = Fraction  # uniform p/q output even for integer entries
    else:
        scalar = float
    results = {
        "field": h.field,
        "deviator": {
            "independent": jsonable([scalar(c) for c in d.components]),
            "dependent": {"D133": jsonable(scalar(d133)),
                          "D233": jsonable(scalar(d233)),
                          "D333": jsonable(scalar(d333))},
        },
        "vector": jsonable([scalar(c) for c in h.vector]),
    }
    return results, True


def cmd_reconstruct(args):
    tensor = load_tensor(args.file)
    iv = invariants_of(tensor)
    basis = ElevenBasis.from_invariants(iv)
    k6 = reconstruct_K6(basis)
    i8 = reconstruct_I8(basis, k6)
    dk6 = iv["K6"] - k6
    di8 = iv["I8"] - i8
    if tensor.field == RATIONAL:
        ok = dk6 == 0 and di8 == 0
    else:
        # I2 + J2 is the squared size of the tensor, so size**3 and size**4
        # scale like K6 and I8 (degrees 6 and 8) at every magnitude
        size = iv["I2"] + iv["J2"]
        ok = abs(dk6) <= 1e-8 * size ** 3 and abs(di8) <= 1e-8 * size ** 4
    results = {
        "field": tensor.field,
        "K6": {"direct": jsonable(iv["K6"]), "reconstructed": jsonable(k6),
               "difference": jsonable(dk6)},
        "I8": {"direct": jsonable(iv["I8"]), "reconstructed": jsonable(i8),
               "difference": jsonable(di8)},
    }
    return results, ok


def cmd_verify_syzygies(args):
    rng = random.Random(f"{args.seed}:verify")
    points = [random_harmonic_parts(rng, 9) for _ in range(args.samples)]
    results = {}
    ok = True
    for name, rel in builtin_relations().items():
        residuals = [verify_relation(rel, h) for h in points]
        worst = max(residuals, key=abs)
        results[name] = {
            "degree": rel.degree,
            "basis": rel.basis,
            "terms": len(rel.terms),
            "max_abs_residual": str(worst),
        }
        ok &= all(r == 0 for r in residuals)
    return {"samples": args.samples, "relations": results}, ok


def cmd_discover(args):
    basis = THIRTEEN if args.basis == 13 else ELEVEN
    found = discover_relations(basis, args.degree, args.seed, args.samples)
    relations_out = []
    for rel in found:
        relations_out.append({
            "degree": rel.degree,
            "bidegree": list(rel.terms[0][1].bidegree),
            "terms": {str(t): jsonable(Fraction(c)) for c, t in rel.terms},
        })
    results = {
        "basis": basis,
        "degree": args.degree,
        "samples": args.samples,
        "relation_count": len(found),
        "relations": relations_out,
    }
    return results, True


def cmd_isotropy_check(args):
    worst = 0.0
    worst_name = None
    base = args.seed * 2_000_003
    for i in range(args.samples):
        tensor = random_sym3(base + 2 * i, FLOAT, 2)
        q = random_orthogonal(base + 2 * i + 1, 1 if i % 2 == 0 else -1)
        before = invariants_of(tensor)
        after = invariants_of(rotate(tensor, q))
        for n in NAMES:
            err = abs(after[n] - before[n]) / max(1.0, abs(before[n]))
            if err > worst:
                worst, worst_name = err, n
    ok = worst <= args.tol
    results = {
        "samples": args.samples,
        "tolerance": args.tol,
        "max_relative_deviation": worst,
        "worst_invariant": worst_name,
    }
    return results, ok


def cmd_prop31(args):
    res = minimize(args.seed, args.starts, args.iters)
    above_floor = res.value >= 0.2 - 1e-6
    at_claimed_min = abs(res.value - 0.2) <= 1e-3
    results = {
        "best_value": res.value,
        "gradient_norm": res.grad_norm,
        "best_point": {
            "deviator": list(res.point.deviator.components),
            "vector": list(res.point.vector),
        },
        "feasibility_defect": res.point.feasibility_defect(),
        "iterations": res.iterations,
        "backtracks": res.backtracks,
        "above_floor_0.2": above_floor,
        "matches_claimed_minimum": at_claimed_min,
    }
    return results, above_floor and at_claimed_min


def cmd_witness(args):
    if args.write_tensor and args.case == "J4" and args.theta is None:
        print("error: --write-tensor with case J4 needs an explicit --theta",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    params = None
    if args.params is not None:
        params = tuple(int(p) if p.is_integer() else p for p in args.params)
    report = check_witness(args.case, theta=args.theta, params=params)
    if args.write_tensor:
        save_tensor(witness_instance_tensor(args.case, args.theta, params), args.write_tensor)
        report = {**report, "tensor_file": args.write_tensor}
    return report, report["pass"]


def _check_arguments(args):
    """Raise ValueError for a non-finite float argument or a --samples below 1."""
    for name, value in vars(args).items():
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, list) else [value])):
            raise ValueError(f"--{name} must be finite")
    if getattr(args, "samples", 1) < 1:
        raise ValueError("--samples must be >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sym3inv",
        description=(
            "Isotropic invariants of symmetric third-order 3D tensors: "
            "evaluation, syzygy verification and discovery, reconstruction "
            "from the eleven-invariant function basis."
        ),
        epilog=EXIT_CODE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="print the thirteen invariants of a tensor file")
    p.add_argument("file")
    p.add_argument("--exact", action="store_true",
                   help="print exact p/q values (rational input only)")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("decompose", help="print the harmonic parts (D, u) of a tensor file")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct",
                       help="compare direct and reconstructed K6 and I8 for a tensor file")
    p.add_argument("file")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify-syzygies",
                       help="check the five built-in relations at seeded random points")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_verify_syzygies)

    p = sub.add_parser("discover", help="rediscover relations from exact evaluations")
    p.add_argument("--basis", type=int, choices=(13, 11), required=True)
    p.add_argument("--degree", type=int, choices=(10, 16), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("isotropy-check",
                       help="verify invariance under random orthogonal transformations")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_isotropy_check)

    p = sub.add_parser("prop31",
                       help="multi-start minimization of 2*I2*J2 - 3*J4 on the unit spheres")
    p.add_argument("--starts", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_prop31)

    p = sub.add_parser("witness", help="check a golden witness fixture")
    p.add_argument("--case", choices=WITNESS_CASES, required=True)
    p.add_argument("--theta", type=float, default=None,
                   help="single angle for case J4 (default: sample 32 angles)")
    p.add_argument("--params", type=float, nargs=4, metavar=("A", "B", "C", "D"),
                   default=None, help="family parameters for case M6")
    p.add_argument("--write-tensor", metavar="PATH", default=None,
                   help="also write the witness tensor as a sym3-v1 file")
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        _check_arguments(args)
        results, passed = args.func(args)
    except TensorFormatError as exc:
        print(f"error: malformed tensor file: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except FieldMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIELD_MISMATCH
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except ValueError as exc:  # an argument the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed = time.perf_counter() - start

    parameters = {
        k: jsonable(v) for k, v in sorted(vars(args).items())
        if k not in ("func", "command")
    }
    report = {
        "command": args.command,
        "parameters": parameters,
        "results": jsonable(results),
        "pass": bool(passed),
        "wall_time_seconds": round(elapsed, 6),
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
