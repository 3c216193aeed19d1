"""The package's public names, and the README's library example that uses them."""

from fractions import Fraction
from pathlib import Path

import sym3inv

PUBLIC_NAMES = [
    "BIDEGREE", "DEGREE", "ELEVEN_NAMES", "EVEN_UNDER_FLIP", "ElevenBasis", "FLOAT",
    "FeasiblePoint", "HarmonicParts", "InvariantVector", "NAMES", "ODD_UNDER_FLIP",
    "Orthogonal3", "ProductTerm", "RATIONAL", "Sym3Tensor", "SyzygyRelation",
    "Traceless3Tensor", "WITNESS_CASES", "__version__", "all_invariants",
    "builtin_relations", "check_witness", "decompose", "deviator_invariants",
    "discover_relations", "enumerate_products", "evaluate_products", "expand",
    "in_span", "inner_solve_u", "invariant_dimension", "invariants_of", "load_tensor",
    "minimize", "objective", "random_orthogonal", "random_sym3", "recompose",
    "reconstruct_I8", "reconstruct_K6", "reference_invariants", "rotate", "save_tensor",
    "verify_relation", "witness_tensor",
]


def test_public_names_are_frozen_and_resolve():
    assert sorted(sym3inv.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(sym3inv, name) is not None


def test_readme_library_quick_start_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    ns = {}
    exec(block.split("```", 1)[0], ns)
    iv = ns["iv"]
    assert iv["I4"] == Fraction(37, 2)
    assert ns["k6"] == iv["K6"] and ns["i8"] == iv["I8"]
    assert abs(ns["result"].value - 0.2) < 1e-9
