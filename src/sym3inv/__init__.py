"""Isotropic invariants of symmetric third-order 3D tensors.

The package evaluates the thirteen-invariant integrity basis of such a
tensor exactly or in floating point, verifies and rediscovers the polynomial
relations (syzygies) among the invariants with exact rational arithmetic,
reconstructs the two invariants that the eleven-invariant function basis
drops, and numerically probes the gap inequality 2*I2*J2 - 3*J4 >= 0.
"""

__version__ = "0.1.0"

from .function_basis import ELEVEN_NAMES, ElevenBasis, reconstruct_I8, reconstruct_K6
from .invariants import (
    BIDEGREE,
    DEGREE,
    EVEN_UNDER_FLIP,
    NAMES,
    ODD_UNDER_FLIP,
    InvariantVector,
    all_invariants,
    invariants_of,
    reference_invariants,
    deviator_invariants,
)
from .optimizer import FeasiblePoint, inner_solve_u, minimize, objective
from .syzygy import (
    ProductTerm,
    SyzygyRelation,
    builtin_relations,
    discover_relations,
    enumerate_products,
    evaluate_products,
    in_span,
    verify_relation,
)
from .tensor_core import (
    FLOAT,
    RATIONAL,
    HarmonicParts,
    Orthogonal3,
    Sym3Tensor,
    Traceless3Tensor,
    decompose,
    expand,
    load_tensor,
    random_orthogonal,
    random_sym3,
    recompose,
    rotate,
    save_tensor,
)
from .witnesses import WITNESS_CASES, check_witness, witness_tensor

__all__ = [
    "__version__",
    "BIDEGREE", "DEGREE", "EVEN_UNDER_FLIP", "NAMES", "ODD_UNDER_FLIP",
    "ELEVEN_NAMES", "ElevenBasis", "FeasiblePoint", "FLOAT", "HarmonicParts",
    "InvariantVector", "Orthogonal3", "ProductTerm", "RATIONAL", "Sym3Tensor",
    "SyzygyRelation", "Traceless3Tensor", "WITNESS_CASES",
    "all_invariants", "builtin_relations", "check_witness", "decompose",
    "discover_relations", "enumerate_products", "evaluate_products", "expand",
    "in_span", "inner_solve_u", "invariants_of", "load_tensor", "minimize",
    "objective", "random_orthogonal", "random_sym3",
    "reconstruct_I8", "reconstruct_K6", "recompose", "reference_invariants",
    "rotate", "save_tensor", "deviator_invariants", "verify_relation", "witness_tensor",
]
