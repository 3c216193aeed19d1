"""Symmetric third-order 3D tensors, their harmonic decomposition, and the
orthogonal-group action.

A fully symmetric third-order tensor A in three dimensions has 10 independent
components, stored in the fixed order

    [A111, A112, A113, A122, A123, A133, A222, A223, A233, A333].

Its harmonic decomposition splits it into a symmetric traceless tensor D
(7 independent components) and a vector u:

    u_i   = A_ill
    D_ijk = A_ijk - (1/5) * (u_k d_ij + u_j d_ik + u_i d_jk)

with d the Kronecker delta.  D is stored as

    [D111, D112, D113, D122, D123, D222, D223]

with the dependent entries fixed by tracelessness: D133 = -D111 - D122,
D233 = -D112 - D222, D333 = -D113 - D223.

Scalars may be exact (int / Fraction) or float; every operation here is
generic over the two scalar fields.  All values are immutable after
construction and all functions are pure, so everything is safe to share
between threads.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"

# Index triples (1-based) of the independent components, in storage order.
SYM_COMPONENT_INDICES = (
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
    (1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3),
)
SYM_COMPONENT_NAMES = tuple(
    "A%d%d%d" % ijk for ijk in SYM_COMPONENT_INDICES
)

TRACELESS_COMPONENT_INDICES = (
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3), (2, 2, 2), (2, 2, 3),
)
TRACELESS_COMPONENT_NAMES = tuple(
    "D%d%d%d" % ijk for ijk in TRACELESS_COMPONENT_INDICES
)

ORTHOGONALITY_TOL = 1e-12


def field_of(values) -> str:
    """Scalar field of a collection of components: FLOAT if any float appears."""
    return FLOAT if any(isinstance(v, float) for v in values) else RATIONAL


@dataclass(frozen=True)
class Sym3Tensor:
    """Fully symmetric third-order 3D tensor, 10 independent components."""

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != 10:
            raise ValueError("Sym3Tensor needs exactly 10 components")

    @property
    def field(self) -> str:
        return field_of(self.components)

    @classmethod
    def zero(cls) -> "Sym3Tensor":
        return cls((0,) * 10)


@dataclass(frozen=True)
class Traceless3Tensor:
    """Symmetric traceless third-order 3D tensor, 7 independent components.

    Tracelessness holds by construction: the dependent entries D133, D233,
    D333 are derived from the stored seven, so D_ill = 0 identically in the
    exact field (and to rounding in the float field).
    """

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != 7:
            raise ValueError("Traceless3Tensor needs exactly 7 components")

    @property
    def field(self) -> str:
        return field_of(self.components)

    def dependent_components(self) -> tuple:
        d111, d112, d113, d122, _, d222, d223 = self.components
        return (-d111 - d122, -d112 - d222, -d113 - d223)  # D133, D233, D333

    @classmethod
    def zero(cls) -> "Traceless3Tensor":
        return cls((0,) * 7)


@dataclass(frozen=True)
class HarmonicParts:
    """The pair (deviator D, vector u) produced by the harmonic decomposition."""

    deviator: Traceless3Tensor
    vector: tuple

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(self.vector))
        if len(self.vector) != 3:
            raise ValueError("vector part must have 3 entries")

    @property
    def field(self) -> str:
        return field_of(self.deviator.components + self.vector)

    def flip_vector(self) -> "HarmonicParts":
        return HarmonicParts(self.deviator, tuple(-v for v in self.vector))


@dataclass(frozen=True)
class Orthogonal3:
    """3x3 orthogonal matrix (either determinant sign)."""

    matrix: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in self.matrix))
        if len(self.matrix) != 3 or any(len(r) != 3 for r in self.matrix):
            raise ValueError("Orthogonal3 needs a 3x3 matrix")

    @property
    def field(self) -> str:
        return field_of(e for row in self.matrix for e in row)

    def orthogonality_defect(self):
        """Largest entry of |Q^T Q - I|."""
        q = self.matrix
        worst = 0
        for i in range(3):
            for j in range(3):
                s = sum(q[k][i] * q[k][j] for k in range(3))
                if i == j:
                    s = s - 1
                worst = max(worst, abs(s))
        return worst

    def determinant(self):
        q = self.matrix
        return (
            q[0][0] * (q[1][1] * q[2][2] - q[1][2] * q[2][1])
            - q[0][1] * (q[1][0] * q[2][2] - q[1][2] * q[2][0])
            + q[0][2] * (q[1][0] * q[2][1] - q[1][1] * q[2][0])
        )

    def validate(self):
        """Raise ValueError unless Q^T Q = I, within ORTHOGONALITY_TOL for floats."""
        defect = self.orthogonality_defect()
        if self.field == RATIONAL:
            if defect != 0:
                raise ValueError("matrix is not exactly orthogonal")
        elif defect > ORTHOGONALITY_TOL:
            raise ValueError(f"matrix is not orthogonal (defect {float(defect):.3e})")


def expand(t):
    """Full 3x3x3 expansion of a Sym3Tensor or Traceless3Tensor.

    Entry (i, j, k) is the stored component of the sorted index triple;
    dependent traceless entries come from the linear trace relations.
    Returns nested tuples indexed t[i][j][k] with 0-based indices.
    """
    if isinstance(t, Sym3Tensor):
        by_triple = dict(zip(SYM_COMPONENT_INDICES, t.components))
    elif isinstance(t, Traceless3Tensor):
        by_triple = dict(zip(TRACELESS_COMPONENT_INDICES, t.components))
        d133, d233, d333 = t.dependent_components()
        by_triple[(1, 3, 3)] = d133
        by_triple[(2, 3, 3)] = d233
        by_triple[(3, 3, 3)] = d333
    else:
        raise TypeError(f"cannot expand {type(t).__name__}")
    return tuple(
        tuple(
            tuple(by_triple[tuple(sorted((i, j, k)))] for k in (1, 2, 3))
            for j in (1, 2, 3)
        )
        for i in (1, 2, 3)
    )


def _traceless_from_expanded(d):
    return Traceless3Tensor(tuple(
        d[i - 1][j - 1][k - 1] for (i, j, k) in TRACELESS_COMPONENT_INDICES
    ))


def _sym_from_expanded(a):
    return Sym3Tensor(tuple(
        a[i - 1][j - 1][k - 1] for (i, j, k) in SYM_COMPONENT_INDICES
    ))


def _shift_trace_part(t, u, field, sign):
    """Expanded t_ijk + sign * (1/5)(u_k d_ij + u_j d_ik + u_i d_jk).

    decompose removes the trace part (sign -1), recompose restores it
    (sign +1); t + (-x) equals t - x exactly in every scalar field.
    """
    fifth = sign * (0.2 if field == FLOAT else Fraction(1, 5))
    rng = range(3)
    return [[[t[i][j][k] + fifth * (u[k] * (i == j) + u[j] * (i == k) + u[i] * (j == k))
              for k in rng] for j in rng] for i in rng]


def decompose(a: Sym3Tensor) -> HarmonicParts:
    """Harmonic decomposition A -> (D, u) with u_i = A_ill."""
    t = expand(a)
    u = tuple(sum(t[i][l][l] for l in range(3)) for i in range(3))
    return HarmonicParts(_traceless_from_expanded(_shift_trace_part(t, u, a.field, -1)), u)


def recompose(h: HarmonicParts) -> Sym3Tensor:
    """Inverse of decompose: A_ijk = D_ijk + (1/5)(u_k d_ij + u_j d_ik + u_i d_jk)."""
    return _sym_from_expanded(_shift_trace_part(expand(h.deviator), h.vector, h.field, 1))


def rotate(t, q: Orthogonal3):
    """Orthogonal transformation: result_ijk = q_ia q_jb q_kc t_abc.

    Accepts a Sym3Tensor or a Traceless3Tensor and returns the same type
    (the transform preserves both symmetry and tracelessness).  The
    contraction runs one index at a time on the full 27-entry expansion,
    which agrees exactly with the naive triple-sum.
    """
    q.validate()
    m = q.matrix
    a = expand(t)
    # contract third index, then second, then first
    t1 = [[[sum(m[k][c] * a[i][j][c] for c in range(3)) for k in range(3)]
           for j in range(3)] for i in range(3)]
    t2 = [[[sum(m[j][b] * t1[i][b][k] for b in range(3)) for k in range(3)]
           for j in range(3)] for i in range(3)]
    t3 = [[[sum(m[i][a_] * t2[a_][j][k] for a_ in range(3)) for k in range(3)]
           for j in range(3)] for i in range(3)]
    if isinstance(t, Sym3Tensor):
        return _sym_from_expanded(t3)
    return _traceless_from_expanded(t3)


def rotate_vector(u, q: Orthogonal3) -> tuple:
    m = q.matrix
    return tuple(sum(m[i][j] * u[j] for j in range(3)) for i in range(3))


def random_sym3(seed: int, field: str = RATIONAL, bound: int = 9) -> Sym3Tensor:
    """Seeded random tensor with components uniform in [-bound, bound].

    Rational field draws integers, float field draws uniform reals.
    bound = 0 yields the zero tensor.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    rng = random.Random(seed)
    if field == RATIONAL:
        comps = tuple(rng.randint(-bound, bound) for _ in range(10))
    elif field == FLOAT:
        comps = tuple(rng.uniform(-bound, bound) for _ in range(10))
    else:
        raise ValueError(f"unknown field {field!r}")
    return Sym3Tensor(comps)


def random_orthogonal(seed: int, det_sign: int = 1) -> Orthogonal3:
    """Seeded random orthogonal matrix with the requested determinant sign.

    Gram-Schmidt on a 3x3 matrix of standard normals (run twice, which pins
    the orthogonality defect near machine epsilon) with a column-sign fix,
    then composition with diag(-1, 1, 1) when det_sign is -1.
    """
    if det_sign not in (1, -1):
        raise ValueError("det_sign must be +1 or -1")
    rng = random.Random(seed)
    while True:
        cols = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(3)]
        q = cols
        ok = True
        for _ in range(2):
            step = []
            for col in q:
                v = list(col)
                for p in step:
                    dot = sum(x * y for x, y in zip(v, p))
                    v = [x - dot * y for x, y in zip(v, p)]
                n = math.sqrt(sum(x * x for x in v))
                if n < 1e-8:  # retry on a nearly dependent draw
                    ok = False
                    break
                step.append([x / n for x in v])
            if not ok:
                break
            q = step
        if ok:
            q = [
                [-x for x in v] if sum(x * y for x, y in zip(col, v)) < 0 else v
                for col, v in zip(cols, q)
            ]
            break
    rows = tuple(tuple(q[c][r] for c in range(3)) for r in range(3))
    out = Orthogonal3(rows)
    if out.determinant() < 0:
        rows = tuple((-r0, r1, r2) for (r0, r1, r2) in rows)
    if det_sign == -1:
        rows = tuple((-r0, r1, r2) for (r0, r1, r2) in rows)
    return Orthogonal3(rows)


# ---------------------------------------------------------------------------
# Tensor file format: {"format": "sym3-v1", "field": ..., "components": [...]}
# Rational scalars are strings "p/q" with q > 0 and gcd(|p|, q) = 1.
# ---------------------------------------------------------------------------

FORMAT_TAG = "sym3-v1"

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


class TensorFormatError(ValueError):
    """Raised for malformed tensor files."""


def parse_rational(s: str) -> Fraction:
    m = _RATIONAL_RE.match(s)
    if not m:
        raise TensorFormatError(f"not a rational literal: {s!r}")
    p = int(m.group(1))
    q = int(m.group(2)) if m.group(2) else 1
    if q <= 0:
        raise TensorFormatError(f"denominator must be positive: {s!r}")
    if math.gcd(abs(p), q) != 1:
        raise TensorFormatError(f"rational literal not in lowest terms: {s!r}")
    return Fraction(p, q)


def format_rational(x) -> str:
    """The 'p/q' string of an exact scalar, q > 0 in lowest terms."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def tensor_to_json(a: Sym3Tensor) -> dict:
    if a.field == RATIONAL:
        comps = [format_rational(c) for c in a.components]
    else:
        comps = [float(c) for c in a.components]
    return {"format": FORMAT_TAG, "field": a.field, "components": comps}


def tensor_from_json(obj) -> Sym3Tensor:
    if not isinstance(obj, dict):
        raise TensorFormatError("tensor file must contain a JSON object")
    if obj.get("format") != FORMAT_TAG:
        raise TensorFormatError(f"unknown format tag {obj.get('format')!r}")
    field = obj.get("field")
    comps = obj.get("components")
    if field not in (RATIONAL, FLOAT):
        raise TensorFormatError(f"unknown field {field!r}")
    if not isinstance(comps, list) or len(comps) != 10:
        raise TensorFormatError("components must be a list of 10 entries")
    if field == RATIONAL:
        if not all(isinstance(c, str) for c in comps):
            raise TensorFormatError("rational components must be 'p/q' strings")
        vals = tuple(parse_rational(c) for c in comps)
    else:
        if not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in comps):
            raise TensorFormatError("float components must be JSON numbers")
        try:
            vals = tuple(float(c) for c in comps)
        except OverflowError as exc:
            raise TensorFormatError("float components must be finite") from exc
        if not all(math.isfinite(v) for v in vals):
            raise TensorFormatError("float components must be finite (no NaN or Infinity)")
    return Sym3Tensor(vals)


def load_tensor(path) -> Sym3Tensor:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TensorFormatError(f"invalid JSON: {exc}") from exc
    return tensor_from_json(obj)


def save_tensor(a: Sym3Tensor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tensor_to_json(a), fh, indent=2)
        fh.write("\n")
