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
from functools import reduce
from operator import add, itemgetter, mul

RATIONAL = "rational"
FLOAT = "float"

# Index triples (1-based) of the independent components, in storage order.
SYM_COMPONENT_INDICES = (
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
    (1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3),
)

TRACELESS_COMPONENT_INDICES = (
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3), (2, 2, 2), (2, 2, 3),
)

ORTHOGONALITY_TOL = 1e-12

_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))  # the (i, j), i <= j, row by row


def field_of(values) -> str:
    """Scalar field of a collection of components: FLOAT if any float appears."""
    return FLOAT if any(isinstance(v, float) for v in values) else RATIONAL


def _is_exact(values) -> bool:
    """Whether every value is an int or a Fraction, not a float, symbol or array."""
    return all(isinstance(x, (int, Fraction)) for x in values)


def _dot3(p, x):
    """p_0 x_0 + p_1 x_1 + p_2 x_2 added left to right from int 0, as sum() did
    before Python 3.12 compensated float sums: the same rounding on every version."""
    return 0 + p[0] * x[0] + p[1] * x[1] + p[2] * x[2]


def _mirror(s):
    """The symmetric 3x3 matrix whose entries at _PAIRS are s."""
    return ((s[0], s[1], s[2]), (s[1], s[3], s[4]), (s[2], s[4], s[5]))


def _clear_denominators(values):
    """(m, ints): m the lcm of the denominators of exact values, ints the values times m."""
    m = math.lcm(*(x.denominator for x in values))
    return m, [x.numerator * (m // x.denominator) for x in values]


@dataclass(frozen=True)
class _Tensor:
    """Components of a symmetric 3D tensor, one per index triple of _INDICES."""

    components: tuple

    _INDICES = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        n = len(self._INDICES)
        if len(self.components) != n:
            raise ValueError(f"{type(self).__name__} needs exactly {n} components")

    @property
    def field(self) -> str:
        return field_of(self.components)

    @classmethod
    def zero(cls):
        return cls((0,) * len(cls._INDICES))

    @classmethod
    def _from_expanded(cls, t):
        """The tensor whose stored components are read off the expansion t."""
        return cls(tuple(t[i - 1][j - 1][k - 1] for (i, j, k) in cls._INDICES))


class Sym3Tensor(_Tensor):
    """Fully symmetric third-order 3D tensor, 10 independent components."""

    _INDICES = SYM_COMPONENT_INDICES


class Traceless3Tensor(_Tensor):
    """Symmetric traceless third-order 3D tensor, 7 independent components.

    Tracelessness holds by construction: the dependent entries D133, D233,
    D333 are derived from the stored seven, so D_ill = 0 identically in the
    exact field (and to rounding in the float field).
    """

    _INDICES = TRACELESS_COMPONENT_INDICES

    def dependent_components(self) -> tuple:
        d111, d112, d113, d122, _, d222, d223 = self.components
        return (-d111 - d122, -d112 - d222, -d113 - d223)  # D133, D233, D333


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
        """Largest entry of |Q^T Q - I|, over its upper triangle (Q^T Q is symmetric)."""
        c0, c1, c2 = zip(*self.matrix)
        return max(0, abs(_dot3(c0, c0) - 1), abs(_dot3(c0, c1)), abs(_dot3(c0, c2)),
                   abs(_dot3(c1, c1) - 1), abs(_dot3(c1, c2)), abs(_dot3(c2, c2) - 1))

    def determinant(self):
        q = self.matrix
        return (
            q[0][0] * (q[1][1] * q[2][2] - q[1][2] * q[2][1])
            - q[0][1] * (q[1][0] * q[2][2] - q[1][2] * q[2][0])
            + q[0][2] * (q[1][0] * q[2][1] - q[1][1] * q[2][0])
        )

    def validate(self):
        """Raise ValueError unless Q^T Q = I, within ORTHOGONALITY_TOL for floats.

        A NaN or infinite entry is rejected first: ``max`` never takes a NaN
        after a number, so the defect alone can read 0 for such a matrix.
        """
        floats = [e for row in self.matrix for e in row if isinstance(e, float)]
        if not all(map(math.isfinite, floats)):
            raise ValueError("matrix entries must be finite (no NaN or Infinity)")
        defect = self.orthogonality_defect()
        if not floats:  # the RATIONAL field
            if defect != 0:
                raise ValueError("matrix is not exactly orthogonal")
        elif defect > ORTHOGONALITY_TOL:
            raise ValueError(f"matrix is not orthogonal (defect {float(defect):.3e})")


# Row (i, j) of the 3x3x3 expansion picks, for k = 1, 2, 3, the storage slot
# (in SYM_COMPONENT_INDICES order) of the sorted triple (i, j, k).
_EXPANDED_ROWS = tuple(
    tuple(
        itemgetter(*(SYM_COMPONENT_INDICES.index(tuple(sorted((i, j, k)))) for k in (1, 2, 3)))
        for j in (1, 2, 3)
    )
    for i in (1, 2, 3)
)


def expand(t):
    """Full 3x3x3 expansion of a Sym3Tensor or Traceless3Tensor.

    Entry (i, j, k) is the stored component of the sorted index triple;
    dependent traceless entries come from the linear trace relations.
    Returns nested tuples indexed t[i][j][k] with 0-based indices.
    """
    if isinstance(t, Sym3Tensor):
        c = t.components
    elif isinstance(t, Traceless3Tensor):
        d133, d233, d333 = t.dependent_components()
        c = t.components[:5] + (d133,) + t.components[5:] + (d233, d333)
    else:
        raise TypeError(f"cannot expand {type(t).__name__}")
    return tuple([tuple([row(c) for row in plane]) for plane in _EXPANDED_ROWS])


def _shift_trace_part(cls, t, u, field, sign):
    """The cls tensor with components t_ijk + sign * (1/5)(u_k d_ij + u_j d_ik + u_i d_jk).

    Only cls's stored components are computed, from the expansion t.
    decompose removes the trace part (sign -1), recompose restores it
    (sign +1); t + (-x) equals t - x exactly in every scalar field.
    """
    idx = [(a - 1, b - 1, c - 1) for a, b, c in cls._INDICES]
    if field != FLOAT and _is_exact(values := [t[i][j][k] for i, j, k in idx] + list(u)):
        m, n = _clear_denominators(values)
        return _shift_scaled(cls, n, n[-3:], m, sign)
    fifth = sign * (0.2 if field == FLOAT else Fraction(1, 5))
    return cls(tuple(
        t[i][j][k] + fifth * (u[k] * (i == j) + u[j] * (i == k) + u[i] * (j == k))
        for i, j, k in idx))


def _shift_scaled(cls, n, v, m, sign):
    """_shift_trace_part on exact input scaled to integers: n = m t (cls's stored
    components) and v = m u give each component as one Fraction(5 n_ijk + sign *
    (v-terms), 5 m), one gcd where Fraction arithmetic takes several."""
    return cls(tuple(
        Fraction(5 * x + sign * (v[k] * (i == j) + v[j] * (i == k) + v[i] * (j == k)), 5 * m)
        for x, (i, j, k) in zip(n, ((a - 1, b - 1, c - 1) for a, b, c in cls._INDICES))))


_TRACE_SLOTS = ((0, 3, 5), (1, 6, 8), (2, 7, 9))  # storage slots of A_i11, A_i22, A_i33


def decompose(a: Sym3Tensor) -> HarmonicParts:
    """Harmonic decomposition A -> (D, u) with u_i = A_ill.

    Exact input is scaled once to integers n = m A.  D is then all Fractions;
    u_i is a Fraction when one of its summands is, else an int, as in Fraction sums.
    """
    c = a.components
    if _is_exact(c):
        m, n = _clear_denominators(c)
        v = [n[i] + n[j] + n[k] for i, j, k in _TRACE_SLOTS]
        u = tuple(Fraction(x, m) if any(isinstance(c[s], Fraction) for s in slots) else x // m
                  for x, slots in zip(v, _TRACE_SLOTS))
        # D's stored triples are A's but (1, 3, 3), (2, 3, 3) and (3, 3, 3)
        return HarmonicParts(_shift_scaled(Traceless3Tensor, n[:5] + n[6:8], v, m, -1), u)
    t = expand(a)
    u = tuple(0 + p[0][0] + p[1][1] + p[2][2] for p in t)
    return HarmonicParts(_shift_trace_part(Traceless3Tensor, t, u, a.field, -1), u)


def recompose(h: HarmonicParts) -> Sym3Tensor:
    """Inverse of decompose: A_ijk = D_ijk + (1/5)(u_k d_ij + u_j d_ik + u_i d_jk)."""
    return _shift_trace_part(Sym3Tensor, expand(h.deviator), h.vector, h.field, 1)


def rotate(t, q: Orthogonal3):
    """Orthogonal transformation: result_ijk = q_ia q_jb q_kc t_abc.

    Accepts a Sym3Tensor or a Traceless3Tensor and returns the same type
    (the transform preserves both symmetry and tracelessness).  The
    contraction runs one index at a time, over only what the stored
    components read: p_kab = q_kc t_abc (symmetric in a, b), r_jkb =
    q_jc p_kbc for j <= k, then q_ib r_jkb.  Each entry adds its three
    products left to right from int 0: exact results equal the naive triple
    sum, and floats round the same way on every Python version.
    """
    q.validate()
    m = q.matrix
    a = expand(t)
    p = [_mirror([_dot3(mk, a[i][j]) for i, j in _PAIRS]) for mk in m]
    r = {(j, k): [_dot3(m[j], row) for row in p[k]] for j, k in _PAIRS}
    return type(t)(tuple(_dot3(m[i - 1], r[j - 1, k - 1]) for i, j, k in type(t)._INDICES))


def rotate_vector(u, q: Orthogonal3) -> tuple:
    return tuple(_dot3(row, u) for row in q.matrix)


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


def orthonormalize(vectors):
    """Modified Gram-Schmidt in order; None when a remainder's norm is below 1e-8."""
    basis = []
    for vector in vectors:
        v = list(vector)
        for p in basis:
            dot = reduce(add, map(mul, v, p), 0)
            v = [x - dot * y for x, y in zip(v, p)]
        n = math.sqrt(reduce(add, map(mul, v, v), 0))
        if n < 1e-8:
            return None
        basis.append([x / n for x in v])
    return basis


def random_orthogonal(seed: int, det_sign: int = 1) -> Orthogonal3:
    """Seeded random orthogonal matrix with the requested determinant sign.

    Gram-Schmidt on a 3x3 matrix of standard normals (run twice, which pins
    the orthogonality defect near machine epsilon), then the first column
    negated when the determinant's sign is not det_sign.  Every other column
    has a positive dot with its draw: the first pass makes it the remainder's
    norm (>= 1e-8), and the second moves a column only by rounding.
    """
    if det_sign not in (1, -1):
        raise ValueError("det_sign must be +1 or -1")
    rng = random.Random(seed)
    q = None
    while q is None:  # a nearly dependent draw is drawn again
        q = orthonormalize([[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(3)])
        q = q and orthonormalize(q)
    rows = tuple(tuple(q[c][r] for c in range(3)) for r in range(3))
    if (Orthogonal3(rows).determinant() < 0) != (det_sign == -1):
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
    """Read a sym3-v1 file; OSError if it cannot be opened or read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TensorFormatError(f"invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise TensorFormatError(f"not UTF-8 text: {exc}") from exc
    return tensor_from_json(obj)


def save_tensor(a: Sym3Tensor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tensor_to_json(a), fh, indent=2)
        fh.write("\n")
