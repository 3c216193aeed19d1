"""The thirteen isotropic invariants of a symmetric third-order 3D tensor.

Written in terms of the harmonic parts (D, u) and the auxiliary vectors

    v_p = D_ijk D_ijl D_klp        w_k = D_ijk u_i u_j

the invariants are

    I2  = D_ijk D_ijk              J2  = u_i u_i
    I4  = D_ijk D_ijl D_pqk D_pql  J4  = D_ijk u_k D_ijl u_l
    K4  = D_ijk D_ijl D_klp u_p    L4  = D_ijk u_k u_j u_i
    I6  = v_i v_i                  J6  = D_ijk D_ijl u_k D_lpq u_p u_q
    K6  = v_k w_k                  L6  = D_ijk D_ijl u_k v_l
    M6  = D_ijk D_pqk u_i u_j u_p u_q
    I8  = D_ijk D_ijl u_k D_pql D_pqr v_r
    I10 = D_ijk v_i v_j v_k

{I2, J2, I4, J4, K4, L4, I6, J6, K6, L6, M6, I8, I10} is an integrity basis
of the tensor; {I2, I4, I6, I10} alone is a minimal integrity basis of the
traceless part D.  Every invariant is homogeneous separately in D and in u
(the "bidegree" below), which fixes both its total degree and its parity
under u -> -u.

Two evaluation paths are provided.  ``all_invariants`` contracts through the
intermediate quantities B_kl = D_ijk D_ijl, v and w; ``reference_invariants``
is the naive transcription of the defining formulas as explicit multi-index
loops over the 27-entry expansions.  The two agree exactly in the rational
field (tested), and the naive path is the reference whenever they could be
in doubt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .tensor_core import HarmonicParts, Sym3Tensor, Traceless3Tensor, decompose, expand

NAMES = ("I2", "J2", "I4", "J4", "K4", "L4", "I6", "J6", "K6", "L6", "M6", "I8", "I10")

# (degree in D, degree in u); total degree and u-parity derive from this.
BIDEGREE = {
    "I2": (2, 0), "J2": (0, 2),
    "I4": (4, 0), "J4": (2, 2), "K4": (3, 1), "L4": (1, 3),
    "I6": (6, 0), "J6": (3, 3), "K6": (4, 2), "L6": (5, 1), "M6": (2, 4),
    "I8": (7, 1),
    "I10": (10, 0),
}
DEGREE = {name: a + b for name, (a, b) in BIDEGREE.items()}

EVEN_UNDER_FLIP = frozenset(n for n, (_, b) in BIDEGREE.items() if b % 2 == 0)
ODD_UNDER_FLIP = frozenset(n for n, (_, b) in BIDEGREE.items() if b % 2 == 1)

DEVIATOR_INVARIANT_NAMES = ("I2", "I4", "I6", "I10")

_INDEX = {name: i for i, name in enumerate(NAMES)}


@dataclass(frozen=True)
class InvariantVector:
    """The thirteen invariant values, aligned with NAMES."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != len(NAMES):
            raise ValueError(f"need {len(NAMES)} values")

    def __getitem__(self, name: str):
        try:
            return self.values[_INDEX[name]]
        except KeyError:
            raise ValueError(f"{name!r} is not in NAMES") from None

    def as_dict(self) -> dict:
        return dict(zip(NAMES, self.values))

    @staticmethod
    def degree(name: str) -> int:
        return DEGREE[name]

    @staticmethod
    def parity(name: str) -> str:
        return "even" if name in EVEN_UNDER_FLIP else "odd"


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def all_invariants(h: HarmonicParts) -> InvariantVector:
    """Evaluate all thirteen invariants of the harmonic parts (D, u).

    Contractions are grouped through B_kl = D_ijk D_ijl, v and w; each group
    is an exact regrouping of the defining multi-index sum, so rational
    inputs give the same exact values as ``reference_invariants``.

    Rational input with ``Fraction`` entries is contracted in integers: D is
    scaled by the lcm m_D of its denominators and u by m_u, and an invariant
    of bidegree (a, b) is divided by m_D**a * m_u**b at the end.  An
    invariant is a ``Fraction`` exactly when a part it depends on has a
    ``Fraction`` entry, as with plain ``Fraction`` arithmetic.
    """
    d, u = h.deviator.components, h.vector
    # int, float and symbolic input, and floats mixed with Fractions, are
    # contracted as given; the type-set test keeps the int path cheap
    if (Fraction not in set(map(type, d + u))
            or not all(isinstance(x, (int, Fraction)) for x in d + u)):
        return InvariantVector(_contract(expand(h.deviator), u))
    d_frac = any(isinstance(x, Fraction) for x in d)
    u_frac = any(isinstance(x, Fraction) for x in u)
    m_d = lcm(*(x.denominator for x in d if isinstance(x, Fraction)))
    m_u = lcm(*(x.denominator for x in u if isinstance(x, Fraction)))
    scaled = Traceless3Tensor(tuple(int(x * m_d) for x in d))
    values = _contract(expand(scaled), tuple(int(x * m_u) for x in u))
    out = []
    for name, value in zip(NAMES, values):
        a, b = BIDEGREE[name]
        out.append(Fraction(value, m_d ** a * m_u ** b)
                   if (a and d_frac) or (b and u_frac) else value)
    return InvariantVector(tuple(out))


def _bvw(t, u):
    """B_kl = D_ijk D_ijl, v_p = B_kl D_klp and w_k = D_ijk u_i u_j from the expanded D."""
    rng = range(3)
    b = [[sum(t[i][j][k] * t[i][j][l] for i in rng for j in rng) for l in rng]
         for k in rng]
    v = tuple(sum(b[k][l] * t[k][l][p] for k in rng for l in rng) for p in rng)
    w = tuple(sum(t[i][j][k] * u[i] * u[j] for i in rng for j in rng) for k in rng)
    return b, v, w


def _contract(t, u) -> tuple:
    """The thirteen values, in NAMES order, from the expanded D and u."""
    rng = range(3)
    b, v, w = _bvw(t, u)
    bu = tuple(sum(b[k][l] * u[k] for k in rng) for l in rng)
    bv = tuple(sum(b[k][l] * v[k] for k in rng) for l in rng)

    i2 = b[0][0] + b[1][1] + b[2][2]
    j2 = _dot(u, u)
    i4 = sum(b[k][l] * b[k][l] for k in rng for l in rng)
    j4 = _dot(bu, u)
    k4 = _dot(v, u)
    l4 = _dot(w, u)
    i6 = _dot(v, v)
    j6 = _dot(bu, w)
    k6 = _dot(v, w)
    l6 = _dot(bu, v)
    m6 = _dot(w, w)
    i8 = _dot(bu, bv)
    i10 = sum(t[i][j][k] * v[i] * v[j] * v[k] for i in rng for j in rng for k in rng)
    return (i2, j2, i4, j4, k4, l4, i6, j6, k6, l6, m6, i8, i10)


def reference_invariants(h: HarmonicParts) -> InvariantVector:
    """Naive evaluation: each defining formula as one explicit multi-index loop."""
    t = expand(h.deviator)
    u = h.vector
    rng = range(3)
    v = tuple(
        sum(t[i][j][k] * t[i][j][l] * t[k][l][p]
            for i in rng for j in rng for k in rng for l in rng)
        for p in rng
    )
    w = tuple(
        sum(t[i][j][k] * u[i] * u[j] for i in rng for j in rng) for k in rng
    )
    i2 = sum(t[i][j][k] * t[i][j][k] for i in rng for j in rng for k in rng)
    j2 = sum(u[i] * u[i] for i in rng)
    i4 = sum(
        t[i][j][k] * t[i][j][l] * t[p][q][k] * t[p][q][l]
        for i in rng for j in rng for k in rng for l in rng for p in rng for q in rng
    )
    j4 = sum(
        t[i][j][k] * u[k] * t[i][j][l] * u[l]
        for i in rng for j in rng for k in rng for l in rng
    )
    k4 = sum(
        t[i][j][k] * t[i][j][l] * t[k][l][p] * u[p]
        for i in rng for j in rng for k in rng for l in rng for p in rng
    )
    l4 = sum(
        t[i][j][k] * u[k] * u[j] * u[i] for i in rng for j in rng for k in rng
    )
    i6 = sum(v[i] * v[i] for i in rng)
    j6 = sum(
        t[i][j][k] * t[i][j][l] * u[k] * t[l][p][q] * u[p] * u[q]
        for i in rng for j in rng for k in rng for l in rng for p in rng for q in rng
    )
    k6 = sum(v[k] * w[k] for k in rng)
    l6 = sum(
        t[i][j][k] * t[i][j][l] * u[k] * v[l]
        for i in rng for j in rng for k in rng for l in rng
    )
    m6 = sum(
        t[i][j][k] * t[p][q][k] * u[i] * u[j] * u[p] * u[q]
        for i in rng for j in rng for k in rng for p in rng for q in rng
    )
    i8 = sum(
        t[i][j][k] * t[i][j][l] * u[k] * t[p][q][l] * t[p][q][r] * v[r]
        for i in rng for j in rng for k in rng for l in rng
        for p in rng for q in rng for r in rng
    )
    i10 = sum(
        t[i][j][k] * v[i] * v[j] * v[k] for i in rng for j in rng for k in rng
    )
    return InvariantVector((i2, j2, i4, j4, k4, l4, i6, j6, k6, l6, m6, i8, i10))


def deviator_invariants(d: Traceless3Tensor) -> dict:
    """The four invariants {I2, I4, I6, I10} of the traceless part alone."""
    iv = all_invariants(HarmonicParts(d, (0, 0, 0)))
    return {name: iv[name] for name in DEVIATOR_INVARIANT_NAMES}


def invariants_of(a: Sym3Tensor) -> InvariantVector:
    """Invariants of a symmetric tensor via its harmonic decomposition."""
    return all_invariants(decompose(a))
