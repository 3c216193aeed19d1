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
in doubt.  ``all_invariants`` contracts in straight-line 3- and 9-term dots
that add left to right from int 0, as builtin sum() did before Python 3.12
(it compensates float sums since), so float values are the same bits on
every Python version; one kernel serves ints, Fractions, floats and numpy
object columns.  ``reference_invariants`` adds its loops in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add

from .tensor_core import (_PAIRS, HarmonicParts, Sym3Tensor, Traceless3Tensor,
                          _clear_denominators, _dot3, _is_exact, _mirror, decompose, expand)

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


@dataclass(frozen=True)
class InvariantVector:
    """Invariant values aligned with ``_names``: the thirteen of NAMES here."""

    values: tuple

    _names = NAMES
    _index = {name: i for i, name in enumerate(_names)}

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != len(self._names):
            raise ValueError(f"need {len(self._names)} values")

    def __getitem__(self, name: str):
        try:
            return self.values[self._index[name]]
        except KeyError:
            raise ValueError(f"{name!r} is not one of {self._names}") from None

    def as_dict(self) -> dict:
        return dict(zip(self._names, self.values))

    @staticmethod
    def degree(name: str) -> int:
        return DEGREE[name]

    @staticmethod
    def parity(name: str) -> str:
        return "even" if name in EVEN_UNDER_FLIP else "odd"


def _dot(a, b):
    """a_0 b_0 + a_1 b_1 + a_2 b_2; unlike _dot3 it keeps a -0.0 result."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def all_invariants(h: HarmonicParts) -> InvariantVector:
    """Evaluate all thirteen invariants of the harmonic parts (D, u).

    Contractions are grouped through B_kl = D_ijk D_ijl, v and w; each group
    is an exact regrouping of the defining multi-index sum, so rational
    inputs give the same exact values as ``reference_invariants``.

    Exact input (int and ``Fraction``) is contracted in integers: D is
    scaled by the lcm m_D of its denominators and u by m_u, and an invariant
    of bidegree (a, b) is divided by m_D**a * m_u**b at the end.  An
    invariant is a ``Fraction`` exactly when a part it depends on has a
    ``Fraction`` entry, as with plain ``Fraction`` arithmetic.
    """
    d, u = h.deviator.components, h.vector
    if not _is_exact(d + u):  # floats, symbols and numpy columns are contracted as given
        return InvariantVector(_contract(expand(h.deviator), u))
    d_frac = any(isinstance(x, Fraction) for x in d)
    u_frac = any(isinstance(x, Fraction) for x in u)
    m_d, d_ints = _clear_denominators(d)
    m_u, u_ints = _clear_denominators(u)
    values = _contract(expand(Traceless3Tensor(tuple(d_ints))), tuple(u_ints))
    out = []
    for name, value in zip(NAMES, values):
        a, b = BIDEGREE[name]
        out.append(Fraction(value, m_d ** a * m_u ** b)
                   if (a and d_frac) or (b and u_frac) else value)
    return InvariantVector(tuple(out))


def _dot9(a, b):
    """a_0 b_0 + ... + a_8 b_8 added left to right from int 0, as _dot3 does."""
    return (0 + a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3] + a[4] * b[4]
            + a[5] * b[5] + a[6] * b[6] + a[7] * b[7] + a[8] * b[8])


def _bvw(t, u):
    """B_kl = D_ijk D_ijl, v_p = B_kl D_klp and w_k = D_ijk u_i u_j from the expanded D,
    as dots over the columns c_k = (D_ijk) in (i, j) order; B_lk mirrors B_kl."""
    c = list(zip(*(x for plane in t for x in plane)))
    b = _mirror([_dot9(c[i], c[j]) for i, j in _PAIRS])
    v = tuple(_dot9(b[0] + b[1] + b[2], col) for col in c)
    u_i = (u[0],) * 3 + (u[1],) * 3 + (u[2],) * 3
    w = tuple(_dot9([x * y for x, y in zip(col, u_i)], u * 3) for col in c)
    return b, v, w


def _contract(t, u) -> tuple:
    """The thirteen values, in NAMES order, from the expanded D and u."""
    b, v, w = _bvw(t, u)
    bu = tuple(_dot3(row, u) for row in b)
    bv = tuple(_dot3(row, v) for row in b)

    i2 = b[0][0] + b[1][1] + b[2][2]
    j2 = _dot(u, u)
    i4 = _dot9(b[0] + b[1] + b[2], b[0] + b[1] + b[2])
    j4 = _dot(bu, u)
    k4 = _dot(v, u)
    l4 = _dot(w, u)
    i6 = _dot(v, v)
    j6 = _dot(bu, w)
    k6 = _dot(v, w)
    l6 = _dot(bu, v)
    m6 = _dot(w, w)
    i8 = _dot(bu, bv)
    i10 = 0  # ((D_ijk v_i) v_j) v_k, added left to right over (i, j, k)
    for plane, vi in zip(t, v):
        for x, vj in zip(plane, v):
            i10 = i10 + x[0] * vi * vj * v[0] + x[1] * vi * vj * v[1] + x[2] * vi * vj * v[2]
    return (i2, j2, i4, j4, k4, l4, i6, j6, k6, l6, m6, i8, i10)


def _ltr(terms):
    """The terms added left to right from int 0, as sum() did before Python 3.12."""
    return reduce(add, terms, 0)


def reference_invariants(h: HarmonicParts) -> InvariantVector:
    """Naive evaluation: each defining formula as one explicit multi-index loop.

    Each loop adds its terms left to right from int 0 (``_ltr``), so float
    values are the same bits on every Python version.
    """
    t = expand(h.deviator)
    u = h.vector
    rng = range(3)
    v = tuple(
        _ltr(t[i][j][k] * t[i][j][l] * t[k][l][p]
             for i in rng for j in rng for k in rng for l in rng)
        for p in rng
    )
    w = tuple(
        _ltr(t[i][j][k] * u[i] * u[j] for i in rng for j in rng) for k in rng
    )
    i2 = _ltr(t[i][j][k] * t[i][j][k] for i in rng for j in rng for k in rng)
    j2 = _ltr(u[i] * u[i] for i in rng)
    i4 = _ltr(
        t[i][j][k] * t[i][j][l] * t[p][q][k] * t[p][q][l]
        for i in rng for j in rng for k in rng for l in rng for p in rng for q in rng
    )
    j4 = _ltr(
        t[i][j][k] * u[k] * t[i][j][l] * u[l]
        for i in rng for j in rng for k in rng for l in rng
    )
    k4 = _ltr(
        t[i][j][k] * t[i][j][l] * t[k][l][p] * u[p]
        for i in rng for j in rng for k in rng for l in rng for p in rng
    )
    l4 = _ltr(
        t[i][j][k] * u[k] * u[j] * u[i] for i in rng for j in rng for k in rng
    )
    i6 = _ltr(v[i] * v[i] for i in rng)
    j6 = _ltr(
        t[i][j][k] * t[i][j][l] * u[k] * t[l][p][q] * u[p] * u[q]
        for i in rng for j in rng for k in rng for l in rng for p in rng for q in rng
    )
    k6 = _ltr(v[k] * w[k] for k in rng)
    l6 = _ltr(
        t[i][j][k] * t[i][j][l] * u[k] * v[l]
        for i in rng for j in rng for k in rng for l in rng
    )
    m6 = _ltr(
        t[i][j][k] * t[p][q][k] * u[i] * u[j] * u[p] * u[q]
        for i in rng for j in rng for k in rng for p in rng for q in rng
    )
    i8 = _ltr(
        t[i][j][k] * t[i][j][l] * u[k] * t[p][q][l] * t[p][q][r] * v[r]
        for i in rng for j in rng for k in rng for l in rng
        for p in rng for q in rng for r in rng
    )
    i10 = _ltr(
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
