"""Syzygies: vanishing linear combinations of same-degree invariant products.

``enumerate_products`` lists every power product of basis invariants with a
given weighted degree; ``verify_relation`` evaluates a relation exactly at a
rational point; ``discover_relations`` finds all relations at a degree by
building exact evaluation matrices at seeded random rational points, one per
bidegree sector, and computing their nullspaces.

Any polynomial identity among the invariants splits into bihomogeneous
components, because every invariant is homogeneous separately in D and in u:
scaling the two parts independently must preserve the identity.  Discovery
therefore groups the products by bidegree, evaluates each group into its own
sector matrix and computes one nullspace per sector; the union spans exactly
the relations at that degree, at a small fraction of the cost of eliminating
one matrix of all products.  The products, and each sector's layout, are
enumerated once per basis and degree.

Most sectors are proven by a count.  The products of bidegree (a, b) are
O(3)-invariants of that bidegree, which form a space of dimension
``invariant_dimension(a, b)``, and row i of the sample matrix is the linear
map "evaluate at point i" applied to each product.  The sample matrix thus
factors through that space: its rank is at most the dimension, and its
kernel contains every true relation.  Where the exact sample rank equals the
dimension, the products' span has full dimension, so the true relations
have exactly as many dimensions as the sample kernel: the kernel is the
relation space, with no probabilistic step.  A rank above the dimension is
impossible and raises.  Over the thirteen, which generate every invariant,
the products span each sector's invariants, so the count certifies every
sector whose samples reach that rank.  Over the eleven it does not where
relations exist: there the products miss the K6- and I8-bearing
invariants, and the rank stays below the dimension.

Candidates from uncertified sectors are checked by exact evaluation at
fresh random points rather than by full symbolic expansion.  A nonzero
polynomial of total degree d in the 10 tensor variables vanishes at a
uniform random point of the integer box [-1e6, 1e6]^10 with probability
<= d / (2e6 + 1) (Schwartz-Zippel): at most 1e-5 up to degree 20, so twenty
independent exact zero evaluations leave a chance of at most 1e-100; the
evaluations carry no rounding, so a zero residual is a zero residual.  The
fresh points are drawn and evaluated only when some candidate needs them.
A full symbolic expansion cross-check is provided at degree <= 4 only
(``symbolic_relation_vectors``), as a guard on the evaluation pipeline
itself.

Each sector has many more sample rows than product columns.  Modulo each
word-size prime, ``nullspace`` eliminates only as many leading rows as the
sector has columns, and checks every other row against their kernel in one
matmul; a row that fails is eliminated in a second pass.  It takes the
reduced echelon form of all rows this way, rebuilds the rational kernel by
Chinese remaindering and rational reconstruction, and certifies every
kernel vector against every sample row modulo enough primes that a zero
residue is an exact zero, adding a prime until the certificate holds.  The
kernel it returns is therefore the kernel of the whole sector matrix, the
same vectors exact elimination gives (see ``exact_algebra``), and its
length gives the exact sample rank.  No big-integer matrix is built for
this: a sector is a ``_SectorMatrix``, whose residues modulo a prime are
products of the invariant columns' residues, and whose row bound comes from
the largest value of each invariant.

Sampling boxes: discovery points use integer entries in [-9, 9] to keep the
matrix entries, and with them the primes the certificate needs, few;
re-verification points use [-1e6, 1e6] to drive the Schwartz-Zippel bound.

Both point sets are evaluated as columns: ``_random_columns`` draws n
points straight into one ``HarmonicParts`` whose ten coordinates are numpy
object arrays of Python ints, so a single ``all_invariants`` call gives
every invariant at every point, and ``verify_relation`` on that point gives
one exact residual per point.  The draws, and with them the sample matrices
and kernels, are those of n successive ``random_harmonic_parts`` calls.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import relations
from .exact_algebra import RationalMatrix, nullspace, rank
from .function_basis import ELEVEN_NAMES
from .invariants import BIDEGREE, DEGREE, NAMES, all_invariants
from .tensor_core import RATIONAL, HarmonicParts, Traceless3Tensor, field_of

THIRTEEN = "thirteen"
ELEVEN = "eleven"

BASIS_NAMES = {
    THIRTEEN: NAMES,
    ELEVEN: ELEVEN_NAMES,
}

DISCOVERY_BOUND = 9
REVERIFY_BOUND = 10 ** 6
REVERIFY_POINTS = 20


@dataclass(frozen=True)
class ProductTerm:
    """A power product of invariants: tuple of (name, exponent), exponents > 0."""

    exponents: tuple

    def __post_init__(self):
        exps = relations._canon(self.exponents)
        object.__setattr__(self, "exponents", exps)
        if not exps or any(e <= 0 for _, e in exps):
            raise ValueError("product term needs positive exponents")

    @property
    def weighted_degree(self) -> int:
        return sum(DEGREE[name] * e for name, e in self.exponents)

    @property
    def bidegree(self) -> tuple:
        a = sum(BIDEGREE[name][0] * e for name, e in self.exponents)
        b = sum(BIDEGREE[name][1] * e for name, e in self.exponents)
        return (a, b)

    def evaluate(self, values):
        """Product of values[name] ** exponent; values may hold scalars or numpy columns."""
        out = 1
        for name, e in self.exponents:
            out = out * values[name] ** e
        return out

    def exponent_vector(self, names=NAMES) -> tuple:
        d = dict(self.exponents)
        return tuple(d.get(n, 0) for n in names)

    def __str__(self):
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in self.exponents)


@dataclass(frozen=True)
class SyzygyRelation:
    """Exact-coefficient combination of same-degree products that vanishes identically."""

    terms: tuple  # of (coefficient, ProductTerm)
    degree: int
    basis: str

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) < 2:
            raise ValueError("a relation needs at least two terms")
        if any(c == 0 for c, _ in self.terms):
            raise ValueError("zero coefficient")
        if any(t.weighted_degree != self.degree for _, t in self.terms):
            raise ValueError("terms must share the declared degree")
        allowed = set(BASIS_NAMES[self.basis])
        for _, t in self.terms:
            if any(n not in allowed for n, _ in t.exponents):
                raise ValueError(f"term {t} uses invariants outside basis {self.basis}")

    def coefficient_table(self) -> dict:
        return {t.exponents: c for c, t in self.terms}

    def __str__(self):
        return " + ".join(f"({c})*{t}" for c, t in self.terms)


def relation_from_table(table: dict, basis: str) -> SyzygyRelation:
    terms = tuple(
        (coeff, ProductTerm(exps)) for exps, coeff in sorted(
            table.items(),
            key=lambda kv: ProductTerm(kv[0]).exponent_vector(),
            reverse=True,
        )
    )
    degree = terms[0][1].weighted_degree
    return SyzygyRelation(terms, degree, basis)


def builtin_relations() -> dict:
    """The five built-in relations keyed ten_a, ten_b, sixteen_a, sixteen_b, sixteen_c."""
    out = {}
    for key, table in relations.DEGREE_TEN.items():
        out[key] = relation_from_table(table, THIRTEEN)
    for key, table in relations.DEGREE_SIXTEEN.items():
        out[key] = relation_from_table(table, ELEVEN)
    return out


def enumerate_products(basis: str, degree: int):
    """All products of basis invariants with the given weighted degree.

    Deterministic order: descending lexicographic in the exponent vector over
    the canonical invariant order, so e.g. degree 4 over the thirteen gives
    I2^2, I2*J2, J2^2, I4, J4, K4, L4.  The list is built once per basis and
    degree; each call returns a fresh copy.
    """
    return list(_products(basis, degree))


@lru_cache(maxsize=None)
def _products(basis: str, degree: int) -> tuple:
    if degree < 2 or degree % 2 != 0:
        raise ValueError("degree must be an even integer >= 2")
    names = BASIS_NAMES[basis]

    def gen(i, remaining):
        if remaining == 0:
            yield ()
            return
        if i == len(names):
            return
        d = DEGREE[names[i]]
        for e in range(remaining // d, -1, -1):
            for rest in gen(i + 1, remaining - e * d):
                yield (((names[i], e),) if e else ()) + rest

    return tuple(ProductTerm(t) for t in gen(0, degree) if t)


@lru_cache(maxsize=None)
def _sectors(basis: str, degree: int) -> tuple:
    """The bidegree sectors discovery eliminates, in sorted order.

    One (bidegree, products, factors) per sector with at least two products
    (a single product cannot vanish identically).  ``factors`` lists, per
    invariant, the sector columns whose product has it as a factor and its
    exponents there, as ``_SectorMatrix.residues`` reads them.
    """
    groups = {}
    for t in _products(basis, degree):
        groups.setdefault(t.bidegree, []).append(t)
    out = []
    for key in sorted(groups):
        sector = tuple(groups[key])
        if len(sector) < 2:
            continue
        factors = []
        for name in dict.fromkeys(n for t in sector for n, _ in t.exponents):
            e = np.array([dict(t.exponents).get(name, 0) for t in sector])
            j = np.flatnonzero(e)
            factors.append((name, j, e[j]))
        out.append((key, sector, tuple(factors)))
    return tuple(out)


@lru_cache(maxsize=None)
def invariant_dimension(a: int, b: int) -> int:
    """Dimension of the O(3)-invariant polynomials of bidegree (a, b) in (D, u).

    D ranges over H3, the 7-dimensional harmonic tensors, and u over H1, the
    vectors, so these polynomials are Sym^a(H3) (x) Sym^b(H1).  Inversion -I
    acts on both by -1, hence on the product by (-1)^(a + b): an odd a + b
    has no invariants.  Otherwise the SO(3)-invariants number the weight-0
    minus the weight-1 multiplicity of the product, since each irreducible
    H_l has every weight -l..l once (Molien-Weyl; Sturmfels, Algorithms in
    Invariant Theory, 2.2).  A sector's sample matrix factors through this
    space, so its rank is at most the dimension (see the module notes).
    """
    if a < 0 or b < 0:
        raise ValueError("bidegree must be non-negative")
    if (a + b) % 2:
        return 0
    x, y = _weight_multiplicities(3, a), _weight_multiplicities(1, b)

    def multiplicity(w):
        # weight i - 3a of Sym^a(H3) plus weight j - b of Sym^b(H1) equals w
        return sum(x[i] * y[w + 3 * a + b - i] for i in range(len(x))
                   if 0 <= w + 3 * a + b - i < len(y))

    return multiplicity(0) - multiplicity(1)


@lru_cache(maxsize=None)
def _weight_multiplicities(l: int, n: int) -> tuple:
    """Entry w: the multiplicity of weight w - l*n in Sym^n(H_l), w = 0..2ln.

    A weight of Sym^n(H_l) is a sum of n weights of H_l, each once in
    -l..l, so entry w counts the multisets of n values 0..2l summing to w.
    """
    top = 2 * l * n
    counts = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(n)]
    for v in range(2 * l + 1):
        for k in range(1, n + 1):
            row, fewer = counts[k], counts[k - 1]
            for w in range(v, top + 1):
                row[w] += fewer[w - v]
    return tuple(counts[n])


def evaluate_products(terms, h: HarmonicParts):
    """Exact values of each product at the harmonic parts (D, u)."""
    iv = all_invariants(h)
    return [t.evaluate(iv) for t in terms]


def verify_relation(rel: SyzygyRelation, h: HarmonicParts):
    """Exact residual of a relation at a rational point (0 for a true identity).

    With column input (see ``_random_columns``) the residual is a column
    too, one entry per point.
    """
    coords = h.deviator.components + h.vector
    if field_of(x for c in coords for x in np.ravel(c).tolist()) != RATIONAL:
        raise ValueError("verify_relation needs exact rational input")
    return _residual(rel, all_invariants(h))


def _residual(rel: SyzygyRelation, iv):
    """Exact residual of a relation at invariant values (scalars or columns)."""
    residual = 0
    for coeff, term in rel.terms:
        residual = residual + coeff * term.evaluate(iv)
    return residual


def random_harmonic_parts(rng: random.Random, bound: int) -> HarmonicParts:
    """Integer-entried (D, u) with all ten coordinates uniform in [-bound, bound]."""
    dev = Traceless3Tensor(tuple(rng.randint(-bound, bound) for _ in range(7)))
    u = tuple(rng.randint(-bound, bound) for _ in range(3))
    return HarmonicParts(dev, u)


def _random_columns(rng: random.Random, bound: int, n: int) -> HarmonicParts:
    """n successive ``random_harmonic_parts`` draws as one point of columns.

    Each of the ten coordinates is a length-n numpy object array of Python
    ints, entry i from draw i.  ``all_invariants`` contracts such columns
    exactly as it contracts scalars, so one call evaluates all n points.
    The ten coordinates of each draw are drawn straight into the array:
    ``randrange(-bound, bound + 1)`` is what ``randint(-bound, bound)`` calls.
    """
    draw = rng.randrange
    flat = [draw(-bound, bound + 1) for _ in range(10 * n)]
    coords = np.array(flat, dtype=object).reshape(n, 10).T
    return HarmonicParts(Traceless3Tensor(tuple(coords[:7])), tuple(coords[7:]))


class _SectorMatrix:
    """One bidegree sector's sample matrix, as ``nullspace`` reads it.

    Row i holds the sector's products at sample i.  ``residues(p)``
    multiplies each product's factors modulo p in int64, from tables of the
    invariant columns' powers modulo p that are built once per prime and
    shared by all sectors of a discovery (``modular``); ``factors`` is the
    sector's layout from ``_sectors``.  Every entry is an
    integer whose magnitude is below 2 to the sum, over its factors, of
    exponent times the bit length of the factor's largest value;
    ``row_bits`` adds the bit length of the column count to the largest
    such sum.  ``entries``, the exact matrix, is computed only when read.
    """

    def __init__(self, sector, factors, columns, bits, modular):
        self.sector, self.factors = sector, factors
        self.columns, self.modular = columns, modular
        self.rows, self.cols = len(next(iter(columns.values()))), len(sector)
        self.row_bits = (max(sum(e * bits[name] for name, e in t.exponents) for t in sector)
                         + self.cols.bit_length())

    def residues(self, p: int):
        if p not in self.modular:
            degree = self.sector[0].weighted_degree
            self.modular[p] = {name: _powers_mod(col, degree // DEGREE[name], p)
                               for name, col in self.columns.items()}
        powers = self.modular[p]
        out = np.ones((self.rows, self.cols), dtype=np.int64)
        for name, j, e in self.factors:
            out[:, j] = out[:, j] * powers[name][:, e] % p
        return out

    @cached_property
    def entries(self):
        return tuple(zip(*(t.evaluate(self.columns) for t in self.sector)))


def _powers_mod(column, top, p):
    """Column k of the result is ``column`` ** k modulo p, for k = 0, ..., top (int64)."""
    x = (column % p).astype(np.int64)
    powers = [np.ones_like(x)]
    for _ in range(top):
        powers.append(powers[-1] * x % p)
    return np.stack(powers, axis=1)


def discover_relations(basis: str, degree: int, seed: int, sample_count: int):
    """Find all syzygies at a weighted degree from exact random evaluations.

    Evaluates the products at sample_count seeded random rational points,
    one evaluation matrix per bidegree sector (see module notes on
    bihomogeneity), and returns one normalized SyzygyRelation per vector of
    each sector's exact nullspace.  A sector whose sample rank equals its
    ``invariant_dimension`` is certified: its kernel is its relation space.
    Only candidates from the other sectors are re-verified, at 20 fresh
    points from the large re-verification box; a candidate failing
    re-verification is discarded with a warning (this would indicate an
    unlucky sample set).
    """
    terms = enumerate_products(basis, degree)
    if sample_count < len(terms) + 10:
        raise ValueError(
            f"sample_count must be >= {len(terms) + 10} for {len(terms)} products"
        )
    points = _random_columns(random.Random(f"{seed}:discover"), DISCOVERY_BOUND, sample_count)
    columns = all_invariants(points).as_dict()
    bits = {name: max(map(abs, col)).bit_length() for name, col in columns.items()}
    modular = {}

    fresh, kept = None, []
    for key, sector, factors in _sectors(basis, degree):
        kernel = nullspace(_SectorMatrix(sector, factors, columns, bits, modular))
        sample_rank, dim = len(sector) - len(kernel), invariant_dimension(*key)
        if sample_rank > dim:
            raise RuntimeError(f"sector {key}: sample rank {sample_rank} exceeds "
                               f"the invariant dimension {dim}")
        for vec in kernel:
            rel = SyzygyRelation(tuple((c, t) for c, t in zip(vec, sector) if c), degree, basis)
            if sample_rank < dim:  # not certified: re-verify at fresh points
                if fresh is None:
                    fresh = all_invariants(_random_columns(
                        random.Random(f"{seed}:reverify"), REVERIFY_BOUND, REVERIFY_POINTS))
                if any(r != 0 for r in _residual(rel, fresh)):
                    warnings.warn(f"discarding spurious candidate relation: {rel}")
                    continue
            kept.append(rel)
    # a relation's terms follow the enumeration, so its first term leads
    position = {t: i for i, t in enumerate(terms)}
    kept.sort(key=lambda r: position[r.terms[0][1]])
    return kept


def coefficient_vector(rel: SyzygyRelation, terms):
    """Coefficients of rel aligned with an enumerated product list."""
    table = dict(rel.coefficient_table())
    vec = [table.pop(t.exponents, 0) for t in terms]
    if table:
        raise ValueError("relation contains products outside the enumerated list")
    return vec


def in_span(candidates, rel: SyzygyRelation) -> bool:
    """Whether rel is an exact linear combination of the candidate relations."""
    if not candidates:
        return False
    basis, degree = candidates[0].basis, candidates[0].degree
    terms = enumerate_products(basis, degree)
    rows = [coefficient_vector(r, terms) for r in candidates]
    base_rank = rank(RationalMatrix(rows))
    return rank(RationalMatrix(rows + [coefficient_vector(rel, terms)])) == base_rank


# ---------------------------------------------------------------------------
# Symbolic cross-check (degree <= 4): run the invariant evaluation pipeline
# on polynomial scalars, expand every product fully, and compute the relation
# space from exact monomial coefficients instead of point evaluations.
# ---------------------------------------------------------------------------


class _Poly:
    """Sparse polynomial in the 10 tensor coordinates, exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    @classmethod
    def variable(cls, i):
        mono = [0] * 10
        mono[i] = 1
        return cls({tuple(mono): 1})

    @classmethod
    def const(cls, c):
        return cls({(0,) * 10: c} if c else {})

    def _coerced(self, other):
        return other if isinstance(other, _Poly) else _Poly.const(other)

    def __add__(self, other):
        other = self._coerced(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return _Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerced(other))

    def __rsub__(self, other):
        return self._coerced(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, _Poly):
            if other == 0:
                return _Poly()
            return _Poly({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return _Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        out = _Poly.const(1)
        for _ in range(e):
            out = out * self
        return out


def symbolic_invariant_polynomials() -> dict:
    """Each invariant as an exact polynomial in (D111..D223, u1..u3)."""
    dev = Traceless3Tensor(tuple(_Poly.variable(i) for i in range(7)))
    u = tuple(_Poly.variable(7 + i) for i in range(3))
    iv = all_invariants(HarmonicParts(dev, u))
    return iv.as_dict()


def symbolic_relation_vectors(basis: str, degree: int):
    """Relation space at a degree from full symbolic expansion (degree <= 4 only)."""
    if degree > 4:
        raise ValueError("symbolic expansion cross-check is limited to degree <= 4")
    polys = symbolic_invariant_polynomials()
    terms = enumerate_products(basis, degree)
    expanded = [t.evaluate(polys) for t in terms]
    monomials = sorted({m for p in expanded for m in p.terms})
    # columns are products, rows are monomial coefficients
    matrix = RationalMatrix(tuple(
        tuple(p.terms.get(m, 0) for p in expanded) for m in monomials
    ))
    return terms, nullspace(matrix)
