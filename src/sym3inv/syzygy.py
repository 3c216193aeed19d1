"""Syzygies: vanishing linear combinations of same-degree invariant products.

``enumerate_products`` lists every power product of basis invariants with a
given weighted degree; ``verify_relation`` evaluates a relation exactly at a
rational point; ``discover_relations`` finds all relations at a degree by
building an exact evaluation matrix at seeded random rational points and
computing its nullspace.

Identity checking is by exact evaluation at random points rather than full
symbolic expansion.  A nonzero polynomial of total degree <= 16 in the 10
tensor variables vanishes at a uniform random integer point of a box of side
2e6 with probability <= 16 / 2e6 (Schwartz-Zippel), so twenty independent
exact zero evaluations leave no practical doubt; the evaluations carry no
rounding, so a zero residual is a zero residual.  A full symbolic expansion
cross-check is provided at degree <= 4 only (``symbolic_relation_vectors``),
as a guard on the evaluation pipeline itself.

Any polynomial identity among the invariants splits into bihomogeneous
components, because every invariant is homogeneous separately in D and in u:
scaling the two parts independently must preserve the identity.  Discovery
therefore groups the product columns by bidegree and computes one nullspace
per sector; the union spans exactly the relations at that degree, at a small
fraction of the cost of eliminating the full matrix.

Each sector has many more sample rows than product columns.  ``nullspace``
picks a set of independent rows modulo a prime, eliminates exactly on those
alone, and certifies every kernel vector with exact integer dot products
against every sample row, adding any failing row and eliminating again; the
kernel it returns is therefore the kernel of the whole sector matrix, the
same vectors full elimination gives (see ``exact_algebra``).  The
Schwartz-Zippel re-verification below is independent of that certificate:
it tests each candidate at fresh points from a much larger box.

Sampling boxes: discovery points use integer entries in [-9, 9] to keep
elimination intermediates modest; re-verification points use [-1e6, 1e6] to
drive the Schwartz-Zippel bound.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

from . import relations
from .exact_algebra import RationalMatrix, nullspace, rank
from .function_basis import ELEVEN_NAMES
from .invariants import BIDEGREE, DEGREE, NAMES, all_invariants
from .tensor_core import HarmonicParts, Traceless3Tensor

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
        exps = tuple(sorted(self.exponents, key=lambda ne: NAMES.index(ne[0])))
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
        """Product of values[name] ** exponent; values may be a dict or InvariantVector."""
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
    I2^2, I2*J2, J2^2, I4, J4, K4, L4.
    """
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

    found = [ProductTerm(t) for t in gen(0, degree) if t]
    found.sort(key=lambda t: t.exponent_vector(names), reverse=True)
    return found


def evaluate_products(terms, h: HarmonicParts):
    """Exact values of each product at the harmonic parts (D, u)."""
    iv = all_invariants(h)
    return [t.evaluate(iv) for t in terms]


def verify_relation(rel: SyzygyRelation, h: HarmonicParts):
    """Exact residual of a relation at a rational point (0 for a true identity)."""
    if h.field != "rational":
        raise ValueError("verify_relation needs exact rational input")
    iv = all_invariants(h)
    residual = 0
    for coeff, term in rel.terms:
        residual = residual + coeff * term.evaluate(iv)
    return residual


def random_harmonic_parts(rng: random.Random, bound: int) -> HarmonicParts:
    """Integer-entried (D, u) with all ten coordinates uniform in [-bound, bound]."""
    dev = Traceless3Tensor(tuple(rng.randint(-bound, bound) for _ in range(7)))
    u = tuple(rng.randint(-bound, bound) for _ in range(3))
    return HarmonicParts(dev, u)


def _relation_from_vector(vec, terms, degree, basis) -> SyzygyRelation:
    rel_terms = tuple((c, t) for c, t in zip(vec, terms) if c)
    return SyzygyRelation(rel_terms, degree, basis)


def discover_relations(basis: str, degree: int, seed: int, sample_count: int):
    """Find all syzygies at a weighted degree from exact random evaluations.

    Builds the sample_count x P evaluation matrix at seeded random rational
    points, computes its exact nullspace sector by sector (see module notes
    on bihomogeneity), and returns one normalized SyzygyRelation per basis
    vector.  Every candidate is re-verified at 20 fresh points from the
    large re-verification box; a candidate failing re-verification is
    discarded with a warning (this would indicate an unlucky sample set).
    """
    terms = enumerate_products(basis, degree)
    if sample_count < len(terms) + 10:
        raise ValueError(
            f"sample_count must be >= {len(terms) + 10} for {len(terms)} products"
        )
    rng = random.Random(f"{seed}:discover")
    points = [random_harmonic_parts(rng, DISCOVERY_BOUND) for _ in range(sample_count)]
    values = [all_invariants(h) for h in points]
    matrix = [[t.evaluate(iv) for t in terms] for iv in values]

    sectors = {}
    for idx, t in enumerate(terms):
        sectors.setdefault(t.bidegree, []).append(idx)

    found = []
    for key in sorted(sectors):
        cols = sectors[key]
        if len(cols) < 2:
            continue  # a single product cannot vanish identically
        sub = RationalMatrix(tuple(tuple(row[c] for c in cols) for row in matrix))
        for vec in nullspace(sub):
            full = [0] * len(terms)
            for c, v in zip(cols, vec):
                full[c] = v
            found.append(_relation_from_vector(full, terms, degree, basis))

    reverify_rng = random.Random(f"{seed}:reverify")
    fresh = [random_harmonic_parts(reverify_rng, REVERIFY_BOUND)
             for _ in range(REVERIFY_POINTS)]
    kept = []
    for rel in found:
        if all(verify_relation(rel, h) == 0 for h in fresh):
            kept.append(rel)
        else:
            warnings.warn(f"discarding spurious candidate relation: {rel}")
    kept.sort(key=lambda r: _leading_index(r, terms))
    return kept


def _leading_index(rel: SyzygyRelation, terms) -> int:
    table = rel.coefficient_table()
    return next(i for i, t in enumerate(terms) if t.exponents in table)


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
    expanded = []
    for t in terms:
        p = _Poly.const(1)
        for name, e in t.exponents:
            p = p * polys[name] ** e
        expanded.append(p)
    monomials = sorted({m for p in expanded for m in p.terms})
    # columns are products, rows are monomial coefficients
    matrix = RationalMatrix(tuple(
        tuple(p.terms.get(m, 0) for p in expanded) for m in monomials
    ))
    return terms, nullspace(matrix)
