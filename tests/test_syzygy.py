"""Product enumeration, relation verification, discovery, and the symbolic guard."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from sym3inv import (
    DEGREE,
    HarmonicParts,
    ProductTerm,
    SyzygyRelation,
    Traceless3Tensor,
    all_invariants,
    builtin_relations,
    discover_relations,
    enumerate_products,
    evaluate_products,
    in_span,
    invariant_dimension,
    verify_relation,
)
from sym3inv.exact_algebra import RationalMatrix, nullspace, rank
from sym3inv.syzygy import (
    BASIS_NAMES,
    DISCOVERY_BOUND,
    ELEVEN,
    REVERIFY_BOUND,
    THIRTEEN,
    _random_columns,
    coefficient_vector,
    random_harmonic_parts,
    relation_from_table,
    symbolic_invariant_polynomials,
    symbolic_relation_vectors,
)

F = Fraction

L6_PARTS = HarmonicParts(Traceless3Tensor((0, 0, 0, 1, 0, 0, F(1, 2))), (1, 0, 0))


def brute_force_products(basis, degree):
    """Independent multiset enumerator: filter all small combinations by degree."""
    names = BASIS_NAMES[basis]
    found = set()
    for size in range(1, degree // 2 + 1):
        for combo in combinations_with_replacement(names, size):
            if sum(DEGREE[n] for n in combo) == degree:
                found.add(combo)
    return found


# ---- enumeration ----

def test_enumerate_degree_2():
    terms = enumerate_products(THIRTEEN, 2)
    assert [str(t) for t in terms] == ["I2", "J2"]


def test_enumerate_degree_4_by_hand():
    terms = enumerate_products(THIRTEEN, 4)
    assert [str(t) for t in terms] == ["I2^2", "I2*J2", "J2^2", "I4", "J4", "K4", "L4"]


@pytest.mark.parametrize("basis,degree,expected_count", [
    (THIRTEEN, 10, 80),
    (ELEVEN, 16, 436),
    (ELEVEN, 10, 71),
    (THIRTEEN, 16, 552),
])
def test_enumerate_matches_brute_force(basis, degree, expected_count):
    oracle = brute_force_products(basis, degree)
    terms = enumerate_products(basis, degree)
    assert len(terms) == len(oracle)
    as_multisets = set()
    for t in terms:
        combo = tuple(sorted(
            [n for n, e in t.exponents for _ in range(e)],
            key=BASIS_NAMES[basis].index,
        ))
        as_multisets.add(combo)
    assert as_multisets == oracle
    names = BASIS_NAMES[basis]
    assert terms == sorted(terms, key=lambda t: t.exponent_vector(names), reverse=True)
    if expected_count is not None:
        assert len(terms) == expected_count


def test_enumerate_no_duplicates_and_degrees():
    terms = enumerate_products(ELEVEN, 12)
    assert len(set(terms)) == len(terms)
    assert all(t.weighted_degree == 12 for t in terms)


def test_enumerate_returns_a_fresh_list():
    first = enumerate_products(THIRTEEN, 10)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    second = enumerate_products(THIRTEEN, 10)
    assert second == expected and second is not first


def test_enumerate_rejects_bad_degree():
    with pytest.raises(ValueError):
        enumerate_products(THIRTEEN, 3)
    with pytest.raises(ValueError):
        enumerate_products(THIRTEEN, 0)


# ---- evaluation ----

def test_evaluate_products_zero_parts():
    terms = enumerate_products(THIRTEEN, 4)
    h = HarmonicParts(Traceless3Tensor.zero(), (0, 0, 0))
    assert evaluate_products(terms, h) == [0] * len(terms)


def test_evaluate_products_homogeneity():
    rng = random.Random(1)
    h = random_harmonic_parts(rng, 5)
    t = F(2, 3)
    scaled = HarmonicParts(
        Traceless3Tensor(tuple(t * c for c in h.deviator.components)),
        tuple(t * c for c in h.vector),
    )
    terms = enumerate_products(THIRTEEN, 10)
    base = evaluate_products(terms, h)
    up = evaluate_products(terms, scaled)
    assert up == [t ** 10 * x for x in base]


def test_evaluate_spot_value_at_witness():
    term = ProductTerm((("I2", 2), ("J2", 1)))
    assert term.evaluate(all_invariants(L6_PARTS)) == 49


# ---- built-in relations ----

def test_builtin_shapes():
    rels = builtin_relations()
    assert set(rels) == {"ten_a", "ten_b", "sixteen_a", "sixteen_b", "sixteen_c"}
    expected = {
        "ten_a": (10, THIRTEEN, 12, (7, 3)),
        "ten_b": (10, THIRTEEN, 12, (6, 4)),
        "sixteen_a": (16, ELEVEN, 34, (8, 8)),
        "sixteen_b": (16, ELEVEN, 36, (9, 7)),
        "sixteen_c": (16, ELEVEN, 35, (10, 6)),
    }
    for name, (degree, basis, nterms, bidegree) in expected.items():
        rel = rels[name]
        assert rel.degree == degree
        assert rel.basis == basis
        assert len(rel.terms) == nterms
        assert all(t.bidegree == bidegree for _, t in rel.terms)


def test_builtins_vanish_on_zero_tensor():
    h = HarmonicParts(Traceless3Tensor.zero(), (0, 0, 0))
    for rel in builtin_relations().values():
        assert verify_relation(rel, h) == 0


def test_builtins_vanish_at_30_random_points():
    rng = random.Random(30)
    points = [random_harmonic_parts(rng, 9) for _ in range(30)]
    for name, rel in builtin_relations().items():
        for h in points:
            assert verify_relation(rel, h) == 0, name


def test_corrupted_relation_has_nonzero_residual():
    rel = builtin_relations()["ten_b"]
    coeff0, term0 = rel.terms[0]
    corrupted = SyzygyRelation(((coeff0 + 1, term0),) + rel.terms[1:],
                               rel.degree, rel.basis)
    rng = random.Random(31)
    nonzero = sum(
        verify_relation(corrupted, random_harmonic_parts(rng, 9)) != 0
        for _ in range(100)
    )
    assert nonzero >= 99


def test_verify_relation_rejects_float_input():
    h = HarmonicParts(Traceless3Tensor(tuple(float(i) for i in range(7))), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        verify_relation(builtin_relations()["ten_a"], h)


def test_verify_relation_rejects_float_columns():
    ints = _random_columns(random.Random(32), 9, 5)
    for dtype in (float, object):
        floats = ints.deviator.components[0].astype(float).astype(dtype)
        h = HarmonicParts(Traceless3Tensor((floats,) + ints.deviator.components[1:]),
                          ints.vector)
        with pytest.raises(ValueError):
            verify_relation(builtin_relations()["ten_a"], h)


# ---- column evaluation ----

def _point(columns, i):
    """Point i of a HarmonicParts whose coordinates are columns."""
    return HarmonicParts(Traceless3Tensor(tuple(c[i] for c in columns.deviator.components)),
                         tuple(c[i] for c in columns.vector))


def test_random_columns_draw_the_points_of_successive_calls():
    rng = random.Random(33)
    expected = [random_harmonic_parts(rng, 9) for _ in range(12)]
    columns = _random_columns(random.Random(33), 9, 12)
    assert [_point(columns, i) for i in range(12)] == expected
    coords = columns.deviator.components + columns.vector
    assert all(c.dtype == object and type(x) is int for c in coords for x in c)


@pytest.mark.parametrize("bound", [9, 10 ** 6])
def test_column_invariants_equal_pointwise_invariants(bound):
    columns = _random_columns(random.Random(34), bound, 15)
    stacked = all_invariants(columns)
    for i in range(15):
        pointwise = all_invariants(_point(columns, i))
        assert tuple(c[i] for c in stacked.values) == pointwise.values
        assert all(type(c[i]) is int for c in stacked.values)
    if bound == 10 ** 6:
        # I8 and I10 leave int64 at this bound: the columns must stay exact
        assert max(abs(x) for x in stacked["I10"]) > 2 ** 63
        assert max(abs(x) for x in stacked["I8"]) > 2 ** 63


def test_verify_relation_on_columns_gives_pointwise_residuals():
    rel = builtin_relations()["ten_b"]
    coeff0, term0 = rel.terms[0]
    corrupted = SyzygyRelation(((coeff0 + 1, term0),) + rel.terms[1:],
                               rel.degree, rel.basis)
    columns = _random_columns(random.Random(35), 10 ** 6, 8)
    for r in (rel, corrupted):
        residuals = verify_relation(r, columns)
        assert list(residuals) == [verify_relation(r, _point(columns, i)) for i in range(8)]
    assert all(x == 0 for x in verify_relation(rel, columns))
    assert all(x != 0 for x in verify_relation(corrupted, columns))


# ---- discovery ----

def test_discovery_empty_at_degree_4():
    assert discover_relations(THIRTEEN, 4, seed=1, sample_count=50) == []


def test_discovery_requires_enough_samples():
    with pytest.raises(ValueError):
        discover_relations(THIRTEEN, 4, seed=1, sample_count=10)


def test_discovery_degree_10_contains_builtins():
    found = discover_relations(THIRTEEN, 10, seed=2024, sample_count=100)
    assert len(found) == 2
    rels = builtin_relations()
    assert in_span(found, rels["ten_a"])
    assert in_span(found, rels["ten_b"])
    # soundness: every found relation vanishes at fresh points
    rng = random.Random("fresh-check")
    for rel in found:
        for _ in range(20):
            assert verify_relation(rel, random_harmonic_parts(rng, 10 ** 6)) == 0


def test_discovery_stability_across_seeds():
    a = discover_relations(THIRTEEN, 10, seed=1, sample_count=95)
    b = discover_relations(THIRTEEN, 10, seed=99, sample_count=100)
    assert len(a) == len(b)
    for rel in a:
        assert in_span(b, rel)
    for rel in b:
        assert in_span(a, rel)


def test_discovery_deterministic():
    a = discover_relations(THIRTEEN, 10, seed=5, sample_count=95)
    b = discover_relations(THIRTEEN, 10, seed=5, sample_count=95)
    assert a == b


@pytest.mark.parametrize("degree, count", [(12, 10), (14, 30)])
def test_discovery_counts_over_the_thirteen(degree, count):
    # the relation counts character theory predicts over the integrity basis
    terms = enumerate_products(THIRTEEN, degree)
    found = discover_relations(THIRTEEN, degree, seed=1, sample_count=len(terms) + 10)
    assert len(found) == count
    for rel in found:
        assert len({t.bidegree for _, t in rel.terms}) == 1
    # each relation lists its terms in enumeration order, so its first term
    # is its leading product, and the relations are sorted by that product
    indices = [[terms.index(t) for _, t in rel.terms] for rel in found]
    assert all(ix == sorted(ix) for ix in indices)
    assert [ix[0] for ix in indices] == sorted(ix[0] for ix in indices)


def test_in_span_rejects_outsiders():
    found = discover_relations(THIRTEEN, 10, seed=3, sample_count=95)
    terms = enumerate_products(THIRTEEN, 10)
    fake = SyzygyRelation(((1, terms[0]), (1, terms[1])), 10, THIRTEEN)
    assert not in_span(found, fake)


def test_coefficient_vector_roundtrip():
    rels = builtin_relations()
    terms = enumerate_products(THIRTEEN, 10)
    vec = coefficient_vector(rels["ten_a"], terms)
    assert sum(1 for c in vec if c) == 12
    assert len(vec) == 80


def _normalized_vector(rel, terms):
    from math import gcd, lcm

    vec = coefficient_vector(rel, terms)
    scale = 1
    for v in vec:
        if isinstance(v, F):
            scale = lcm(scale, v.denominator)
    ints = [int(v * scale) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    if next(v for v in ints if v) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def test_discovery_reproduces_builtins_coefficient_for_coefficient():
    # the canonical nullspace normalization makes the representatives unique,
    # so rediscovery must return the built-in tables exactly, not just their span
    rels = builtin_relations()
    t10 = enumerate_products(THIRTEEN, 10)
    found10 = {_normalized_vector(r, t10)
               for r in discover_relations(THIRTEEN, 10, seed=2024, sample_count=100)}
    assert _normalized_vector(rels["ten_a"], t10) in found10
    assert _normalized_vector(rels["ten_b"], t10) in found10

    t16 = enumerate_products(ELEVEN, 16)
    found16 = {_normalized_vector(r, t16)
               for r in discover_relations(ELEVEN, 16, seed=2024, sample_count=446)}
    for name in ("sixteen_a", "sixteen_b", "sixteen_c"):
        assert _normalized_vector(rels[name], t16) in found16


def test_discovery_matrices_hold_each_product_at_each_sample(monkeypatch):
    # the sector matrices come from whole invariant columns; every entry must
    # equal the product evaluated at its own sample point, as a Python int
    import sym3inv.syzygy as syz

    points, matrices = [], []
    original_nullspace = syz.nullspace

    def recording_invariants(h):
        points.append(h)
        return all_invariants(h)

    def recording_nullspace(m):
        matrices.append(m)
        return original_nullspace(m)

    monkeypatch.setattr(syz, "all_invariants", recording_invariants)
    monkeypatch.setattr(syz, "nullspace", recording_nullspace)
    terms = enumerate_products(ELEVEN, 16)
    samples = len(terms) + 10
    assert len(discover_relations(ELEVEN, 16, seed=3, sample_count=samples)) == 3

    sectors = {}
    for t in terms:
        sectors.setdefault(t.bidegree, []).append(t)
    sectors = [sectors[key] for key in sorted(sectors) if len(sectors[key]) > 1]
    # the first call evaluates all samples at once; split its columns into points
    values = [all_invariants(_point(points[0], i)) for i in range(samples)]
    assert len(matrices) == len(sectors)
    for m, sector in zip(matrices, sectors):
        assert m.entries == tuple(tuple(t.evaluate(iv) for t in sector) for iv in values)
        assert all(type(e) is int for row in m.entries for e in row)


def _sector_matrices(monkeypatch, basis, degree, seed):
    """The matrices ``discover_relations`` passes to ``nullspace``, their kernels, its result."""
    import sym3inv.syzygy as syz

    matrices, kernels = [], []
    original_nullspace = syz.nullspace

    def recording_nullspace(m):
        matrices.append(m)
        kernels.append(original_nullspace(m))
        return kernels[-1]

    monkeypatch.setattr(syz, "nullspace", recording_nullspace)
    samples = len(enumerate_products(basis, degree)) + 10
    found = discover_relations(basis, degree, seed=seed, sample_count=samples)
    return matrices, kernels, found


def test_sector_residues_and_row_bits_match_the_exact_entries(monkeypatch):
    from sym3inv.exact_algebra import _prime

    matrices, _, found = _sector_matrices(monkeypatch, ELEVEN, 16, 4)
    assert len(found) == 3 and len(matrices) == 15
    for m in matrices:
        entries = np.array(m.entries, dtype=object)
        assert entries.shape == (m.rows, m.cols)
        for p in (_prime(0), _prime(5), 10007):
            res = m.residues(p)
            assert res.dtype == np.int64
            assert (res == entries % p).all()
        assert max(sum(map(abs, row)) for row in m.entries) < 2 ** m.row_bits


@pytest.mark.parametrize("basis, degree", [(ELEVEN, 16), (THIRTEEN, 12)])
def test_sector_nullspace_equals_the_nullspace_of_its_exact_entries(monkeypatch, basis, degree):
    matrices, _, found = _sector_matrices(monkeypatch, basis, degree, 6)
    total = 0
    for m in matrices:
        kernel = nullspace(m)
        assert kernel == nullspace(RationalMatrix(m.entries))
        total += len(kernel)
    assert total == len(found)


# ---- certificate by invariant dimension ----

def test_invariant_dimension_small_cases():
    assert invariant_dimension(0, 0) == 1
    # I2, J2; I2^2 and I4; K4; L4; I2*J2 and J4; J2^2
    expected = {(2, 0): 1, (0, 2): 1, (4, 0): 2, (3, 1): 1, (1, 3): 1, (2, 2): 2, (0, 4): 1}
    for (a, b), dim in expected.items():
        assert invariant_dimension(a, b) == dim
    # odd total degree has no O(3)-invariants; nor have (1, 1), (3, 0), (0, 3)
    for a, b in ((1, 0), (0, 1), (2, 1), (1, 1), (3, 0), (7, 4)):
        assert invariant_dimension(a, b) == 0
    with pytest.raises(ValueError):
        invariant_dimension(-1, 3)


@pytest.mark.parametrize("degree, relations", [
    (10, 2), (12, 10), (14, 30), (16, 83), (18, 195), (20, 419), (22, 842), (24, 1598),
])
def test_invariant_dimension_predicts_the_relation_counts(degree, relations):
    # the thirteen generate every invariant, so each bidegree has at least as
    # many products as invariants, and the excess is the relation count
    sizes = Counter(t.bidegree for t in enumerate_products(THIRTEEN, degree))
    for a in range(degree + 1):
        assert invariant_dimension(a, degree - a) <= sizes[a, degree - a]
    assert sum(n - invariant_dimension(*key) for key, n in sizes.items()) == relations


@pytest.mark.parametrize("degree", [10, 12, 14])
def test_every_thirteen_sector_reaches_its_invariant_dimension(monkeypatch, degree):
    matrices, kernels, found = _sector_matrices(monkeypatch, THIRTEEN, degree, 1)
    sizes = Counter(t.bidegree for t in enumerate_products(THIRTEEN, degree))
    assert len(matrices) == sum(1 for n in sizes.values() if n > 1)
    for m, kernel in zip(matrices, kernels):
        key = m.sector[0].bidegree
        assert m.cols == sizes[key]
        assert m.cols - len(kernel) == invariant_dimension(*key)
    # a lone product is a nonzero invariant, of a one-dimensional sector
    assert all(invariant_dimension(*key) == 1 for key, n in sizes.items() if n == 1)
    assert sum(map(len, kernels)) == len(found)


def _drawn_bounds(monkeypatch):
    """The box bound of every point set ``discover_relations`` draws, in order."""
    import sym3inv.syzygy as syz

    bounds = []
    original = syz._random_columns

    def recording(rng, bound, n):
        bounds.append(bound)
        return original(rng, bound, n)

    monkeypatch.setattr(syz, "_random_columns", recording)
    return bounds


def test_certified_discovery_draws_no_reverification_points(monkeypatch):
    bounds = _drawn_bounds(monkeypatch)
    assert len(discover_relations(THIRTEEN, 10, seed=1, sample_count=90)) == 2
    assert bounds == [DISCOVERY_BOUND]


def test_uncertified_discovery_still_reverifies(monkeypatch):
    # over the eleven, the three degree-16 sectors with relations keep their
    # rank below the invariant dimension, so their candidates are re-verified
    bounds = _drawn_bounds(monkeypatch)
    assert len(discover_relations(ELEVEN, 16, seed=1, sample_count=446)) == 3
    assert bounds == [DISCOVERY_BOUND, REVERIFY_BOUND]


@pytest.mark.parametrize("basis, degree, sector", [(ELEVEN, 16, (8, 8)), (THIRTEEN, 10, (7, 3))])
def test_spurious_candidate_is_dropped_with_a_warning(monkeypatch, basis, degree, sector):
    # a false kernel vector lowers the sector's rank below its dimension, so
    # even a sector the count certified falls back to re-verification
    import sym3inv.syzygy as syz

    samples = len(enumerate_products(basis, degree)) + 10
    expected = discover_relations(basis, degree, seed=2, sample_count=samples)
    original_nullspace = syz.nullspace

    def injecting_nullspace(m):
        kernel = original_nullspace(m)
        if m.sector[0].bidegree == sector:
            kernel = kernel + [[1, 1] + [0] * (m.cols - 2)]
        return kernel

    monkeypatch.setattr(syz, "nullspace", injecting_nullspace)
    bounds = _drawn_bounds(monkeypatch)
    with pytest.warns(UserWarning, match="discarding spurious candidate") as caught:
        found = discover_relations(basis, degree, seed=2, sample_count=samples)
    assert len(caught) == 1
    assert found == expected
    assert bounds == [DISCOVERY_BOUND, REVERIFY_BOUND]


def test_sample_rank_above_the_invariant_dimension_raises(monkeypatch):
    import sym3inv.syzygy as syz

    monkeypatch.setattr(syz, "invariant_dimension", lambda a, b: 0)
    with pytest.raises(RuntimeError, match="exceeds the invariant dimension"):
        discover_relations(THIRTEEN, 10, seed=1, sample_count=90)


def _times(rel, name):
    """The relation multiplied by the invariant ``name``."""
    table = {}
    for coeff, term in rel.terms:
        exps = dict(term.exponents)
        exps[name] = exps.get(name, 0) + 1
        table[tuple(exps.items())] = coeff
    return relation_from_table(table, rel.basis)


def test_discovery_degree_18_over_the_eleven():
    # 13 relations at degree 18; the six products of I2 and J2 with the three
    # degree-16 relations are independent and lie in their span
    terms = enumerate_products(ELEVEN, 18)
    found = discover_relations(ELEVEN, 18, seed=1, sample_count=len(terms) + 10)
    assert len(found) == 13
    rels = builtin_relations()
    products = [_times(rels[key], name) for key in ("sixteen_a", "sixteen_b", "sixteen_c")
                for name in ("I2", "J2")]
    assert all(r.degree == 18 for r in products)
    assert rank(RationalMatrix([coefficient_vector(r, terms) for r in products])) == 6
    for rel in products:
        assert in_span(found, rel)


def test_discovery_degree_20_over_the_eleven():
    # 43 relations at degree 20; the three degree-16 relations times each of
    # the seven degree-4 products of the eleven are independent and lie in
    # their span.  The two ranks below take nullspace's second pass: the
    # leading rows of a transposed coefficient matrix are sparse and miss
    # most of its rank
    terms = enumerate_products(ELEVEN, 20)
    found = discover_relations(ELEVEN, 20, seed=1, sample_count=len(terms) + 10)
    assert len(found) == 43
    rels = builtin_relations()
    products = []
    for key in ("sixteen_a", "sixteen_b", "sixteen_c"):
        for term in enumerate_products(ELEVEN, 4):
            rel = rels[key]
            for name, e in term.exponents:
                for _ in range(e):
                    rel = _times(rel, name)
            products.append(rel)
    assert all(r.degree == 20 for r in products)
    rows = [coefficient_vector(r, terms) for r in products]
    assert rank(RationalMatrix(rows)) == 21
    # one rank for all 21 at once: in_span for each would take two ranks apiece
    assert rank(RationalMatrix([coefficient_vector(r, terms) for r in found] + rows)) == 43


# ---- symbolic guard (full expansion, degree <= 4) ----

def test_symbolic_polynomials_match_point_evaluation():
    polys = symbolic_invariant_polynomials()
    rng = random.Random(8)
    h = random_harmonic_parts(rng, 7)
    point = h.deviator.components + h.vector
    iv = all_invariants(h)
    for name, poly in polys.items():
        value = sum(
            c * _monomial_value(m, point) for m, c in poly.terms.items()
        )
        assert value == iv[name], name


def _monomial_value(mono, point):
    out = 1
    for exp, x in zip(mono, point):
        out *= x ** exp
    return out


def test_symbolic_no_relations_at_degree_2_and_4():
    for degree in (2, 4):
        terms, vectors = symbolic_relation_vectors(THIRTEEN, degree)
        assert vectors == []
        assert len(terms) == len(enumerate_products(THIRTEEN, degree))


def test_symbolic_guard_agrees_with_discovery_at_degree_4():
    _, vectors = symbolic_relation_vectors(THIRTEEN, 4)
    discovered = discover_relations(THIRTEEN, 4, seed=17, sample_count=60)
    assert len(vectors) == len(discovered) == 0


def test_symbolic_rejects_large_degree():
    with pytest.raises(ValueError):
        symbolic_relation_vectors(THIRTEEN, 6)
