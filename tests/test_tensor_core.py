"""Tensor representation, harmonic decomposition, rotation, and file format."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sym3inv import (
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
from sym3inv.tensor_core import (
    SYM_COMPONENT_INDICES,
    TRACELESS_COMPONENT_INDICES,
    TensorFormatError,
    orthonormalize,
    parse_rational,
    rotate_vector,
    tensor_from_json,
    tensor_to_json,
)

F = Fraction

L6_WITNESS = Sym3Tensor((F(3, 5), 0, 0, F(6, 5), 0, F(-4, 5), 0, F(1, 2), 0, F(-1, 2)))


def rotate_naive(t, q):
    """Index-bookkeeping oracle: the raw triple sum over the expanded array."""
    m = q.matrix
    a = expand(t)
    return [
        [
            [
                sum(
                    m[i][p] * m[j][r] * m[k][s] * a[p][r][s]
                    for p in range(3) for r in range(3) for s in range(3)
                )
                for k in range(3)
            ]
            for j in range(3)
        ]
        for i in range(3)
    ]


def ltr(terms):
    """The terms added left to right from int 0 (builtin sum() compensates floats since 3.12)."""
    acc = 0
    for x in terms:
        acc = acc + x
    return acc


def same_bits(got, want):
    """Equal in type and value, and for floats also in the sign of zero."""
    return len(got) == len(want) and all(
        type(x) is type(y) and x == y
        and (not isinstance(x, float) or math.copysign(1.0, x) == math.copysign(1.0, y))
        for x, y in zip(got, want))


def rotate_three_passes(t, q):
    """Sequential reference: contract the third index, then the second, then the first."""
    m = q.matrix
    a = expand(t)
    rng = range(3)
    t1 = [[[ltr(m[k][c] * a[i][j][c] for c in rng) for k in rng] for j in rng] for i in rng]
    t2 = [[[ltr(m[j][b] * t1[i][b][k] for b in rng) for k in rng] for j in rng] for i in rng]
    t3 = [[[ltr(m[i][b] * t2[b][j][k] for b in rng) for k in rng] for j in rng] for i in rng]
    indices = SYM_COMPONENT_INDICES if isinstance(t, Sym3Tensor) else TRACELESS_COMPONENT_INDICES
    return tuple(t3[i - 1][j - 1][k - 1] for i, j, k in indices)


# ---- expand ----

def test_expand_zero():
    t = expand(Sym3Tensor.zero())
    assert all(t[i][j][k] == 0 for i in range(3) for j in range(3) for k in range(3))


def test_expand_symmetry_orbit():
    a = Sym3Tensor((0, 0, 0, 0, 1, 0, 0, 0, 0, 0))  # only A123
    t = expand(a)
    ones = {(i, j, k) for i in range(3) for j in range(3) for k in range(3)
            if t[i][j][k] == 1}
    assert ones == set(itertools.permutations((0, 1, 2)))
    zeros = sum(1 for i in range(3) for j in range(3) for k in range(3)
                if t[i][j][k] == 0)
    assert zeros == 21


def test_expand_traceless_dependents():
    # D133 = -D111 - D122 = -2 when both stored entries are 1
    d = Traceless3Tensor((1, 0, 0, 1, 0, 0, 0))
    t = expand(d)
    for perm in itertools.permutations((0, 2, 2)):
        assert t[perm[0]][perm[1]][perm[2]] == -2


def test_expand_permutation_invariance_exhaustive():
    rng = random.Random(0)
    a = Sym3Tensor(tuple(rng.randint(-9, 9) for _ in range(10)))
    t = expand(a)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for p in itertools.permutations((i, j, k)):
                    assert t[p[0]][p[1]][p[2]] == t[i][j][k]


def _expand_by_sorted_triple(t):
    """Reference expansion: entry (i, j, k) is the component of the sorted triple."""
    if isinstance(t, Sym3Tensor):
        by_triple = dict(zip(
            [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
             (1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3)], t.components))
    else:
        d111, d112, d113, d122, d123, d222, d223 = t.components
        by_triple = {(1, 1, 1): d111, (1, 1, 2): d112, (1, 1, 3): d113, (1, 2, 2): d122,
                     (1, 2, 3): d123, (2, 2, 2): d222, (2, 2, 3): d223,
                     (1, 3, 3): -d111 - d122, (2, 3, 3): -d112 - d222,
                     (3, 3, 3): -d113 - d223}
    rng = (1, 2, 3)
    return tuple(tuple(tuple(by_triple[tuple(sorted((i, j, k)))] for k in rng)
                       for j in rng) for i in rng)


_SCALARS = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-10, max_value=10),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_SCALARS, min_size=17, max_size=17))
def test_expand_matches_sorted_triple_reference(values):
    for t in (Sym3Tensor(tuple(values[:10])), Traceless3Tensor(tuple(values[10:]))):
        got, want = expand(t), _expand_by_sorted_triple(t)
        assert got == want
        # same scalar objects' types too: no int/Fraction/float coercion
        assert [type(e) for p in got for r in p for e in r] == \
               [type(e) for p in want for r in p for e in r]


def test_traceless_contractions_vanish_exactly():
    rng = random.Random(1)
    d = Traceless3Tensor(tuple(F(rng.randint(-9, 9), rng.randint(1, 5))
                               for _ in range(7)))
    t = expand(d)
    for i in range(3):
        assert sum(t[i][l][l] for l in range(3)) == 0
        assert sum(t[l][i][l] for l in range(3)) == 0
        assert sum(t[l][l][i] for l in range(3)) == 0


# ---- decompose / recompose ----

def test_decompose_zero():
    h = decompose(Sym3Tensor.zero())
    assert h.deviator == Traceless3Tensor.zero()
    assert h.vector == (0, 0, 0)


def test_decompose_l6_witness_exact():
    h = decompose(L6_WITNESS)
    assert h.vector == (1, 0, 0)
    assert h.deviator.components == (0, 0, 0, 1, 0, 0, F(1, 2))
    assert h.deviator.dependent_components() == (-1, 0, F(-1, 2))


def test_decompose_single_component_roundtrip():
    a = Sym3Tensor((0, 0, 0, 1, 0, 0, 0, 0, 0, 0))  # only A122
    h = decompose(a)
    assert h.vector == (1, 0, 0)
    assert h.deviator.components[0] == F(-3, 5)  # D111 = 0 - (3/5) u1
    assert h.deviator.components[3] == F(4, 5)   # D122 = 1 - 1/5
    assert recompose(h) == a


def test_recompose_zero():
    assert recompose(HarmonicParts(Traceless3Tensor.zero(), (0, 0, 0))) == Sym3Tensor.zero()


def test_recompose_pure_vector():
    a = recompose(HarmonicParts(Traceless3Tensor.zero(), (1, 0, 0)))
    expected = Sym3Tensor((F(3, 5), 0, 0, F(1, 5), 0, F(1, 5), 0, 0, 0, 0))
    assert a == expected


def test_roundtrip_1000_random_exact():
    for seed in range(1000):
        a = random_sym3(seed, RATIONAL, 9)
        assert recompose(decompose(a)) == a


def test_harmonic_roundtrip_other_direction():
    rng = random.Random(3)
    for _ in range(100):
        d = Traceless3Tensor(tuple(rng.randint(-9, 9) for _ in range(7)))
        u = tuple(rng.randint(-9, 9) for _ in range(3))
        h = HarmonicParts(d, u)
        again = decompose(recompose(h))
        assert again.deviator == d and again.vector == u


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(min_value=-10, max_value=10), min_size=10, max_size=10))
def test_roundtrip_hypothesis(comps):
    a = Sym3Tensor(tuple(comps))
    assert recompose(decompose(a)) == a


def test_float_roundtrip_tolerance():
    a = random_sym3(17, FLOAT, 2)
    b = recompose(decompose(a))
    assert all(abs(x - y) < 1e-12 for x, y in zip(a.components, b.components))


def reference_shift(cls, t, u, fifth):
    """Trace-part shift in plain scalar arithmetic: t_ijk + fifth * (u-terms)."""
    return cls(tuple(
        t[i - 1][j - 1][k - 1]
        + fifth * (u[k - 1] * (i == j) + u[j - 1] * (i == k) + u[i - 1] * (j == k))
        for i, j, k in cls._INDICES))


def reference_decompose(a):
    t = expand(a)
    u = tuple(ltr(t[i][l][l] for l in range(3)) for i in range(3))
    fifth = -(0.2 if a.field == FLOAT else F(1, 5))
    return HarmonicParts(reference_shift(Traceless3Tensor, t, u, fifth), u)


def reference_recompose(h):
    fifth = 0.2 if h.field == FLOAT else F(1, 5)
    return reference_shift(Sym3Tensor, expand(h.deviator), h.vector, fifth)


def typed(values):
    return [(type(x), x) for x in values]


def exact_scalar(rng, kind):
    """An int, a small p/q, a mixed choice of the two, or p/q with q up to 1e6."""
    if kind == "mixed":
        kind = rng.choice(("int", "small"))
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "small":
        return F(rng.randint(-30, 30), rng.randint(1, 6))
    return F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))


def parity_parts(rng):
    """Harmonic parts of every exact kind, including D = 0, u = 0 and both."""
    for kind in ("int", "small", "mixed", "large"):
        for zero_d, zero_u in itertools.product((False, True), repeat=2):
            d = (0,) * 7 if zero_d else tuple(exact_scalar(rng, kind) for _ in range(7))
            u = (0,) * 3 if zero_u else tuple(exact_scalar(rng, kind) for _ in range(3))
            yield HarmonicParts(Traceless3Tensor(d), u)


def test_decompose_recompose_match_fraction_reference_in_value_and_type():
    rng = random.Random(2026)
    for _ in range(25):
        for h in parity_parts(rng):
            got, want = recompose(h), reference_recompose(h)
            assert typed(got.components) == typed(want.components)
            for a in (got, Sym3Tensor(tuple(exact_scalar(rng, "mixed") for _ in range(10)))):
                got_h, want_h = decompose(a), reference_decompose(a)
                assert typed(got_h.deviator.components) == typed(want_h.deviator.components)
                assert typed(got_h.vector) == typed(want_h.vector)
    # int input: D is all Fractions and u stays int, as with Fraction arithmetic
    h = decompose(Sym3Tensor(tuple(range(10))))
    assert {type(x) for x in h.deviator.components} == {F}
    assert {type(x) for x in h.vector} == {int}
    # u_i = A_i11 + A_i22 + A_i33 is a Fraction exactly when one of its
    # summands is, integral Fractions included, and an int otherwise
    for kind in ("int", "small", "mixed", "large"):
        for _ in range(40):
            a = Sym3Tensor(tuple(exact_scalar(rng, kind) for _ in range(10)))
            assert typed(decompose(a).vector) == typed(reference_decompose(a).vector)
    a = Sym3Tensor((F(2), 0, 0, 1, 0, 3, 0, 0, F(1, 2), 0))
    assert typed(decompose(a).vector) == [(F, 6), (F, F(1, 2)), (int, 0)]
    assert typed(decompose(a).vector) == typed(reference_decompose(a).vector)


def test_decompose_recompose_float_bit_identical_to_reference():
    rng = random.Random(2027)
    for _ in range(200):
        scale = 10.0 ** rng.randint(-8, 8)
        a = Sym3Tensor(tuple(rng.uniform(-9, 9) * scale for _ in range(10)))
        got, want = decompose(a), reference_decompose(a)
        assert typed(got.deviator.components) == typed(want.deviator.components)
        assert got.vector == want.vector
        assert typed(recompose(got).components) == typed(reference_recompose(got).components)


def reference_orthonormalize(vectors):
    basis = []
    for vector in vectors:
        v = list(vector)
        for p in basis:
            dot = ltr(x * y for x, y in zip(v, p))
            v = [x - dot * y for x, y in zip(v, p)]
        n = math.sqrt(ltr(x * x for x in v))
        if n < 1e-8:
            return None
        basis.append([x / n for x in v])
    return basis


def reference_defect(q):
    m = q.matrix
    worst = 0
    for i in range(3):
        for j in range(3):
            s = ltr(m[k][i] * m[k][j] for k in range(3))
            if i == j:
                s = s - 1
            worst = max(worst, abs(s))
    return worst


EXACT_ORTHOGONAL = (
    Orthogonal3(((0, 0, 1), (0, -1, 0), (1, 0, 0))),
    Orthogonal3(((F(3, 5), F(4, 5), 0), (F(-4, 5), F(3, 5), 0), (0, 0, 1))),
    Orthogonal3(((F(1, 3), F(2, 3), F(2, 3)), (F(2, 3), F(1, 3), F(-2, 3)),
                 (F(2, 3), F(-2, 3), F(1, 3)))),
)


def kernel_inputs(rng):
    """Float tensors with signed zeros at 1e-30..1e30 and exact ones, each with a Q."""
    for n in range(240):
        scale = 10.0 ** rng.randrange(-30, 31, 6)
        comps = tuple(rng.choice((0.0, -0.0, rng.uniform(-9, 9) * scale,
                                  rng.uniform(-9, 9) * scale)) for _ in range(10))
        q = EXACT_ORTHOGONAL[n % 3] if n % 4 == 0 else random_orthogonal(n, (1, -1)[n % 2])
        yield Sym3Tensor(comps), q
    yield Sym3Tensor((-0.0,) * 10), random_orthogonal(1, -1)
    for n, kind in enumerate(("int", "small", "mixed", "large") * 6):
        yield Sym3Tensor(tuple(exact_scalar(rng, kind) for _ in range(10))), EXACT_ORTHOGONAL[n % 3]


def test_float_kernels_add_left_to_right_from_zero():
    # each entry adds its products in the naive index order from int 0, as
    # sum() did before Python 3.12, so floats round alike on every version;
    # exact input must keep its values and int/Fraction types
    rng = random.Random(2028)
    for a, q in kernel_inputs(rng):
        h, want = decompose(a), reference_decompose(a)
        assert same_bits(h.deviator.components, want.deviator.components)
        assert same_bits(h.vector, want.vector)
        for t in (a, h.deviator):
            assert same_bits(rotate(t, q).components, rotate_three_passes(t, q))
        m = q.matrix
        want_u = [ltr(m[i][j] * h.vector[j] for j in range(3)) for i in range(3)]
        assert same_bits(rotate_vector(h.vector, q), want_u)
        assert same_bits([q.orthogonality_defect()], [reference_defect(q)])
    for _ in range(100):
        scale = 10.0 ** rng.randint(-30, 30)
        vectors = [[rng.choice((-0.0, rng.uniform(-1, 1) * scale)) for _ in range(3)]
                   for _ in range(3)]
        got, want = orthonormalize(vectors), reference_orthonormalize(vectors)
        assert (got is None) == (want is None)
        assert got is None or all(same_bits(x, y) for x, y in zip(got, want))


# ---- rotate ----

def test_rotate_identity():
    q = Orthogonal3(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    a = random_sym3(5, RATIONAL, 9)
    assert rotate(a, q) == a


def test_rotate_negated_identity_flips_sign():
    q = Orthogonal3(((-1, 0, 0), (0, -1, 0), (0, 0, -1)))
    a = random_sym3(6, RATIONAL, 9)
    b = rotate(a, q)
    assert b.components == tuple(-c for c in a.components)


def test_rotate_axis_swap_moves_components():
    q = Orthogonal3(((0, 1, 0), (1, 0, 0), (0, 0, 1)))  # swap axes 1 and 2
    a = Sym3Tensor((0, 1, 0, 0, 0, 0, 0, 0, 0, 0))  # only A112
    b = rotate(a, q)
    # A112 lands on A221 which is stored at the A122 slot
    assert b.components == (0, 0, 0, 1, 0, 0, 0, 0, 0, 0)


def test_rotate_matches_naive_oracle_exactly_rational():
    q = Orthogonal3(((0, 0, 1), (0, -1, 0), (1, 0, 0)))  # signed permutation
    for seed in range(20):
        a = random_sym3(seed, RATIONAL, 9)
        t = expand(rotate(a, q))
        naive = rotate_naive(a, q)
        assert all(t[i][j][k] == naive[i][j][k]
                   for i in range(3) for j in range(3) for k in range(3))


def test_rotate_matches_naive_oracle_float():
    for seed in range(20):
        a = random_sym3(seed, FLOAT, 2)
        q = random_orthogonal(seed + 100, 1 if seed % 2 else -1)
        t = expand(rotate(a, q))
        naive = rotate_naive(a, q)
        assert all(abs(t[i][j][k] - naive[i][j][k]) < 1e-12
                   for i in range(3) for j in range(3) for k in range(3))


def test_rotate_float_equals_three_pass_reference_bit_for_bit():
    rng = random.Random(12)
    for seed in range(40):
        q = random_orthogonal(seed + 200, 1 if seed % 2 else -1)
        for t in (random_sym3(seed, FLOAT, 5),
                  Traceless3Tensor(tuple(rng.uniform(-5, 5) for _ in range(7)))):
            rotated = rotate(t, q)
            assert type(rotated) is type(t)
            assert rotated.components == rotate_three_passes(t, q)


def test_rotate_traceless_stays_traceless():
    rng = random.Random(9)
    d = Traceless3Tensor(tuple(rng.uniform(-2, 2) for _ in range(7)))
    q = random_orthogonal(44, -1)
    rotated = rotate(d, q)
    t = expand(rotated)
    for i in range(3):
        assert abs(sum(t[i][l][l] for l in range(3))) < 1e-12


def test_rotate_rejects_non_orthogonal():
    q = Orthogonal3(((1, 0, 0), (0, 1, 0), (0, 1, 1)))
    with pytest.raises(ValueError):
        rotate(random_sym3(1, RATIONAL, 3), q)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rotate_rejects_non_finite_matrix_entries(bad):
    # the defect folds with max(), which skips a NaN after a number, so a NaN
    # entry must be caught before it; every slot is tried
    for i, j in itertools.product(range(3), repeat=2):
        rows = [[1.0 if r == c else 0.0 for c in range(3)] for r in range(3)]
        rows[i][j] = bad
        q = Orthogonal3(tuple(map(tuple, rows)))
        with pytest.raises(ValueError, match="finite"):
            q.validate()
        with pytest.raises(ValueError, match="finite"):
            rotate(random_sym3(1, FLOAT, 3), q)
    # finite matrices are unaffected, exact or float
    random_orthogonal(7, 1).validate()
    Orthogonal3(((0, 1, 0), (1, 0, 0), (0, 0, -1))).validate()


def test_equivariance_of_decomposition():
    for seed in range(50):
        a = random_sym3(seed, FLOAT, 2)
        q = random_orthogonal(seed + 999, 1 if seed % 2 else -1)
        h = decompose(a)
        rotated = decompose(rotate(a, q))
        d_then_rotate = expand(rotate(h.deviator, q))
        d_rotate_then = expand(rotated.deviator)
        assert all(
            abs(d_then_rotate[i][j][k] - d_rotate_then[i][j][k]) < 1e-9
            for i in range(3) for j in range(3) for k in range(3)
        )
        u_expected = rotate_vector(h.vector, q)
        assert all(abs(x - y) < 1e-9 for x, y in zip(rotated.vector, u_expected))


# ---- random generation ----

def test_random_sym3_deterministic():
    assert random_sym3(123, RATIONAL, 9) == random_sym3(123, RATIONAL, 9)
    assert random_sym3(123, FLOAT, 9) == random_sym3(123, FLOAT, 9)


def test_random_sym3_seeds_differ():
    collisions = sum(
        random_sym3(2 * i, RATIONAL, 9) == random_sym3(2 * i + 1, RATIONAL, 9)
        for i in range(100)
    )
    assert collisions == 0


def test_random_sym3_zero_bound():
    assert random_sym3(7, RATIONAL, 0) == Sym3Tensor.zero()


def test_random_sym3_bounds():
    a = random_sym3(15, RATIONAL, 4)
    assert all(isinstance(c, int) and -4 <= c <= 4 for c in a.components)
    b = random_sym3(15, FLOAT, 4)
    assert all(-4.0 <= c <= 4.0 for c in b.components)


def test_orthonormalize():
    q = orthonormalize([[3.0, 0.0, 4.0], [1.0, 1.0, 0.0]])
    assert q[0] == [0.6, 0.0, 0.8]
    assert abs(sum(x * y for x, y in zip(*q))) < 1e-15
    assert abs(sum(x * x for x in q[1]) - 1.0) < 1e-15
    # a remainder below 1e-8 means the vectors are nearly dependent
    assert orthonormalize([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0 + 1e-10]]) is None
    assert orthonormalize([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0 + 1e-6]]) is not None


def test_random_orthogonal_contract():
    for seed in range(50):
        q = random_orthogonal(seed, 1)
        assert q.orthogonality_defect() < 1e-12
        assert abs(q.determinant() - 1) < 1e-9
        r = random_orthogonal(seed, -1)
        assert abs(r.determinant() + 1) < 1e-9
    assert random_orthogonal(8, 1) == random_orthogonal(8, 1)


def test_random_orthogonal_group_closure():
    q1 = random_orthogonal(1, 1).matrix
    q2 = random_orthogonal(2, -1).matrix
    prod = tuple(
        tuple(sum(q1[i][k] * q2[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    assert Orthogonal3(prod).orthogonality_defect() < 1e-11


# ---- file format ----

def test_tensor_file_roundtrip_rational(tmp_path):
    a = L6_WITNESS
    path = tmp_path / "t.json"
    save_tensor(a, path)
    assert load_tensor(path) == a
    obj = json.loads(path.read_text())
    assert obj["format"] == "sym3-v1"
    assert obj["field"] == "rational"
    assert obj["components"][0] == "3/5"


def test_tensor_file_roundtrip_float(tmp_path):
    a = random_sym3(3, FLOAT, 2)
    path = tmp_path / "t.json"
    save_tensor(a, path)
    assert load_tensor(path) == a


@pytest.mark.parametrize("bad", [
    {"format": "sym3-v1", "field": "rational", "components": ["1/2"] * 9},
    {"format": "sym3-v2", "field": "rational", "components": ["1/2"] * 10},
    {"format": "sym3-v1", "field": "complex", "components": ["1/2"] * 10},
    {"format": "sym3-v1", "field": "rational", "components": ["2/4"] * 10},
    {"format": "sym3-v1", "field": "rational", "components": ["1/-2"] * 10},
    {"format": "sym3-v1", "field": "rational", "components": [0.5] * 10},
    {"format": "sym3-v1", "field": "float", "components": ["0.5"] * 10},
    {"format": "sym3-v1", "field": "float", "components": [True] * 10},
    ["not", "an", "object"],
    {"format": "sym3-v1", "field": "float", "components": [float("nan")] + [0.5] * 9},
    {"format": "sym3-v1", "field": "float", "components": [float("inf")] + [0.5] * 9},
    {"format": "sym3-v1", "field": "float", "components": [0.5] * 9 + [float("-inf")]},
    {"format": "sym3-v1", "field": "float", "components": [10 ** 400] + [0.5] * 9},
])
def test_tensor_file_rejects_malformed(bad):
    with pytest.raises(TensorFormatError):
        tensor_from_json(bad)


def test_parse_rational_accepts_integers():
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("3/5") == Fraction(3, 5)


def test_tensor_to_json_emits_lowest_terms():
    a = Sym3Tensor((F(2, 4),) + (0,) * 9)
    obj = tensor_to_json(a)
    assert obj["components"][0] == "1/2"
