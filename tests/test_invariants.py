"""Invariant evaluation: golden witness values, metadata, and the core properties."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sym3inv import (
    BIDEGREE,
    DEGREE,
    EVEN_UNDER_FLIP,
    FLOAT,
    NAMES,
    ODD_UNDER_FLIP,
    RATIONAL,
    HarmonicParts,
    InvariantVector,
    Sym3Tensor,
    Traceless3Tensor,
    all_invariants,
    decompose,
    invariants_of,
    random_orthogonal,
    random_sym3,
    reference_invariants,
    rotate,
    deviator_invariants,
    expand,
)
from sym3inv.invariants import _bvw

F = Fraction

L6_WITNESS = Sym3Tensor((F(3, 5), 0, 0, F(6, 5), 0, F(-4, 5), 0, F(1, 2), 0, F(-1, 2)))
L6_DEVIATOR = Traceless3Tensor((0, 0, 0, 1, 0, 0, F(1, 2)))

L6_EXPECTED = {
    "I2": 7, "J2": 1, "I4": F(37, 2), "J4": 2, "K4": 0, "L4": 0,
    "I6": 4, "J6": 0, "L6": -2, "M6": 0, "I10": 4,
}


def random_parts(rng, bound=9):
    d = Traceless3Tensor(tuple(rng.randint(-bound, bound) for _ in range(7)))
    return HarmonicParts(d, tuple(rng.randint(-bound, bound) for _ in range(3)))


# ---- metadata ----

def test_degree_table():
    assert [DEGREE[n] for n in NAMES] == [2, 2, 4, 4, 4, 4, 6, 6, 6, 6, 6, 8, 10]


def test_parity_table():
    assert EVEN_UNDER_FLIP == {"I2", "J2", "I4", "J4", "I6", "K6", "M6", "I10"}
    assert ODD_UNDER_FLIP == {"K4", "L4", "J6", "L6", "I8"}


def test_bidegree_consistency():
    for n in NAMES:
        a, b = BIDEGREE[n]
        assert a + b == DEGREE[n]
        assert (b % 2 == 0) == (n in EVEN_UNDER_FLIP)


def test_invariant_vector_metadata_access():
    assert InvariantVector.degree("I10") == 10
    assert InvariantVector.parity("K4") == "odd"
    assert InvariantVector.parity("M6") == "even"


def test_invariant_vector_lookup_by_name():
    iv = InvariantVector(tuple(range(13)))
    assert [iv[name] for name in NAMES] == list(range(13))
    with pytest.raises(ValueError):
        iv["K8"]


# ---- auxiliary vectors ----

def v_vector(d):
    return _bvw(expand(d), (0, 0, 0))[1]


def w_vector(d, u):
    return _bvw(expand(d), u)[2]


def test_v_vector_zero():
    assert v_vector(Traceless3Tensor.zero()) == (0, 0, 0)


def test_v_vector_l6_witness_self_dot():
    v = v_vector(L6_DEVIATOR)
    assert sum(x * x for x in v) == 4  # I6 of the witness


def test_v_vector_cubic_homogeneity():
    rng = random.Random(2)
    d = Traceless3Tensor(tuple(rng.randint(-9, 9) for _ in range(7)))
    t = F(3, 2)
    scaled = Traceless3Tensor(tuple(t * c for c in d.components))
    assert v_vector(scaled) == tuple(t ** 3 * x for x in v_vector(d))


def test_w_vector_contracts():
    rng = random.Random(3)
    d = Traceless3Tensor(tuple(rng.randint(-9, 9) for _ in range(7)))
    assert w_vector(d, (0, 0, 0)) == (0, 0, 0)
    assert w_vector(Traceless3Tensor.zero(), (1, 2, 3)) == (0, 0, 0)
    u = (2, -3, 5)
    assert w_vector(d, u) == w_vector(d, tuple(-x for x in u))


# ---- golden values ----

def test_l6_witness_values_exact():
    iv = invariants_of(L6_WITNESS)
    for name, expected in L6_EXPECTED.items():
        assert iv[name] == expected, name
    # the decomposed route gives the same vector
    assert all_invariants(decompose(L6_WITNESS)).values == iv.values


def test_k4_witness_values_float():
    s2, s3, s6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)
    a = Sym3Tensor((
        3 / (5 * s2), s3 / 10, 1 / 10, 4 * s2 / 15 - 1 / s3, 1 / 3 + 1 / s6,
        -s2 / 15 + 1 / s3, 3 * s3 / 10, -9 / 10, s3 / 10, 13 / 10,
    ))
    iv = invariants_of(a)
    expected = {
        "K4": F(8, 9), "I2": 8, "J2": F(3, 2), "I4": F(88, 3), "J4": F(8, 3),
        "I6": F(64, 9), "M6": F(11, 9), "I10": F(11776, 729),
        "L4": 0, "J6": 0, "L6": 0,
    }
    for name, val in expected.items():
        assert abs(iv[name] - float(val)) < 1e-10, name


def test_m6_witness_family():
    def parts(a, b, c, d):
        return HarmonicParts(Traceless3Tensor((0, 0, 0, 0, d, 0, 0)), (5 * a, 5 * b, 5 * c))

    iv = all_invariants(parts(0, 0, 1, 1))
    assert (iv["I2"], iv["J2"], iv["I4"], iv["J4"], iv["M6"]) == (6, 25, 12, 50, 0)
    for name in ("K4", "L4", "I6", "J6", "L6", "I10"):
        assert iv[name] == 0, name

    r = math.sqrt(2) / 2
    iv2 = all_invariants(parts(r, r, 0, 1))
    for name in ("I2", "J2", "I4", "J4"):
        assert abs(iv2[name] - iv[name]) < 1e-9
    assert abs(iv2["M6"] - 625) < 1e-9


# ---- deviator_invariants ----

def test_deviator_invariants_zero():
    assert deviator_invariants(Traceless3Tensor.zero()) == {"I2": 0, "I4": 0, "I6": 0, "I10": 0}


def test_deviator_invariants_l6_witness():
    assert deviator_invariants(L6_DEVIATOR) == {"I2": 7, "I4": F(37, 2), "I6": 4, "I10": 4}


def test_deviator_invariants_agrees_with_full_vector():
    rng = random.Random(11)
    for _ in range(100):
        d = Traceless3Tensor(tuple(rng.randint(-9, 9) for _ in range(7)))
        iv = all_invariants(HarmonicParts(d, (0, 0, 0)))
        sb = deviator_invariants(d)
        assert all(sb[n] == iv[n] for n in sb)


# ---- properties ----

def test_zero_tensor_all_invariants_zero():
    iv = invariants_of(Sym3Tensor.zero())
    assert all(v == 0 for v in iv.values)


def test_oracle_equivalence_fast_vs_reference():
    rng = random.Random(21)
    for _ in range(100):
        h = random_parts(rng)
        assert all_invariants(h).values == reference_invariants(h).values


def test_fraction_entries_match_reference_values_and_types():
    # rational parts are contracted in integers after clearing denominators;
    # values and int/Fraction types must be those of plain Fraction arithmetic
    rng = random.Random(24)

    def entry(kind):
        return (rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 12)),
                F(rng.randint(-9, 9)), 0)[kind]

    # kinds 0-3: all int, all p/q, all Fraction(n), all 0; kind 4: mixed
    for dk, uk in ((dk, uk) for dk in range(5) for uk in range(5)):
        d = tuple(entry(dk if dk < 4 else rng.randrange(4)) for _ in range(7))
        u = tuple(entry(uk if uk < 4 else rng.randrange(4)) for _ in range(3))
        h = HarmonicParts(Traceless3Tensor(d), u)
        got, want = all_invariants(h).values, reference_invariants(h).values
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]


def test_parity_under_vector_flip():
    rng = random.Random(22)
    for _ in range(300):
        h = random_parts(rng)
        iv = all_invariants(h)
        flipped = all_invariants(h.flip_vector())
        for n in EVEN_UNDER_FLIP:
            assert flipped[n] == iv[n], n
        for n in ODD_UNDER_FLIP:
            assert flipped[n] == -iv[n], n


def test_homogeneity_exact():
    rng = random.Random(23)
    for _ in range(50):
        a = random_sym3(rng.randint(0, 10 ** 9), RATIONAL, 9)
        t = F(rng.randint(1, 9), rng.randint(1, 9)) * (-1) ** rng.randint(0, 1)
        scaled = Sym3Tensor(tuple(t * c for c in a.components))
        iv, ivs = invariants_of(a), invariants_of(scaled)
        for n in NAMES:
            assert ivs[n] == t ** DEGREE[n] * iv[n], n


def test_isotropy_under_random_rotations():
    for i in range(300):
        a = random_sym3(10_000 + i, FLOAT, 2)
        q = random_orthogonal(20_000 + i, 1 if i % 2 == 0 else -1)
        before = invariants_of(a)
        after = invariants_of(rotate(a, q))
        for n in NAMES:
            err = abs(after[n] - before[n]) / max(1.0, abs(before[n]))
            assert err < 1e-9, (n, err)


def test_float_path_accuracy_against_exact():
    rng = random.Random(31)
    for _ in range(50):
        dc = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(7))
        u = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        exact = all_invariants(HarmonicParts(Traceless3Tensor(dc), u))
        approx = all_invariants(HarmonicParts(
            Traceless3Tensor(tuple(float(x) for x in dc)),
            tuple(float(x) for x in u),
        ))
        for n in NAMES:
            err = abs(approx[n] - float(exact[n])) / max(1.0, abs(float(exact[n])))
            assert err < 1e-11, (n, err)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=10, max_size=10))
def test_parity_hypothesis(entries):
    h = HarmonicParts(Traceless3Tensor(tuple(entries[:7])), tuple(entries[7:]))
    iv = all_invariants(h)
    flipped = all_invariants(h.flip_vector())
    assert all(flipped[n] == iv[n] for n in EVEN_UNDER_FLIP)
    assert all(flipped[n] == -iv[n] for n in ODD_UNDER_FLIP)


def test_rational_isotropy_under_signed_permutation_exact():
    from sym3inv import Orthogonal3

    q = Orthogonal3(((0, -1, 0), (0, 0, 1), (-1, 0, 0)))  # det +1, exact
    for seed in range(20):
        a = random_sym3(seed, RATIONAL, 9)
        before, after = invariants_of(a), invariants_of(rotate(a, q))
        assert before.values == after.values
