"""Reconstruction of K6 and I8 from the eleven-invariant basis."""

import itertools
import random
from fractions import Fraction

import pytest

from sym3inv import (
    ELEVEN_NAMES,
    ElevenBasis,
    HarmonicParts,
    InvariantVector,
    Traceless3Tensor,
    all_invariants,
    reconstruct_I8,
    reconstruct_K6,
)
from sym3inv.function_basis import FLOAT_ZERO_RTOL, recover_full_vector
from sym3inv.invariants import DEGREE
from sym3inv.relations import TEN_A, TEN_B

F = Fraction


def random_parts(rng, bound=9):
    d = Traceless3Tensor(tuple(rng.randint(-bound, bound) for _ in range(7)))
    return HarmonicParts(d, tuple(rng.randint(-bound, bound) for _ in range(3)))


def reconstruct_pair(h):
    iv = all_invariants(h)
    b = ElevenBasis.from_invariants(iv)
    k6 = reconstruct_K6(b)
    i8 = reconstruct_I8(b, k6)
    return iv, k6, i8


def test_eleven_names():
    assert ELEVEN_NAMES == ("I2", "J2", "I4", "J4", "K4", "L4", "I6", "J6", "L6", "M6", "I10")
    b = ElevenBasis(tuple(range(11)))
    assert [b[name] for name in ELEVEN_NAMES] == list(range(11))
    assert isinstance(b, InvariantVector) and b.as_dict() == dict(zip(ELEVEN_NAMES, range(11)))
    with pytest.raises(ValueError):
        ElevenBasis(tuple(range(13)))
    with pytest.raises(ValueError):
        b["K6"]


def test_zero_vector_branch():
    rng = random.Random(1)
    for _ in range(20):
        d = Traceless3Tensor(tuple(rng.randint(-9, 9) for _ in range(7)))
        iv, k6, i8 = reconstruct_pair(HarmonicParts(d, (0, 0, 0)))
        assert i8 == 0 and iv["I8"] == 0
        assert k6 == 0 and iv["K6"] == 0
        # the K6 denominator is exactly zero on this branch
        assert 2 * iv["I2"] * iv["J2"] - 3 * iv["J4"] == 0


def test_zero_deviator_branch():
    rng = random.Random(2)
    for _ in range(20):
        u = tuple(rng.randint(-9, 9) for _ in range(3))
        iv, k6, i8 = reconstruct_pair(HarmonicParts(Traceless3Tensor.zero(), u))
        assert k6 == 0 and iv["K6"] == 0
        assert i8 == 0 and iv["I8"] == 0
        assert 2 * iv["I2"] * iv["J2"] - 3 * iv["J4"] == 0


def test_reconstruction_matches_direct_on_100_random():
    rng = random.Random(3)
    checked = 0
    while checked < 100:
        h = random_parts(rng)
        if all(v == 0 for v in h.vector):
            continue
        iv, k6, i8 = reconstruct_pair(h)
        assert k6 == iv["K6"]
        assert i8 == iv["I8"]
        checked += 1


def test_reconstruction_at_l6_witness():
    h = HarmonicParts(Traceless3Tensor((0, 0, 0, 1, 0, 0, F(1, 2))), (1, 0, 0))
    iv, k6, i8 = reconstruct_pair(h)
    assert iv["J2"] == 1
    assert k6 == iv["K6"] == 0
    assert i8 == iv["I8"] == -9


def test_branch_characterization_sampled():
    rng = random.Random(4)
    for _ in range(300):
        h = random_parts(rng)
        iv = all_invariants(h)
        u_zero = all(v == 0 for v in h.vector)
        d_zero = all(v == 0 for v in h.deviator.components)
        assert (iv["J2"] == 0) == u_zero
        if 2 * iv["I2"] * iv["J2"] - 3 * iv["J4"] == 0:
            assert d_zero or u_zero


def test_gap_inequality_on_random_tensors():
    rng = random.Random(5)
    for _ in range(300):
        iv = all_invariants(random_parts(rng))
        assert 2 * iv["I2"] * iv["J2"] - 3 * iv["J4"] >= 0


def test_full_vector_recovery_smoke():
    rng = random.Random(6)
    for _ in range(100):
        h = random_parts(rng)
        iv = all_invariants(h)
        recovered = recover_full_vector(ElevenBasis.from_invariants(iv))
        assert recovered.values == iv.values


def test_float_field_reconstruction():
    rng = random.Random(7)
    for _ in range(50):
        d = Traceless3Tensor(tuple(rng.uniform(-2, 2) for _ in range(7)))
        u = tuple(rng.uniform(-2, 2) for _ in range(3))
        iv = all_invariants(HarmonicParts(d, u))
        b = ElevenBasis.from_invariants(iv)
        k6 = reconstruct_K6(b)
        i8 = reconstruct_I8(b, k6)
        assert abs(k6 - iv["K6"]) < 1e-8 * max(1.0, abs(iv["K6"]))
        assert abs(i8 - iv["I8"]) < 1e-8 * max(1.0, abs(iv["I8"]))


def test_float_degenerate_branch():
    d = Traceless3Tensor(tuple(float(x) for x in (1, 2, 0, -1, 3, 0, 2)))
    iv = all_invariants(HarmonicParts(d, (0.0, 0.0, 0.0)))
    b = ElevenBasis.from_invariants(iv)
    k6 = reconstruct_K6(b)
    assert k6 == 0.0
    assert reconstruct_I8(b, k6) == 0.0


def test_float_reconstruction_scale_free():
    # the branch tests are homogeneous: the same tensors rebuild to the same
    # relative accuracy whether D and u are scaled together or apart
    rng = random.Random(8)
    scales = (1e-8, 1e-5, 1e-2, 1.0, 1e3, 1e8)
    bidegree = {"K6": (4, 2), "I8": (7, 1)}
    for _ in range(20):
        h = random_parts(rng)
        if all(v == 0 for v in h.vector):
            continue
        exact = all_invariants(h)
        for sd in scales:
            for su in scales:
                d = Traceless3Tensor(tuple(float(x) * sd for x in h.deviator.components))
                u = tuple(float(x) * su for x in h.vector)
                iv, k6, i8 = reconstruct_pair(HarmonicParts(d, u))
                for name, got in (("K6", k6), ("I8", i8)):
                    a, b = bidegree[name]
                    size = abs(iv["I2"]) ** (a / 2) * abs(iv["J2"]) ** (b / 2)
                    want = float(exact[name]) * sd ** a * su ** b
                    assert abs(got - want) <= 1e-8 * size, (name, sd, su)
    d = Traceless3Tensor(tuple(float(x) for x in (1, 2, 0, -1, 3, 0, 2)))
    for s in scales:
        scaled = Traceless3Tensor(tuple(x * s for x in d.components))
        for parts in (HarmonicParts(scaled, (0.0, 0.0, 0.0)),
                      HarmonicParts(Traceless3Tensor.zero(), (s, -2 * s, 0.5 * s))):
            _, k6, i8 = reconstruct_pair(parts)
            assert k6 == 0.0 and i8 == 0.0


def reference_solve(table, target, vals, scale):
    """target from den*target + num = 0 in plain scalar arithmetic, term by term."""
    num = den = 0
    for term, coeff in table.items():
        prod = coeff
        for name, exp in term:
            if name != target:
                prod = prod * vals[name] ** exp
        if any(name == target for name, _ in term):
            den = den + prod
        else:
            num = num + prod
    if any(isinstance(x, float) for x in vals.values()):
        return 0.0 if abs(den) <= FLOAT_ZERO_RTOL * abs(scale) else -num / den
    return Fraction(0) if den == 0 else -Fraction(num) / Fraction(den)


def reference_pair(b):
    vals = b.as_dict()
    k6 = reference_solve(TEN_B, "K6", vals, vals["I2"] * vals["J2"])
    return k6, reference_solve(TEN_A, "I8", {**vals, "K6": k6}, vals["J2"])


def exact_scalar(rng, kind):
    """An int, a small p/q, a mixed choice of the two, or p/q with q up to 1e6."""
    if kind == "mixed":
        kind = rng.choice(("int", "small"))
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "small":
        return F(rng.randint(-30, 30), rng.randint(1, 6))
    return F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))


def typed(values):
    return [(type(x), x) for x in values]


def rebuilt_pair(b):
    k6 = reconstruct_K6(b)
    return k6, reconstruct_I8(b, k6)


def test_reconstruction_matches_fraction_reference_in_value_and_type():
    rng = random.Random(2028)
    for _ in range(25):
        for kind in ("int", "small", "mixed", "large"):
            for zero_d, zero_u in itertools.product((False, True), repeat=2):
                d = (0,) * 7 if zero_d else tuple(exact_scalar(rng, kind) for _ in range(7))
                u = (0,) * 3 if zero_u else tuple(exact_scalar(rng, kind) for _ in range(3))
                iv = all_invariants(HarmonicParts(Traceless3Tensor(d), u))
                b = ElevenBasis.from_invariants(iv)
                assert rebuilt_pair(b) == (iv["K6"], iv["I8"])
                # the basis values of a tensor, and arbitrary exact values
                for b in (b, ElevenBasis(tuple(exact_scalar(rng, kind) for _ in range(11)))):
                    assert typed(rebuilt_pair(b)) == typed(reference_pair(b))


def test_reconstruction_float_bit_identical_to_reference():
    rng = random.Random(2029)
    for _ in range(200):
        sd, su = 10.0 ** rng.randint(-8, 8), 10.0 ** rng.randint(-8, 8)
        d = Traceless3Tensor(tuple(rng.uniform(-2, 2) * sd for _ in range(7)))
        u = tuple(rng.uniform(-2, 2) * su for _ in range(3))
        for parts in (HarmonicParts(d, u), HarmonicParts(d, (0.0,) * 3)):
            b = ElevenBasis.from_invariants(all_invariants(parts))
            assert typed(rebuilt_pair(b)) == typed(reference_pair(b))


def test_degree_ten_relations_are_weighted_homogeneous_and_linear_in_target():
    # the integer rebuild scales x_n by m**deg(n): it needs every term of
    # weighted degree 10, every invariant of degree >= 2, and the target
    # at most linear in each term
    for table, target in ((TEN_A, "I8"), (TEN_B, "K6")):
        for term in table:
            assert sum(DEGREE[name] * exp for name, exp in term) == 10, term
            assert all(DEGREE[name] >= 2 for name, _ in term), term
            assert dict(term).get(target, 0) <= 1, term
        assert any(target in dict(term) for term in table)
