"""Reconstruction of K6 and I8 from the eleven-invariant basis."""

import random
from fractions import Fraction

import pytest

from sym3inv import (
    ELEVEN_NAMES,
    ElevenBasis,
    HarmonicParts,
    Traceless3Tensor,
    all_invariants,
    reconstruct_I8,
    reconstruct_K6,
)
from sym3inv.function_basis import recover_full_vector

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
