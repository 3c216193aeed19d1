"""Eigenvalue reduction, projected gradient descent, and the 0.2 minimum check."""

import math
import random

import numpy as np
import pytest

from sym3inv import (
    FeasiblePoint,
    HarmonicParts,
    Traceless3Tensor,
    all_invariants,
    inner_solve_u,
    minimize,
    objective,
)
from sym3inv.optimizer import (
    SAMPLE_CHUNK,
    _descend,
    _evaluate,
    _normalize,
    coords_from_deviator,
    deviator_from_coords,
    refine_from,
    sample_feasible_values,
    symmetric_eigh3,
)
from sym3inv.tensor_core import expand

# best point reported for min {2 I2 J2 - 3 J4 : I2 = 1, J2 = 1}, 4 digits
MINIMIZER_DEVIATOR = Traceless3Tensor((0.2829, 0.0, 0.0, -0.2828, -0.2450, 0.0, -0.2828))
MINIMIZER_VECTOR = (-0.4471, -0.7746, -0.4474)


def unit_deviator(seed):
    rng = random.Random(seed)
    x = [rng.gauss(0, 1) for _ in range(7)]
    n = math.sqrt(sum(v * v for v in x))
    return deviator_from_coords([v / n for v in x])


def contraction_matrix_of(d):
    """Reference M(D)_kl = D_ijk D_ijl by plain loops over the expansion."""
    t = expand(d)
    return [[sum(t[i][j][k] * t[i][j][l] for i in range(3) for j in range(3))
             for l in range(3)] for k in range(3)]


def unit_starts(seed, n):
    """The start coordinates minimize(seed, n, ...) uses."""
    rngs = [random.Random(f"{seed}:{s}") for s in range(n)]
    return _normalize(np.array([[rng.gauss(0.0, 1.0) for _ in range(7)] for rng in rngs]))


# ---- eigensolver ----

def test_eigh3_against_numpy():
    rng = random.Random(0)
    stack = []
    for _ in range(200):
        m = [[rng.uniform(-3, 3) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i):
                m[i][j] = m[j][i]
        stack.append(m)
    stack = np.array(stack)
    all_vals, all_vecs = symmetric_eigh3(stack)
    for m, vals, vecs in zip(stack, all_vals, all_vecs):
        ref = np.linalg.eigvalsh(m)
        scale = max(1.0, np.abs(ref).max())
        assert np.allclose(vals, ref, atol=1e-12 * scale)
        for lam, w in zip(vals, vecs):
            resid = np.abs(m @ w - lam * w).max()
            assert resid < 1e-12 * scale


# ---- coordinates ----

def test_coords_roundtrip():
    rng = random.Random(1)
    x = [rng.gauss(0, 1) for _ in range(7)]
    back = coords_from_deviator(deviator_from_coords(x))
    assert all(abs(a - b) < 1e-12 for a, b in zip(x, back))


def test_unit_coords_give_unit_norm():
    d = unit_deviator(2)
    iv = all_invariants(HarmonicParts(d, (0, 0, 0)))
    assert abs(iv["I2"] - 1.0) < 1e-12


# ---- inner solve ----

def test_inner_solve_isotropic_case():
    # D123 = 1/sqrt(6) makes the contraction matrix (1/3) * identity
    d = Traceless3Tensor((0, 0, 0, 0, 1 / math.sqrt(6), 0, 0))
    m = contraction_matrix_of(d)
    for i in range(3):
        for j in range(3):
            assert abs(m[i][j] - (1 / 3 if i == j else 0)) < 1e-12
    u, value = inner_solve_u(d)
    assert abs(value - 1.0) < 1e-12
    assert abs(sum(x * x for x in u) - 1) < 1e-12


def test_inner_solve_at_renormalized_minimizer():
    iv = all_invariants(HarmonicParts(MINIMIZER_DEVIATOR, (0, 0, 0)))
    scale = 1 / math.sqrt(iv["I2"])
    d = Traceless3Tensor(tuple(scale * c for c in MINIMIZER_DEVIATOR.components))
    u, value = inner_solve_u(d)
    assert abs(value - 0.2) < 2e-3
    # the optimal direction agrees with the reported vector up to overall sign
    dots = abs(sum(a * b for a, b in zip(u, MINIMIZER_VECTOR)))
    assert dots > 0.999


def test_inner_solve_against_numpy_oracle():
    for seed in range(100):
        d = unit_deviator(seed)
        _, value = inner_solve_u(d)
        lam = np.linalg.eigvalsh(np.array(contraction_matrix_of(d)))[-1]
        assert abs(value - (2 - 3 * lam)) < 1e-9


def test_inner_solve_rejects_unnormalized():
    d = Traceless3Tensor((1.0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        inner_solve_u(d)


# ---- objective ----

def test_objective_at_printed_minimizer():
    value = objective(FeasiblePoint(MINIMIZER_DEVIATOR, MINIMIZER_VECTOR))
    assert abs(value - 0.2) < 2e-3


def test_objective_range_on_feasible_points():
    rng = random.Random(3)
    for seed in range(200):
        d = unit_deviator(seed)
        u = [rng.gauss(0, 1) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in u))
        p = FeasiblePoint(d, tuple(x / n for x in u))
        value = objective(p)
        assert -1e-12 <= value <= 2 + 1e-12


def test_feasible_point_is_harmonic_parts_with_a_3_vector():
    d = unit_deviator(1)
    p = FeasiblePoint(d, [0.0, 0.6, 0.8])
    assert isinstance(p, HarmonicParts) and p.vector == (0.0, 0.6, 0.8)
    assert p.feasibility_defect() < 1e-12
    with pytest.raises(ValueError):
        FeasiblePoint(d, (1.0, 0.0))


def test_objective_rejects_infeasible():
    d = Traceless3Tensor((2.0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        objective(FeasiblePoint(d, (1.0, 0.0, 0.0)))


def test_j4_is_a_sum_of_squares():
    # J4 = sum_ij (sum_k D_ijk u_k)^2, which also bounds the objective by 2
    rng = random.Random(4)
    for _ in range(100):
        d = Traceless3Tensor(tuple(rng.uniform(-2, 2) for _ in range(7)))
        u = tuple(rng.uniform(-2, 2) for _ in range(3))
        iv = all_invariants(HarmonicParts(d, u))
        t = expand(d)
        sos = sum(
            sum(t[i][j][k] * u[k] for k in range(3)) ** 2
            for i in range(3) for j in range(3)
        )
        assert abs(iv["J4"] - sos) < 1e-9 * max(1.0, abs(iv["J4"]))


# ---- gradient ----

def test_gradient_matches_finite_differences():
    h = 1e-5
    xs = []
    for seed in range(100):
        rng = random.Random(seed)
        x = [rng.gauss(0, 1) for _ in range(7)]
        n = math.sqrt(sum(v * v for v in x))
        xs.append([v / n for v in x])
    xs = np.array(xs)
    _, grads, _ = _evaluate(xs)
    eigenvalues, _ = symmetric_eigh3(
        np.array([contraction_matrix_of(deviator_from_coords(x)) for x in xs]))
    gaps = eigenvalues[:, -1] - eigenvalues[:, -2]
    shifts = h * np.eye(7)
    fp = _evaluate(_normalize((xs[:, None, :] + shifts).reshape(-1, 7)))[0].reshape(-1, 7)
    fm = _evaluate(_normalize((xs[:, None, :] - shifts).reshape(-1, 7)))[0].reshape(-1, 7)
    for seed, (grad, gap, fd) in enumerate(zip(grads, gaps, (fp - fm) / (2 * h))):
        if gap < 1e-4:
            continue  # nonsmooth near an eigenvalue crossing
        diff = np.linalg.norm(grad - fd)
        norm = np.linalg.norm(grad)
        assert diff <= 1e-5 * max(1.0, norm), (seed, diff, norm)


# ---- minimize ----

def test_minimize_small_run_reaches_claimed_minimum():
    res = minimize(seed=7, starts=30, iters=300)
    assert abs(res.value - 0.2) < 1e-3
    assert res.value >= 0.2 - 1e-6
    assert res.point.feasibility_defect() < 1e-10


def test_minimize_deterministic():
    a = minimize(seed=11, starts=5, iters=100)
    b = minimize(seed=11, starts=5, iters=100)
    assert a == b


def test_minimize_point_consistent_with_value():
    res = minimize(seed=13, starts=3, iters=200)
    assert abs(objective(res.point) - res.value) < 1e-9


def test_minimize_never_below_floor_across_seeds():
    for seed in (1, 2, 3):
        res = minimize(seed=seed, starts=5, iters=150)
        assert res.value >= 0.2 - 1e-6


def test_minimize_vector_has_a_canonical_sign():
    # u and -u give the same objective; the first nonzero component is positive
    for seed, starts, iters in ((2024, 20, 500), (7, 30, 300), (11, 5, 100)):
        u = minimize(seed=seed, starts=starts, iters=iters).point.vector
        assert next(x for x in u if x != 0) > 0, (seed, u)


def test_minimize_validates_arguments():
    with pytest.raises(ValueError):
        minimize(seed=1, starts=0, iters=10)


def test_descent_from_printed_minimizer():
    res = refine_from(MINIMIZER_DEVIATOR, iters=500)
    assert abs(res.value - 0.2) < 1e-3
    assert res.grad_norm <= 1e-6


def test_descent_from_printed_minimizer_stops_early():
    # the step underflows at the minimum instead of backtracking every iteration
    res = refine_from(MINIMIZER_DEVIATOR, iters=500)
    assert res.iterations < 100
    assert res.backtracks < 100


def test_minimize_starts_stop_at_working_precision():
    # a start at the minimum stops once no candidate is strictly lower,
    # instead of accepting equal values until its 500 iterations run out
    res = minimize(seed=2024, starts=20, iters=500)
    assert res.iterations < 20 * 100


def test_batched_descent_rows_equal_single_starts():
    x0 = unit_starts(2024, 20)
    batched = _descend(x0, 500)
    for s in range(20):
        single = _descend(x0[s:s + 1], 500)
        assert all(np.array_equal(a[s], b[0]) for a, b in zip(batched, single)), s


def test_descent_from_an_eigenvalue_crossing_reaches_the_minimum():
    # D111 = 1, D122 = -1 gives M(D) a doubled top eigenvalue; the gradient
    # from either top eigenvector descends from there
    x = _normalize(coords_from_deviator(Traceless3Tensor((1.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0))))
    eigenvalues, _ = symmetric_eigh3(np.array(contraction_matrix_of(deviator_from_coords(x))))
    assert eigenvalues[2] - eigenvalues[1] < 1e-12
    _, f, grad_norm, _, _, _ = _descend(x[None, :], 500)
    assert abs(f[0] - 0.2) < 1e-9
    assert grad_norm[0] <= 1e-6


def test_sampled_objective_floor_and_nonnegativity():
    values = sample_feasible_values(seed=99, count=1_000_000)
    assert values.min() >= 0.2 - 1e-6
    assert values.min() >= -1e-9  # the gap inequality, normalized form
    assert values.max() <= 2 + 1e-12


def test_sampled_values_are_the_gap_at_the_drawn_pairs():
    # rebuild each pair from the generator in the sampler's draw order (per
    # chunk the (n, 7) deviator block, then the (n, 3) vector block) and
    # evaluate the gap through the invariants, across a chunk boundary
    seed, count = 31, SAMPLE_CHUNK + 3
    values = sample_feasible_values(seed, count)
    rng = np.random.default_rng(seed)
    pairs = []
    for n in (SAMPLE_CHUNK, 3):
        x = rng.standard_normal((n, 7))
        u = rng.standard_normal((n, 3))
        pairs += zip(x / np.linalg.norm(x, axis=1, keepdims=True),
                     u / np.linalg.norm(u, axis=1, keepdims=True))
    for i in (0, 1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 2):
        x, u = pairs[i]
        iv = all_invariants(HarmonicParts(deviator_from_coords(x), tuple(u.tolist())))
        assert abs(values[i] - (2 * iv["I2"] * iv["J2"] - 3 * iv["J4"])) < 1e-12, i


def test_best_point_vector_is_the_optimal_u_of_its_deviator():
    res = minimize(seed=2024, starts=20, iters=500)
    u, _ = inner_solve_u(res.point.deviator)
    sign = 1.0 if np.dot(res.point.vector, u) > 0 else -1.0
    assert np.abs(np.array(res.point.vector) - sign * np.array(u)).max() < 1e-12
    assert abs(objective(res.point) - res.value) < 1e-12


def test_equality_characterization_sampled():
    # exact equality in the gap occurs only on the degenerate rays
    rng = random.Random(5)
    for _ in range(300):
        d = Traceless3Tensor(tuple(rng.uniform(-2, 2) for _ in range(7)))
        u = tuple(rng.uniform(-2, 2) for _ in range(3))
        iv = all_invariants(HarmonicParts(d, u))
        gap = 2 * iv["I2"] * iv["J2"] - 3 * iv["J4"]
        if abs(gap) < 1e-12:
            d_norm = math.sqrt(iv["I2"])
            u_norm = math.sqrt(iv["J2"])
            assert d_norm < 1e-9 or u_norm < 1e-9
    # the degenerate rays themselves hit zero exactly
    iv = all_invariants(HarmonicParts(Traceless3Tensor.zero(), (1.0, 2.0, 3.0)))
    assert 2 * iv["I2"] * iv["J2"] - 3 * iv["J4"] == 0
