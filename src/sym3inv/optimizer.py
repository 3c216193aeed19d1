"""Numerical check of the gap inequality 2*I2*J2 - 3*J4 >= 0.

Minimizing 2*I2*J2 - 3*J4 over unit-norm pairs (D, u) probes the inequality's
sharp constant: the minimum over {I2(D) = 1, J2(u) = 1} is 0.2.  For fixed D
the objective is 2 - 3 u^T M(D) u with M(D)_kl = D_ijk D_ijl, so the optimal
unit u is the top eigenvector of M(D) and the search reduces to the
7-dimensional unit sphere of deviators.  The reduced problem is attacked by
multi-start projected gradient descent with Armijo backtracking.

All starts descend together as rows of one numpy array: the 7 -> 27 basis
map and the contractions are einsums and M(D) is diagonalized by
np.linalg.eigh over the stack.  Each start carries its Armijo step from one
iteration to the next, accepts only a strict decrease, and stops when its
gradient vanishes (GRAD_TOL) or its step underflows, i.e. when no descent is
left at working precision.  The best point's u is the descent's final top
eigenvector.  The sampler evaluates 2 - 3 |D.u|^2 on the same expansion.

This module certifies *consistency* with the 0.2 minimum claim - multi-start
local search plus large-sample probing - not global optimality.

All randomness is seeded; per-start trajectories depend only on
(seed, start index), not on how many starts run alongside.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .invariants import all_invariants
from .tensor_core import HarmonicParts, Traceless3Tensor, expand, orthonormalize

GRAD_TOL = 1e-9
ARMIJO_INIT = 0.5
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4
# accepted deviation of I2 and J2 from 1 in objective: loose enough for
# points specified to 4 significant digits
FEASIBILITY_TOL = 1e-3
UNIT_NORM_TOL = 1e-6  # accepted |squared norm - 1| of a deviator in inner_solve_u
SAMPLE_CHUNK = 10_000  # points per batch in sample_feasible_values; bounds its temporaries


# orthonormal basis (in the 27-entry Euclidean metric) of the deviator space, (7, 27)
_BASIS = np.array(orthonormalize(
    [e for plane in expand(Traceless3Tensor(unit)) for row in plane for e in row]
    for unit in np.eye(7).tolist()
))


def _expand(x):
    """27-entry expansions sum_a x[..., a] * basis[a] of coordinates x (..., 7).

    einsum rather than a matrix product: BLAS rounds differently with the
    batch size, einsum keeps each row equal to its single-row evaluation.
    """
    return np.einsum("...a,ai->...i", x, _BASIS)


def deviator_from_coords(x) -> Traceless3Tensor:
    """Deviator whose 27-entry expansion is sum_a x[a] * basis[a]."""
    return Traceless3Tensor._from_expanded(
        _expand(np.asarray(x, dtype=float)).reshape(3, 3, 3).tolist())


def coords_from_deviator(d: Traceless3Tensor):
    flat = np.ravel(np.array(expand(d), dtype=float))
    return np.einsum("ai,i->a", _BASIS, flat)


def symmetric_eigh3(m):
    """Eigenvalues (ascending) and eigenvectors (as rows) of a stack of symmetric 3x3s."""
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    return eigenvalues, np.swapaxes(eigenvectors, -1, -2)


def _defect(iv) -> float:
    """Largest distance of I2 and J2 from 1."""
    return max(abs(iv["I2"] - 1.0), abs(iv["J2"] - 1.0))


class FeasiblePoint(HarmonicParts):
    """Unit-norm deviator plus unit vector: I2(D) = 1, J2(u) = 1."""

    def feasibility_defect(self) -> float:
        return _defect(all_invariants(self))


def objective(p: FeasiblePoint) -> float:
    """2*I2*J2 - 3*J4 at a feasible point, evaluated through the invariants.

    Raises ValueError when I2 or J2 is further than FEASIBILITY_TOL from 1.
    """
    iv = all_invariants(p)
    defect = _defect(iv)
    if defect > FEASIBILITY_TOL:
        raise ValueError(f"infeasible point (defect {defect:.3e} > {FEASIBILITY_TOL:.1e})")
    return 2.0 * iv["I2"] * iv["J2"] - 3.0 * iv["J4"]


def _evaluate(x):
    """Reduced value, sphere-projected gradient and top eigenvector.

    One row of each per row of the unit coordinates x, shape (n, 7).
    """
    flat = _expand(x).reshape(-1, 9, 3)
    eigenvalues, eigenvectors = symmetric_eigh3(np.einsum("nak,nal->nkl", flat, flat))
    w = eigenvectors[:, -1]
    # d(lambda_max)/dD_ijl = 2 (sum_k D_ijk w_k) w_l
    g27 = 2.0 * np.einsum("nak,nk->na", flat, w)[:, :, None] * w[:, None, :]
    grad = -3.0 * np.einsum("ni,ai->na", g27.reshape(-1, 27), _BASIS)
    grad -= np.einsum("na,na->n", grad, x)[:, None] * x
    return 2.0 - 3.0 * eigenvalues[:, -1], grad, w


def inner_solve_u(d: Traceless3Tensor):
    """Optimal unit u for a unit-norm deviator, and the reduced objective.

    J4 = u^T M(D) u, so the best u is the top eigenvector of M(D) and the
    objective value is 2 - 3 * lambda_max(M(D)).
    """
    x = coords_from_deviator(d)
    norm2 = float(x @ x)
    if abs(norm2 - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"deviator norm^2 = {norm2:.6f}, expected 1")
    value, _, w = _evaluate(x[None, :])
    return tuple(w[0].tolist()), float(value[0])


def _normalize(x):
    return x / np.sqrt(np.einsum("...a,...a->...", x, x))[..., None]


def _descend(x, iters):
    """Projected gradient descent on the unit sphere, one start per row of x.

    Each start carries its own Armijo step: an iteration tries
    min(ARMIJO_INIT, twice the last accepted step) and shrinks it until the
    candidate is strictly below the current value and meets the Armijo
    condition.  A start stops when its gradient norm is at most GRAD_TOL or
    its step falls to 1e-16 (no descent at working precision).  Each row
    follows the trajectory it would follow alone.  Where the top two
    eigenvalues of M(D) cross, 2 - 3 lambda_max is the smaller of two smooth
    branches, so the gradient from either top eigenvector still descends and
    the Armijo search accepts a step there too.
    Returns the final coordinates, values and gradient norms, per start the
    accepted steps (moves) and rejected candidates (backtracks), and the
    final top eigenvectors (the optimal u of each row).
    """
    x = np.array(x, dtype=float)
    n = len(x)
    f, grad, grad_norm2 = np.empty(n), np.empty((n, 7)), np.empty(n)
    step = np.full(n, ARMIJO_INIT)
    moves, backtracks = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    running = np.ones(n, dtype=bool)
    for _ in range(iters):
        active = np.flatnonzero(running)
        if not active.size:
            break
        f[active], grad[active], _ = _evaluate(x[active])
        grad_norm2[active] = np.einsum("na,na->n", grad[active], grad[active])
        converged = np.sqrt(grad_norm2[active]) <= GRAD_TOL
        running[active[converged]] = False
        pending = active[~converged]
        step[pending] = np.minimum(ARMIJO_INIT, 2.0 * step[pending])
        while pending.size:
            candidate = _normalize(x[pending] - step[pending, None] * grad[pending])
            fc = _evaluate(candidate)[0]
            fs = f[pending]
            ok = (fc < fs) & (fc <= fs - ARMIJO_SLOPE * step[pending] * grad_norm2[pending])
            x[pending[ok]] = candidate[ok]
            moves[pending[ok]] += 1
            pending = pending[~ok]
            backtracks[pending] += 1
            step[pending] *= ARMIJO_SHRINK
            running[pending[step[pending] <= 1e-16]] = False
            pending = pending[step[pending] > 1e-16]
    f, grad, w = _evaluate(x)
    return x, f, np.sqrt(np.einsum("na,na->n", grad, grad)), moves, backtracks, w


@dataclass(frozen=True)
class MinimizeResult:
    """Best point of a descent.

    iterations (accepted steps) and backtracks (rejected Armijo
    candidates) are summed over all starts.
    """

    point: FeasiblePoint
    value: float
    grad_norm: float
    iterations: int
    backtracks: int


def _result(descent, s):
    """MinimizeResult for row s of a _descend output.

    The eigenvector u is fixed only up to sign, and J4 is even in u; the
    result takes the sign that makes u's first nonzero component positive.
    """
    x, f, grad_norm, moves, backtracks, w = descent
    u = w[s]
    if u[np.flatnonzero(u)[0]] < 0:
        u = -u
    return MinimizeResult(FeasiblePoint(deviator_from_coords(x[s]), tuple(u.tolist())),
                          float(f[s]), float(grad_norm[s]),
                          int(moves.sum()), int(backtracks.sum()))


def minimize(seed: int, starts: int, iters: int) -> MinimizeResult:
    """Multi-start projected gradient descent; deterministic in the seed."""
    if starts < 1 or iters < 1:
        raise ValueError("starts and iters must be >= 1")
    rngs = [random.Random(f"{seed}:{s}") for s in range(starts)]
    x0 = _normalize(np.array([[rng.gauss(0.0, 1.0) for _ in range(7)] for rng in rngs]))
    descent = _descend(x0, iters)
    s = int(np.argmin(descent[1]))  # ties go to the first start
    return _result(descent, s)


def refine_from(d: Traceless3Tensor, iters: int) -> MinimizeResult:
    """Run the descent from a given deviator (renormalized to the sphere)."""
    x = _normalize(coords_from_deviator(d))[None, :]
    return _result(_descend(x, iters), 0)


def sample_feasible_values(seed: int, count: int) -> np.ndarray:
    """Objective values at seeded random unit-norm (D, u) pairs, vectorized.

    Draws Gaussian deviator coordinates and vectors, normalizes both to the
    unit sphere (this is the homogeneity normalization of arbitrary pairs),
    and evaluates 2 - 3 J4 with J4 = sum_ij (D_ijk u_k)^2 = |D.u|^2.
    """
    rng = np.random.default_rng(seed)
    out = np.empty(count)
    done = 0
    while done < count:
        n = min(SAMPLE_CHUNK, count - done)
        x = rng.standard_normal((n, 7))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        u = rng.standard_normal((n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        du = np.einsum("nak,nk->na", _expand(x).reshape(n, 9, 3), u)
        out[done:done + n] = 2.0 - 3.0 * np.einsum("na,na->n", du, du)
        done += n
    return out
