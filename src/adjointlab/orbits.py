"""Adjoint orbit sums: hull certificates, walks, and zero tuples.

The centerpiece is the hull certificate zero_in_hull_interior — convex
coefficients placing 0 strictly inside the hull of a vector family, or None
when the family admits none — plus a bounded random search for a vanishing
orbit sum of TUPLE_SIZE elements with a submersive linearization, by
compactform.gauss_newton on the orbit-sum Jacobian, which raises
StagnationError when its starts run out. A vanishing tuple stays vanishing
under any Ad(h), so its conjugates sum to 0 with uniform weights: the family
whose hull the orbit experiment certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .compactform import (
    CompactAlgebraBasis,
    ad,
    gauss_newton,
    group_exp,
    numerical_rank,
    project_orthogonal,
    sample_unit,
)

# least convex coefficient of a hull certificate, on the family scaled to
# largest norm 1
HULL_MARGIN_TOL = 1e-9
# find_vanishing_submersive_tuple: the tuple size, random starts, and the
# Gauss-Newton residual target and iteration cap
TUPLE_SIZE = 3
STARTS = 8
SOLVE_TOL = 1e-10
SOLVE_MAX_ITER = 200


class StagnationError(RuntimeError):
    """An orbit search ran out of tries, or its family certified no hull:
    an outcome of the experiment, as opposed to a fault inside it."""


@dataclass
class HullCertificate:
    """Convex coefficients witnessing 0 strictly inside the hull."""

    coefficients: np.ndarray
    margin: float
    residual: float


# -- basic orbit maps ---------------------------------------------------------


def orbit_sum(x, gs) -> np.ndarray:
    """Ad(g_1)X + ... + Ad(g_n)X for tuples gs of shape (..., n, dim, dim)."""
    return (np.asarray(gs, dtype=float) @ np.asarray(x, dtype=float)).sum(axis=-2)


def orbit_sum_rank(basis: CompactAlgebraBasis, x, gs) -> int:
    """Rank of the linearized orbit-sum map at (g_1..g_n).

    Columns are bracket(e_j, Ad(g_i)X) over the algebra basis e_j and all i;
    full rank (= dim) means the tuple is a submersion point.
    """
    return numerical_rank(_orbit_jacobian(basis, x, gs))


def _orbit_jacobian(basis, x, gs) -> np.ndarray:
    """[-ad y_1 | -ad y_2 | ...] with y_i = Ad(g_i)X, for tuples of shape
    (..., n, dim, dim): block i is the derivative of exp(ad u) g_i in
    direction u."""
    ys = np.asarray(gs, float) @ np.asarray(x, float)
    return np.concatenate(np.moveaxis(-ad(basis, ys), -3, 0), axis=-1)


def random_group_element(basis: CompactAlgebraBasis, rng: np.random.Generator, n: int):
    """n reasonably spread random Ad matrices, stacked (n, dim, dim) (not
    exactly Haar; good enough for seeding searches)."""
    a = sample_unit(basis, rng, n) * rng.uniform(0.0, np.pi, (n, 1))
    b = sample_unit(basis, rng, n) * rng.uniform(0.0, np.pi, (n, 1))
    return project_orthogonal(group_exp(basis, a) @ group_exp(basis, b))


# -- hull certificate ---------------------------------------------------------


def zero_in_hull_interior(vectors):
    """Certify that 0 lies strictly inside the convex hull of the vectors.

    Returns a HullCertificate (coefficients >= HULL_MARGIN_TOL, family of
    full rank), or None when no certificate exists at that tolerance: the
    family is zero or rank-deficient, 0 lies outside or on the boundary of
    its hull, or the margin falls below the tolerance. The input is
    normalized by its largest norm first, so any positive rescaling of the
    family gets the same verdict.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    n, d = v.shape
    scale = float(np.max(np.linalg.norm(v, axis=1))) if n else 0.0
    if scale < 1e-14:
        return None
    v = v / scale
    if numerical_rank(v) < d:
        return None
    # margin LP: maximize m s.t. sum_i (m + s_i) v_i = 0, sum_i (m + s_i) = 1, m,s >= 0
    a_eq = np.zeros((d + 1, n + 1))
    a_eq[:d, 0] = v.sum(axis=0)
    a_eq[:d, 1:] = v.T
    a_eq[d, 0] = n
    a_eq[d, 1:] = 1.0
    b_eq = np.zeros(d + 1)
    b_eq[d] = 1.0
    c = np.zeros(n + 1)
    c[0] = -1.0
    res = simplex.solve_lp(c, a_eq, b_eq)
    if res.status != simplex.OPTIMAL:
        return None
    a = res.x[0] + res.x[1:]
    margin = float(a.min())
    if margin < HULL_MARGIN_TOL:
        return None
    residual = float(np.linalg.norm(a @ v)) * scale
    return HullCertificate(coefficients=a, margin=margin, residual=residual)


# -- lattice walk -------------------------------------------------------------


def lattice_ray_walk(a, steps: int) -> np.ndarray:
    """Unit-step lattice walk hugging the ray through a (componentwise > 0).

    Coordinate j makes its m-th unit step at time m / a_j; the walk takes
    these events in ascending time, by one stable sort of the times listed
    coordinate by coordinate, so ties break toward the smaller index.
    Returns the visited points, shape (steps, n): row k counts each
    coordinate's steps among the first k + 1 events, and every point is
    within sqrt(2n) of the ray.
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    if np.any(a <= 0):
        raise ValueError("ray coefficients must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    # no coordinate steps more than `steps` times among the first `steps` events
    times = np.arange(1, steps + 1) / a[:, None]
    picks = np.argsort(times.ravel(), kind="stable")[:steps] // steps
    return np.cumsum(np.eye(n, dtype=np.int64)[picks], axis=0)


def distance_to_ray(points, a) -> np.ndarray:
    """Euclidean distance from each point to the ray {t a : t >= 0}."""
    a = np.asarray(a, dtype=float)
    p = np.asarray(points, dtype=float)
    t = np.clip(p @ a / (a @ a), 0.0, None)
    return np.linalg.norm(p - np.outer(t, a), axis=1)


def bounded_partial_sum_sequence(vectors, weights, length: int) -> np.ndarray:
    """Order length picks from {v_i} so all partial sums stay small.

    Requires sum_i a_i v_i = 0 (to 1e-9 of the scale). Returns the
    lattice-ray walk through the weights, shape (length, n): row k counts
    each vector's uses among the first k + 1 picks, so walk @ vectors are
    the partial sums, each within R = n sqrt(2n) max_j |v_j|.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    a = np.asarray(weights, dtype=float)
    resid = np.linalg.norm(a @ v)
    scale = max(1.0, float(np.abs(v).max()))
    if resid > 1e-9 * scale:
        raise ValueError(f"sum_i a_i v_i = 0 violated (residual {resid:.2e})")
    return lattice_ray_walk(a, length)


# -- Gauss-Newton refinement ---------------------------------------------------


def find_vanishing_submersive_tuple(basis: CompactAlgebraBasis, x, rng: np.random.Generator):
    """Find gs, shape (TUPLE_SIZE, dim, dim), with orbit_sum = 0 and full rank.

    Runs compactform.gauss_newton to SOLVE_TOL from up to STARTS random
    starts and returns (gs, residual, rank) of the first start that
    accepts: |orbit_sum| <= SOLVE_TOL and orbit_sum_rank = dim. Raises
    StagnationError if every start stagnates.
    """
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) < 1e-12:
        raise ValueError("X = 0 is a fixed point; nothing to solve")

    def residual(gs, rows):  # every member solves for the same X
        r = orbit_sum(x, gs)
        return np.linalg.norm(r, axis=-1), r, gs

    def jacobian(gs):
        return _orbit_jacobian(basis, x, gs)

    for _ in range(STARTS):
        gs0 = random_group_element(basis, rng, TUPLE_SIZE)
        (gs,), (resid,) = gauss_newton(
            basis, gs0[None], residual, jacobian, SOLVE_TOL, SOLVE_MAX_ITER
        )
        if resid <= SOLVE_TOL and (rank := orbit_sum_rank(basis, x, gs)) == basis.dim:
            return gs, float(resid), rank
    raise StagnationError(f"Gauss-Newton stagnated from {STARTS} starts; reseed advised")
