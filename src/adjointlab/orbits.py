"""Adjoint orbit sums: hull certificates, replication, walks, and zero tuples.

The centerpiece is the hull certificate zero_in_hull_interior — convex
coefficients placing 0 strictly inside the hull of a vector family, or None
when the family admits none — plus two bounded random searches: one for a
vanishing orbit sum of TUPLE_SIZE elements with a submersive linearization,
by compactform.gauss_newton on the orbit-sum Jacobian, and one for a
configuration whose orbit points hold 0 strictly inside their hull. Each
raises StagnationError when its tries run out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, prod

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
# sample_spanning_configuration: tuples tried, each of 4 (dim + 1) elements
# (dim + 1 symmetric points surround 0 with probability only 2^-dim, Wendel
# 1962; four times as many certify on the first try almost always)
SPAN_TRIES = 8
# find_vanishing_submersive_tuple: the tuple size, random starts, and the
# Gauss-Newton residual target and iteration cap
TUPLE_SIZE = 3
STARTS = 8
SOLVE_TOL = 1e-10
SOLVE_MAX_ITER = 200


class StagnationError(RuntimeError):
    """An orbit search ran out of tries: an outcome of the search, as
    opposed to a fault inside it."""


@dataclass
class HullCertificate:
    """Convex coefficients witnessing 0 strictly inside the hull."""

    coefficients: np.ndarray
    margin: float
    residual: float


@dataclass
class ReplicationPlan:
    """Rational surrogate weights and the replication counts they induce.

    fractions[i] = p_i / q_i is within delta of the requested weight; counts[i]
    is p_i * Q / q_i with Q = prod_j q_j, and total = sum(counts) — all exact integers.
    """

    fractions: list[Fraction]
    counts: list[int]
    total: int


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


def sample_spanning_configuration(basis: CompactAlgebraBasis, x, rng: np.random.Generator):
    """Random g-tuples of 4 (dim + 1) elements, up to SPAN_TRIES of them,
    until the orbit vectors put 0 strictly inside their hull. Returns (gs,
    certificate); raises StagnationError when no tuple certifies."""
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) < 1e-12:
        raise ValueError("X = 0 has orbit {0}; no spanning configuration exists")
    for _ in range(SPAN_TRIES):
        gs = random_group_element(basis, rng, 4 * (basis.dim + 1))
        cert = zero_in_hull_interior(gs @ x)
        if cert is not None:
            return gs, cert
    raise StagnationError(f"no spanning configuration certified in {SPAN_TRIES} tries")


# -- rational replication -----------------------------------------------------


def simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """Minimal-denominator rational in the closed interval [lo, hi], 0 < lo <= hi.

    Classic Stern-Brocot / continued-fraction descent: if the interval contains
    an integer, the smallest such integer wins; otherwise recurse on the
    reciprocal of the fractional parts.
    """
    if not (0 < lo <= hi):
        raise ValueError("need 0 < lo <= hi")
    c = Fraction(ceil(lo))
    if c <= hi:
        return c
    base = Fraction(floor(lo))
    return base + 1 / simplest_in_interval(1 / (hi - base), 1 / (lo - base))


def replication_plan(weights, delta: float) -> ReplicationPlan:
    """Approximate each weight by a minimal-denominator rational within delta
    and compute the induced replication counts (all integer arithmetic)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    fractions = []
    for a in weights:
        a = Fraction(float(a))
        if a <= 0:
            raise ValueError("weights must be positive")
        lo = a - Fraction(float(delta))
        hi = a + Fraction(float(delta))
        if lo <= 0:
            lo = min(a, Fraction(1, 2**60))
        fractions.append(simplest_in_interval(lo, hi))
    q = prod(f.denominator for f in fractions)
    counts = [f.numerator * (q // f.denominator) for f in fractions]
    return ReplicationPlan(fractions=fractions, counts=counts, total=sum(counts))


# -- lattice walk -------------------------------------------------------------


def lattice_ray_walk(a, steps: int) -> np.ndarray:
    """Unit-step lattice walk hugging the ray through a (componentwise > 0).

    Coordinate j makes its m-th unit step at time m / a_j; the walk takes
    these events in ascending time, ties breaking toward the smaller index.
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
    idx = np.repeat(np.arange(n), steps)
    picks = idx[np.lexsort((idx, times.ravel()))[:steps]]
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
        (gs,), (resid,), _ = gauss_newton(
            basis, gs0[None], residual, jacobian, SOLVE_TOL, SOLVE_MAX_ITER
        )
        if resid <= SOLVE_TOL and (rank := orbit_sum_rank(basis, x, gs)) == basis.dim:
            return gs, float(resid), rank
    raise StagnationError(f"Gauss-Newton stagnated from {STARTS} starts; reseed advised")
