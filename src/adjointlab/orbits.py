"""Adjoint orbit sums: hull certificates, replication, walks, and zero tuples.

The centerpiece is the dichotomy solver zero_in_hull_interior — every vector
family either gets convex coefficients placing 0 strictly inside its hull, or
a half-space functional showing it cannot — plus the search that turns
"0 is near the hull interior" into an exact vanishing orbit sum with a
submersive linearization, by compactform.gauss_newton on the orbit-sum
Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import simplex
from .compactform import (
    CompactAlgebraBasis,
    ad,
    gauss_newton,
    group_exp,
    killing_norm,
    project_orthogonal,
    sample_unit,
)
from .exact import simplest_in_interval


@dataclass
class HullCertificate:
    """Convex coefficients witnessing 0 strictly inside the hull."""

    coefficients: np.ndarray
    margin: float
    residual: float


@dataclass
class HullSeparator:
    """Half-space witness: direction u with u . v_i >= -1e-9 for all i.

    degenerate=True means every input vector was 0, so no direction
    separates anything and `direction` is meaningless (all zeros).
    """

    direction: np.ndarray
    degenerate: bool = False


@dataclass
class ReplicationPlan:
    """Rational surrogate weights and the replication counts they induce.

    fractions[i] is within delta of the requested weight; counts[i] is
    p_i * prod_{j != i} q_j, and total = sum(counts) — all exact integers.
    """

    fractions: list[Fraction]
    counts: list[int]
    total: int


# -- basic orbit maps ---------------------------------------------------------


def orbit_sum(basis: CompactAlgebraBasis, x, gs) -> np.ndarray:
    """Ad(g_1)X + ... + Ad(g_n)X."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for g in gs:
        out += g @ x
    return out


def orbit_sum_rank(basis: CompactAlgebraBasis, x, gs, rel_tol: float = 1e-9) -> int:
    """Rank of the linearized orbit-sum map at (g_1..g_n).

    Columns are bracket(e_j, Ad(g_i)X) over the algebra basis e_j and all i;
    full rank (= dim) means the tuple is a submersion point.
    """
    j = _orbit_jacobian(basis, x, gs)
    sv = np.linalg.svd(j, compute_uv=False)
    return int(np.sum(sv > rel_tol * sv[0]))


def _orbit_jacobian(basis, x, gs) -> np.ndarray:
    # block i is -ad(Ad(g_i)X): the derivative of exp(ad u) g_i in direction u
    blocks = [-ad(basis, g @ np.asarray(x, float)) for g in gs]
    return np.hstack(blocks)


def random_group_element(basis: CompactAlgebraBasis, rng: np.random.Generator) -> np.ndarray:
    """A reasonably spread random Ad matrix (not exactly Haar; good enough
    for seeding searches)."""
    g = group_exp(basis, sample_unit(basis, rng) * rng.uniform(0.0, np.pi))
    g = g @ group_exp(basis, sample_unit(basis, rng) * rng.uniform(0.0, np.pi))
    return project_orthogonal(g)


# -- hull dichotomy -----------------------------------------------------------


def zero_in_hull_interior(vectors, margin_tol: float = 1e-9):
    """Decide whether 0 lies strictly inside the convex hull of the vectors.

    Returns a HullCertificate (coefficients >= margin_tol, spanning check
    passed) or a HullSeparator. The input is normalized by its largest norm
    first, so any positive rescaling of the family gets the same verdict.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    n, d = v.shape
    scale = float(np.max(np.linalg.norm(v, axis=1))) if n else 0.0
    if scale < 1e-14:
        return HullSeparator(direction=np.zeros(d), degenerate=True)
    v = v / scale

    sv = np.linalg.svd(v, compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))

    cert = _margin_lp(v)
    if cert is not None:
        a, margin = cert
        if margin >= margin_tol and rank == d:
            residual = float(np.linalg.norm(a @ v)) * scale
            return HullCertificate(coefficients=a, margin=margin, residual=residual)

    direction = _support_lp(v)
    if direction is not None:
        return HullSeparator(direction=direction, degenerate=False)

    if rank < d:
        # 0 sits in the family's relative interior but the hull lives in a
        # proper subspace: an orthocomplement direction witnesses the
        # half-space (all pairings exactly 0)
        _, _, vt = np.linalg.svd(v)
        return HullSeparator(direction=vt[-1], degenerate=False)
    raise RuntimeError("hull test is numerically ambiguous at this tolerance")


def _margin_lp(v: np.ndarray):
    """maximize m s.t. sum_i (m + s_i) v_i = 0, sum_i (m + s_i) = 1, m,s >= 0."""
    n, d = v.shape
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
    m = res.x[0]
    coeffs = m + res.x[1:]
    return coeffs, float(coeffs.min())


def _support_lp(v: np.ndarray):
    """maximize sum_i u.v_i s.t. u.v_i >= 0, |u_k| <= 1; u = p - q.

    When 0 is not interior and the family spans, this returns a nonzero
    supporting/separating functional.
    """
    n, d = v.shape
    # variables: p (d), q (d), w (n slacks), rp (d), rq (d)
    nv = 2 * d + n + 2 * d
    a_eq = np.zeros((n + 2 * d, nv))
    b_eq = np.zeros(n + 2 * d)
    a_eq[:n, :d] = v
    a_eq[:n, d : 2 * d] = -v
    a_eq[:n, 2 * d : 2 * d + n] = -np.eye(n)
    for k in range(d):
        a_eq[n + k, k] = 1.0
        a_eq[n + k, 2 * d + n + k] = 1.0
        b_eq[n + k] = 1.0
        a_eq[n + d + k, d + k] = 1.0
        a_eq[n + d + k, 2 * d + n + d + k] = 1.0
        b_eq[n + d + k] = 1.0
    c = np.zeros(nv)
    tot = v.sum(axis=0)
    c[:d] = -tot
    c[d : 2 * d] = tot
    res = simplex.solve_lp(c, a_eq, b_eq)
    if res.status != simplex.OPTIMAL or -res.objective <= 1e-9:
        return None
    u = res.x[:d] - res.x[d : 2 * d]
    return u / np.linalg.norm(u)


def sample_spanning_configuration(
    basis: CompactAlgebraBasis,
    x,
    rng: np.random.Generator,
    max_tries: int = 60,
    tries_per_size: int = 3,
):
    """Random g-tuples, doubling the tuple size until the orbit vectors put
    0 strictly inside their hull. Returns (gs, certificate)."""
    x = np.asarray(x, dtype=float)
    if killing_norm(basis, x) < 1e-12:
        raise ValueError("X = 0 has orbit {0}; no spanning configuration exists")
    n = basis.dim + 1
    for attempt in range(max_tries):
        gs = [random_group_element(basis, rng) for _ in range(n)]
        verdict = zero_in_hull_interior(np.array([g @ x for g in gs]))
        if isinstance(verdict, HullCertificate):
            return gs, verdict
        if (attempt + 1) % tries_per_size == 0:
            n *= 2
    raise RuntimeError(
        f"no spanning configuration found in {max_tries} tries (X too small "
        f"or rng pathological)"
    )


# -- rational replication -----------------------------------------------------


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
    qs = [f.denominator for f in fractions]
    counts = []
    for i, f in enumerate(fractions):
        cnt = f.numerator
        for j, q in enumerate(qs):
            if j != i:
                cnt *= q
        counts.append(cnt)
    return ReplicationPlan(fractions=fractions, counts=counts, total=sum(counts))


# -- lattice walk -------------------------------------------------------------


def lattice_ray_walk(a, steps: int) -> np.ndarray:
    """Unit-step lattice walk hugging the ray through a (componentwise > 0).

    Enumerates the points y(t) = floor(t * a) at the event times t = m / a_j
    in ascending order and interpolates between consecutive ones by unit
    coordinate steps in lexicographic order (ties at equal event times break
    toward the smaller index). Returns the visited points, shape (steps, n);
    every point is within sqrt(2n) of the ray.
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    if np.any(a <= 0):
        raise ValueError("ray coefficients must be positive")
    picks = _walk_picks(a, steps)
    points = np.zeros((steps, n), dtype=np.int64)
    onehot = np.zeros((steps, n), dtype=np.int64)
    onehot[np.arange(steps), picks] = 1
    np.cumsum(onehot, axis=0, out=points)
    return points


def _walk_picks(a: np.ndarray, steps: int) -> np.ndarray:
    """The coordinate the lattice-ray walk through a increments at each step."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = a.size
    # coordinate j makes its m-th increment at time m/a_j; the walk is the
    # event sequence sorted by (time, coordinate index)
    per = np.full(n, steps, dtype=np.int64)  # j can step at most `steps` times
    times = []
    idx = []
    for j in range(n):
        m = np.arange(1, per[j] + 1, dtype=np.float64)
        times.append(m / a[j])
        idx.append(np.full(per[j], j, dtype=np.int64))
    times = np.concatenate(times)
    idx = np.concatenate(idx)
    order = np.lexsort((idx, times))[:steps]
    return idx[order]


def distance_to_ray(points, a) -> np.ndarray:
    """Euclidean distance from each point to the ray {t a : t >= 0}."""
    a = np.asarray(a, dtype=float)
    p = np.asarray(points, dtype=float)
    t = np.clip(p @ a / (a @ a), 0.0, None)
    return np.linalg.norm(p - np.outer(t, a), axis=1)


def bounded_partial_sum_sequence(vectors, weights, length: int) -> np.ndarray:
    """Order length picks from {v_i} so all partial sums stay small.

    Requires sum_i a_i v_i = 0 (to 1e-9 of the scale). Follows the walk: the
    k-th pick is the coordinate the lattice-ray walk increments at step k,
    which keeps every partial sum within R = n sqrt(2n) max_j |v_j|.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    a = np.asarray(weights, dtype=float)
    if np.any(a <= 0):
        raise ValueError("weights must be positive")
    resid = np.linalg.norm(a @ v)
    scale = max(1.0, float(np.abs(v).max()))
    if resid > 1e-9 * scale:
        raise ValueError(f"sum_i a_i v_i = 0 violated (residual {resid:.2e})")
    return _walk_picks(a, length)


# -- Gauss-Newton refinement ---------------------------------------------------


def find_vanishing_submersive_tuple(
    basis: CompactAlgebraBasis,
    x,
    rng: np.random.Generator,
    sizes=(3, 4, 6, 8, 12, 16),
    starts_per_size: int = 8,
    residual_tol: float = 1e-10,
    max_iter: int = 200,
):
    """Find (n, g-tuple) with orbit_sum = 0 (to residual_tol) and full rank.

    Tries tuple sizes in order; for each size runs compactform.gauss_newton
    from several random starts (seeded from a hull certificate where one is
    available, i.e. once n exceeds dim). Raises if every size stagnates.
    """
    x = np.asarray(x, dtype=float)
    if killing_norm(basis, x) < 1e-12:
        raise ValueError("X = 0 is a fixed point; nothing to solve")

    def residual(gs):
        r = orbit_sum(basis, x, gs)
        return np.linalg.norm(r), r, gs

    def jacobian(gs):
        return _orbit_jacobian(basis, x, gs)

    for n in sizes:
        for _ in range(starts_per_size):
            gs0 = _seed_tuple(basis, x, n, rng)
            gs, resid, _ = gauss_newton(basis, gs0, residual, jacobian, residual_tol, max_iter)
            if resid <= residual_tol and orbit_sum_rank(basis, x, gs) == basis.dim:
                return n, gs
    raise RuntimeError("Gauss-Newton stagnated for all tuple sizes; reseed advised")


def _seed_tuple(basis, x, n, rng):
    gs = [random_group_element(basis, rng) for _ in range(n)]
    if n > basis.dim:
        # prefer a start whose hull already surrounds 0
        for _ in range(5):
            verdict = zero_in_hull_interior(np.array([g @ x for g in gs]))
            if isinstance(verdict, HullCertificate):
                break
            gs = [random_group_element(basis, rng) for _ in range(n)]
    return gs
