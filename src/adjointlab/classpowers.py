"""Conjugacy-class power maps: can n copies of a class multiply to identity?

A class is the orbit of exp(t X) for a unit algebra vector X. The lab
provides the word map (products of conjugated class generators), the tangent
rank of that map, Gauss-Newton root finding toward arbitrary targets, and
Baker-Campbell-Hausdorff remainder measurements used to bound products of
near-identity factors. A g-tuple is one (n, dim, dim) stack, and one prefix
scan P_0 = 1, P_i = x_1 ... x_i over its conjugates x_i = g_i K g_i^T gives
the word (P_n) and the tangent matrix [P_0 - P_1 | P_1 - P_2 | ...]. That
matrix serves the rank test and the root finding: the solve measures its
residual in the algebra (skew part of W T^T), whose Jacobian it is, and
runs compactform.gauss_newton. The reach solve toward I takes one random
start at a time; the interiority probe solves all its targets, drawn up
front, as one (B, n, dim, dim) stack warm-started from the tuple that
reached I, so they share each Gram solve and exp. The BCH measurements run
the same scan under a leading batch axis (scales t, or product-radius
samples), and one stacked group_log takes each batch.

Falsification philosophy: operations that probe the theory's predictions
(identity reachable, interiority) never silently weaken their criteria. A
missed identity is data (`reachable` false); each missed interior target is
a falsification entry in the report, and the CLI adds one for a miss of
an identity it predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compactform import (
    CompactAlgebraBasis,
    LogRangeError,
    algebra_coords,
    gauss_newton,
    group_exp,
    group_log,
    numerical_rank,
    sample_unit,
)
from .orbits import random_group_element

# Frobenius residual at which a word solve counts as reaching its target,
# and the Gauss-Newton iterations each start may take
WORD_TOL = 1e-8
WORD_MAX_ITER = 80
# the reachability solve toward I takes up to this many random starts
REACH_STARTS = 32
# largest |F F^T - 1| accepted for a class factor F = exp(t ad X)
FACTOR_ORTHO_TOL = 1e-10
# the interiority probe aims at exp(INTERIOR_EPS ad B) for unit B
INTERIOR_EPS = 1e-3
# class scales of the BCH slope fit: low enough that the cubic terms cannot
# bias the slope out of the 2 +- 0.05 window, high enough that the
# remainders sit far above rounding noise
BCH_T_GRID = np.geomspace(1e-3, 1e-2, 9)


@dataclass(frozen=True)
class ConjugacyClass:
    """Orbit of exp(t X) for unit X; factor_matrix caches exp(t ad X), and
    frozen fields keep it from going stale."""

    basis: CompactAlgebraBasis
    x: np.ndarray
    t: float
    factor_matrix: np.ndarray = field(repr=False)


def conjugacy_class(basis: CompactAlgebraBasis, x, t: float) -> ConjugacyClass:
    """The class of exp(t X / |X|). Raises ValueError for t <= 0 or X = 0,
    and AssertionError if the factor exp(t ad X) is off orthogonal by more
    than FACTOR_ORTHO_TOL, as a long rotation could be."""
    if t <= 0:
        raise ValueError("class scale t must be positive")
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x)
    if norm < 1e-12:
        raise ValueError("class representative must be nonzero")
    x = x / norm
    factor = group_exp(basis, t * x)
    off = np.abs(factor @ factor.T - np.eye(basis.dim)).max()
    if not off <= FACTOR_ORTHO_TOL:
        raise AssertionError(f"class factor exp(t ad X) at t = {t:g} is off orthogonal by {off:.1e}")
    return ConjugacyClass(basis=basis, x=x, t=float(t), factor_matrix=factor)


def _conjugates(cls: ConjugacyClass, gs) -> np.ndarray:
    """The stack g_i exp(t ad X) g_i^T for tuples of shape (..., n, dim, dim)."""
    # (-1, ...) keeps every leading axis and makes [] the empty tuple
    gs = np.reshape(gs, (-1,) + np.shape(gs)[1:-2] + (cls.basis.dim,) * 2)
    return gs @ cls.factor_matrix @ gs.mT


def _prefix_products(xs) -> np.ndarray:
    """P_0 = 1 and P_i = x_1 ... x_i along the factor axis of a stack of
    square matrices of shape (..., n, d, d); shape (..., n + 1, d, d)."""
    prefix = np.empty(xs.shape[:-3] + (xs.shape[-3] + 1,) + xs.shape[-2:])
    prefix[..., 0, :, :] = np.eye(xs.shape[-1])
    for i in range(xs.shape[-3]):
        prefix[..., i + 1, :, :] = prefix[..., i, :, :] @ xs[..., i, :, :]
    return prefix


def _tangent_matrix(prefix: np.ndarray) -> np.ndarray:
    """[P_0 - P_1 | P_1 - P_2 | ...] = [(1 - x_1) | x_1 (1 - x_2) | ...]
    from the prefix products of Ad matrices x_i, of shape (..., n + 1, d, d).

    With x_i = g_i K g_i^T, moving g_i to exp(ad u_i) g_i moves the word
    W = x_1 ... x_n by delta W W^T = ad(J u) at first order.
    """
    diff = prefix[..., :-1, :, :] - prefix[..., 1:, :, :]
    return np.concatenate(np.moveaxis(diff, -3, 0), axis=-1)


def word_map(cls: ConjugacyClass, gs) -> np.ndarray:
    """Product of conjugates: prod_i g_i exp(t ad X) g_i^-1 (identity for n=0)."""
    return _prefix_products(_conjugates(cls, gs))[-1]


def tangent_rank(basis: CompactAlgebraBasis, xs) -> int:
    """Rank of [(1 - Ad x_1) | Ad(x_1)(1 - Ad x_2) | ...] for group elements
    x_i, stacked (n, dim, dim).

    This is the tangent space of the class-product map at (x_1, .., x_n);
    rank dim means products of the n classes fill a neighborhood.
    """
    xs = np.reshape(xs, (-1, basis.dim, basis.dim))
    if len(xs) == 0:
        return 0
    return numerical_rank(_tangent_matrix(_prefix_products(xs)))


def _word_residual(cls: ConjugacyClass, targets: np.ndarray):
    """gauss_newton's residual toward a stack of targets T: the merit
    ||W - T||_F, r the algebra coordinates of skew(W T^T), whose Jacobian is
    the tangent matrix, and the prefix products as state."""

    def residual(gs, rows):
        prefix = _prefix_products(_conjugates(cls, gs))
        w = prefix[:, -1]
        aim = targets[rows]
        return (np.linalg.norm(w - aim, axis=(-2, -1)),
                algebra_coords(cls.basis, w @ aim.mT), prefix)

    return residual


def solve_word_to_target(
    cls: ConjugacyClass,
    n: int,
    target,
    rng: np.random.Generator,
    starts: int,
) -> tuple[np.ndarray, float]:
    """Search g_1..g_n with word_map = target, a (dim, dim) matrix; the
    target is reached where the Frobenius residual is <= WORD_TOL.

    Each of up to `starts` starts draws its tuple with one
    random_group_element call and runs compactform.gauss_newton on it; the
    first start that reaches the target ends the search. Returns (gs,
    residual) of the closest run, reached or not: a miss is a residual above
    WORD_TOL. Raises ValueError for n < 1 or starts < 1.
    """
    if n < 1:
        raise ValueError("need n >= 1 factors")
    if starts < 1:
        raise ValueError("need starts >= 1")
    residual = _word_residual(cls, np.asarray(target, dtype=float)[None])
    best = None
    for _ in range(starts):
        gs0 = random_group_element(cls.basis, rng, n)
        (gs,), (resid,) = gauss_newton(
            cls.basis, gs0[None], residual, _tangent_matrix, WORD_TOL, WORD_MAX_ITER)
        if best is None or resid < best[1]:
            best = gs, float(resid)
        if resid <= WORD_TOL:
            break
    return best


@dataclass
class ClassPowerReport:
    t: float
    n: int
    reachable: bool
    min_residual: float
    rank_at_best: int
    interior: bool
    interior_targets_hit: int
    interior_targets_total: int
    falsifications: list[str]


def class_power_identity_check(
    cls: ConjugacyClass,
    n: int,
    rng: np.random.Generator,
    interior_targets: int | None = None,
) -> ClassPowerReport:
    """Probe whether the n-th power of the class contains identity, interiorly.

    Reachability: a solve toward I from up to REACH_STARTS random starts.
    Interiority proxy: one lockstep gauss_newton solve toward
    exp(INTERIOR_EPS ad B) for a sphere of random directions B, all drawn
    first, every member warm-started from the tuple that reached I; a
    missed target is a falsification. Failures are recorded as
    falsification candidates, never raised.
    """
    basis = cls.basis
    total = 6 * basis.dim if interior_targets is None else interior_targets
    falsifications: list[str] = []
    gs, residual = solve_word_to_target(cls, n, np.eye(basis.dim), rng, starts=REACH_STARTS)
    reachable = residual <= WORD_TOL
    hits = 0
    if reachable:
        targets = group_exp(basis, INTERIOR_EPS * sample_unit(basis, rng, total))
        _, probe = gauss_newton(
            basis, np.broadcast_to(gs, (total,) + gs.shape), _word_residual(cls, targets),
            _tangent_matrix, WORD_TOL, WORD_MAX_ITER,
        )
        falsifications += [
            f"interior target {k} missed (residual {probe[k]:.3e})"
            for k in np.flatnonzero(probe > WORD_TOL)
        ]
        hits = total - len(falsifications)
    return ClassPowerReport(
        t=cls.t,
        n=n,
        reachable=reachable,
        min_residual=residual,
        rank_at_best=tangent_rank(basis, _conjugates(cls, gs)),
        interior=reachable and hits == total,
        interior_targets_hit=hits,
        interior_targets_total=total,
        falsifications=falsifications,
    )


# -- BCH remainder diagnostics -------------------------------------------------


def _log_of_product(basis: CompactAlgebraBasis, t, xs) -> np.ndarray:
    """log(exp(t X_1) ... exp(t X_k)) for scales t of shape (...) and algebra
    vectors xs of shape (..., k, dim), broadcast against each other."""
    t = np.asarray(t, dtype=float)[..., None, None]
    return group_log(basis, _prefix_products(group_exp(basis, t * xs))[..., -1, :, :])


def bch_remainder(basis: CompactAlgebraBasis, t, xs) -> np.ndarray:
    """r = log(prod_i exp(t X_i)) - t sum_i X_i for scales t of shape (...)
    and a stack xs of shape (..., k, dim); exactly zero for one factor."""
    t = np.asarray(t, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if xs.shape[-2] == 1:
        return np.zeros(np.broadcast_shapes(t.shape, xs.shape[:-2]) + (basis.dim,))
    return _log_of_product(basis, t, xs) - t[..., None] * xs.sum(axis=-2)


@dataclass
class BchScalingFit:
    exponent: float | None
    constant: float
    exact_zero: bool
    t_grid: np.ndarray
    remainder_norms: np.ndarray


def bch_scaling_fit(basis: CompactAlgebraBasis, xs) -> BchScalingFit:
    """Fit ||r(t)|| ~ C t^p over t in BCH_T_GRID on a log-log scale; p should
    be 2 for generic input."""
    t_grid = BCH_T_GRID
    norms = np.linalg.norm(bch_remainder(basis, t_grid, xs), axis=-1)
    constant = float(np.max(norms / t_grid**2))
    if np.max(norms) <= 1e-13:
        return BchScalingFit(None, constant, True, t_grid, norms)
    slope = np.polyfit(np.log(t_grid), np.log(norms), 1)[0]
    return BchScalingFit(float(slope), constant, False, t_grid, norms)


# rounding slack on ||log prod_k exp(t X_i)|| / (k t) <= 1; k = 1 reads 1 + 3e-14
PRODUCT_RADIUS_SLACK = 1e-9
# product_radius_mu evaluates its samples in chunks of about this many d x d
# factors, so its memory does not grow with the sample count
PRODUCT_CHUNK = 256


@dataclass
class ProductRadiusReport:
    mu_hat: float
    bound: float
    max_ratio: float
    m_constants: dict[int, float]
    n: int
    delta: float
    samples: int

    @property
    def holds(self) -> bool:
        """Every sample obeyed the triangle inequality, up to rounding."""
        return self.max_ratio <= 1.0 + PRODUCT_RADIUS_SLACK


def product_radius_mu(
    basis: CompactAlgebraBasis,
    n: int,
    delta: float,
    samples: int,
    rng: np.random.Generator,
) -> ProductRadiusReport:
    """Empirical mu = max ||log(prod_k exp(t X_i))|| / t over random samples.

    Each sample multiplies k <= n factors exp(t X_i), unit X_i, t < delta.
    The principal log of a product this close to I has norm d(I, prod) in
    the bi-invariant metric, at most k t by the triangle inequality:
    `holds` checks max_ratio = max ||log|| / (k t) against 1, and bound,
    the largest sampled k, caps mu_hat. The remainder constants
    m_k = max ||r|| / t^2, r = log - t sum_i X_i, are measurements.

    Samples go PRODUCT_CHUNK // n at a time, and each chunk draws its ks,
    then its ts, then n unit vectors per sample, the ones past the sample's
    k set to zero; padded with zeros to the chunk's largest k, the chunk
    takes one stacked exp, prefix scan and log. A product off the log's
    branch raises LogRangeError, whose message names t, k, delta and n, and
    whose index is that of the first such sample in draw order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    per_chunk = max(1, PRODUCT_CHUNK // n)
    mu_hat = 0.0
    max_ratio = 0.0
    m_max = np.zeros(n + 1)
    sampled = np.zeros(n + 1, dtype=bool)
    for start in range(0, samples, per_chunk):
        size = min(per_chunk, samples - start)
        ks = rng.integers(1, n + 1, size)
        ts = rng.uniform(0.05, 0.999, size) * delta
        xs = sample_unit(basis, rng, size * n).reshape(size, n, basis.dim)
        # zero vectors pad each sample to the chunk's largest k: exp(0) = 1
        # exactly, so the padded products are the products themselves
        xs[np.arange(n) >= ks[:, None]] = 0.0
        xs = xs[:, : ks.max()]
        try:
            logs = _log_of_product(basis, ts, xs)
        except LogRangeError as err:
            j = err.index[0]
            raise LogRangeError(
                f"log failed at t={ts[j]:.4g}, k={ks[j]}; delta {delta} is too large for n = {n}",
                (start + j,),
            ) from err
        log_norms = np.linalg.norm(logs, axis=-1)
        mu_hat = max(mu_hat, float(np.max(log_norms / ts)))
        max_ratio = max(max_ratio, float(np.max(log_norms / (ks * ts))))
        r = logs - ts[:, None] * xs.sum(axis=1)
        np.maximum.at(m_max, ks, np.linalg.norm(r, axis=-1) / ts**2)
        sampled[ks] = True
    m_constants = {int(k): float(m_max[k]) for k in np.flatnonzero(sampled)}
    return ProductRadiusReport(
        mu_hat=mu_hat,
        bound=float(max(m_constants)),
        max_ratio=max_ratio,
        m_constants=m_constants,
        n=n,
        delta=delta,
        samples=samples,
    )
