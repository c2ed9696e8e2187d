"""Conjugacy-class power maps: can n copies of a class multiply to identity?

A class is the orbit of exp(t X) for a unit algebra vector X. The lab
provides the word map (products of conjugated class generators), the tangent
rank of that map, Gauss-Newton root finding toward arbitrary targets, and
Baker-Campbell-Hausdorff remainder measurements used to bound products of
near-identity factors. A g-tuple is one (n, dim, dim) stack, and one prefix
scan P_0 = 1, P_i = x_1 ... x_i over its conjugates x_i = g_i K g_i^T gives
the word (P_n) and the tangent matrix [P_0 - P_1 | P_1 - P_2 | ...]. That
matrix serves the rank test and the root finding: the solve measures its
residual in the algebra (skew part of W T^T), whose Jacobian it is, and runs
compactform.gauss_newton on a stack of targets in lockstep rounds: round r
solves every target still missed from its r-th start as one (B, n, dim,
dim) stack, so the interiority probe's targets, all drawn up front, share
each SVD and exp. The BCH measurements run the same scan under a
leading batch axis (scales t, or product-radius samples), and one stacked
group_log takes each batch.

Falsification philosophy: operations that probe the theory's predictions
(identity reachable, interiority) never silently weaken their criteria — a
miss is a recorded falsification entry in the report.
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
# the interiority probe aims at exp(INTERIOR_EPS ad B) for unit B
INTERIOR_EPS = 1e-3
# class scales of the BCH slope fit: low enough that the cubic terms cannot
# bias the slope out of the 2 +- 0.05 window, high enough that the
# remainders sit far above rounding noise
BCH_T_GRID = np.geomspace(1e-3, 1e-2, 9)


@dataclass
class ConjugacyClass:
    """Orbit of exp(t X) for unit X; factor_matrix caches exp(t ad X)."""

    basis: CompactAlgebraBasis
    x: np.ndarray
    t: float
    factor_matrix: np.ndarray = field(repr=False, default=None)


def conjugacy_class(basis: CompactAlgebraBasis, x, t: float) -> ConjugacyClass:
    if t <= 0:
        raise ValueError("class scale t must be positive")
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x)
    if norm < 1e-12:
        raise ValueError("class representative must be nonzero")
    x = x / norm
    return ConjugacyClass(basis=basis, x=x, t=float(t), factor_matrix=group_exp(basis, t * x))


@dataclass
class WordRecord:
    """Closest runs of a word solve, one per target: gs (B, n, dim, dim)
    and residual (B,)."""

    gs: np.ndarray
    residual: np.ndarray


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
    targets,
    rng: np.random.Generator,
    starts: int,
    init=None,
) -> WordRecord:
    """Search g_1..g_n with word_map = target for each target of a stack of
    shape (B, dim, dim); a target is reached where its Frobenius residual is
    <= WORD_TOL.

    Lockstep rounds of compactform.gauss_newton: round r solves every target
    still missed from its r-th start, all as one stack, for up to `starts`
    rounds. `init`, one tuple, is every target's first start (it warm-starts
    nearby targets); otherwise a round draws the random starts of all its
    targets in one random_group_element call. Returns the closest run for
    each target, reached or not: a miss is a residual above WORD_TOL.
    """
    if n < 1:
        raise ValueError("need n >= 1 factors")
    basis = cls.basis
    targets = np.asarray(targets, dtype=float)
    size = len(targets)
    best = WordRecord(
        gs=np.empty((size, n, basis.dim, basis.dim)),
        residual=np.full(size, np.inf),
    )
    missed = np.arange(size)
    for attempt in range(starts):
        if not missed.size:
            break
        if attempt == 0 and init is not None:
            gs0 = np.broadcast_to(init, (missed.size, n, basis.dim, basis.dim))
        else:
            gs0 = random_group_element(basis, rng, missed.size * n).reshape(
                missed.size, n, basis.dim, basis.dim)
        gs, resid, _ = gauss_newton(
            basis, gs0, _word_residual(cls, targets[missed]), _tangent_matrix,
            WORD_TOL, WORD_MAX_ITER,
        )
        better = resid < best.residual[missed]
        won = missed[better]
        best.gs[won], best.residual[won] = gs[better], resid[better]
        missed = missed[best.residual[missed] > WORD_TOL]
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

    Reachability: a solve toward I, one target in up to REACH_STARTS rounds.
    Interiority proxy: one stacked solve toward exp(INTERIOR_EPS ad B) for a
    sphere of random directions B, all drawn first, warm-started from the
    tuple that reached I; a missed target gets 3 more rounds from fresh
    starts. Failures are recorded as falsification candidates, never raised.
    """
    basis = cls.basis
    total = 6 * basis.dim if interior_targets is None else interior_targets
    falsifications: list[str] = []
    record = solve_word_to_target(cls, n, np.eye(basis.dim)[None], rng, starts=REACH_STARTS)
    reachable = bool(record.residual[0] <= WORD_TOL)
    hits = 0
    if reachable:
        targets = group_exp(basis, INTERIOR_EPS * sample_unit(basis, rng, total))
        probe = solve_word_to_target(cls, n, targets, rng, starts=4, init=record.gs[0]).residual
        falsifications += [
            f"interior target {k} missed (residual {probe[k]:.3e})"
            for k in np.flatnonzero(probe > WORD_TOL)
        ]
        hits = total - len(falsifications)
    return ClassPowerReport(
        t=cls.t,
        n=n,
        reachable=reachable,
        min_residual=float(record.residual[0]),
        rank_at_best=tangent_rank(basis, _conjugates(cls, record.gs[0])),
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

    Each sample draws k, then t, then its k unit vectors. Samples are
    evaluated PRODUCT_CHUNK // n at a time, padded with zero vectors to the
    chunk's largest k, through one stacked exp, prefix scan and log; a
    product off the log's branch raises LogRangeError, whose message names
    t, k and the delta to go below, and whose index is that of the first
    such sample in draw order.
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
        ks = np.empty(size, dtype=int)
        ts = np.empty(size)
        xs = np.zeros((size, n, basis.dim))
        for j in range(size):
            ks[j] = rng.integers(1, n + 1)
            ts[j] = rng.uniform(0.05, 0.999) * delta
            xs[j, : ks[j]] = sample_unit(basis, rng, ks[j])
        # zero vectors pad each sample to the chunk's largest k: exp(0) = 1
        # exactly, so the padded products are the products themselves
        xs = xs[:, : ks.max()]
        try:
            logs = _log_of_product(basis, ts, xs)
        except LogRangeError as err:
            j = err.index[0]
            raise LogRangeError(
                f"log failed at t={ts[j]:.4g}, k={ks[j]}; decrease delta below {delta}",
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
