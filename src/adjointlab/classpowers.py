"""Conjugacy-class power maps: can n copies of a class multiply to identity?

A class is the orbit of exp(t X) for a unit algebra vector X. The lab
provides the word map (products of conjugated class generators), the tangent
rank of that map, Gauss-Newton root finding toward arbitrary targets, and
Baker-Campbell-Hausdorff remainder measurements used to bound products of
near-identity factors.

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
    group_exp,
    group_log,
    killing_norm,
    project_orthogonal,
    sample_unit,
)
from .orbits import random_group_element


class WordSolveError(RuntimeError):
    """Gauss-Newton failed to reach the target; `best` holds the closest run."""

    def __init__(self, message: str, best: "WordRecord"):
        super().__init__(message)
        self.best = best


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
    norm = killing_norm(basis, x)
    if norm < 1e-12:
        raise ValueError("class representative must be nonzero")
    x = x / norm
    return ConjugacyClass(basis=basis, x=x, t=float(t), factor_matrix=group_exp(basis, t * x))


@dataclass
class WordRecord:
    gs: list
    product: np.ndarray
    residual: float
    rank: int


def word_map(cls: ConjugacyClass, gs) -> np.ndarray:
    """Product of conjugates: prod_i g_i exp(t ad X) g_i^-1 (identity for n=0)."""
    out = np.eye(cls.basis.dim)
    for g in gs:
        out = out @ (g @ cls.factor_matrix @ g.T)
    return out


def tangent_rank(basis: CompactAlgebraBasis, xs, rel_tol: float = 1e-9) -> int:
    """Rank of [(1 - Ad x_1) | Ad(x_1)(1 - Ad x_2) | ...] for group elements x_i.

    This is the tangent space of the class-product map at (x_1, .., x_n);
    rank dim means products of the n classes fill a neighborhood.
    """
    d = basis.dim
    if not xs:
        return 0
    prefix = np.eye(d)
    blocks = []
    for x in xs:
        blocks.append(prefix @ (np.eye(d) - x))
        prefix = prefix @ x
    sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


# -- Gauss-Newton word solving ------------------------------------------------


def _word_jacobian(basis: CompactAlgebraBasis, factors) -> np.ndarray:
    """d vec(W)/d xi for left-translation perturbations g_i <- exp(ad u) g_i."""
    d = basis.dim
    n = len(factors)
    prefixes = [np.eye(d)]
    for f in factors:
        prefixes.append(prefixes[-1] @ f)
    suffixes = [np.eye(d)] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffixes[i] = factors[i] @ suffixes[i + 1]
    j = np.empty((d * d, n * d))
    for i in range(n):
        a = prefixes[i]
        bmat = suffixes[i]          # F_i S_{i+1}
        c = prefixes[i + 1]         # P_{i-1} F_i
        dmat = suffixes[i + 1]
        left = np.einsum("pq,bqr,rs->psb", a, basis.ad_stack, bmat)
        right = np.einsum("pq,bqr,rs->psb", c, basis.ad_stack, dmat)
        j[:, i * d : (i + 1) * d] = (left - right).reshape(d * d, d)
    return j


def _gauss_newton_word(cls, gs, target, tol, max_iter):
    basis = cls.basis
    d = basis.dim
    gs = [np.array(g) for g in gs]
    best = np.inf
    stall = 0
    for _ in range(max_iter):
        factors = [g @ cls.factor_matrix @ g.T for g in gs]
        w = np.eye(d)
        for f in factors:
            w = w @ f
        r = (w - target).ravel()
        norm_r = np.linalg.norm(r)
        if norm_r <= 0.01 * tol:
            break
        j = _word_jacobian(basis, factors)
        # The word map has exact gauge directions (g_i times anything fixing
        # the class factor), so truncate the SVD instead of plain lstsq.
        u, sv, vt = np.linalg.svd(j, full_matrices=False)
        keep = sv > 1e-6 * sv[0]
        step = vt[keep].T @ ((u[:, keep].T @ -r) / sv[keep])
        scale = 1.0
        for _ in range(25):
            trial = [
                project_orthogonal(group_exp(basis, scale * step[i * d : (i + 1) * d]) @ g)
                for i, g in enumerate(gs)
            ]
            wt = np.eye(d)
            for g in trial:
                wt = wt @ (g @ cls.factor_matrix @ g.T)
            if np.linalg.norm(wt - target) <= norm_r * (1 - 1e-4 * scale):
                gs = trial
                break
            scale *= 0.5
        else:
            break
        cur = np.linalg.norm(word_map(cls, gs) - target)
        if cur < 0.5 * best:
            best, stall = cur, 0
        else:
            stall += 1
            if stall > 10:
                break
    w = word_map(cls, gs)
    return gs, w, float(np.linalg.norm(w - target))


def solve_word_to_target(
    cls: ConjugacyClass,
    n: int,
    target,
    rng: np.random.Generator,
    starts: int = 32,
    tol: float = 1e-8,
    max_iter: int = 80,
    init=None,
) -> WordRecord:
    """Find g_1..g_n with word_map = target (Frobenius residual <= tol).

    Multi-start Gauss-Newton; `init` seeds the first start (used to warm-start
    nearby targets). Raises WordSolveError carrying the best record on failure.
    """
    if n < 1:
        raise ValueError("need n >= 1 factors")
    target = np.asarray(target, dtype=float)
    best_record = None
    for attempt in range(starts):
        if attempt == 0 and init is not None:
            gs0 = [np.array(g) for g in init]
        else:
            gs0 = [random_group_element(cls.basis, rng) for _ in range(n)]
        gs, w, resid = _gauss_newton_word(cls, gs0, target, tol, max_iter)
        if best_record is None or resid < best_record.residual:
            xs = [g @ cls.factor_matrix @ g.T for g in gs]
            best_record = WordRecord(
                gs=gs, product=w, residual=resid, rank=tangent_rank(cls.basis, xs)
            )
        if best_record.residual <= tol:
            return best_record
    raise WordSolveError(
        f"no g-tuple found with residual <= {tol} (best {best_record.residual:.3e})",
        best_record,
    )


@dataclass
class ClassPowerReport:
    type_label: str
    t: float
    n: int
    reachable: bool
    min_residual: float
    rank_at_best: int
    interior: bool
    interior_targets_hit: int
    interior_targets_total: int
    falsifications: list[str]

    def as_dict(self) -> dict:
        return {
            "type": self.type_label,
            "t": self.t,
            "n": self.n,
            "reachable": self.reachable,
            "min_residual": self.min_residual,
            "rank_at_best": self.rank_at_best,
            "interior": self.interior,
            "interior_targets_hit": self.interior_targets_hit,
            "interior_targets_total": self.interior_targets_total,
            "falsifications": self.falsifications,
        }


def class_power_identity_check(
    cls: ConjugacyClass,
    n: int,
    rng: np.random.Generator,
    samples: int = 32,
    tol: float = 1e-8,
    interior_eps: float = 1e-3,
    interior_targets: int | None = None,
) -> ClassPowerReport:
    """Probe whether the n-th power of the class contains identity, interiorly.

    Reachability: multi-start solve toward I. Interiority proxy: warm-started
    solves toward exp(eps ad B) for a sphere of random directions B. Failures
    are recorded as falsification candidates, never raised.
    """
    basis = cls.basis
    total = 6 * basis.dim if interior_targets is None else interior_targets
    falsifications: list[str] = []
    try:
        record = solve_word_to_target(cls, n, np.eye(basis.dim), rng, starts=samples, tol=tol)
        reachable = True
    except WordSolveError as err:
        record = err.best
        reachable = False
    hits = 0
    if reachable:
        for k in range(total):
            b = sample_unit(basis, rng)
            target = group_exp(basis, interior_eps * b)
            try:
                solve_word_to_target(
                    cls, n, target, rng, starts=4, tol=tol, init=record.gs
                )
                hits += 1
            except WordSolveError as err:
                falsifications.append(
                    f"interior target {k} missed (residual {err.best.residual:.3e})"
                )
    return ClassPowerReport(
        type_label=basis.type_label,
        t=cls.t,
        n=n,
        reachable=reachable,
        min_residual=record.residual,
        rank_at_best=record.rank,
        interior=reachable and hits == total,
        interior_targets_hit=hits,
        interior_targets_total=total,
        falsifications=falsifications,
    )


# -- BCH remainder diagnostics -------------------------------------------------


def bch_remainder(basis: CompactAlgebraBasis, t: float, xs) -> np.ndarray:
    """r = log(prod_i exp(t X_i)) - t sum_i X_i (exactly zero for one factor)."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    if len(xs) == 1:
        return np.zeros(basis.dim)
    prod = np.eye(basis.dim)
    for x in xs:
        prod = prod @ group_exp(basis, t * x)
    total = np.sum(xs, axis=0)
    return group_log(basis, prod) - t * total


@dataclass
class BchScalingFit:
    exponent: float | None
    constant: float
    exact_zero: bool
    t_grid: np.ndarray
    remainder_norms: np.ndarray


def bch_scaling_fit(basis: CompactAlgebraBasis, xs, t_grid=None) -> BchScalingFit:
    """Fit ||r(t)|| ~ C t^p on a log-log grid; p should be 2 for generic input.

    The default grid spans [1e-3, 1e-2]: low enough that the cubic BCH terms
    cannot bias the slope out of the 2 +- 0.05 window, high enough that the
    remainders sit far above rounding noise.
    """
    if t_grid is None:
        t_grid = np.geomspace(1e-3, 1e-2, 9)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 2:
        raise ValueError("need at least two grid points for a slope")
    norms = np.array([np.linalg.norm(bch_remainder(basis, t, xs)) for t in t_grid])
    constant = float(np.max(norms / t_grid**2))
    if np.max(norms) <= 1e-13:
        return BchScalingFit(None, constant, True, t_grid, norms)
    slope = np.polyfit(np.log(t_grid), np.log(norms), 1)[0]
    return BchScalingFit(float(slope), constant, False, t_grid, norms)


@dataclass
class ProductRadiusReport:
    mu_hat: float
    bound: float
    m_constants: dict[int, float]
    n: int
    delta: float
    samples: int


def product_radius_mu(
    basis: CompactAlgebraBasis,
    n: int,
    delta: float,
    samples: int,
    rng: np.random.Generator,
) -> ProductRadiusReport:
    """Empirical mu = max ||log(prod_k exp(t X_i))|| / t over random samples.

    The same sweep fits the remainder constants m_k = max ||r||/t^2, so the
    reported bound max_k (k + delta m_k) dominates mu_hat pointwise by
    construction: ||log||/t <= k + t (||r||/t^2) <= k + delta m_k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    mu_hat = 0.0
    m_constants: dict[int, float] = {}
    for _ in range(samples):
        k = int(rng.integers(1, n + 1))
        t = float(rng.uniform(0.05, 0.999)) * delta
        xs = sample_unit(basis, rng, k)
        prod = np.eye(basis.dim)
        for x in xs:
            prod = prod @ group_exp(basis, t * x)
        try:
            log_vec = group_log(basis, prod)
        except LogRangeError as err:
            raise ValueError(
                f"log failed at t={t:.4g}, k={k}; decrease delta below {delta}"
            ) from err
        r = log_vec - t * xs.sum(axis=0)
        mu_hat = max(mu_hat, float(np.linalg.norm(log_vec)) / t)
        mk = float(np.linalg.norm(r)) / t**2
        m_constants[k] = max(m_constants.get(k, 0.0), mk)
    bound = max(k + delta * mk for k, mk in m_constants.items())
    return ProductRadiusReport(
        mu_hat=mu_hat,
        bound=bound,
        m_constants=dict(sorted(m_constants.items())),
        n=n,
        delta=delta,
        samples=samples,
    )
