"""Disk geometry for normalized character values.

A normalized character of a compact adjoint group maps into the closed unit
disk; the claim under test is that its image avoids a fixed horodisk-shaped
region — it stays inside the disk tangent to the unit circle at 1 and to the
vertical line Re z = c, for a group constant c in (-1, 0).

This module provides the membership algebra for that disk (disk_requirement,
the one rule for the best c of a value, computed from the real and imaginary
parts of z, so a torus scan hands it the parts of chi/dim and never forms
the complex quotient grid), empirical estimation of the best constant over
bounded families of irreducibles (one column entry per irrep), and the
constructive "some power has nonpositive real part" finder for points on a
closed arc (with its explicitly computable constants), whose multiples
scan, step by step, only the phases still unresolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import (
    character_grid,
    grid_torus_fractions,
    theta_of_torus_fraction,
    weight_multiplicities,
)
from .rootsys import RootSystem, enumerate_adjoint_dominant_weights

# |z| at or below this is a rounding-level zero of a normalized character:
# its phase is noise, and its delta = 1 - |z| clears any epsilon < 1 - 1e-12
ZERO_ABS = 1e-12
# |z| past 1 by at most this is a rounding-level overshoot of the unit
# circle, and within it of z = 1 h is undefined
DISK_TOL = 1e-9


# -- disk membership algebra ---------------------------------------------------


def disk_requirement(z):
    """h(z) = (|z|^2 - Re z)/(Re z - 1): the largest c whose disk holds z.

    The c-disk is tangent to the unit circle at 1 and to the line Re z = c:
    center (1+c)/2, radius (1-c)/2. z is in it iff c <= h(z).  On the
    closed unit disk h lands in [-1, 1): real z map to themselves, the unit
    circle maps to -1, and so does a rounding-level overshoot |z| in
    (1, 1 + 1e-9]. Accepts scalars or arrays; raises ValueError beyond that
    overshoot and within 1e-9 of z = 1, where h is undefined. Both bounds
    are compared as squares, |z|^2 = Re^2 + Im^2, so no square root is taken.
    """
    z = np.asarray(z, dtype=complex)
    re, im = z.real, z.imag
    out = _h(re, im)
    if np.any(_at_one(re, im)):
        raise ValueError("h is undefined at z = 1")
    return float(out) if out.ndim == 0 else out


def _h(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """h of z = re + i im, elementwise from the two real parts, raising
    ValueError beyond the overshoot; z = 1, where it is 0/0, is left to the
    caller to reject or overwrite."""
    mag2 = re * re + im * im
    if np.any(mag2 > (1.0 + DISK_TOL) ** 2):
        raise ValueError("normalized character values must lie in the unit disk")
    with np.errstate(invalid="ignore"):
        return (np.minimum(mag2, 1.0) - re) / (re - 1.0)


def _at_one(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """|z - 1| <= DISK_TOL, elementwise, compared as squares."""
    d = re - 1.0
    return d * d + im * im <= DISK_TOL**2


# -- empirical disk constant ----------------------------------------------------


@dataclass
class DiskEstimate:
    """One row per scanned irrep: lams[i], and the thetas[i], z[i] and
    h[i] = disk_requirement(z[i]) of its least h on the grid, at the first
    node of its half grid in C order that attains it. The first row with the
    least h, c_hat, is the attaining irrep `best`; values is its half grid
    of chi/dim, the one grid the scan divides as complex numbers
    (characters.full_grid_nodes reads any node of the whole grid off it)."""

    lams: list[tuple[int, ...]]
    thetas: np.ndarray
    z: np.ndarray
    h: np.ndarray
    values: np.ndarray

    @property
    def best(self) -> int:
        return int(np.argmin(self.h))

    @property
    def c_hat(self) -> float:
        return float(self.h[self.best])


class DiskBoundEscape(Exception):
    """An empirical disk constant at or below -1: a counterexample to the
    disk bound, as opposed to an internal error on the way to it."""


class CoarseGridError(ValueError):
    """A scan too coarse to say anything about the disk bound: its weight
    bound admits no nontrivial irrep, or its empirical constant is at or
    above 0, so the grid missed every value outside the disk
    |z - 1/2| <= 1/2, every value with negative real part among them."""


def empirical_disk_constant(rs: RootSystem, weight_bound: int, grid_n: int) -> DiskEstimate:
    """Minimum of h over all nontrivial root-lattice irreducibles of level
    <= weight_bound, evaluated on the uniform grid_n^rank torus grid.

    Each irrep is scanned on the half grid that character_grid evaluates:
    h(z) depends on |z|^2 and Re z alone, so it is the same at the
    conjugate nodes y and -y that the half grid leaves out. Ties go to the
    first minimizing node of the half grid in C order.

    h is computed from chi.real * (1/dim) and chi.imag * (1/dim), and no
    complex chi/dim is formed but at each irrep's minimizing node and for
    the grid of the irrep that attains c_hat. numpy divides a complex by a
    real d as Smith's method does, by multiplying each part by 1/d, so these
    are the parts of chi/dim, up to the sign of a zero, which h does not
    tell apart.

    Nonincreasing in weight_bound, and in grid refinement along nested grids
    (doubling grid_n). The minimum must land in (-1, 0): a value at or below
    -1 would falsify the disk bound and raises DiskBoundEscape; a value at
    or above 0, or no irrep to scan, raises CoarseGridError. Needs
    grid_n >= 2: then every irrep has a value off z = 1, since its weights
    mu and mu - alpha_1 differ by 1 in the root coordinate c_1, so chi/dim
    is not 1 at the node (1/grid_n, 0, ...).
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    weights = enumerate_adjoint_dominant_weights(rs, weight_bound)
    if not weights:
        raise CoarseGridError(f"{rs.type_label} has no nontrivial root-lattice irrep of "
                              f"weight bound <= {weight_bound}")
    idx, zs, hs = [], [], []
    best = None  # (h, chi, dim) of the first irrep with the least h so far
    for lam in weights:
        table = weight_multiplicities(rs, lam)
        chi = character_grid(table, grid_n)
        z = chi.ravel()
        scale = 1 / table.dim
        re, im = z.real * scale, z.imag * scale
        h = _h(re, im)
        # nodes at z = 1 (theta = 0 among them) lie in every disk: no constraint
        h[_at_one(re, im)] = np.inf
        i = int(np.argmin(h))
        if best is None or h[i] < best[0]:
            best = (h[i], chi, table.dim)
        idx.append(i)
        zs.append(z[i:i + 1] / table.dim)
        hs.append(h[i])
    _, best_chi, best_dim = best
    est = DiskEstimate(
        lams=weights,
        thetas=theta_of_torus_fraction(rs, grid_torus_fractions(rs, np.array(idx), grid_n)),
        z=np.concatenate(zs),
        h=np.array(hs),
        values=best_chi / best_dim,
    )
    if est.c_hat <= -1.0:
        raise DiskBoundEscape(
            f"empirical disk constant {est.c_hat} escaped (-1, 0); "
            "this falsifies the disk bound"
        )
    if est.c_hat >= 0.0:
        raise CoarseGridError(f"grid {grid_n} too coarse: it misses every character "
                              f"value with negative real part (c_hat = {est.c_hat})")
    return est


# -- closed-arc constants --------------------------------------------------------


@dataclass
class ArcSpec:
    """The arc {exp(2 pi i x) : x_lo <= x <= x_hi}, bounded away from 1."""

    x_lo: float
    x_hi: float

    def __post_init__(self):
        if not 0.0 < self.x_lo <= self.x_hi < 1.0:
            raise ValueError("arc must satisfy 0 < x_lo <= x_hi < 1")

    def contains_phase(self, x):
        """Whether phases x (fractions of a turn) lie on the arc; elementwise."""
        return (self.x_lo <= x) & (x <= self.x_hi)


@dataclass
class ArcConstants:
    m: float
    q: int
    delta: float
    p: int
    epsilon: float
    bound_b: int


def _window_hit_exact(x: Fraction, j: int) -> bool:
    """frac(j x) in [1/4, 3/4], decided in integer arithmetic."""
    r = (j * x.numerator) % x.denominator
    return x.denominator <= 4 * r <= 3 * x.denominator


def _has_good_multiple(x: Fraction, q: int) -> bool:
    return any(_window_hit_exact(x, j) for j in range(q, 2 * q + 1))


def arc_constants(arc: ArcSpec, b: int) -> ArcConstants:
    """Constants for the constructive power-finder on the arc.

    m: distance from the arc (plus integers) to the integers.
    q: smallest integer exceeding b with 1/q < m.
    delta: a verified radius such that every x within delta of a rational
      with denominator <= q admits j in [q, 2q] with frac(jx) in [1/4, 3/4].
      Found by an exact sweep: the set of x violating that property is a
      union of intervals between breakpoints (i +- 1/4)/j, so testing one
      rational midpoint per gap classifies every gap; delta is 0.9 times the
      minimum distance from the rationals to a bad gap (capped at 1/4).
    p: smallest integer with 1/p < delta;  epsilon = 1/(2pq)^2.
    """
    if b < 1:
        raise ValueError("class-power bound must be a positive integer")
    m = min(arc.x_lo, 1.0 - arc.x_hi)
    q = max(b + 1, math.floor(1.0 / m) + 1)
    denominators = range(2, q + 1)
    s_points = sorted({Fraction(t, s) for s in denominators for t in range(1, s)})
    breakpoints = {Fraction(0), Fraction(1)}
    for j in range(q, 2 * q + 1):
        for i in range(j):
            breakpoints.add(Fraction(4 * i + 1, 4 * j))
            breakpoints.add(Fraction(4 * i + 3, 4 * j))
    bps = sorted(breakpoints)
    delta_raw = Fraction(1, 4)
    for lo, hi in zip(bps, bps[1:]):
        if _has_good_multiple((lo + hi) / 2, q):
            continue
        for s in s_points:
            dist = max(lo - s, s - hi, Fraction(0))
            if dist < delta_raw:
                delta_raw = dist
    # every rational with denominator <= q is itself good, so delta_raw > 0
    if delta_raw <= 0:
        raise AssertionError(f"arc radius delta = {delta_raw} is not positive")
    delta = 0.9 * float(delta_raw)
    p = math.floor(1.0 / delta) + 1
    return ArcConstants(
        m=m, q=q, delta=delta, p=p, epsilon=1.0 / (2 * p * q) ** 2, bound_b=b
    )


# -- constructive power finder ---------------------------------------------------


@dataclass
class PigeonholeBatch:
    k: np.ndarray
    brute_k: np.ndarray
    fallback: np.ndarray
    epsilon_sharp: float


_INSET = 1e-9  # land strictly inside the window so Re stays strictly negative


def _frac(v: np.ndarray) -> np.ndarray:
    """Fractional part v - floor(v): exact, so bit for bit np.mod(v, 1.0)."""
    return v - np.floor(v)


def _first_multiple(xs, start, stop: int, hit) -> np.ndarray:
    """Least s in [start, stop] with hit(frac(s x)) for each x, or 0 if there
    is none; start is one integer or one per x, and hit maps an array of
    fractional parts to a mask. Each step scans only the x still unfound."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape, dtype=np.int64)
    idx, s = np.arange(xs.size), np.broadcast_to(np.asarray(start, dtype=np.int64), xs.shape)
    while idx.size:
        found = hit(_frac(s * xs[idx])) & (s <= stop)
        out[idx[found]] = s[found]
        left = ~found & (s < stop)
        idx, s = idx[left], s[left] + 1
    return out


def _first_in_window(xs, start, stop: int, lo: float, hi: float) -> np.ndarray:
    """Least s in [start, stop] with frac(s x) in [lo, hi] for each x, or 0."""
    return _first_multiple(xs, start, stop, lambda f: (f >= lo) & (f <= hi))


def pigeonhole_batch(xs, consts: ArcConstants, arc: ArcSpec) -> PigeonholeBatch:
    """Constructive k with Re exp(2 pi i k x) <= 0 for every x in the arc.

    Follows the two-case construction: a Dirichlet multiple k0 <= q with
    ||k0 x|| <= 1/q either certifies x is delta-close to a denominator-<= q
    rational (then some j in [q, 2q] already works), or the multiples of
    k0 x step by more than 1/p and a bounded scan lands in [1/4, 3/4].
    k is always the constructed power (0 where the scan finds none);
    fallback marks each x whose k misses the window or the range
    bound_b <= k <= 2 p q. A brute-force smallest k is computed alongside
    as the oracle (epsilon_sharp = 1/max(brute_k)^2).
    """
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < arc.x_lo - 1e-12) or np.any(xs > arc.x_hi + 1e-12):
        raise ValueError("all phases must lie in the arc")
    q, p, b = consts.q, consts.p, consts.bound_b
    k_cap = 2 * p * q
    lo, hi = 0.25 + _INSET, 0.75 - _INSET

    # Dirichlet step: first k0 <= q with ||k0 x|| <= 1/q (k0 = 1 excluded by m > 1/q)
    k0 = _first_multiple(xs, 1, q, lambda f: np.minimum(f, 1.0 - f) <= 1.0 / q)
    if not k0.all():
        raise AssertionError("Dirichlet pigeonhole cannot fail")

    # distance from x to the rationals with denominator <= q
    s_vals = np.array(
        sorted({t / s for s in range(2, q + 1) for t in range(1, s)})
    )
    pos = np.searchsorted(s_vals, xs)
    dist_s = np.minimum(np.abs(xs - s_vals[np.maximum(pos - 1, 0)]),
                        np.abs(xs - s_vals[np.minimum(pos, len(s_vals) - 1)]))

    # case 1, x delta-near such a rational: some j in [q, 2q] works
    k_out = np.zeros(xs.size, dtype=np.int64)
    near_s = dist_s <= consts.delta
    k_out[near_s] = _first_in_window(xs[near_s], q, 2 * q, lo, hi)

    # case 2 (and the exact-boundary stragglers of case 1): x is delta-far, so
    # the multiples s k0 x, s >= ceil(b / k0), step by ||k0 x|| in (1/p, 1/q]
    far = k_out == 0
    phi = _frac(k0[far] * xs[far])
    k_out[far] = k0[far] * _first_in_window(phi, -(-b // k0[far]), k_cap, lo, hi)

    # a constructed k outside the window or the range is a miss
    f_final = _frac(k_out * xs)
    fallback = (f_final < 0.25) | (f_final > 0.75) | (k_out < b) | (k_out > k_cap)

    # brute-force oracle: smallest k >= 1 with frac(k x) in [1/4, 3/4]
    brute = _first_in_window(xs, 1, k_cap, 0.25, 0.75)
    if not brute.all():
        raise RuntimeError("brute scan exceeded the theoretical bound 2pq")

    return PigeonholeBatch(
        k=k_out,
        brute_k=brute,
        fallback=fallback,
        epsilon_sharp=1.0 / float(np.max(brute)) ** 2,
    )


# -- putting it together -----------------------------------------------------------


@dataclass
class DeltaBoundReport:
    n_samples: int
    n_in_arc: int
    min_delta: float | None
    epsilon: float
    margin: float | None
    violations: list[str]


def delta_lower_bound_check(
    scans, arc: ArcSpec, consts: ArcConstants
) -> DeltaBoundReport:
    """For normalized character values z = (1-delta) omega with omega on the
    arc, check the predicted lower bound delta >= epsilon.

    scans yields (lam, z) with z an array of one irrep's values; every value
    counts as a sample. Violations are recorded, not raised (they would
    falsify the estimate).
    """
    violations: list[str] = []
    min_delta = None
    n_in_arc = 0
    n_samples = 0
    for lam, z in scans:
        z = np.asarray(z, dtype=complex).ravel()
        n_samples += z.size
        mag = np.minimum(np.abs(z), 1.0)
        phase = np.mod(np.angle(z) / (2 * np.pi), 1.0)
        # at or below ZERO_ABS the phase is noise, and delta ~ 1 clears the bound
        sel = (mag > ZERO_ABS) & arc.contains_phase(phase)
        if not sel.any():
            continue
        n_in_arc += int(sel.sum())
        z, delta = z[sel], 1.0 - mag[sel]
        lowest = float(delta.min())
        min_delta = lowest if min_delta is None else min(min_delta, lowest)
        bad = delta < consts.epsilon
        violations += [
            f"lambda={lam}, z={complex(zi):.6g}: delta={di:.3e} "
            f"< epsilon={consts.epsilon:.3e}"
            for zi, di in zip(z[bad], delta[bad])
        ]
    return DeltaBoundReport(
        n_samples=n_samples,
        n_in_arc=n_in_arc,
        min_delta=min_delta,
        epsilon=consts.epsilon,
        margin=None if min_delta is None else min_delta - consts.epsilon,
        violations=violations,
    )


def final_inequality_check(k: int, c_proof: float) -> bool:
    """Confirm 1 - 1/k^2 < 1 - c(1-c)(pi/2k)^2, i.e. c(1-c) < 4/pi^2.

    c here is in the center/radius convention, c in (0, 1); the maximum of
    c(1-c) is 1/4 < 4/pi^2, so the comparison holds for every k >= 1.
    """
    if k < 1 or not 0.0 < c_proof < 1.0:
        raise ValueError("need k >= 1 and c in (0, 1)")
    lhs = 1.0 - 1.0 / k**2
    rhs = 1.0 - c_proof * (1.0 - c_proof) * (np.pi / (2 * k)) ** 2
    return bool(lhs < rhs)
