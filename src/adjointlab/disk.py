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
closed arc. Its cap is the walk bound K = b + floor(1/(2m)) + 1 for
an arc at distance m from the integers (arc_constants): one scan of the
multiples s x, s = b, ..., K, each step testing only the phases still
unresolved, finds for every arc phase a power whose fractional part lies in
the closed window [1/4, 3/4].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """A torus scan too coarse to say anything: its weight bound admits no
    nontrivial irrep (scanned_weights), or, for the disk bound, its
    empirical constant is at or above 0, so the grid missed every value
    outside the disk |z - 1/2| <= 1/2, every value with negative real part
    among them."""


def scanned_weights(rs: RootSystem, weight_bound: int) -> list[tuple[int, ...]]:
    """The irreps a torus scan covers: the nontrivial root-lattice highest
    weights of level <= weight_bound, in enumerate_adjoint_dominant_weights'
    order. Raises CoarseGridError when there are none."""
    weights = enumerate_adjoint_dominant_weights(rs, weight_bound)
    if not weights:
        raise CoarseGridError(f"{rs.type_label} has no nontrivial root-lattice irrep of "
                              f"weight bound <= {weight_bound}")
    return weights


def empirical_disk_constant(rs: RootSystem, weight_bound: int, grid_n: int) -> DiskEstimate:
    """Minimum of h over the scanned_weights irreducibles of level <=
    weight_bound, evaluated on the uniform grid_n^rank torus grid.

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
    weights = scanned_weights(rs, weight_bound)
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
    k_cap: int
    epsilon: float
    bound_b: int


def arc_constants(arc: ArcSpec, b: int) -> ArcConstants:
    """Constants for the constructive power-finder on the arc.

    m: distance from the arc (plus integers) to the integers.
    k_cap: the walk bound K = b + floor(1/(2m)) + 1. From any start s, some
      j in [s, s + floor(1/(2 d)) + 1] has frac(j x) in [1/4, 3/4], where
      d = ||x||. The window is symmetric under f -> 1 - f, so take
      frac(x) = d <= 1/2. A multiple outside the window lies in the arc
      (-1/4, 1/4) mod 1, of length 1/2; consecutive multiples rise by d, so
      at most floor(1/(2d)) + 1 of them lie there in a row, and the step
      out starts below 1/4 and moves by d <= 1/2, into [1/4, 3/4]. Arc
      phases have d >= m, so the scan from s = b stops by K.
    epsilon = 1/K^2: the lower bound the delta check asks of
      z = (1 - delta) omega with omega on the arc. The rule is this code's
      own (PAPER.md holds only the abstract): delta >= 1/k^2 for the
      constructed power k, the 1 - 1/k^2 that final_inequality_check
      compares, taken at the largest k the construction can return, K.
    bound_b: b, the least power the scan tries. It is free until the
      class-power experiment measures the n(G) it should stand for.
    """
    if b < 1:
        raise ValueError("b, the least power the scan tries, must be a positive integer")
    m = min(arc.x_lo, 1.0 - arc.x_hi)
    k_cap = b + math.floor(0.5 / m) + 1
    return ArcConstants(m=m, k_cap=k_cap, epsilon=1.0 / k_cap**2, bound_b=b)


# -- constructive power finder ---------------------------------------------------


@dataclass
class PigeonholeBatch:
    """pigeonhole_batch's result; re = Re omega^k is <= 0 exactly where fallback is false."""

    k: np.ndarray
    brute_k: np.ndarray
    fallback: np.ndarray
    re: np.ndarray
    epsilon_sharp: float


def _in_window(v: np.ndarray) -> np.ndarray:
    """frac(v) in the closed window [1/4, 3/4]; v becomes frac(v), in place.
    v - floor(v) is exact, so that fraction is bit for bit np.mod(v, 1.0)."""
    v -= np.floor(v)
    return (v >= 0.25) & (v <= 0.75)


def _first_in_window(xs, start: int, stop: int) -> np.ndarray:
    """Least s in [start, stop] with frac(s x) in the closed window
    [1/4, 3/4] for each x, or 0 where there is none; start <= stop. The
    first step tests the whole array, and each later one only the misses."""
    xs = np.asarray(xs, dtype=float)
    hit = _in_window(start * xs)
    out = np.where(hit, start, 0)
    left = np.flatnonzero(~hit)
    for s in range(start + 1, stop + 1):
        if not left.size:
            break
        v = xs[left]
        v *= s
        hit = _in_window(v)
        out[left[hit]] = s
        left = left[~hit]
    return out


def pigeonhole_batch(xs, consts: ArcConstants, arc: ArcSpec) -> PigeonholeBatch:
    """Constructive k with Re exp(2 pi i k x) <= 0 for every x in the arc.

    k is the least s in [bound_b, k_cap] with frac(s x) in the closed window
    [1/4, 3/4], where the walk bound of arc_constants says one lies (0 where
    the scan finds none). fallback marks each x whose returned k misses the
    window or the range bound_b <= k <= k_cap, recomputed from k by the
    scan's own window test, which leaves f = frac(k x) in place; re =
    -sin(2 pi (f - 1/4)) of that f has the window's sign, ends
    included, as f - 1/4 is exact for f >= 1/8 and negative below. A
    brute-force smallest k in [1, k_cap] is computed alongside as the
    oracle (epsilon_sharp = 1/max(brute_k)^2); the walk bound holds from
    start 1 too, so it raises RuntimeError where it finds none.
    """
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < arc.x_lo - 1e-12) or np.any(xs > arc.x_hi + 1e-12):
        raise ValueError("all phases must lie in the arc")
    b, k_cap = consts.bound_b, consts.k_cap
    k = _first_in_window(xs, b, k_cap)
    f = k * xs
    fallback = ~_in_window(f) | (k < b) | (k > k_cap)
    brute = _first_in_window(xs, 1, k_cap)
    if not brute.all():
        raise RuntimeError(f"brute scan found no power within the walk bound K = {k_cap}")
    # re = -sin(2 pi (f - 1/4)), in f's own buffer: no sample-sized temporary
    f -= 0.25
    f *= 2 * np.pi
    return PigeonholeBatch(
        k=k,
        brute_k=brute,
        fallback=fallback,
        re=-np.sin(f, out=f),
        epsilon_sharp=1.0 / float(np.max(brute)) ** 2,
    )


# -- putting it together -----------------------------------------------------------


@dataclass
class DeltaBoundReport:
    n_samples: int
    n_in_arc: int
    min_delta: float | None
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
