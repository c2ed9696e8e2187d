"""Acceptance battery: the nine gate checks for this laboratory.

Each gate pins an end-to-end quantitative claim with explicit tolerances
and, where one exists, an independent oracle computed in this file. These
are intentionally larger than the unit tests; the whole battery is sized
for a desk machine (minutes, not hours).
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from adjointlab.characters import (
    character_grid,
    haar_character_integral,
    weight_multiplicities,
    weyl_density_grid,
)
from adjointlab.classpowers import (
    bch_scaling_fit,
    class_power_identity_check,
    conjugacy_class,
    product_radius_mu,
    word_map,
)
from adjointlab.cli import main
from adjointlab.compactform import group_exp, sample_unit
from adjointlab.disk import (
    ArcSpec,
    arc_constants,
    delta_lower_bound_check,
    disk_requirement,
    empirical_disk_constant,
    final_inequality_check,
    pigeonhole_batch,
)
from adjointlab.orbits import (
    SOLVE_TOL,
    bounded_partial_sum_sequence,
    distance_to_ray,
    find_vanishing_submersive_tuple,
    lattice_ray_walk,
    orbit_sum,
    orbit_sum_rank,
)
from adjointlab.rootsys import enumerate_adjoint_dominant_weights

MASTER_SEED = 20260816


def dirichlet_ratio_min(l):
    """Brute 1-D minimum of sin((2l+1)u)/((2l+1) sin u): the normalized A1
    character of lam=(2l), computed without any package code."""
    n = 2 * l + 1

    def f(u):
        return np.sin(n * u) / (n * np.sin(u))

    us = np.linspace(1e-4, np.pi - 1e-4, 40001)
    k = int(np.argmin(f(us)))
    res = minimize_scalar(
        f, bounds=(us[max(k - 1, 0)], us[min(k + 1, len(us) - 1)]),
        method="bounded", options={"xatol": 1e-13},
    )
    return float(res.fun)


# -- gate 1: the SO(3) disk constant is exactly -1/3 --------------------------


def test_gate1_so3_disk_constant(systems):
    start = time.monotonic()
    # per-axis 4096 puts the theta spacing at pi/4096 < 1e-3
    est = empirical_disk_constant(systems["A1"], 20, 4096)
    oracle = min(dirichlet_ratio_min(l) for l in range(1, 21))
    assert oracle == pytest.approx(-1 / 3, abs=1e-9)  # global min sits at l=1
    assert est.c_hat == pytest.approx(-1 / 3, abs=1e-6)
    assert est.c_hat == pytest.approx(oracle, abs=1e-6)
    assert est.lams[est.best] == (2,)
    # the pairing of the root with theta is 2 theta_1 = pi at the minimizer
    assert 2 * est.thetas[est.best, 0] == pytest.approx(np.pi, abs=1e-6)
    assert time.monotonic() - start < 60.0


# -- gate 2: PSU(3) and G2 disk constants, monotone refinement ----------------


@pytest.mark.parametrize("label", ["A2", "G2"])
def test_gate2_rank2_disk_constants(systems, label):
    start = time.monotonic()
    rs = systems[label]
    by_wb = {wb: empirical_disk_constant(rs, wb, 128)
             for wb in (2, 6, 10)}
    for est in by_wb.values():
        assert -1.0 < est.c_hat < 0.0
        # the attaining sample is recorded and priced correctly
        assert disk_requirement(est.z[est.best]) == pytest.approx(est.c_hat, abs=1e-12)
        assert np.array_equal(disk_requirement(est.z), est.h)
    assert by_wb[6].c_hat <= by_wb[2].c_hat + 1e-12
    assert by_wb[10].c_hat <= by_wb[6].c_hat + 1e-12
    by_grid = {n: empirical_disk_constant(rs, 6, n).c_hat
               for n in (64, 128, 256)}
    assert by_grid[128] <= by_grid[64] + 1e-9
    assert by_grid[256] <= by_grid[128] + 1e-9
    assert time.monotonic() - start < 600.0


# -- gate 3: Haar orthogonality of every scanned nontrivial character ---------


def test_gate3_haar_orthogonality(systems):
    for label, n, tol in (("A1", 2048, 1e-6), ("A2", 256, 1e-4)):
        rs = systems[label]
        density = weyl_density_grid(rs, n)
        for lam in enumerate_adjoint_dominant_weights(rs, 8):
            chi = character_grid(weight_multiplicities(rs, lam), n)
            assert abs(haar_character_integral(rs, chi, density)) <= tol, lam


# -- gate 4: orbit-sum vanishing with full-rank differential ------------------


def test_gate4_a1_equilateral_triple(bases):
    b = bases["A1"]
    x = np.array([1.0, 0.0, 0.0])
    gs = []
    for k in range(3):
        axis = np.zeros(3)
        axis[2] = (2 * np.pi * k / 3) / np.sqrt(2)
        gs.append(group_exp(b, axis))
    assert np.linalg.norm(orbit_sum(x, gs)) <= 1e-10
    assert orbit_sum_rank(b, x, gs) == 3


def test_gate4_a2_submersive_tuples_20_of_20(bases):
    b = bases["A2"]
    children = np.random.SeedSequence(MASTER_SEED).spawn(20)
    for child in children:
        rng = np.random.default_rng(child)
        x = sample_unit(b, rng)
        gs, residual, rank = find_vanishing_submersive_tuple(b, x, rng)
        assert residual <= SOLVE_TOL and rank == 8
        assert len(gs) <= 16
        assert np.linalg.norm(orbit_sum(x, gs)) <= 1e-10
        assert orbit_sum_rank(b, x, gs) == 8


# -- gate 5: lattice-walk and partial-sum bounds, 10^3 x 10^4 -----------------


def test_gate5_ray_distance_bound():
    rng = np.random.default_rng(MASTER_SEED)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.05, 4.0, size=n)
        walk = lattice_ray_walk(a, 10_000)
        assert distance_to_ray(walk, a).max() <= np.sqrt(2 * n)


def test_gate5_partial_sum_bound():
    rng = np.random.default_rng(MASTER_SEED + 1)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 5))
        a = rng.uniform(0.2, 2.0, size=n)
        v = rng.standard_normal((n, d))
        v[-1] = -(a[:-1] @ v[:-1]) / a[-1]  # exact positive-weight vanishing
        walk = bounded_partial_sum_sequence(v, a, 10_000)
        bound = n * np.sqrt(2 * n) * np.linalg.norm(v, axis=1).max()
        assert np.linalg.norm(walk @ v, axis=1).max() <= bound


# -- gate 6: class powers reach the identity interiorly -----------------------


def test_gate6_a1_20_class_grid(bases):
    b = bases["A1"]
    ts = [round(float(t), 6) for t in np.linspace(0.1, 2.0, 20)]
    children = np.random.SeedSequence(MASTER_SEED).spawn(len(ts))
    for t, child in zip(ts, children):
        rng = np.random.default_rng(child)
        cls = conjugacy_class(b, sample_unit(b, rng), t)
        report = class_power_identity_check(cls, 2, rng)
        assert report.reachable, t
        assert report.interior, t
        assert report.falsifications == [], t
        # oracle: the class of a rotation contains its inverse, so the
        # identity is a two-term word by construction: K * (f K f^T) with f
        # the half-turn about an axis orthogonal to the class axis
        flip_axis = np.zeros(3)
        flip_axis[np.argmin(np.abs(cls.x))] = 1.0
        flip_axis -= (flip_axis @ cls.x) * cls.x
        flip_axis /= np.linalg.norm(flip_axis)
        flip = group_exp(b, (np.pi / np.sqrt(2)) * flip_axis)
        w = word_map(cls, [np.eye(3), flip])
        assert np.linalg.norm(w - np.eye(3)) <= 1e-12


@pytest.mark.parametrize("label,n_power", [("A2", 3), ("B2", 3)])
def test_gate6_rank2_classes(bases, label, n_power):
    b = bases[label]
    children = np.random.SeedSequence(MASTER_SEED + 2).spawn(4)
    for t, child in zip((0.1, 0.5, 1.0, 1.5), children):
        rng = np.random.default_rng(child)
        cls = conjugacy_class(b, sample_unit(b, rng), t)
        report = class_power_identity_check(cls, n_power, rng)
        assert report.reachable and report.interior, (label, t)
        assert report.rank_at_best == b.dim, (label, t)
        assert report.falsifications == [], (label, t)


# -- gate 7: BCH remainder scales like t^2 ------------------------------------


def test_gate7_bch_scaling(bases):
    rng = np.random.default_rng(MASTER_SEED + 3)
    for label in ("A1", "A2", "G2"):
        b = bases[label]
        fit = bch_scaling_fit(b, list(sample_unit(b, rng, 3)))
        assert 1.95 <= fit.exponent <= 2.05, label
    b = bases["A2"]
    x = sample_unit(b, rng)
    commuting = bch_scaling_fit(b, [x, 0.7 * x, 1.3 * x])
    assert commuting.exact_zero
    mu = product_radius_mu(bases["A1"], 4, 0.05, 1000, rng)
    assert mu.holds
    assert mu.mu_hat <= mu.bound


# -- gate 8: arc-lemma machinery at scale --------------------------------------


def test_gate8_pigeonhole_100_arcs():
    rng = np.random.default_rng(MASTER_SEED + 4)
    for _ in range(100):
        lo = float(rng.uniform(0.05, 0.45))
        hi = float(rng.uniform(lo, 0.95))
        arc = ArcSpec(lo, hi)
        consts = arc_constants(arc, 2)
        xs = rng.uniform(lo, hi, size=1000)
        batch = pigeonhole_batch(xs, consts, arc)
        assert np.all(np.cos(2 * np.pi * batch.k * xs) <= 1e-9)
        assert np.all(batch.k <= 2 * consts.p * consts.q)
        assert np.all(batch.k >= consts.bound_b)


def test_gate8_pigeonhole_dense_sampling():
    # one wide arc at the full 1e5-sample scale
    rng = np.random.default_rng(MASTER_SEED + 5)
    arc = ArcSpec(0.05, 0.95)
    consts = arc_constants(arc, 2)
    xs = rng.uniform(arc.x_lo, arc.x_hi, size=100_000)
    batch = pigeonhole_batch(xs, consts, arc)
    assert np.all(np.cos(2 * np.pi * batch.k * xs) <= 1e-9)
    assert np.all(batch.k <= 2 * consts.p * consts.q)
    assert not batch.fallback.any()


def test_gate8_delta_bound_on_scans(systems, whole_grid):
    arc = ArcSpec(0.45, 0.55)
    consts = arc_constants(arc, 2)
    for label, grid, wb in [("A1", 2048, 8), ("A2", 128, 6)]:
        rs = systems[label]
        tables = [weight_multiplicities(rs, lam)
                  for lam in enumerate_adjoint_dominant_weights(rs, wb)]
        # every node of the full grid is a sample, as in arc-lemma
        scans = ((t.lam, whole_grid(t, grid) / t.dim) for t in tables)
        report = delta_lower_bound_check(scans, arc, consts)
        assert report.violations == [], label
        assert report.n_samples == len(tables) * grid ** rs.rank
        assert report.n_in_arc > 0
        if report.min_delta is not None:
            assert report.min_delta >= consts.epsilon


def test_gate8_final_inequality_sweep():
    for k in range(1, 101):
        for c in np.linspace(0.01, 0.99, 99):
            assert final_inequality_check(k, float(c))


# -- gate 9: byte-identical reruns ---------------------------------------------


def test_gate9_verify_all_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["verify-all", "--seed", str(MASTER_SEED), "--out", str(out1)]) == 0
    assert main(["verify-all", "--seed", str(MASTER_SEED), "--out", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and names1
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
