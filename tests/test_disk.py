"""Character-disk estimates and the closed-arc power machinery.

A1 is the exactly solvable case: the normalized character of lam=(2l) is
sin((2l+1)u)/((2l+1) sin u) at theta=(u,), minimized over all l >= 1 at
l=1, u=pi/2 with value -1/3. Everything else is property-tested.
"""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from adjointlab import characters, disk
from adjointlab.characters import theta_of_torus_fraction, weight_multiplicities
from adjointlab.disk import (
    ArcSpec,
    arc_constants,
    delta_lower_bound_check,
    disk_requirement,
    empirical_disk_constant,
    final_inequality_check,
    pigeonhole_batch,
)


def dirichlet_ratio_min(l):
    """Brute 1-D minimum of sin((2l+1)u)/((2l+1) sin u) over (0, pi)."""
    n = 2 * l + 1

    def f(u):
        return np.sin(n * u) / (n * np.sin(u))

    us = np.linspace(1e-4, np.pi - 1e-4, 20001)
    k = int(np.argmin(f(us)))
    res = minimize_scalar(f, bounds=(us[max(k - 1, 0)], us[min(k + 1, len(us) - 1)]),
                          method="bounded", options={"xatol": 1e-12})
    return float(res.fun)


def in_c_disk(c, z, tol=0.0):
    """Membership in the c-disk: center (1+c)/2, radius (1-c)/2."""
    return abs(z - (1.0 + c) / 2.0) <= (1.0 - c) / 2.0 + tol


def test_disk_param_membership():
    # the 0-disk has center 1/2 and radius 1/2; membership agrees with
    # 0 <= h(z) wherever h is defined
    for z, inside in ((0.5, True), (0.0, True), (-0.1, False), (0.5 + 0.6j, False)):
        assert in_c_disk(0.0, z) == inside
        assert (0.0 <= disk_requirement(z)) == inside
    assert in_c_disk(0.0, 1.0)  # the tangent point, where h is undefined
    # the (-1)-disk is the closed unit disk
    for phi in (0.3, 2.0, 4.4):
        assert in_c_disk(-1.0, np.exp(1j * phi), tol=1e-12)
    assert not in_c_disk(-1.0, 1.01j)


def test_disk_requirement_algebra(rng):
    # real points are fixed, the unit circle maps to -1, and membership in
    # the c-disk is exactly c <= h(z)
    for r in (-0.9, -1 / 3, 0.0, 0.7):
        assert disk_requirement(r) == pytest.approx(r, abs=1e-14)
    for phi in (0.3, 2.0, 4.4):
        assert disk_requirement(np.exp(1j * phi)) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        disk_requirement(1.0)
    with pytest.raises(ValueError):
        disk_requirement(1.0 + 1e-12j)
    # a rounding-level overshoot of the unit circle counts as on it; a
    # larger one is no normalized character value
    for phi in (0.3, 2.0, 4.4):
        assert disk_requirement((1 + 1e-12) * np.exp(1j * phi)) == -1.0
    with pytest.raises(ValueError, match="unit disk"):
        disk_requirement(1.01j)
    zs = rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400)
    zs = zs[np.abs(zs) <= 0.999]
    h = disk_requirement(zs)
    for c in (-0.9, -1 / 3, 0.0, 0.5):
        inside = np.array([in_c_disk(c, z, tol=1e-12) for z in zs])
        assert np.array_equal(inside, c <= h + 1e-9)


def test_disk_requirement_boundaries():
    # both tolerances are compared as squares: |z| = 1 + 0.9e-9 is rounding
    # and maps to -1 while 1 + 1.1e-9 is off the disk; within 0.9e-9 of
    # z = 1 h is undefined, at 1.1e-9 it is not
    for phi in (0.3, 2.0, 4.4):
        u = np.exp(1j * phi)
        assert disk_requirement((1 + 0.9e-9) * u) == -1.0
        with pytest.raises(ValueError, match="unit disk"):
            disk_requirement((1 + 1.1e-9) * u)
        with pytest.raises(ValueError, match="unit disk"):
            disk_requirement(np.array([0.5, (1 + 1.1e-9) * u]))
    for phi in (2.0, np.pi, 4.0):
        u = np.exp(1j * phi)
        with pytest.raises(ValueError, match="z = 1"):
            disk_requirement(1 + 0.9e-9 * u)
        with pytest.raises(ValueError, match="z = 1"):
            disk_requirement(np.array([0.5, 1 + 0.9e-9 * u]))
        assert np.isfinite(disk_requirement(1 + 1.1e-9 * u))


def test_a1_disk_constant_exact(systems):
    est = empirical_disk_constant(systems["A1"], 8, 512)
    assert est.c_hat == pytest.approx(-1 / 3, abs=1e-12)
    assert est.lams[est.best] == (2,)
    assert est.thetas[est.best, 0] == pytest.approx(np.pi / 2, abs=1e-12)
    assert est.z[est.best] == pytest.approx(-1 / 3, abs=1e-12)
    assert est.lams == [(2,), (4,), (6,), (8,)]
    assert est.thetas.shape == (4, 1)
    for lam, h in zip(est.lams, est.h):
        assert h >= est.c_hat - 1e-15
        # each per-irrep grid minimum is bounded below by the true 1-D min
        assert h >= dirichlet_ratio_min(lam[0] // 2) - 1e-9


def test_a1_five_dim_minimum(systems):
    # lam=(4): the grid minimum approaches the analytic -1/4
    est = empirical_disk_constant(systems["A1"], 4, 4096)
    by_lam = dict(zip(est.lams, est.h))
    assert by_lam[(4,)] == pytest.approx(-0.25, abs=1e-5)
    assert dirichlet_ratio_min(2) == pytest.approx(-0.25, abs=1e-9)


def test_disk_constant_monotone(systems):
    rs = systems["A2"]
    by_wb = [empirical_disk_constant(rs, wb, 64).c_hat for wb in (2, 4, 6)]
    assert by_wb[0] >= by_wb[1] - 1e-12
    assert by_wb[1] >= by_wb[2] - 1e-12
    by_grid = [empirical_disk_constant(rs, 4, n).c_hat for n in (32, 64, 128)]
    assert by_grid[0] >= by_grid[1] - 1e-9
    assert by_grid[1] >= by_grid[2] - 1e-9
    assert all(-1 < c < 0 for c in by_wb + by_grid)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_scan_h_is_disk_requirement_of_the_quotient(systems, monkeypatch, label):
    # the scan's h, taken from chi.real * (1/dim) and chi.imag * (1/dim),
    # is disk_requirement of the materialized chi/dim bit for bit, inf at
    # the nodes at z = 1; each irrep's minimizing node and value, and the
    # winning grid, are those of the quotient too
    rs, n = systems[label], 64
    h_rule, scanned = disk._h, []

    def recorded(re, im):
        scanned.append(h_rule(re, im))  # the scan sets z = 1 to inf in place
        return scanned[-1]

    monkeypatch.setattr(disk, "_h", recorded)
    est = empirical_disk_constant(rs, 8, n)
    assert len(scanned) == len(est.lams)
    masked = 0
    for k, (lam, h) in enumerate(zip(est.lams, scanned)):
        table = weight_multiplicities(rs, lam)
        z = (characters.character_grid(table, n) / table.dim).ravel()
        one = (z.real - 1) ** 2 + z.imag ** 2 <= disk.DISK_TOL ** 2
        masked += int(one.sum())
        expected = np.full(z.shape, np.inf)
        expected[~one] = disk_requirement(z[~one])
        assert np.array_equal(h.view(np.int64), expected.view(np.int64)), lam
        i = int(np.argmin(expected))
        assert est.h[k] == expected[i]
        y = characters.grid_torus_fractions(rs, i, n)
        assert np.array_equal(est.thetas[k], theta_of_torus_fraction(rs, y))
        assert np.array_equal(est.z[k:k + 1].view(np.int64), z[i:i + 1].view(np.int64))
        if k == est.best:
            assert np.array_equal(est.values.ravel().view(np.int64), z.view(np.int64))
    assert masked >= len(est.lams)  # theta = 0 at least, on every irrep


def test_disk_constant_no_weights(systems):
    with pytest.raises(disk.CoarseGridError, match="no nontrivial root-lattice irrep"):
        empirical_disk_constant(systems["A2"], 1, 64)  # only the trivial weight


def test_disk_constant_rejects_values_off_the_disk(systems, monkeypatch):
    # chi/dim past the unit disk by more than rounding is a fault upstream,
    # not a disk constant
    def overshooting(table, n):
        return characters.character_grid(table, n) * (1 + 1e-6)

    monkeypatch.setattr(disk, "character_grid", overshooting)
    with pytest.raises(ValueError, match="unit disk"):
        empirical_disk_constant(systems["A2"], 4, 16)


def test_disk_constant_needs_two_grid_points(systems):
    # a 1-point grid sees only theta = 0, where every chi/dim is 1
    with pytest.raises(ValueError, match="grid_n must be >= 2"):
        empirical_disk_constant(systems["A2"], 4, 1)


def test_arc_constants_pinned():
    c = arc_constants(ArcSpec(0.5, 0.5), 2)
    assert (c.m, c.k_cap, c.epsilon, c.bound_b) == (0.5, 4, 1 / 16, 2)
    assert arc_constants(ArcSpec(0.25, 0.75), 4).k_cap == 7
    c = arc_constants(ArcSpec(0.005, 0.5), 2)
    assert c.k_cap == 103
    assert c.epsilon == 1 / 103**2


def test_arc_spec_validation():
    with pytest.raises(ValueError):
        ArcSpec(0.0, 0.5)
    with pytest.raises(ValueError):
        ArcSpec(0.6, 0.5)
    with pytest.raises(ValueError):
        ArcSpec(0.5, 1.0)
    with pytest.raises(ValueError):
        arc_constants(ArcSpec(0.4, 0.6), 0)


def test_pigeonhole_pins():
    arc = ArcSpec(0.05, 0.95)
    consts = arc_constants(arc, 2)
    for x, brute in [(0.5, 1), (1 / 3, 1), (0.1, 3)]:
        batch = pigeonhole_batch([x], consts, arc)
        k, bk = int(batch.k[0]), int(batch.brute_k[0])
        assert bk == brute
        assert consts.bound_b <= k <= consts.k_cap
        assert np.cos(2 * np.pi * k * x) <= 1e-8


def test_pigeonhole_batch_properties(rng):
    arc = ArcSpec(0.1, 0.9)
    consts = arc_constants(arc, 3)
    xs = rng.uniform(arc.x_lo, arc.x_hi, 4000)
    batch = pigeonhole_batch(xs, consts, arc)
    assert np.all(np.cos(2 * np.pi * batch.k * xs) <= 1e-8)
    assert np.all(batch.k >= consts.bound_b)
    assert np.all(batch.k <= consts.k_cap)
    assert np.all(batch.brute_k <= batch.k)
    assert np.all(batch.brute_k >= 1)
    assert batch.epsilon_sharp == pytest.approx(1.0 / batch.brute_k.max() ** 2)


def test_walk_bound_exact():
    # the walk bound of arc_constants, in integers: from any start s, the
    # first j >= s with frac(j x) in [1/4, 3/4] is at most
    # s + floor(1/(2||x||)) + 1; x runs over t/s, t/s +- 1e-9 and
    # t/s +- 1/(4qs), s <= q <= 30, from starts q, 1 and 7
    cases = set()
    for q in range(2, 31):
        for s in range(2, q + 1):
            for t in range(1, s):
                for num, den in ((t, s), (t * 10**9 + s, s * 10**9), (t * 10**9 - s, s * 10**9),
                                 (4 * q * t + 1, 4 * q * s), (4 * q * t - 1, 4 * q * s)):
                    cases |= {(num, den, q), (num, den, 1), (num, den, 7)}
    num, den, start = np.array(sorted(cases), dtype=np.int64).T
    r = num % den
    bound = start + den // (2 * np.minimum(r, den - r)) + 1
    first = np.zeros(num.size, dtype=np.int64)
    for j in range(start.min(), bound.max() + 1):
        # frac(j x) in [1/4, 3/4] for x = num/den, in integers
        r = (j * num) % den
        hit = (first == 0) & (j >= start) & (den <= 4 * r) & (4 * r <= 3 * den)
        first[hit] = j
    assert np.all(first >= start)
    assert np.all(first <= bound)
    assert np.any(first == bound)  # attained


def test_pigeonhole_walk_bound_is_attained_and_checked():
    # on [0.3, 0.4] from b = 5 some phase needs k = K = 7; with the cap one
    # lower the scan misses those phases, and the misses are fallbacks
    arc = ArcSpec(0.3, 0.4)
    consts = arc_constants(arc, 5)
    assert consts.k_cap == 7
    xs = np.random.default_rng(3).uniform(arc.x_lo, arc.x_hi, 200_000)
    batch = pigeonhole_batch(xs, consts, arc)
    assert batch.k.max() == 7
    assert not batch.fallback.any()
    short = pigeonhole_batch(xs, dataclasses.replace(consts, k_cap=6), arc)
    assert np.array_equal(short.fallback, batch.k == 7)


def test_first_in_window_closed_window():
    # the window's ends count: frac(s x) = 1/4 or 3/4 exactly is a hit
    k = disk._first_in_window([0.25, 0.75, 0.125, 0.1], 1, 3)
    assert k.tolist() == [1, 1, 2, 3]
    assert disk._first_in_window([0.1], 1, 2).tolist() == [0]


def _ulps_around(x, n=5):
    """x and its n nearest floats on either side."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[1:] + above


def test_pigeonhole_re_sign_is_the_window(monkeypatch):
    # re = Re omega^k comes from the fraction the window test reads, so it is
    # <= 0 exactly where the phase is no fallback, at the window's ends too
    arc = ArcSpec(0.05, 0.95)
    consts = arc_constants(arc, 2)
    edges = _ulps_around(0.25) + _ulps_around(0.75)
    # k = 2 takes 1/8 and 3/8 onto the window's ends, and their ulps just off them
    xs = np.concatenate([np.random.default_rng(11).uniform(0.05, 0.95, 100_000),
                         [0.125, 0.375], _ulps_around(0.125), _ulps_around(0.375), edges])
    batch = pigeonhole_batch(xs, consts, arc)
    assert not batch.fallback.any() and np.all(batch.re <= 0)
    assert batch.k[100_000] == batch.k[100_001] == 2
    assert batch.re[100_000] == 0.0 and batch.re[100_001] < 0.0  # f = 1/4, 3/4
    # with every k forced to 1 (b = 1), f = x, and the window decides each edge
    monkeypatch.setattr(disk, "_first_in_window",
                        lambda xs, start, stop: np.ones(np.shape(xs), dtype=np.int64))
    xs = np.concatenate([np.random.default_rng(12).uniform(0.05, 0.95, 100_000), edges])
    batch = pigeonhole_batch(xs, dataclasses.replace(consts, bound_b=1), arc)
    assert np.array_equal(batch.fallback, (xs < 0.25) | (xs > 0.75))
    assert np.array_equal(batch.re > 0, batch.fallback)
    assert batch.fallback[-22:].tolist() == [True] * 5 + [False] * 12 + [True] * 5


def test_pigeonhole_flags_constructive_misses(monkeypatch):
    # the constructive scan (from b) finds nothing, while the oracle's scan
    # (from 1) is the real one: every phase must be a fallback, with k
    # left as the scan returned it
    arc = ArcSpec(0.05, 0.95)
    consts = arc_constants(arc, 2)
    first_in_window = disk._first_in_window

    def scan(xs, start, stop):
        k = first_in_window(xs, start, stop)
        return np.zeros_like(k) if start == consts.bound_b else k

    monkeypatch.setattr(disk, "_first_in_window", scan)
    xs = np.random.default_rng(7).uniform(arc.x_lo, arc.x_hi, 2000)
    batch = pigeonhole_batch(xs, consts, arc)
    assert not batch.k.any()
    assert batch.fallback.all()
    assert batch.brute_k.all()


def test_pigeonhole_oracle_raises_past_the_walk_bound(monkeypatch):
    # the oracle's scan finding no power within K contradicts the walk bound
    arc = ArcSpec(0.05, 0.95)
    monkeypatch.setattr(disk, "_first_in_window",
                        lambda xs, start, stop: np.zeros(np.shape(xs), dtype=np.int64))
    with pytest.raises(RuntimeError, match="walk bound"):
        pigeonhole_batch([0.1, 0.5], arc_constants(arc, 2), arc)


def test_frac_is_np_mod_bit_for_bit():
    # v - floor(v) is exact, so the fraction the window test leaves in
    # place, which pigeonhole_batch reads re from, is np.mod's
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.02, 0.98, 20000)
    v = np.concatenate([np.arange(1, 200)[:, None] * xs[:200], rng.uniform(-50, 50, 1000),
                        [0.0, -0.0, 5e-324, -5e-324, 3.0, -3.0, 2.0**52 + 0.5, 1e300]],
                       axis=None)
    f = v.copy()
    hit = disk._in_window(f)
    expected = np.mod(v, 1.0)
    assert np.array_equal(f.view(np.int64), expected.view(np.int64))
    assert np.array_equal(hit, (expected >= 0.25) & (expected <= 0.75))


def test_pigeonhole_rejects_outside_arc():
    arc = ArcSpec(0.4, 0.6)
    consts = arc_constants(arc, 2)
    with pytest.raises(ValueError):
        pigeonhole_batch([0.2], consts, arc)


def test_delta_lower_bound_on_a1_scan(systems, character_value):
    rs = systems["A1"]
    arc = ArcSpec(0.45, 0.55)
    consts = arc_constants(arc, 2)
    scans = []
    for lam in ((2,), (4,), (6,)):
        table = weight_multiplicities(rs, lam)
        z = [character_value(table, theta_of_torus_fraction(rs, (y,))) / table.dim
             for y in np.arange(256) / 256]
        scans.append((lam, np.array(z)))
    report = delta_lower_bound_check(scans, arc, consts)
    assert report.violations == []
    assert report.n_samples == 3 * 256
    assert report.n_in_arc > 0
    # the deepest point in this arc is z = -1/3 (phase 1/2), so delta = 2/3
    assert report.min_delta == pytest.approx(2 / 3, abs=1e-9)
    assert report.margin == pytest.approx(report.min_delta - consts.epsilon)


def test_delta_check_skips_rounding_zeros():
    # a value at rounding level has a noise phase, so it is no in-arc sample
    arc = ArcSpec(0.45, 0.55)
    consts = arc_constants(arc, 2)
    z = np.array([1e-15 * np.exp(1j * np.pi), 0.5 * np.exp(1j * np.pi)])
    report = delta_lower_bound_check([((2,), z)], arc, consts)
    assert report.n_samples == 2
    assert report.n_in_arc == 1
    assert report.min_delta == pytest.approx(0.5)


def test_delta_check_reports_a_violation():
    # a value just inside the unit circle on the arc is too close to it
    arc = ArcSpec(0.45, 0.55)
    consts = arc_constants(arc, 2)
    z = np.array([(1 - consts.epsilon / 2) * np.exp(1j * np.pi)])
    report = delta_lower_bound_check([((4,), z)], arc, consts)
    assert len(report.violations) == 1
    assert report.violations[0].startswith("lambda=(4,), z=")
    assert report.min_delta == pytest.approx(consts.epsilon / 2)
    assert report.margin < 0


def test_final_inequality_sweep():
    for k in range(1, 60):
        for c in np.linspace(0.02, 0.98, 25):
            assert final_inequality_check(k, float(c))
    with pytest.raises(ValueError):
        final_inequality_check(0, 0.5)
    with pytest.raises(ValueError):
        final_inequality_check(3, 1.5)
