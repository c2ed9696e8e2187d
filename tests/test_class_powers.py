"""Conjugacy-class word maps and BCH remainder scaling.

The SO(3) picture is the oracle throughout: the adjoint group of A1 is the
rotation group, a class is "all rotations by angle phi = sqrt(2) t", and a
product of two class elements realizes exactly the rotations by angles in
[0, 2 phi]. That makes reachability decidable by hand.
"""

import dataclasses
import sys

import numpy as np
import pytest

from adjointlab import classpowers, compactform
from adjointlab.cli import CLASS_T_MAX
from adjointlab.classpowers import (
    FACTOR_ORTHO_TOL,
    INTERIOR_EPS,
    PRODUCT_CHUNK,
    WORD_MAX_ITER,
    REACH_STARTS,
    WORD_TOL,
    ConjugacyClass,
    _prefix_products,
    _tangent_matrix,
    _word_residual,
    bch_remainder,
    bch_scaling_fit,
    class_power_identity_check,
    conjugacy_class,
    product_radius_mu,
    solve_word_to_target,
    tangent_rank,
    word_map,
)
from adjointlab.compactform import (
    LogRangeError,
    algebra_coords,
    bracket,
    gauss_newton,
    group_exp,
    group_log,
    sample_unit,
)
from adjointlab.orbits import (
    SOLVE_TOL,
    find_vanishing_submersive_tuple,
    random_group_element,
)

E1 = np.array([1.0, 0.0, 0.0])


def rotation(basis, axis_index, angle):
    x = np.zeros(basis.dim)
    x[axis_index] = angle / np.sqrt(2)
    return group_exp(basis, x)


def test_conjugacy_class_normalizes(bases):
    b = bases["A1"]
    cls = conjugacy_class(b, 5.0 * E1, 0.3)
    assert np.allclose(cls.x, E1)
    assert cls.t == 0.3
    assert np.allclose(cls.factor_matrix, group_exp(b, 0.3 * E1), atol=1e-14)
    with pytest.raises(ValueError):
        conjugacy_class(b, E1, 0.0)
    with pytest.raises(ValueError):
        conjugacy_class(b, np.zeros(3), 0.5)


def test_conjugacy_class_cannot_go_stale(bases):
    # factor_matrix caches exp(t ad X): no field may change under it, and a
    # class cannot be built without it
    b = bases["A1"]
    cls = conjugacy_class(b, E1, 0.3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cls.t = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cls.factor_matrix = np.eye(3)
    with pytest.raises(TypeError, match="factor_matrix"):
        ConjugacyClass(b, E1, 0.3)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_class_factor_orthogonality_is_checked(bases, rng, label, monkeypatch):
    # at the largest scale the CLI accepts, every factor passes the check;
    # a factor off orthogonal by ~2e-9 fails it
    b = bases[label]
    for x in sample_unit(b, rng, 5):
        f = conjugacy_class(b, x, CLASS_T_MAX).factor_matrix
        assert np.abs(f @ f.T - np.eye(b.dim)).max() <= FACTOR_ORTHO_TOL
    real_exp = classpowers.group_exp
    monkeypatch.setattr(classpowers, "group_exp", lambda basis, x: (1 + 1e-9) * real_exp(basis, x))
    with pytest.raises(AssertionError, match="off orthogonal"):
        conjugacy_class(b, sample_unit(b, rng), CLASS_T_MAX)


def test_word_map_empty_is_identity(bases):
    cls = conjugacy_class(bases["A1"], E1, 0.4)
    assert np.array_equal(word_map(cls, []), np.eye(3))


def test_word_map_equivariance(bases, rng):
    b = bases["B2"]
    cls = conjugacy_class(b, sample_unit(b, rng), 0.7)
    gs = random_group_element(b, rng, 3)
    h = random_group_element(b, rng, 1)[0]
    lhs = h @ word_map(cls, gs) @ h.T
    rhs = word_map(cls, h @ gs)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_tangent_rank_pins(bases):
    b = bases["A1"]
    quarter = [rotation(b, i, np.pi / 2) for i in range(3)]
    assert tangent_rank(b, []) == 0
    assert tangent_rank(b, [np.eye(3)]) == 0
    assert tangent_rank(b, [quarter[0]]) == 2
    assert tangent_rank(b, quarter) == 3
    # appending can only grow the rank
    r2 = tangent_rank(b, quarter[:2])
    assert 2 <= r2 <= 3


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_tangent_matrix_is_word_jacobian(bases, rng, label):
    # the solve's Jacobian: g_i -> exp(eps ad u_i) g_i moves W by
    # W(eps) W^T = 1 + eps ad(J u) + O(eps^2)
    b = bases[label]
    cls = conjugacy_class(b, sample_unit(b, rng), 0.8)
    gs = random_group_element(b, rng, 3)
    u = rng.normal(size=3 * b.dim)
    w = word_map(cls, gs)
    xs = gs @ cls.factor_matrix @ gs.mT
    tangent = _tangent_matrix(_prefix_products(xs))
    # the prefix differences are the blocks [(1 - x1) | x1 (1 - x2) | ...]
    one = np.eye(b.dim)
    direct = np.hstack([one - xs[0], xs[0] @ (one - xs[1]), xs[0] @ xs[1] @ (one - xs[2])])
    assert np.allclose(tangent, direct, atol=1e-12)
    ju = tangent @ u
    errs = []
    for eps in (1e-3, 1e-4):
        moved = group_exp(b, eps * u.reshape(3, b.dim)) @ gs
        fd = algebra_coords(b, word_map(cls, moved) @ w.T) / eps
        errs.append(np.linalg.norm(fd - ju))
    assert errs[1] < 1e-3 * np.linalg.norm(ju)
    assert errs[1] < 0.2 * errs[0]  # the error is O(eps)


def test_solve_word_reachable_target(bases, rng):
    # class angle sqrt(2)*0.1 = 0.1414..; two factors reach angles <= 0.2829
    b = bases["A1"]
    cls = conjugacy_class(b, E1, 0.1)
    target = rotation(b, 2, 0.15)
    gs, residual = solve_word_to_target(cls, 2, target, rng, starts=REACH_STARTS)
    assert residual <= 1e-8
    assert np.allclose(word_map(cls, gs), target, atol=1e-7)
    assert len(gs) == 2


def test_solve_word_unreachable_target(bases, rng):
    b = bases["A1"]
    cls = conjugacy_class(b, E1, 0.1)
    target = rotation(b, 2, 0.30)  # 0.30 > 2*sqrt(2)*0.1
    # a miss is returned, not raised: the closest tuple and its residual
    gs, residual = solve_word_to_target(cls, 2, target, rng, starts=8)
    assert residual > 0.01
    assert gs.shape == (2, b.dim, b.dim)
    assert residual == pytest.approx(np.linalg.norm(word_map(cls, gs) - target), rel=1e-12)


@pytest.mark.parametrize("n, t", [(2, 0.2), (2, 0.6), (2, 1.0), (3, 0.2), (3, 1.0)])
def test_solver_reach_is_the_so3_ball(bases, n, t):
    # C^n on A1 is the ball of rotation angle min(n phi, pi), phi = sqrt(2) t:
    # the solver hits at 0.98 of the radius and misses at 1.02, except where
    # 1.02 n phi >= pi wraps back inside the ball
    b = bases["A1"]
    rng = np.random.default_rng([n, round(10 * t)])
    cls = conjugacy_class(b, sample_unit(b, rng), t)
    radius = n * np.sqrt(2) * t
    axis = sample_unit(b, rng)
    for r in (0.98, 1.02):
        if r * radius >= np.pi:
            continue
        target = group_exp(b, r * radius / np.sqrt(2) * axis)
        _, residual = solve_word_to_target(cls, n, target, rng, starts=16)
        assert (residual <= WORD_TOL) == (r < 1), (r, residual)


def test_each_round_draws_its_starts_in_one_call(bases, rng, monkeypatch):
    # a round is one start: a generic A2 class misses I at n = 2, so every
    # start runs, and each draws its 2 factors at once; a reachable A1
    # target stops at the first
    sizes = []

    def spy(basis, rng, n):
        sizes.append(n)
        return random_group_element(basis, rng, n)

    monkeypatch.setattr(classpowers, "random_group_element", spy)
    b = bases["A2"]
    cls = conjugacy_class(b, sample_unit(b, rng), 0.9)
    _, residual = solve_word_to_target(cls, 2, np.eye(b.dim), rng, starts=3)
    assert sizes == [2, 2, 2]
    assert residual > WORD_TOL
    sizes.clear()
    a1 = bases["A1"]
    cls = conjugacy_class(a1, E1, 0.1)
    _, residual = solve_word_to_target(cls, 2, rotation(a1, 2, 0.15), rng, starts=REACH_STARTS)
    assert sizes == [2]
    assert residual <= WORD_TOL


def test_solve_with_no_starts_is_refused(bases, rng):
    # no start means no run to return, not an uninitialized tuple at inf
    cls = conjugacy_class(bases["A1"], E1, 0.1)
    with pytest.raises(ValueError, match="starts"):
        solve_word_to_target(cls, 2, np.eye(3), rng, starts=0)


def test_probe_miss_is_a_falsification_with_no_fresh_start(bases, rng, monkeypatch):
    # a probe target that the warm-started stack misses is falsified at
    # once: no fresh start may hide the miss, so every random tuple is
    # drawn before the probe's one stacked solve
    b = bases["G2"]
    cls = conjugacy_class(b, sample_unit(b, rng), 0.9)
    events = []  # the batch size of each solve, and "draw" for each draw
    real_solve, real_draw = classpowers.gauss_newton, classpowers.random_group_element

    def first_target_missed(basis, gs, *args):
        events.append(len(gs))
        solved = real_solve(basis, gs, *args)
        if len(gs) > 1:  # the probe's stack
            solved[1][0] = 1.0
        return solved

    def spy(basis, rng, n):
        events.append("draw")
        return real_draw(basis, rng, n)

    monkeypatch.setattr(classpowers, "gauss_newton", first_target_missed)
    monkeypatch.setattr(classpowers, "random_group_element", spy)
    report = class_power_identity_check(cls, 2, rng, interior_targets=12)
    assert report.reachable
    assert report.interior_targets_hit == 11 and report.interior_targets_total == 12
    assert not report.interior
    assert report.falsifications == ["interior target 0 missed (residual 1.000e+00)"]
    probe = events.index(12)
    assert "draw" in events[:probe] and "draw" not in events[probe:]


def test_single_factor_cannot_reach_identity(bases, rng, monkeypatch):
    b = bases["A1"]
    cls = conjugacy_class(b, E1, 0.1)
    monkeypatch.setattr(classpowers, "REACH_STARTS", 6)
    report = class_power_identity_check(cls, 1, rng, interior_targets=4)
    assert not report.reachable
    assert not report.interior
    # the n=1 residual is conjugation-invariant: always ||K - I||_F
    phi = np.sqrt(2) * 0.1
    assert report.min_residual == pytest.approx(np.sqrt(4 * (1 - np.cos(phi))), rel=1e-6)


def test_identity_reachable_a1_two_factors(bases, rng):
    b = bases["A1"]
    cls = conjugacy_class(b, E1, 0.1)
    report = class_power_identity_check(cls, 2, rng, interior_targets=10)
    assert report.reachable and report.interior
    assert report.min_residual <= 1e-8
    assert report.rank_at_best == 2  # identity fiber: x2 = x1^-1, rank dim-1
    assert report.interior_targets_hit == 10
    assert report.falsifications == []
    assert report.n == 2 and report.reachable is True


def test_identity_reachable_a2_three_factors(bases, rng):
    b = bases["A2"]
    cls = conjugacy_class(b, sample_unit(b, rng), 0.5)
    report = class_power_identity_check(cls, 3, rng, interior_targets=6)
    assert report.reachable and report.interior
    assert report.rank_at_best == 8
    assert report.falsifications == []


def test_solved_tuples_are_orthogonal(bases, rng):
    # gauss_newton re-orthogonalizes the stack it returns, once per solve,
    # so the tuples both searches return are orthogonal to rounding
    g2, a2 = bases["G2"], bases["A2"]
    orbit_gs, residual, rank = find_vanishing_submersive_tuple(g2, sample_unit(g2, rng), rng)
    assert residual <= SOLVE_TOL and rank == g2.dim
    cls = conjugacy_class(a2, sample_unit(a2, rng), 0.9)
    word_gs, _ = solve_word_to_target(cls, 3, np.eye(a2.dim), rng, starts=REACH_STARTS)
    for gs in (orbit_gs, word_gs):
        assert np.abs(gs @ gs.mT - np.eye(gs.shape[-1])).max() <= 1e-12


def _lockstep_against_alone(cls, n, targets, rng):
    """Solve the targets as one stack and each alone from the same random
    starts; every member must end as its solve alone does."""
    starts = np.stack([random_group_element(cls.basis, rng, n) for _ in targets])
    gs, merit = gauss_newton(cls.basis, starts, _word_residual(cls, targets),
                             _tangent_matrix, WORD_TOL, WORD_MAX_ITER)
    for k in range(len(targets)):
        (gs_k,), (merit_k,) = gauss_newton(
            cls.basis, starts[k:k + 1], _word_residual(cls, targets[k:k + 1]),
            _tangent_matrix, WORD_TOL, WORD_MAX_ITER)
        assert (merit[k] <= WORD_TOL) == (merit_k <= WORD_TOL)
        assert abs(merit[k] - merit_k) <= 1e-12
        assert np.abs(gs[k] - gs_k).max() <= 1e-12
    return merit


@pytest.mark.parametrize("label, n", [("A2", 3), ("G2", 2)])
def test_lockstep_solve_equals_one_at_a_time(bases, rng, label, n):
    # members finish at different iterations (at this scale one A2 start
    # stalls); one that has finished must not move while the rest of the
    # stack keeps stepping
    b = bases[label]
    cls = conjugacy_class(b, sample_unit(b, rng), 1.2)
    near = group_exp(b, 1e-3 * sample_unit(b, rng, 2))
    reachable = np.stack([word_map(cls, random_group_element(b, rng, n)) for _ in range(3)])
    targets = np.concatenate([np.eye(b.dim)[None], near, reachable])
    merit = _lockstep_against_alone(cls, n, targets, rng)
    assert np.sum(merit <= WORD_TOL) >= 3


def test_lockstep_member_that_cannot_converge(bases, rng):
    # a generic A2 class is not self-inverse, so I is not in C.C: that member
    # stalls while the reachable ones converge, and changes none of them
    b = bases["A2"]
    cls = conjugacy_class(b, sample_unit(b, rng), 0.9)
    reachable = [word_map(cls, random_group_element(b, rng, 2)) for _ in range(5)]
    targets = np.stack(reachable[:2] + [np.eye(b.dim)] + reachable[2:])
    merit = _lockstep_against_alone(cls, 2, targets, rng)
    assert merit[2] > 1e-3
    assert np.all(np.delete(merit, 2) <= WORD_TOL)


def test_gauss_newton_trials_rotate_at_most_pi(bases, rng, monkeypatch):
    # the doomed A2 n = 2 solve takes long steps; each member's first trial
    # is capped so that sqrt(2) max_i ||x_i||, which bounds the rotation
    # angle of exp(ad x_i), is at most pi, and some trials sit at the cap
    b = bases["A2"]
    cls = conjugacy_class(b, sample_unit(b, rng), 0.9)
    widest = []
    real_exp = compactform.group_exp

    def spy(basis, x):
        widest.append(np.sqrt(2.0) * np.linalg.norm(x, axis=-1).max())
        return real_exp(basis, x)

    monkeypatch.setattr(compactform, "group_exp", spy)
    _, residual = solve_word_to_target(cls, 2, np.eye(b.dim), rng, starts=2)
    assert residual > 1e-3
    assert max(widest) <= np.pi * (1 + 1e-12)
    assert max(widest) >= np.pi * (1 - 1e-12)


def test_lockstep_probe_takes_no_svd_per_iteration(bases, rng, monkeypatch):
    # a G2 n = 2 interiority probe of 24 targets steps by batched Gram
    # solves; the only SVD left in the solve is the final projection
    b = bases["G2"]
    cls = conjugacy_class(b, sample_unit(b, rng), 0.9)
    gs, residual = solve_word_to_target(cls, 2, np.eye(b.dim), rng, starts=REACH_STARTS)
    assert residual <= WORD_TOL
    callers = []
    real_svd = np.linalg.svd

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    targets = group_exp(b, INTERIOR_EPS * sample_unit(b, rng, 24))
    _, probe = gauss_newton(b, np.broadcast_to(gs, (24,) + gs.shape), _word_residual(cls, targets),
                            _tangent_matrix, WORD_TOL, WORD_MAX_ITER)
    assert np.all(probe <= WORD_TOL)
    assert callers and set(callers) == {"project_orthogonal"}


def test_bch_remainder_single_factor_exact(bases, rng):
    b = bases["G2"]
    x = sample_unit(b, rng)
    assert np.array_equal(bch_remainder(b, 0.3, [x]), np.zeros(b.dim))


def test_bch_remainder_commuting_exact(bases, rng):
    b = bases["A1"]
    x = sample_unit(b, rng)
    r = bch_remainder(b, 0.2, [x, x])
    assert np.abs(r).max() < 1e-13
    fit = bch_scaling_fit(b, [x, x])
    assert fit.exact_zero
    assert fit.exponent is None


def test_bch_leading_term(bases, rng):
    b = bases["A2"]
    xs = list(sample_unit(b, rng, 2))
    t = 1e-3
    r = bch_remainder(b, t, xs)
    # Dynkin's leading term of the remainder: (t^2/2) [X_1, X_2]
    lead = (t ** 2 / 2) * bracket(b, xs[0], xs[1])
    assert np.linalg.norm(r - lead) < 1e-2 * np.linalg.norm(lead)


def test_bch_scaling_exponent(bases, rng):
    for label in ("A1", "B2"):
        b = bases[label]
        xs = list(sample_unit(b, rng, 3))
        fit = bch_scaling_fit(b, xs)
        assert not fit.exact_zero
        assert 1.9 <= fit.exponent <= 2.1
        assert fit.constant > 0
        assert len(fit.t_grid) == len(fit.remainder_norms)


def test_product_radius_mu(bases, rng):
    b = bases["A1"]
    rep = product_radius_mu(b, 3, 0.05, 200, rng)
    assert rep.holds and rep.max_ratio <= 1 + 1e-9
    assert rep.mu_hat <= rep.bound == max(rep.m_constants)
    assert set(rep.m_constants) <= {1, 2, 3}
    assert rep.mu_hat > 0.9  # a single unit factor already gives ~1


def per_sample_product_radius(basis, n, delta, samples, rng):
    """Reference for product_radius_mu: the same draws, PRODUCT_CHUNK // n
    samples at a time (their ks, their ts, then n unit vectors each), but
    one exp -> prefix -> log per sample, on its first k vectors. Returns
    (mu_hat, max_ratio, m_constants), or the (t, k, index) of the first
    sample whose log fails."""
    per_chunk = max(1, PRODUCT_CHUNK // n)
    mu_hat = max_ratio = 0.0
    m_constants = {}
    for start in range(0, samples, per_chunk):
        size = min(per_chunk, samples - start)
        ks = rng.integers(1, n + 1, size)
        ts = rng.uniform(0.05, 0.999, size) * delta
        units = sample_unit(basis, rng, size * n).reshape(size, n, basis.dim)
        for j in range(size):
            k, t = int(ks[j]), float(ts[j])
            xs = units[j, :k]
            try:
                log = group_log(basis, _prefix_products(group_exp(basis, t * xs))[-1])
            except LogRangeError:
                return t, k, start + j
            mu_hat = max(mu_hat, np.linalg.norm(log) / t)
            max_ratio = max(max_ratio, np.linalg.norm(log) / (k * t))
            mk = np.linalg.norm(log - t * xs.sum(axis=0)) / t**2
            m_constants[k] = max(m_constants.get(k, 0.0), mk)
    return mu_hat, max_ratio, m_constants


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_product_radius_matches_per_sample_reference(bases, label):
    b = bases[label]
    n = 4
    samples = PRODUCT_CHUNK // n + 1  # one full chunk and one more sample
    rep = product_radius_mu(b, n, 0.5, samples, np.random.default_rng(31))
    mu_hat, max_ratio, m_constants = per_sample_product_radius(
        b, n, 0.5, samples, np.random.default_rng(31))
    assert rep.mu_hat == pytest.approx(mu_hat, rel=1e-12)
    assert rep.max_ratio == pytest.approx(max_ratio, rel=1e-12)
    assert list(rep.m_constants) == sorted(m_constants)
    for k, mk in m_constants.items():
        assert rep.m_constants[k] == pytest.approx(mk, rel=1e-12)


def test_product_radius_names_first_sample_off_branch(bases):
    # at seed 3 samples 15 and 19 are the first to leave the branch, both in
    # the second chunk (PRODUCT_CHUNK // 20 = 12 samples a chunk); the
    # LogRangeError must name 15, as the per-sample reference does
    b = bases["G2"]
    t, k, index = per_sample_product_radius(b, 20, 0.9, 50, np.random.default_rng(3))
    assert index == 15
    with pytest.raises(LogRangeError, match=f"log failed at t={t:.4g}, k={k};") as err:
        product_radius_mu(b, 20, 0.9, 50, np.random.default_rng(3))
    assert err.value.index == (15,)


def test_product_radius_check_fires(bases, rng, monkeypatch):
    # a log 1% too long breaks ||log prod exp(t X_i)|| <= k t at k = 1
    log = classpowers.group_log
    monkeypatch.setattr(classpowers, "group_log", lambda b, m: 1.01 * log(b, m))
    rep = product_radius_mu(bases["A1"], 3, 0.05, 200, rng)
    assert not rep.holds
    assert rep.max_ratio == pytest.approx(1.01, abs=1e-9)


def test_log_of_two_factors_is_the_quaternion_angle(bases):
    # on A1, exp(t X) rotates by phi = sqrt(2) t about X itself; two such
    # rotations compose to the angle psi with cos(psi/2) =
    # |cos^2(phi/2) - sin^2(phi/2) X_1.X_2|, so ||log|| = psi / sqrt(2)
    b = bases["A1"]
    rng = np.random.default_rng(21)
    ts = rng.uniform(0.01, 0.05, 200)
    xs = sample_unit(b, rng, 400).reshape(200, 2, b.dim)
    half = np.sqrt(2) * ts / 2
    dots = np.einsum("si,si->s", xs[:, 0], xs[:, 1])
    psi = 2 * np.arccos(np.abs(np.cos(half) ** 2 - np.sin(half) ** 2 * dots))
    logs = classpowers._log_of_product(b, ts, xs)
    assert np.abs(np.linalg.norm(logs, axis=-1) - psi / np.sqrt(2)).max() <= 1e-12


def test_product_radius_single_factor_is_tight(bases, rng):
    b = bases["A2"]
    rep = product_radius_mu(b, 1, 0.1, 40, rng)
    # k = 1 always: log(exp(tX)) = tX so mu_hat = 1 and m_1 = 0 exactly
    assert rep.mu_hat == pytest.approx(1.0, abs=1e-12)
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.bound == 1
    with pytest.raises(ValueError):
        product_radius_mu(b, 0, 0.1, 10, rng)
