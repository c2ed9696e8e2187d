"""Conjugacy-class word maps and BCH remainder scaling.

The SO(3) picture is the oracle throughout: the adjoint group of A1 is the
rotation group, a class is "all rotations by angle phi = sqrt(2) t", and a
product of two class elements realizes exactly the rotations by angles in
[0, 2 phi]. That makes reachability decidable by hand.
"""

import numpy as np
import pytest

from adjointlab.classpowers import (
    ConjugacyClass,
    _tangent_matrix,
    WordSolveError,
    bch_remainder,
    bch_scaling_fit,
    class_power_identity_check,
    conjugacy_class,
    product_radius_mu,
    solve_word_to_target,
    tangent_rank,
    word_map,
)
from adjointlab.compactform import algebra_coords, bracket, group_exp, sample_unit
from adjointlab.orbits import random_group_element

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


def test_word_map_empty_is_identity(bases):
    cls = conjugacy_class(bases["A1"], E1, 0.4)
    assert np.array_equal(word_map(cls, []), np.eye(3))


def test_word_map_equivariance(bases, rng):
    b = bases["B2"]
    cls = conjugacy_class(b, sample_unit(b, rng), 0.7)
    gs = [random_group_element(b, rng) for _ in range(3)]
    h = random_group_element(b, rng)
    lhs = h @ word_map(cls, gs) @ h.T
    rhs = word_map(cls, [h @ g for g in gs])
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
    gs = [random_group_element(b, rng) for _ in range(3)]
    u = rng.normal(size=3 * b.dim)
    w = word_map(cls, gs)
    ju = _tangent_matrix(b.dim, [g @ cls.factor_matrix @ g.T for g in gs]) @ u
    errs = []
    for eps in (1e-3, 1e-4):
        moved = [group_exp(b, eps * u[i * b.dim:(i + 1) * b.dim]) @ g for i, g in enumerate(gs)]
        fd = algebra_coords(b, word_map(cls, moved) @ w.T) / eps
        errs.append(np.linalg.norm(fd - ju))
    assert errs[1] < 1e-3 * np.linalg.norm(ju)
    assert errs[1] < 0.2 * errs[0]  # the error is O(eps)


def test_solve_word_reachable_target(bases, rng):
    # class angle sqrt(2)*0.1 = 0.1414..; two factors reach angles <= 0.2829
    b = bases["A1"]
    cls = conjugacy_class(b, E1, 0.1)
    target = rotation(b, 2, 0.15)
    rec = solve_word_to_target(cls, 2, target, rng)
    assert rec.residual <= 1e-8
    assert np.allclose(word_map(cls, rec.gs), target, atol=1e-7)
    assert len(rec.gs) == 2


def test_solve_word_unreachable_target(bases, rng):
    b = bases["A1"]
    cls = conjugacy_class(b, E1, 0.1)
    target = rotation(b, 2, 0.30)  # 0.30 > 2*sqrt(2)*0.1
    with pytest.raises(WordSolveError) as err:
        solve_word_to_target(cls, 2, target, rng, starts=8)
    best = err.value.best
    assert best.residual > 0.01
    assert best.product.shape == (3, 3)


def test_single_factor_cannot_reach_identity(bases, rng):
    b = bases["A1"]
    cls = conjugacy_class(b, E1, 0.1)
    report = class_power_identity_check(cls, 1, rng, samples=6, interior_targets=4)
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
    d = report.as_dict()
    assert d["type"] == "A1" and d["n"] == 2 and d["reachable"] is True


def test_identity_reachable_a2_three_factors(bases, rng):
    b = bases["A2"]
    cls = conjugacy_class(b, sample_unit(b, rng), 0.5)
    report = class_power_identity_check(cls, 3, rng, interior_targets=6)
    assert report.reachable and report.interior
    assert report.rank_at_best == 8
    assert report.falsifications == []


def test_word_solve_error_is_an_exception():
    assert issubclass(WordSolveError, RuntimeError)


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
    assert rep.mu_hat <= rep.bound
    assert set(rep.m_constants) <= {1, 2, 3}
    assert rep.mu_hat > 0.9  # a single unit factor already gives ~1


def test_product_radius_single_factor_is_tight(bases, rng):
    b = bases["A2"]
    rep = product_radius_mu(b, 1, 0.1, 40, rng)
    # k = 1 always: log(exp(tX)) = tX so mu_hat = 1 and m_1 = 0 exactly
    assert rep.mu_hat == pytest.approx(1.0, abs=1e-12)
    assert rep.bound == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        product_radius_mu(b, 0, 0.1, 10, rng)
