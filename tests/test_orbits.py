"""Adjoint-orbit sums, hull certificates, and lattice-walk orderings.

The hull certificate is fuzzed against an independent scipy.linprog oracle;
the walk bounds are asserted directly against the advertised constants.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from adjointlab.compactform import group_exp, sample_unit
from adjointlab.orbits import (
    SOLVE_TOL,
    HullCertificate,
    _orbit_jacobian,
    bounded_partial_sum_sequence,
    distance_to_ray,
    find_vanishing_submersive_tuple,
    lattice_ray_walk,
    orbit_sum,
    orbit_sum_rank,
    random_group_element,
    zero_in_hull_interior,
)


def axis_rotation(basis, axis, angle):
    """A1 rotation about a coefficient axis (unit-axis rate is sqrt(2))."""
    x = np.zeros(basis.dim)
    x[axis] = angle / np.sqrt(2)
    return group_exp(basis, x)


def oracle_interior(v, tol=1e-9):
    """scipy route: max margin lp for 0 in the hull interior of rows of v."""
    v = np.asarray(v, float)
    n, d = v.shape
    if np.linalg.matrix_rank(v) < d:
        return False
    # variables (lambda, eps): min -eps, V^T lambda = 0, sum lambda = 1,
    # lambda_i - eps >= 0
    c = np.zeros(n + 1)
    c[-1] = -1
    a_eq = np.zeros((d + 1, n + 1))
    a_eq[:d, :n] = v.T
    a_eq[d, :n] = 1
    b_eq = np.zeros(d + 1)
    b_eq[d] = 1
    a_ub = np.zeros((n, n + 1))
    a_ub[:, :n] = -np.eye(n)
    a_ub[:, -1] = 1
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n + [(None, None)], method="highs")
    return res.status == 0 and -res.fun > tol


def test_a1_equilateral_triple(bases):
    b = bases["A1"]
    x = np.array([1.0, 0.0, 0.0])
    gs = [axis_rotation(b, 2, 2 * np.pi * k / 3) for k in range(3)]
    s = orbit_sum(x, gs)
    assert np.linalg.norm(s) < 1e-12
    assert orbit_sum_rank(b, x, gs) == 3


def test_orbit_sum_is_equivariant(bases, rng):
    b = bases["A2"]
    x = rng.standard_normal(b.dim)
    gs = random_group_element(b, rng, 4)
    h = random_group_element(b, rng, 1)[0]
    lhs = h @ orbit_sum(x, gs)
    rhs = orbit_sum(x, h @ gs)
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_orbit_jacobian_is_derivative(bases, rng, label):
    b = bases[label]
    x = sample_unit(b, rng)
    gs = random_group_element(b, rng, 4)
    u = rng.normal(size=4 * b.dim)
    ju = _orbit_jacobian(b, x, gs) @ u
    errs = []
    for eps in (1e-3, 1e-4):
        moved = group_exp(b, eps * u.reshape(4, b.dim)) @ gs
        fd = (orbit_sum(x, moved) - orbit_sum(x, gs)) / eps
        errs.append(np.linalg.norm(fd - ju))
    assert errs[1] < 1e-3 * np.linalg.norm(ju)
    assert errs[1] < 0.2 * errs[0]  # the error is O(eps)


def test_random_group_element_is_adjoint(bases, rng):
    b = bases["B2"]
    for g in random_group_element(b, rng, 5):
        assert np.allclose(g @ g.T, np.eye(b.dim), atol=1e-10)
        assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-9)


def test_hull_simplex_certificate():
    # regular 2-simplex around the origin
    v = np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
    verdict = zero_in_hull_interior(v)
    assert isinstance(verdict, HullCertificate)
    assert verdict.margin > 0.3
    assert verdict.residual < 1e-12
    a = verdict.coefficients
    assert a.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(a >= verdict.margin - 1e-12)


def test_hull_boundary_and_outside():
    shifted = np.array([[2.0, 0.0], [0.5, 1.0], [0.5, -1.0]])  # all Re >= 0.5
    assert zero_in_hull_interior(shifted) is None
    # 0 on an edge of the hull: the margin LP's optimum is 0
    boundary = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert zero_in_hull_interior(boundary) is None
    # 0 strictly inside, but only with a coefficient far below the margin
    # tolerance: declined, not an error
    thin = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1e-10]])
    assert zero_in_hull_interior(thin) is None


def test_hull_degenerate_and_flat():
    assert zero_in_hull_interior(np.zeros((3, 2))) is None
    # centered but rank-deficient in ambient dimension 3
    flat = np.array([[1.0, 0, 0], [-0.5, 0.8, 0], [-0.5, -0.8, 0]])
    assert zero_in_hull_interior(flat) is None


def test_hull_fuzz_against_linprog(rng):
    certs = 0
    for _ in range(150):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 1, 2 * d + 4))
        v = rng.standard_normal((n, d))
        cert = zero_in_hull_interior(v)
        expected = oracle_interior(v)
        if cert is not None:
            certs += 1
            assert expected
            assert np.linalg.norm(cert.coefficients @ v) < 1e-8
        else:
            assert not expected or _margin_is_borderline(v)
    assert certs > 20  # the fuzz actually exercises both branches


def _margin_is_borderline(v):
    # disagreements are only allowed within the tolerance band around 0
    res = oracle_margin(v)
    return res is not None and res < 1e-8


def oracle_margin(v):
    n, d = v.shape
    c = np.zeros(n + 1)
    c[-1] = -1
    a_eq = np.zeros((d + 1, n + 1))
    a_eq[:d, :n] = v.T
    a_eq[d, :n] = 1
    b_eq = np.zeros(d + 1)
    b_eq[d] = 1
    a_ub = np.zeros((n, n + 1))
    a_ub[:, :n] = -np.eye(n)
    a_ub[:, -1] = 1
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n + [(None, None)], method="highs")
    return None if res.status != 0 else -res.fun


@pytest.mark.parametrize("label", ["A1", "B2", "G2"])
def test_conjugated_vanishing_triple_needs_dim_conjugates(bases, rng, label):
    # the triple's conjugates sum to 0 with uniform weights, so whether 0 is
    # interior to their hull rests on the rank: one conjugate spans only 2
    # dimensions, dim of them span, and the LP's optimum is then 1/(3 dim)
    b = bases[label]
    x = sample_unit(b, rng)
    gs, _, _ = find_vanishing_submersive_tuple(b, x, rng)
    vectors = gs @ x
    hs = random_group_element(b, rng, b.dim)
    assert zero_in_hull_interior((vectors @ hs[:1].mT).reshape(-1, b.dim)) is None
    cert = zero_in_hull_interior((vectors @ hs.mT).reshape(-1, b.dim))
    assert cert is not None
    assert np.abs(cert.coefficients - 1 / (3 * b.dim)).max() <= 1e-12


def test_lattice_ray_walk_steps_and_bound(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rng.uniform(0.2, 3.0, size=n)
        walk = lattice_ray_walk(a, 400)
        diffs = np.diff(np.vstack([np.zeros(n, dtype=np.int64), walk]), axis=0)
        assert np.all(diffs.sum(axis=1) == 1)
        assert np.all((diffs == 0) | (diffs == 1))
        assert distance_to_ray(walk, a).max() <= np.sqrt(2 * n)
        # the partial-sum order is this same walk
        v = np.eye(n) - np.outer(np.ones(n), a) / a.sum()  # a @ v = 0
        assert np.array_equal(bounded_partial_sum_sequence(v, a, 400), walk)


@pytest.mark.parametrize("a, picks", [
    ((1, 1, 1), [0, 1, 2, 0, 1, 2, 0, 1, 2]),
    ((2, 1), [0, 0, 1, 0, 0, 1, 0, 0, 1]),
    ((1, 2, 1, 2), [1, 3, 0, 1, 2, 3, 1, 3, 0]),
])
def test_lattice_ray_walk_breaks_ties_toward_the_smaller_index(a, picks):
    # coordinate j steps at times m / a_j; at equal times the smaller j goes first
    walk = lattice_ray_walk(a, len(picks))
    steps = np.diff(np.vstack([np.zeros(len(a), dtype=np.int64), walk]), axis=0)
    assert steps.argmax(axis=1).tolist() == picks
    events = sorted((m / a_j, j) for j, a_j in enumerate(a) for m in range(1, len(picks) + 1))
    assert [j for _, j in events[:len(picks)]] == picks


def test_distance_to_ray_brute(rng):
    a = np.array([1.0, 2.0, 0.5])
    pts = rng.standard_normal((30, 3)) * 3
    d = distance_to_ray(pts, a)
    ts = np.linspace(0, 20, 200001)
    ray = np.outer(ts, a)
    for k in range(0, 30, 7):
        brute = np.linalg.norm(ray - pts[k], axis=1).min()
        assert d[k] <= brute + 1e-6


def test_bounded_partial_sum_sequence(rng):
    # equal weights on a centered triple
    v = np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
    a = np.ones(3)
    length = 600
    walk = bounded_partial_sum_sequence(v, a, length)
    assert walk.shape == (length, 3)
    # row k counts each vector's uses among the first k + 1 picks
    assert np.array_equal(walk.sum(axis=1), np.arange(1, length + 1))
    bound = 3 * np.sqrt(6) * np.abs(v).max()
    assert np.linalg.norm(walk @ v, axis=1).max() <= bound
    # usage is balanced: each vector picked length/3 +- O(1) times
    assert np.abs(walk[-1] - length / 3).max() <= 2


def test_bounded_partial_sum_rejects_bad_input():
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        bounded_partial_sum_sequence(v, [1.0, 1.0], 10)  # sum != 0
    ok = np.array([[1.0], [-1.0]])
    with pytest.raises(ValueError):
        bounded_partial_sum_sequence(ok, [1.0, -1.0], 10)  # negative weight


def test_find_vanishing_submersive_tuple(bases):
    # three elements suffice on every type: the search has no larger size
    for b in bases.values():
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = sample_unit(b, rng)
            gs, residual, rank = find_vanishing_submersive_tuple(b, x, rng)
            assert gs.shape == (3, b.dim, b.dim)
            assert residual <= SOLVE_TOL and rank == b.dim
            assert np.linalg.norm(orbit_sum(x, gs)) <= 1e-10
            assert orbit_sum_rank(b, x, gs) == b.dim
