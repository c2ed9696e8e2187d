"""Compact real forms: structure constants, exp/log, Killing geometry.

The matrix exponential is cross-checked against a plain Taylor sum and
scipy's expm, and the A1 case against the Rodrigues rotation formula (the
frame is orthonormal, so ad(e1) generates rotation of the (e2,e3)-plane at
rate sqrt(2)).
"""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from adjointlab import compactform
from adjointlab.compactform import (
    LOG_BRANCH_TOL,
    LogRangeError,
    _damped_step,
    ad,
    bracket,
    group_exp,
    group_log,
    project_orthogonal,
    sample_unit,
)

KILLING_SCALE = {"A1": 4.0, "A2": 6.0, "B2": 6.0, "C2": 6.0, "G2": 8.0}


def taylor_expm(a, terms=40):
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def rodrigues(axis, angle):
    axis = np.asarray(axis, float) / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def test_dimensions(bases):
    for label, dim in [("A1", 3), ("A2", 8), ("B2", 10), ("C2", 10), ("G2", 14)]:
        b = bases[label]
        assert b.dim == dim
        assert b.structure.shape == (dim, dim, dim)
        assert b.ad_stack.shape == (dim, dim, dim)


def test_basis_is_frozen(bases):
    # ad_stack is a copy of structure, so neither may be reassigned (here
    # to itself, which leaves the shared basis intact if it were allowed)
    b = bases["A1"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.structure = b.structure
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.ad_stack = b.ad_stack


def test_structure_exactly_antisymmetric(bases):
    for b in bases.values():
        c = b.structure
        assert np.array_equal(c, -np.swapaxes(c, 0, 1))
        assert np.array_equal(c, -np.swapaxes(c, 1, 2))


def loop_antisymmetrized(c_frame):
    # reference: the per-triple loop that _antisymmetrized vectorizes
    dim = len(c_frame)
    c = np.zeros_like(c_frame)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                v = (c_frame[i, j, k] - c_frame[i, k, j] + c_frame[j, k, i]
                     - c_frame[j, i, k] + c_frame[k, i, j] - c_frame[k, j, i]) / 6.0
                c[i, j, k] = c[j, k, i] = c[k, i, j] = v
                c[i, k, j] = c[j, i, k] = c[k, j, i] = -v
    return c


@pytest.mark.parametrize("dim", [3, 8, 14])
def test_antisymmetrized_matches_loop(dim):
    # same arithmetic in the same order, so the bits must agree
    c_frame = np.random.default_rng(dim).normal(size=(dim, dim, dim))
    assert np.array_equal(compactform._antisymmetrized(c_frame), loop_antisymmetrized(c_frame))


def fano_form():
    """The associative 3-form entry by entry: the sign of the permutation on
    each oriented Fano line."""
    phi = np.zeros((7, 7, 7))
    for line in compactform._FANO_LINES:
        for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                           ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)):
            phi[tuple(line[p] for p in perm)] = sign
    return phi


def test_g2_realization_matches_loop():
    # reference: the 3-form and its so(7) action matrix entry by entry; the
    # entries are small integers, so the einsums must agree bit for bit
    phi = fano_form()
    so7 = compactform._so_basis(7)
    triples = list(itertools.combinations(range(7), 3))
    act = np.array([[np.dot(x[:, a], phi[:, b, c]) + np.dot(x[:, b], phi[a, :, c])
                     + np.dot(x[:, c], phi[a, b, :]) for x in so7] for a, b, c in triples])
    _, sv, vt = np.linalg.svd(act)
    expected = np.tensordot(vt[sv < 1e-10], np.stack(so7), axes=1)
    assert np.array_equal(np.stack(compactform._g2_nullspace_basis()), expected)


J = np.kron([[0, 1], [-1, 0]], np.eye(2))


def su_equations(x):
    return [x.conj().mT + x, np.trace(x, axis1=-2, axis2=-1)]


def so_equations(x):
    return [x.imag, x.mT + x]


def sp_equations(x):
    return [x.conj().mT + x, x.mT @ J + J @ x]


def g2_equations(x):
    phi = fano_form()
    x_phi = (np.einsum("xia,ibc->xabc", x, phi) + np.einsum("xib,aic->xabc", x, phi)
             + np.einsum("xic,abi->xabc", x, phi))
    return so_equations(x) + [x_phi]


# the defining equations of each realization, as residuals that must vanish
DEFINING_EQUATIONS = {
    "A1": su_equations, "A2": su_equations, "B2": so_equations,
    "C2": sp_equations, "G2": g2_equations,
}


@pytest.mark.parametrize("label", DEFINING_EQUATIONS)
def test_realization_satisfies_its_defining_equations(bases, label):
    for residual in DEFINING_EQUATIONS[label](bases[label].matrix_basis):
        assert np.abs(residual).max() < 1e-12


def test_stabilizer_checks_its_dimension():
    # one condition, on the first of so(3)'s three generators, leaves the
    # span of the other two
    gens = np.stack(compactform._so_basis(3))
    act = np.array([[1.0, 0.0, 0.0]])
    kept = np.stack(compactform._stabilizer(gens, act, 2))
    assert np.abs(kept[:, 0, 1]).max() < 1e-15
    with pytest.raises(AssertionError, match="stabilizer has dim 2, expected 3"):
        compactform._stabilizer(gens, act, 3)


def test_jacobi_identity(bases):
    for b in bases.values():
        c = b.structure
        jac = (np.einsum("ijm,mkl->ijkl", c, c)
               + np.einsum("jkm,mil->ijkl", c, c)
               + np.einsum("kim,mjl->ijkl", c, c))
        assert np.abs(jac).max() < 1e-12


def test_killing_gram(bases):
    for label, b in bases.items():
        scale = KILLING_SCALE[label]
        assert b.killing_scale == pytest.approx(scale, rel=1e-12)
        assert b.killing_scale == pytest.approx(2 * b.rs.dual_coxeter_number())
        # the Killing matrix Tr(ad_i ad_j) is -scale * identity in this frame
        raw = np.einsum("iab,jba->ij", b.ad_stack, b.ad_stack)
        assert np.allclose(raw, -scale * np.eye(b.dim), atol=1e-9)


def test_matrix_basis_realizes_brackets(bases):
    for b in bases.values():
        mats = b.matrix_basis
        comm = np.einsum("iab,jbc->ijac", mats, mats)
        comm = comm - comm.swapaxes(0, 1)
        recon = np.einsum("ijk,kab->ijab", b.structure, mats)
        assert np.allclose(comm, recon, atol=1e-10)


def test_build_rejects_a_bracket_outside_the_span(systems, monkeypatch):
    # one G2 generator swapped for a random element of so(7): the span is
    # no longer closed under the bracket
    mats = compactform._g2_nullspace_basis()
    so7 = np.stack(compactform._so_basis(7))
    mats[0] = np.tensordot(np.random.default_rng(5).standard_normal(len(so7)), so7, axes=1)
    monkeypatch.setitem(compactform._MATRIX_BASES, "G2", lambda: mats)
    with pytest.raises(AssertionError, match="bracket not in span"):
        compactform.build_compact_form(systems["G2"])


def test_build_rejects_a_closed_algebra_that_is_not_simple(systems, monkeypatch):
    # u(3) + u(1), block-diagonal in 4x4, is closed and of dimension 10 like
    # sp(2), but its Killing form vanishes on the center, so it is not a
    # multiple of the trace form
    def u3_u1():
        mats = []
        for m in compactform._su_basis(3):
            e = np.zeros((4, 4), dtype=complex)
            e[:3, :3] = m
            mats.append(e)
        return mats + [np.diag([1j, 1j, 1j, 0]), np.diag([0, 0, 0, 1j])]

    monkeypatch.setitem(compactform._MATRIX_BASES, "C2", u3_u1)
    with pytest.raises(AssertionError, match="not proportional"):
        compactform.build_compact_form(systems["C2"])


def test_a1_structure_is_scaled_levi_civita(bases):
    c = bases["A1"].structure
    assert abs(c[0, 1, 2]) == pytest.approx(np.sqrt(2), rel=1e-12)
    mags = sorted(set(np.round(np.abs(c).ravel(), 12)))
    assert mags == [0.0, pytest.approx(np.sqrt(2))]


def test_bracket_matches_ad(bases, rng):
    b = bases["C2"]
    x, y = rng.standard_normal((2, b.dim))
    assert np.allclose(bracket(b, x, y), ad(b, x) @ y, atol=1e-12)
    assert np.allclose(bracket(b, x, y), -bracket(b, y, x), atol=1e-12)


def test_killing_inner_is_euclidean(bases, rng):
    b = bases["A2"]
    x, y = rng.standard_normal((2, b.dim))
    # -Tr(ad x ad y)/killing_scale is the dot product in this frame
    kappa = np.trace(ad(b, x) @ ad(b, y))
    assert -kappa / b.killing_scale == pytest.approx(float(x @ y), rel=1e-10)
    assert -np.trace(ad(b, x) @ ad(b, x)) / b.killing_scale == pytest.approx(float(x @ x), rel=1e-10)
    # and invariance: <[z,x],y> + <x,[z,y]> = 0
    z = rng.standard_normal(b.dim)
    s = bracket(b, z, x) @ y + x @ bracket(b, z, y)
    assert abs(s) < 1e-10


def test_group_exp_is_special_orthogonal(bases, rng):
    for label in ("A1", "G2"):
        b = bases[label]
        g = group_exp(b, sample_unit(b, rng) * 0.7)
        assert np.allclose(g @ g.T, np.eye(b.dim), atol=1e-12)
        assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-10)


def test_group_exp_matches_taylor(bases, rng):
    for label in ("A1", "A2", "B2"):
        b = bases[label]
        x = sample_unit(b, rng) * 0.9
        assert np.allclose(group_exp(b, x), taylor_expm(ad(b, x)), atol=1e-12)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_group_exp_of_stack_near_and_far_from_identity(bases, rng, label):
    # one stack whose norms span 1e-9 to 3: every slice matches the Taylor
    # series of its own ad x and is orthogonal, and near 1 the skew part,
    # a + a^3/6 + ..., which the log and the BCH remainders read, keeps its
    # relative accuracy
    b = bases[label]
    xs = sample_unit(b, rng, 6) * np.array([1e-9, 1e-6, 1e-3, 0.3, 1.0, 3.0])[:, None]
    gs = group_exp(b, xs)
    for x, g in zip(xs, gs):
        a = ad(b, x)
        assert np.abs(g - taylor_expm(a)).max() <= 1e-12
        assert np.abs(g @ g.T - np.eye(b.dim)).max() <= 1e-13
        if np.linalg.norm(a) < 1e-4:
            skew = (g - g.T) / 2
            assert np.abs(skew - a - a @ a @ a / 6).max() <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_group_exp_matches_scipy_expm(bases, rng, label):
    # scaling and squaring against scipy's expm from the identity out to
    # rotation angles near 1400: off the diagonal the error stays below
    # 1e-13 relative to ||x||, the diagonal (near 1 for small x) is good to
    # 1e-13 max(1, ||x||), and the result is orthogonal to 1e-12 even at
    # ||x|| = 1000
    b = bases[label]
    norms = np.array([1e-9, 1e-3, 0.5, 2.2, 10.0, 1000.0])
    xs = sample_unit(b, rng, len(norms)) * norms[:, None]
    gs = group_exp(b, xs)
    for norm, x, g in zip(norms, xs, gs):
        diff = np.abs(g - expm(ad(b, x)))
        assert diff.max() <= 1e-13 * max(norm, 1.0)
        assert (diff - np.diag(np.diag(diff))).max() <= 1e-13 * norm
        assert np.abs(g @ g.T - np.eye(b.dim)).max() <= 1e-12


def test_a1_exp_is_rodrigues(bases, rng):
    b = bases["A1"]
    for _ in range(5):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        angle = rng.uniform(0.1, 2.5)
        g = group_exp(b, (angle / np.sqrt(2)) * u)
        assert np.allclose(g, rodrigues(u, angle), atol=1e-12)


def test_exp_one_parameter_group(bases, rng):
    b = bases["B2"]
    x = sample_unit(b, rng)
    g = group_exp(b, 0.3 * x) @ group_exp(b, 0.5 * x)
    assert np.allclose(g, group_exp(b, 0.8 * x), atol=1e-12)


def test_log_roundtrip(bases, rng):
    for label in ("A1", "A2", "G2"):
        b = bases[label]
        for _ in range(10):
            x = sample_unit(b, rng) * rng.uniform(0.05, 1.2)
            back = group_log(b, group_exp(b, x))
            assert np.allclose(back, x, atol=1e-9)


def test_log_rejects_branch_boundary(bases):
    b = bases["A1"]
    x = np.zeros(3)
    x[0] = np.pi / np.sqrt(2)  # rotation by pi: eigenvalue -1
    with pytest.raises(LogRangeError):
        group_log(b, group_exp(b, x))


def rotated_to(basis, xs, angles):
    """xs rescaled so that exp(ad x) turns by the given largest angle: ad x
    is skew, so its spectral norm is its largest rotation angle."""
    radius = np.linalg.norm(ad(basis, xs), ord=2, axis=(-2, -1))
    return xs * (angles / radius)[..., None]


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_log_of_stack(bases, rng, label):
    b = bases[label]
    # angles past pi/2 rule out logs read off the skew part m - m^T, whose
    # eigenvalues i sin(phi) fold phi back onto [-pi/2, pi/2]
    angles = np.linspace(0.01, 0.95, 12).reshape(3, 4) * np.pi
    xs = rotated_to(b, sample_unit(b, rng, 12).reshape(3, 4, b.dim), angles)
    gs = group_exp(b, xs)
    back = group_log(b, gs)
    assert back.shape == (3, 4, b.dim)
    assert np.abs(back - xs).max() <= 1e-12
    assert np.array_equal(group_log(b, gs[1, 2]), back[1, 2])

    # one slice at angle pi: its eigenvalue -1 rejects the stack, by index
    at_pi = gs.copy()
    at_pi[2, 1] = group_exp(b, rotated_to(b, xs[2, 1], np.pi))
    with pytest.raises(LogRangeError, match="eigenvalue at -1") as err:
        group_log(b, at_pi)
    assert err.value.index == (2, 1)
    # one slice off the group: its log does not map back to it
    scaled = gs.copy()
    scaled[0, 3] *= 1.001
    with pytest.raises(LogRangeError, match="round trip") as err:
        group_log(b, scaled)
    assert err.value.index == (0, 3)


def test_log_branch_boundary_on_g2(bases, rng):
    # the branch test reads 2 cos(phi) off m + m^T: a rotation by
    # pi - 0.9 tol has |e^(i phi) + 1| below tol, one by pi - 1.1 tol not
    b = bases["G2"]
    x = sample_unit(b, rng)
    with pytest.raises(LogRangeError, match="eigenvalue at -1"):
        group_log(b, group_exp(b, rotated_to(b, x, np.pi - 0.9 * LOG_BRANCH_TOL)))
    inside = rotated_to(b, x, np.pi - 1.1 * LOG_BRANCH_TOL)
    assert np.abs(group_log(b, group_exp(b, inside)) - inside).max() <= 1e-9


def truncated_pinv_step(jac, r):
    """The step of the SVD truncated at 1e-6 sigma_1, one member at a time."""
    steps = []
    for j, res in zip(jac, r):
        u, sv, vt = np.linalg.svd(j, full_matrices=False)
        keep = sv > 1e-6 * sv[0]
        steps.append(vt[keep].T @ ((u[:, keep].T @ -res) / sv[keep]))
    return np.array(steps)


@pytest.mark.parametrize("m, p", [(3, 6), (8, 16), (14, 28), (14, 42)])
def test_damped_step_matches_truncated_pseudoinverse(rng, m, p):
    # on Jacobians of full row rank the damping moves the step at the level
    # of mu / sigma_min^2 only
    jac = rng.standard_normal((6, m, p))
    r = rng.standard_normal((6, m))
    step = _damped_step(jac, r)
    ref = truncated_pinv_step(jac, r)
    assert step.shape == (6, p)
    assert np.all(np.linalg.norm(step - ref, axis=-1) <= 1e-9 * np.linalg.norm(ref, axis=-1))


def test_damped_step_stays_off_gauge_directions(rng):
    # J = A [1 | -1] does not see u = (v, v); the step must have no part
    # there, and a member with J = 0 steps 0 without raising
    m = 8
    a = rng.standard_normal((m, m))
    jac = np.stack([a @ np.hstack([np.eye(m), -np.eye(m)]), np.zeros((m, 2 * m))])
    r = rng.standard_normal((2, m))
    step = _damped_step(jac, r)
    gauge = np.vstack([np.eye(m), np.eye(m)]) / np.sqrt(2.0)
    assert np.linalg.norm(step[0] @ gauge) <= 1e-12 * np.linalg.norm(step[0])
    assert np.allclose(jac[0] @ step[0], -r[0], atol=1e-9)
    assert np.array_equal(step[1], np.zeros(2 * m))


def test_sample_unit_shapes(bases, rng):
    b = bases["G2"]
    v = sample_unit(b, rng)
    assert v.shape == (14,)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    vs = sample_unit(b, rng, 7)
    assert vs.shape == (7, 14)
    assert np.allclose(np.linalg.norm(vs, axis=1), 1.0, atol=1e-12)


def test_project_orthogonal(rng):
    g0, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    noisy = g0 + 1e-6 * rng.standard_normal((6, 6))
    g = project_orthogonal(noisy)
    assert np.allclose(g @ g.T, np.eye(6), atol=1e-12)
    assert np.linalg.norm(g - g0) < 1e-5
    # a stack is projected slice by slice
    stack = project_orthogonal(np.stack([noisy, 2 * noisy, noisy.T]))
    assert stack.shape == (3, 6, 6)
    assert np.allclose(stack @ stack.mT, np.eye(6), atol=1e-12)
    assert np.allclose(stack, [g, g, g.T], atol=1e-12)


def test_adjoint_action_preserves_norm_and_bracket(bases, rng):
    b = bases["A2"]
    g = group_exp(b, sample_unit(b, rng) * 0.8)
    x, y = rng.standard_normal((2, b.dim))
    gx, gy = g @ x, g @ y
    assert np.linalg.norm(gx) == pytest.approx(np.linalg.norm(x), rel=1e-12)
    assert np.allclose(bracket(b, gx, gy), g @ bracket(b, x, y), atol=1e-10)
