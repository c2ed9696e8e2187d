"""Compact real forms with explicit structure constants, and the adjoint group.

Route: build a concrete matrix realization (su/so/sp, or for G2 the
annihilator of the Fano three-form inside so(7)), extract structure constants
by least squares, form the Killing matrix from the adjoint representation,
and orthonormalize the basis against the normalized inner product
<.,.> = -kappa(.,.)/(2 h_vee).  That scale makes long coroots have squared
length 2; any other positive scale would do, but one must be pinned.

In the resulting frame the normalized form is literally the Euclidean dot
product, the structure tensor is totally antisymmetric, and Ad matrices are
plain orthogonal matrices — which keeps every downstream solver honest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .rootsys import RootSystem

# lines of the Fano plane (0-indexed), orientations giving the standard
# associative 3-form of the octonions
_FANO_LINES = [
    (0, 1, 3),
    (0, 4, 5),
    (0, 2, 6),
    (1, 2, 4),
    (1, 5, 6),
    (2, 3, 5),
    (3, 4, 6),
]


class LogRangeError(RuntimeError):
    """Input to group_log is outside the principal-branch region."""


@dataclass
class CompactAlgebraBasis:
    """Orthonormal basis of a compact simple Lie algebra.

    structure[i, j, k] is the coefficient of e_k in [e_i, e_j]; it is totally
    antisymmetric. ad_stack[i] is the matrix of ad(e_i). The raw Killing
    matrix in this frame is -killing_scale * identity, so the normalized
    inner product -kappa/killing_scale is the Euclidean dot product on
    coefficient vectors. Immutable after construction.
    """

    type_label: str
    rs: RootSystem
    dim: int
    structure: np.ndarray
    ad_stack: np.ndarray
    killing_scale: float
    matrix_basis: np.ndarray


def _su_basis(m: int) -> list[np.ndarray]:
    mats = []
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros((m, m), dtype=complex)
            e[i, j], e[j, i] = 1, -1
            mats.append(e)
            e = np.zeros((m, m), dtype=complex)
            e[i, j] = e[j, i] = 1j
            mats.append(e)
    for i in range(m - 1):
        e = np.zeros((m, m), dtype=complex)
        e[i, i], e[i + 1, i + 1] = 1j, -1j
        mats.append(e)
    return mats


def _so_basis(m: int) -> list[np.ndarray]:
    mats = []
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros((m, m))
            e[i, j], e[j, i] = 1, -1
            mats.append(e)
    return mats


def _sp_basis(n: int) -> list[np.ndarray]:
    """Quaternionic form: blocks [[A, B], [-conj(B), conj(A)]], A anti-Hermitian,
    B complex symmetric."""

    def embed(a, b):
        out = np.zeros((2 * n, 2 * n), dtype=complex)
        out[:n, :n] = a
        out[:n, n:] = b
        out[n:, :n] = -np.conj(b)
        out[n:, n:] = np.conj(a)
        return out

    mats = []
    zero = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            a = np.zeros((n, n), dtype=complex)
            a[i, j], a[j, i] = 1, -1
            mats.append(embed(a, zero))
            a = np.zeros((n, n), dtype=complex)
            a[i, j] = a[j, i] = 1j
            mats.append(embed(a, zero))
    for i in range(n):
        a = np.zeros((n, n), dtype=complex)
        a[i, i] = 1j
        mats.append(embed(a, zero))
    for i in range(n):
        for j in range(i, n):
            b = np.zeros((n, n), dtype=complex)
            b[i, j] = b[j, i] = 1
            mats.append(embed(zero, b))
            b = np.zeros((n, n), dtype=complex)
            b[i, j] = b[j, i] = 1j
            mats.append(embed(zero, b))
    return mats


def build_compact_form(rs: RootSystem) -> CompactAlgebraBasis:
    """Compact real form of the given type, in an orthonormal frame for the
    normalized negative Killing form."""
    raw = _MATRIX_BASES[rs.type_label]()
    dim = len(raw)
    assert dim == rs.algebra_dimension, (dim, rs.algebra_dimension)

    c_raw = _structure_constants(raw)
    ad_raw = np.transpose(c_raw, (0, 2, 1))  # ad_i = c[i].T
    kappa = np.einsum("ajk,bkj->ab", ad_raw, ad_raw)
    scale = 2.0 * rs.dual_coxeter_number()
    gram = -kappa / scale
    # orthonormalize: rows of W = L^-1 give the new basis coefficients
    chol = np.linalg.cholesky(gram)
    w = np.linalg.inv(chol)
    w_inv = chol
    c_frame = np.einsum("ia,jb,abm,mk->ijk", w, w, c_raw, w_inv)
    # in an orthonormal frame the structure tensor is totally antisymmetric;
    # rebuild it from one antisymmetrized value per index triple so the
    # symmetry holds exactly (bit-for-bit), not just to rounding
    c = np.zeros_like(c_frame)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                v = (
                    c_frame[i, j, k]
                    - c_frame[i, k, j]
                    + c_frame[j, k, i]
                    - c_frame[j, i, k]
                    + c_frame[k, i, j]
                    - c_frame[k, j, i]
                ) / 6.0
                c[i, j, k] = c[j, k, i] = c[k, i, j] = v
                c[i, k, j] = c[j, i, k] = c[k, j, i] = -v
    ad_stack = np.transpose(c, (0, 2, 1)).copy()
    basis_mats = np.einsum("ia,a...->i...", w, np.stack(raw))
    return CompactAlgebraBasis(
        type_label=rs.type_label,
        rs=rs,
        dim=dim,
        structure=c,
        ad_stack=ad_stack,
        killing_scale=scale,
        matrix_basis=basis_mats,
    )


def _g2_nullspace_basis() -> list[np.ndarray]:
    """G2 as the annihilator of the associative 3-form inside so(7)."""
    phi = np.zeros((7, 7, 7))
    signs = {
        (0, 1, 2): 1, (0, 2, 1): -1, (1, 2, 0): 1,
        (1, 0, 2): -1, (2, 0, 1): 1, (2, 1, 0): -1,
    }
    for line in _FANO_LINES:
        for perm, sign in signs.items():
            phi[tuple(line[p] for p in perm)] = sign
    so7 = _so_basis(7)
    triples = list(itertools.combinations(range(7), 3))
    act = np.zeros((len(triples), len(so7)))
    for col, x in enumerate(so7):
        for row, (a, b, c) in enumerate(triples):
            act[row, col] = (
                np.dot(x[:, a], phi[:, b, c])
                + np.dot(x[:, b], phi[a, :, c])
                + np.dot(x[:, c], phi[a, b, :])
            )
    _, s, vt = np.linalg.svd(act)  # s has length 21 = dim so(7)
    null_vecs = vt[s < 1e-10]
    assert null_vecs.shape[0] == 14, f"G2 nullspace has dim {null_vecs.shape[0]}"
    stack = np.stack(so7)
    return [np.tensordot(v, stack, axes=1) for v in null_vecs]


# matrix realization of each compact form: su(2), su(3), so(5), sp(2), g2
_MATRIX_BASES = {
    "A1": lambda: _su_basis(2),
    "A2": lambda: _su_basis(3),
    "B2": lambda: _so_basis(5),
    "C2": lambda: _sp_basis(2),
    "G2": _g2_nullspace_basis,
}


def _structure_constants(mats: list[np.ndarray]) -> np.ndarray:
    dim = len(mats)
    flat = np.stack(
        [np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats]
    )  # (dim, 2 n^2)
    pinv = np.linalg.pinv(flat.T)
    c = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            br = mats[i] @ mats[j] - mats[j] @ mats[i]
            rhs = np.concatenate([br.real.ravel(), br.imag.ravel()])
            coef = pinv @ rhs
            resid = np.linalg.norm(flat.T @ coef - rhs)
            assert resid < 1e-9, f"bracket not in span: residual {resid}"
            c[i, j] = coef
            c[j, i] = -coef
    return c


# -- algebra operations -------------------------------------------------------


def ad(basis: CompactAlgebraBasis, x) -> np.ndarray:
    """Matrix of ad(X) acting on coefficient vectors."""
    return np.tensordot(np.asarray(x, float), basis.ad_stack, axes=1)


def bracket(basis: CompactAlgebraBasis, x, y) -> np.ndarray:
    return ad(basis, x) @ np.asarray(y, float)


def killing_norm(basis: CompactAlgebraBasis, x) -> float:
    return float(np.linalg.norm(np.asarray(x, float)))


def sample_unit(basis: CompactAlgebraBasis, rng: np.random.Generator, n: int | None = None):
    """Uniform points on the unit sphere of the normalized Killing form."""
    shape = (basis.dim,) if n is None else (n, basis.dim)
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# -- group operations ---------------------------------------------------------


def group_exp(basis: CompactAlgebraBasis, x) -> np.ndarray:
    """Ad(exp X) = exp(ad X) as an orthogonal dim x dim matrix."""
    return scipy.linalg.expm(ad(basis, x))


def group_log(basis: CompactAlgebraBasis, m, branch_tol: float = 1e-6) -> np.ndarray:
    """Principal-branch inverse of group_exp.

    Rejects inputs with an eigenvalue within branch_tol of -1 (the boundary
    of the principal branch) or whose log does not land in ad(g); callers hit
    by either must reduce their step size.
    """
    m = np.asarray(m, dtype=float)
    eigs = np.linalg.eigvals(m)
    if np.min(np.abs(eigs + 1.0)) < branch_tol:
        raise LogRangeError("matrix has an eigenvalue at -1; outside principal branch")
    x = algebra_coords(basis, np.real(scipy.linalg.logm(m)))
    if np.linalg.norm(group_exp(basis, x) - m) > 1e-8 * max(1.0, np.linalg.norm(m)):
        raise LogRangeError("log round trip failed; input outside log range")
    return x


def algebra_coords(basis: CompactAlgebraBasis, m) -> np.ndarray:
    """Coordinates of the orthogonal projection of skew(m) onto ad(g).

    For m = ad(x) this is x; for m = exp(ad x) it is x to first order.
    """
    l = 0.5 * (m - m.T)
    return np.einsum("ijk,jk->i", basis.ad_stack, l) / basis.killing_scale


def project_orthogonal(m) -> np.ndarray:
    """Nearest orthogonal matrix (polar factor via SVD)."""
    u, _, vt = np.linalg.svd(np.asarray(m, float))
    return u @ vt


def gauss_newton(basis: CompactAlgebraBasis, gs, residual, jacobian, tol: float, max_iter: int):
    """Damped Gauss-Newton on tuples (g_1..g_n) of Ad matrices.

    residual(gs) returns (merit, r, state); jacobian(state) returns J such
    that moving each g_i to exp(ad u_i) g_i changes r by J u at first order.
    Steps solve J u = -r by an SVD truncated at 1e-6 sigma_1 (the maps have
    exact gauge directions), then backtrack (Armijo on the merit) along
    g_i <- exp(t ad u_i) g_i. Stops once merit <= 0.01 tol, when no step
    descends, or after more than 10 steps that fail to halve the best merit.
    Returns (gs, merit, state) at the last accepted tuple.
    """
    d = basis.dim
    gs = [np.array(g) for g in gs]
    merit, r, state = residual(gs)
    best = np.inf
    stall = 0
    for _ in range(max_iter):
        if merit <= 0.01 * tol:
            break
        u, sv, vt = np.linalg.svd(jacobian(state), full_matrices=False)
        keep = sv > 1e-6 * sv[0]
        step = vt[keep].T @ ((u[:, keep].T @ -r) / sv[keep])
        scale = 1.0
        for _ in range(25):
            trial = [
                project_orthogonal(group_exp(basis, scale * step[i * d : (i + 1) * d]) @ g)
                for i, g in enumerate(gs)
            ]
            trial_merit, trial_r, trial_state = residual(trial)
            if trial_merit <= merit * (1 - 1e-4 * scale):
                break
            scale *= 0.5
        else:
            break
        gs, merit, r, state = trial, trial_merit, trial_r, trial_state
        if merit < 0.5 * best:
            best, stall = merit, 0
        else:
            stall += 1
            if stall > 10:
                break
    return gs, merit, state
