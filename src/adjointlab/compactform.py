"""Compact real forms with explicit structure constants, and the adjoint group.

Route: realize every form from the basis of su(m): su(m) itself, so(m) as
its real elements, and sp(n) and G2 as stabilizers, of the symplectic form
in su(2n) and of the Fano three-form in so(7). Orthonormalize the
realization for the invariant trace form -Re tr(XY); in that frame the
structure constants are inner products, c_ijk = -Re tr([e_i, e_j] e_k).
On a simple algebra the Killing form kappa is a multiple of every invariant
form, so one scalar takes the frame to the normalized inner product
<.,.> = -kappa(.,.)/(2 h_vee). That scale makes long coroots have squared
length 2; any other positive scale would do, but one must be pinned.

In the resulting frame the normalized form is literally the Euclidean dot
product, the structure tensor is totally antisymmetric, and Ad matrices are
plain orthogonal matrices — which keeps every downstream solver honest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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


# group_log rejects a matrix with an eigenvalue this close to -1
LOG_BRANCH_TOL = 1e-6
# group_exp halves x until sqrt(2) ||x|| <= _EXP_THETA, then sums the Taylor
# series of exp to degree 16 in blocks of four: block j holds the terms of
# degree 4j .. 4j + 3, as _EXP_DIAGONAL[j] on the diagonal plus
# _EXP_BLOCKS[j] against (a, a^2, a^3)
_EXP_THETA = 0.8
_EXP_BLOCKS = np.array([[1.0 / math.factorial(4 * j + i) for i in (1, 2, 3)] for j in range(4)])
_EXP_DIAGONAL = [1.0 / math.factorial(4 * j) for j in range(4)]
_EXP_TAYLOR_16 = 1.0 / math.factorial(16)
# singular values below this fraction of the largest count as zero in a rank
RANK_REL_TOL = 1e-9


class LogRangeError(RuntimeError):
    """Input to group_log is outside the principal-branch region; `index` is
    the batch index of the first slice that is (() for a single matrix)."""

    def __init__(self, message: str, index: tuple = ()):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class CompactAlgebraBasis:
    """Orthonormal basis of a compact simple Lie algebra.

    structure[i, j, k] is the coefficient of e_k in [e_i, e_j]; it is totally
    antisymmetric. ad_stack[i] is the matrix of ad(e_i). The raw Killing
    matrix in this frame is -killing_scale * identity, so the normalized
    inner product -kappa/killing_scale is the Euclidean dot product on
    coefficient vectors. Frozen, so ad_stack cannot drift from structure.
    """

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


def _stabilizer(gens: np.ndarray, act: np.ndarray, dim: int) -> list[np.ndarray]:
    """The combinations of gens that act annihilates, which must span dim
    dimensions: act has one row per scalar linear condition and one column
    per generator."""
    _, s, vt = np.linalg.svd(act)
    null_vecs = vt[np.count_nonzero(s >= 1e-10):]
    if null_vecs.shape[0] != dim:
        raise AssertionError(f"stabilizer has dim {null_vecs.shape[0]}, expected {dim}")
    return list(np.tensordot(null_vecs, gens, axes=1))


def _so_basis(m: int) -> list[np.ndarray]:
    """so(m): the real elements of su(m)."""
    return [e.real for e in _su_basis(m) if not e.imag.any()]


def _sp_basis(n: int) -> list[np.ndarray]:
    """sp(n): the X in su(2n) with X^T J + J X = 0, J = [[0, 1], [-1, 0]]."""
    su = np.stack(_su_basis(2 * n))
    j = np.kron([[0, 1], [-1, 0]], np.eye(n))
    cond = (su.mT @ j + j @ su).reshape(len(su), -1).T
    return _stabilizer(su, np.concatenate([cond.real, cond.imag]), n * (2 * n + 1))


def build_compact_form(rs: RootSystem) -> CompactAlgebraBasis:
    """Compact real form of the given type, in an orthonormal frame for the
    normalized negative Killing form.

    Raises AssertionError if a bracket leaves the span of the realization,
    or if its Killing form is not a multiple of the trace form (it is not
    simple).
    """
    raw = np.stack(_MATRIX_BASES[rs.type_label]())
    dim = len(raw)
    if dim != rs.algebra_dimension:
        raise AssertionError((dim, rs.algebra_dimension))
    # orthonormal for the trace form -Re tr(XY), so c_ijk = -Re tr([e_i, e_j] e_k)
    gram = -np.einsum("aij,bji->ab", raw, raw).real
    e = np.einsum("ia,a...->i...", np.linalg.inv(np.linalg.cholesky(gram)), raw)
    prod = np.einsum("iab,jbc->ijac", e, e)
    brackets = prod - prod.swapaxes(0, 1)
    c = -np.einsum("ijab,kba->ijk", brackets, e).real
    resid = np.linalg.norm(brackets - np.einsum("ijk,kab->ijab", c, e), axis=(-2, -1)).max()
    if not resid < 1e-9:
        raise AssertionError(f"bracket not in span: residual {resid}")
    c = _antisymmetrized(c)
    kappa = np.einsum("ajk,bkj->ab", c, c)
    mean = np.trace(kappa) / dim  # kappa = mean * 1 on a simple algebra
    off = np.abs(kappa / mean - np.eye(dim)).max()
    if not off < 1e-10:
        raise AssertionError(f"Killing form not proportional to the trace form (off by "
                             f"{off:.1e}): the realization is not simple")
    # e / alpha makes -kappa/scale the identity
    scale = 2.0 * rs.dual_coxeter_number()
    alpha = np.sqrt(-mean / scale)
    c = c / alpha
    return CompactAlgebraBasis(
        rs=rs,
        dim=dim,
        structure=c,
        ad_stack=np.transpose(c, (0, 2, 1)).copy(),
        killing_scale=scale,
        matrix_basis=e / alpha,
    )


def _antisymmetrized(c_frame: np.ndarray) -> np.ndarray:
    """Totally antisymmetric tensor from one antisymmetrized value per index
    triple i < j < k.

    In an orthonormal frame the structure tensor is totally antisymmetric;
    rebuilding it this way makes the symmetry hold exactly (bit-for-bit),
    not just to rounding.
    """
    i, j, k = np.array(list(itertools.combinations(range(len(c_frame)), 3))).T
    v = (
        c_frame[i, j, k]
        - c_frame[i, k, j]
        + c_frame[j, k, i]
        - c_frame[j, i, k]
        + c_frame[k, i, j]
        - c_frame[k, j, i]
    ) / 6.0
    c = np.zeros_like(c_frame)
    c[i, j, k] = c[j, k, i] = c[k, i, j] = v
    c[i, k, j] = c[j, i, k] = c[k, j, i] = -v
    return c


def _g2_nullspace_basis() -> list[np.ndarray]:
    """G2 as the annihilator of the associative 3-form inside so(7)."""
    # the associative 3-form: +1 on each oriented Fano line, antisymmetrized
    phi = np.zeros((7, 7, 7))
    phi[tuple(np.array(_FANO_LINES).T)] = 1
    phi = (phi + phi.transpose(1, 2, 0) + phi.transpose(2, 0, 1)
           - phi.transpose(1, 0, 2) - phi.transpose(0, 2, 1) - phi.transpose(2, 1, 0))
    so7 = np.stack(_so_basis(7))
    # (x . phi)_abc = sum_i x_ia phi_ibc + x_ib phi_aic + x_ic phi_abi, one
    # row per triple a < b < c and one column per generator x of so(7)
    full = (np.einsum("xia,ibc->abcx", so7, phi)
            + np.einsum("xib,aic->abcx", so7, phi)
            + np.einsum("xic,abi->abcx", so7, phi))
    act = full[tuple(np.array(list(itertools.combinations(range(7), 3))).T)]
    return _stabilizer(so7, act, 14)


# matrix realization of each compact form: su(2), su(3), the real part so(5)
# of su(5), and the stabilizers sp(2) in su(4) and g2 in so(7)
_MATRIX_BASES = {
    "A1": lambda: _su_basis(2),
    "A2": lambda: _su_basis(3),
    "B2": lambda: _so_basis(5),
    "C2": lambda: _sp_basis(2),
    "G2": _g2_nullspace_basis,
}


# -- algebra operations -------------------------------------------------------


def ad(basis: CompactAlgebraBasis, x) -> np.ndarray:
    """Matrix of ad(X) acting on coefficient vectors, for x of shape (..., dim)."""
    x = np.asarray(x, float)
    return (x @ basis.ad_stack.reshape(basis.dim, -1)).reshape(x.shape[:-1] + (basis.dim,) * 2)


def bracket(basis: CompactAlgebraBasis, x, y) -> np.ndarray:
    return ad(basis, x) @ np.asarray(y, float)


def sample_unit(basis: CompactAlgebraBasis, rng: np.random.Generator, n: int | None = None):
    """Uniform points on the unit sphere of the normalized Killing form."""
    shape = (basis.dim,) if n is None else (n, basis.dim)
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# -- group operations ---------------------------------------------------------


def group_exp(basis: CompactAlgebraBasis, x) -> np.ndarray:
    """Ad(exp X) = exp(ad X): coefficients of shape (..., dim) give orthogonal
    matrices of shape (..., dim, dim), by matrix products only.

    Scaling and squaring: each slice's x is halved exactly (np.ldexp) its
    own s times, until sqrt(2) ||x|| <= _EXP_THETA = 0.8; in this
    normalization ||ad x||_2 <= sqrt(2) ||x||, since long roots have
    squared length 2. The degree-16 Taylor polynomial of a = ad x is
    evaluated by Paterson-Stockmeyer, as Horner's rule in a^4 over the
    blocks B_j = sum_i a^i / (4j + i)!, i < 4 (a^2, a^3, a^4, then three
    products with a^4); its tail 0.8^17 / 17! is 6e-17. Each slice is then
    squared its own s times, so no slice depends on the others in its
    stack. The constants land on the diagonal only, so near the identity
    (s = 0) exp(a) - 1 keeps its relative accuracy off the diagonal.
    """
    x = np.asarray(x, dtype=float)
    d = basis.dim
    flat = x.reshape(-1, d)
    n = len(flat)
    _, s = np.frexp(math.sqrt(2.0) / _EXP_THETA * np.linalg.norm(flat, axis=-1))
    s = np.maximum(s, 0)
    powers = np.empty((3, n, d, d))
    a, a2, a3 = powers
    # ad(basis, x / 2^s), written in place
    np.matmul(np.ldexp(flat, -s[:, None]), basis.ad_stack.reshape(d, -1), out=a.reshape(n, -1))
    np.matmul(a, a, out=a2)
    np.matmul(a2, a, out=a3)
    a4 = a2 @ a2
    terms = powers.reshape(3, -1)
    m = np.empty_like(a4)
    m_flat, diag = m.reshape(-1), m.reshape(n, -1)[:, :: d + 1]
    t = _EXP_TAYLOR_16 * a4
    for j in (3, 2, 1, 0):
        if j < 3:
            np.matmul(a4, m, out=t)
        # m <- B_j + a^4 (B_j+1 + a^4 (...)), in place
        np.matmul(_EXP_BLOCKS[j], terms, out=m_flat)
        m += t
        diag += _EXP_DIAGONAL[j]
    for k in range(int(s.max(initial=0))):
        sq = np.flatnonzero(s > k)
        m[sq] = m[sq] @ m[sq]
    return m.reshape(x.shape + (d,))


def group_log(basis: CompactAlgebraBasis, m) -> np.ndarray:
    """Principal-branch inverse of group_exp, slice by slice for a stack of
    shape (..., dim, dim); returns coefficients of shape (..., dim).

    Route: the Cayley transform C = (m - 1)(m + 1)^-1, skew-symmetrized, has
    eigenvalues -i tan(phi/2) where m has e^(i phi), so log m = 2 artanh C:
    one Hermitian eigendecomposition of iC per slice (numpy's batched eigh),
    exact on the whole branch |phi| < pi. Rejects a stack if some slice has
    an eigenvalue within LOG_BRANCH_TOL of -1, the boundary of the principal
    branch: since |e^(i phi) + 1|^2 = 2 + 2 cos(phi), that is the least
    eigenvalue of the symmetric m + m^T, 2 cos(phi), below LOG_BRANCH_TOL^2
    - 2 (numpy's batched eigvalsh). It also rejects a slice whose log does
    not map back to it under group_exp within 1e-8 (input outside ad(g) or
    not orthogonal); the LogRangeError names the first such slice. Callers
    hit by either must reduce their step size.
    """
    m = np.asarray(m, dtype=float)
    eye = np.eye(m.shape[-1])
    at_branch = np.linalg.eigvalsh(m + m.mT)[..., 0] < LOG_BRANCH_TOL**2 - 2.0
    # the identity stands in for slices at -1, where m + 1 is singular
    safe = np.where(at_branch[..., None, None], eye, m)
    c = np.linalg.solve(safe + eye, safe - eye)
    w, v = np.linalg.eigh(0.5j * (c - c.mT))
    # log m = V diag(-2i arctan w) V^H is real: the imaginary part of
    # V diag(2 arctan w) V^H
    x = algebra_coords(basis, ((v * (2.0 * np.arctan(w))[..., None, :]) @ v.conj().mT).imag)
    norm_m = np.linalg.norm(m, axis=(-2, -1))
    off = np.linalg.norm(group_exp(basis, x) - m, axis=(-2, -1)) > 1e-8 * np.maximum(1.0, norm_m)
    bad = at_branch | off
    if np.any(bad):
        index = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        reason = ("has an eigenvalue at -1; outside principal branch" if at_branch[index]
                  else "fails the log round trip; input outside log range")
        raise LogRangeError(f"{f'slice {index}' if index else 'matrix'} {reason}", index)
    return x


def algebra_coords(basis: CompactAlgebraBasis, m) -> np.ndarray:
    """Coordinates of the orthogonal projection of skew(m) onto ad(g), slice
    by slice for a stack of shape (..., dim, dim).

    For m = ad(x) this is x; for m = exp(ad x) it is x to first order.
    """
    m = np.asarray(m, dtype=float)
    l = 0.5 * (m - m.mT)
    return np.einsum("ijk,...jk->...i", basis.ad_stack, l) / basis.killing_scale


def numerical_rank(m) -> int:
    """Number of singular values of m above RANK_REL_TOL times the largest."""
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > RANK_REL_TOL * sv[0]))


def project_orthogonal(m) -> np.ndarray:
    """Nearest orthogonal matrix (polar factor via SVD), slice by slice for
    a stack of shape (..., d, d)."""
    u, _, vt = np.linalg.svd(np.asarray(m, float))
    return u @ vt


def _damped_step(jac, r) -> np.ndarray:
    """Damped least-squares steps u = J^T (J J^T + mu 1)^-1 (-r) for J u = -r,
    for a stack of wide Jacobians (B, m, p) and residuals (B, m); shape (B, p).

    mu = 1e-12 tr(J J^T) per member, which lies between (1e-6 sigma_1)^2
    and m (1e-6 sigma_1)^2. In the SVD of J the step damps each singular
    direction by the filter factor sigma^2 / (sigma^2 + mu) (Levenberg-
    Marquardt in normal-equations form), and J^T in front keeps it off the
    null space of J, as the pseudo-inverse does. All the m x m systems go
    through one batched solve; a member with J = 0 solves with 1 and steps 0.
    """
    gram = jac @ jac.mT
    diag = gram.reshape(len(gram), -1)[:, :: gram.shape[-1] + 1]
    mu = 1e-12 * diag.sum(axis=-1)
    diag += np.where(mu > 0, mu, 1.0)[:, None]
    return (jac.mT @ np.linalg.solve(gram, -r[..., None]))[..., 0]


def gauss_newton(basis: CompactAlgebraBasis, gs, residual, jacobian, tol: float, max_iter: int):
    """Damped Gauss-Newton on B tuples (g_1..g_n) of Ad matrices in lockstep,
    stacked (B, n, dim, dim).

    residual(gs, rows) returns (merit, r, state) for the members `rows` of
    the batch, whose tuples are gs: merit of shape (len(rows),), and r and
    state with that leading axis. jacobian(state) returns the stack of J
    such that moving each g_i to exp(ad u_i) g_i changes r by J u at first
    order. Each iteration takes the members still live through one batched
    Gram solve (_damped_step): each step is the damped least-squares
    solution of J u = -r with mu = 1e-12 tr(J J^T), so the filter factor
    sigma^2 / (sigma^2 + mu) takes the place of a hard cut of small singular
    values, and the step stays off the maps' exact gauge directions (the
    null space of J). It then backtracks
    (Armijo on the merit) along g_i <- exp(t ad u_i) g_i, halving each
    member's own t while its trial does not descend. t starts at
    min(1, pi / (sqrt(2) max_i ||u_i||)): sqrt(2) ||u|| bounds the rotation
    angle of exp(ad u), so no trial turns any factor by more than pi, and
    group_exp squares each trial at most twice. A member drops out once its
    merit <= 0.01 tol, when no step descends after 25 halvings, or after
    more than 10 steps that fail to halve its best merit; the others never
    see it. The returned stack is re-orthogonalized once, and (gs, merit)
    are those of that stack.
    """
    gs = np.array(gs, dtype=float)
    rows = np.arange(len(gs))
    merit, r, state = residual(gs, rows)
    best = np.full(len(gs), np.inf)
    stall = np.zeros(len(gs), dtype=int)
    live = np.ones(len(gs), dtype=bool)
    for _ in range(max_iter):
        live &= merit > 0.01 * tol
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        step = _damped_step(jacobian(state[idx]), r[idx]).reshape(idx.size, -1, basis.dim)
        # each member's first trial rotates no factor by more than pi
        widest = math.sqrt(2.0) * np.linalg.norm(step, axis=-1).max(axis=-1)
        scale = np.pi / np.maximum(widest, np.pi)
        pos = np.arange(idx.size)  # members still backtracking, as positions in idx
        for _ in range(25):
            members = idx[pos]
            trial = group_exp(basis, scale[pos, None, None] * step[pos]) @ gs[members]
            t_merit, t_r, t_state = residual(trial, members)
            ok = t_merit <= merit[members] * (1 - 1e-4 * scale[pos])
            done = members[ok]
            gs[done], merit[done], r[done], state[done] = trial[ok], t_merit[ok], t_r[ok], t_state[ok]
            pos = pos[~ok]
            if not pos.size:
                break
            scale[pos] *= 0.5
        live[idx[pos]] = False  # no step descends
        moved = np.ones(idx.size, dtype=bool)
        moved[pos] = False
        stepped = idx[moved]
        better = merit[stepped] < 0.5 * best[stepped]
        best[stepped[better]] = merit[stepped[better]]
        stall[stepped] = np.where(better, 0, stall[stepped] + 1)
        live[stepped[stall[stepped] > 10]] = False
    gs = project_orthogonal(gs)
    return gs, residual(gs, rows)[0]
