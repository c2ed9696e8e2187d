"""Irreducible characters of the adjoint group restricted to its maximal torus.

A torus point is a coefficient vector theta of length rank; its pairing with a
weight mu (fundamental coordinates f) is <mu, theta> = sum_j f_j(mu) theta_j.
Characters are evaluated as multiplicity-weighted Fourier sums — never the
Weyl quotient formula — so singular torus points need no special casing.

On a uniform n^rank torus grid the sum is evaluated on the half grid only:
the multiplicities are real, so chi(-y) = conj chi(y), and the nodes past
the middle of the last axis repeat the conjugates of nodes already on it.
Every quantity the scans reduce over a grid (Re chi, the disk requirement
h(chi/dim), the Haar integrand chi |Delta|^2 summed over the full grid) is
the same at y and -y, so the half grid is one real FFT, laid out as
np.fft.rfftn lays it out: shape n^(rank-1) x (n//2 + 1). A weight diagram
fills few rows of the n^rank box (3 to 49 of 256 for the rank-2 irreps of
level <= 8), so the first FFT stage, along the last axis, runs on the
occupied rows only; the result is rfftn's bit for bit. full_grid_nodes
reads any node of the whole grid off the half grid.

Weight multiplicities come from dividing the Weyl numerator by the Weyl
denominator, e^(-rho) A_(lam+rho) = chi_lam prod_(a>0) (1 - e^-a) (Kostant's
multiplicity formula in other words): the signed W-orbit of lam+rho, read off
the root system's integer Weyl group, is scattered into one flat int64 array
and divided by each factor with one prefix sum, so every multiplicity is an
exact integer. The flat array is the depth box in row-major order: x^d sits
at offset d.strides, a Kronecker substitution y^(d.strides) that is
injective on the box and multiplicative, so dividing by (1 - x^a) is dividing
a power series in y by (1 - y^s), s = a.strides: one cumsum down the columns
of the array reshaped to rows of s. The first prod(box) coefficients of
such a quotient depend only on the first prod(box) of the numerator, so
truncation loses nothing. The table's rows are the nonzero entries of the
flat array, read off in place: depth order, the C order of the root depths
with lam first, and no sort. The division is checked to leave no nonzero
entry outside the character's support and no negative one, and the total
against the Weyl dimension, itself a quotient of two Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rootsys import RootSystem


@dataclass
class IrrepTable:
    """Weight multiplicities of one irreducible representation.

    freq_f holds the weights (fundamental coordinates, one per row, in
    depth order: the C order of their root depths d = c(lam - mu), lam
    first) and mult_arr their multiplicities. root_c holds
    the same weights in integer root coordinates, c(lam) - d for the root
    depths d, when lam is in the root lattice, and is None otherwise: such
    an irrep is no representation of the adjoint group. mults is the same
    data as a dict keyed by weight, built on demand for the tests and the
    benchmark's weight counter, its two readers. Immutable after
    construction.
    """

    rs: RootSystem
    lam: tuple[int, ...]
    dim: int
    freq_f: np.ndarray
    mult_arr: np.ndarray
    root_c: np.ndarray | None

    @property
    def mults(self) -> dict[tuple[int, ...], int]:
        return dict(zip(map(tuple, self.freq_f.tolist()), self.mult_arr.tolist()))


def weyl_dimension(rs: RootSystem, lam) -> int:
    """Exact dimension: prod over positive roots of <lam+rho, a>/<rho, a>.

    <f, a> for f in fundamental and a in root coordinates is proportional to
    sum_i f_i c_i(a) |a_i|^2, computed in integers with the root system's
    table of 3|a_i|^2."""
    lam = _check_dominant(lam)
    scaled = rs.positive_root_coords * rs.norm2_x3
    num = math.prod((scaled @ (np.array(lam, dtype=np.int64) + 1)).tolist())
    den = math.prod(scaled.sum(axis=1).tolist())
    dim, rem = divmod(num, den)
    if rem or dim <= 0:
        raise AssertionError(f"Weyl dimension of lam={lam} is {num}/{den}")
    return dim


def _check_dominant(lam) -> tuple[int, ...]:
    lam = tuple(int(x) for x in lam)
    if any(x < 0 for x in lam):
        raise ValueError(f"highest weight must be dominant, got {lam}")
    return lam


def _weyl_quotient(
    rs: RootSystem, lam: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (fundamental coords, one per row), their root depths
    d = c(lam - mu) and their multiplicities of V(lam), row for row in
    depth order: the C order of d, lam (d = 0) first.

    Everything lives in root-depth coordinates d = c(lam - mu) >= 0, where
    x^d stands for e^(lam - mu) with mu = lam - d.alpha. The Weyl numerator
    e^(-rho) A_(lam+rho) = e^lam sum_w sign(w) x^(c((lam+rho) - w(lam+rho)))
    equals chi_lam * prod_(a>0) (1 - x^c(a)), so dividing the signed orbit
    by each factor leaves e^(-lam) chi_lam: one exact integer array.

    The box of depths is flattened row-major, x^d -> y^(d.strides): a
    substitution that multiplies as x does and is injective on the box. A
    factor becomes (1 - y^s), s = a.strides, and dividing by it is a prefix
    sum over each residue class mod s: one cumsum down the rows of width s.
    Keeping only size = prod(box) coefficients is exact: the first `size`
    coefficients of a power series over (1 - y^s) depend only on its own
    first `size`, so the result R is N(y) / prod(1 - y^s) to that order.
    Let Q be R read back into the box. If no nonzero entry of Q lies
    outside the support [0, box - c(2 rho)), then Q prod(1 - x^a) stays in
    the box, its image R prod(1 - y^s) agrees with N(y) to order `size`,
    and injectivity on the box gives Q prod(1 - x^a) = N. So the support
    check below proves the division exact, as it would in the box's own
    coordinates.
    """
    # signed W-orbit of the regular weight lam+rho, at root depth
    # c((lam+rho) - w(lam+rho)) = D_w (lam+rho) >= 0
    top = np.array(lam, dtype=np.int64) + 1
    depth = rs.weyl_depth_matrices @ top

    # the deepest point is (lam+rho) - w0(lam+rho); the quotient's support
    # [0, c(lam - w0 lam)] stops c(2 rho) short of it
    box = depth.max(axis=0) + 1
    strides = np.cumprod(np.append(1, box[:0:-1]))[::-1]
    size = int(np.prod(box))
    steps = rs.positive_root_coords @ strides
    flat = np.zeros(size + steps.max(), dtype=np.int64)
    flat[depth @ strides] = rs.weyl_signs
    if np.count_nonzero(flat) != rs.weyl_order:  # two w(lam+rho) coincide
        raise AssertionError(
            f"W-orbit of lam+rho={tuple(top.tolist())} is not a regular integral orbit"
        )
    for s in steps.tolist():
        # divide by (1 - y^s): a prefix sum down the rows of width s, the
        # last row filled out from the tail past `size`, whose entries feed
        # only later entries and so never reach the first `size`
        rows = flat[:size + -size % s].reshape(-1, s)
        np.cumsum(rows, axis=0, out=rows)
    # the table is the nonzero entries in place, in the C order of d
    pos = np.flatnonzero(flat[:size])
    d = np.stack(np.unravel_index(pos, tuple(box)), axis=-1)
    mult = flat[pos]
    if np.any(d >= box - rs.two_rho_coords):
        raise AssertionError(f"Weyl numerator of lam={lam} does not divide exactly")
    if np.any(mult < 0):
        raise AssertionError(f"negative multiplicity in the table of lam={lam}")
    return np.array(lam, dtype=np.int64) - d @ rs.cartan, d, mult


def weight_multiplicities(rs: RootSystem, lam) -> IrrepTable:
    """Full weight-multiplicity table of the irrep with highest weight lam."""
    lam = _check_dominant(lam)
    freq_f, depths, mult_arr = _weyl_quotient(rs, lam)
    dim = int(mult_arr.sum())
    expected = weyl_dimension(rs, lam)
    if dim != expected:
        raise AssertionError(f"multiplicity total {dim} != dimension {expected}")
    try:
        root_c = rs.root_coords(lam) - depths
    except ValueError:  # lam is off the root lattice
        root_c = None
    return IrrepTable(rs=rs, lam=lam, dim=dim, freq_f=freq_f, mult_arr=mult_arr,
                      root_c=root_c)


# -- torus geometry ---------------------------------------------------------


def theta_of_torus_fraction(rs: RootSystem, y) -> np.ndarray:
    """Map torus fractions y in [0,1)^rank, one point or a (..., rank) stack,
    to theta with cartan @ theta = 2 pi y. Each point is its own one-column
    solve, so a stack gets the bits that one call per point would."""
    y = 2 * np.pi * np.asarray(y, float)
    return np.linalg.solve(rs.cartan.astype(float), y[..., None])[..., 0]


def half_grid_shape(rank: int, n: int) -> tuple[int, ...]:
    """Shape n^(rank-1) x (n//2 + 1) of the half grid: the nodes whose last
    index is at most n/2, one of each conjugate pair y, -y."""
    return (n,) * (rank - 1) + (n // 2 + 1,)


def grid_torus_fractions(rs: RootSystem, index, n: int) -> np.ndarray:
    """Torus fractions y of flat indices (C order) into the half grid that
    character_grid evaluates; shape index.shape + (rank,)."""
    return np.stack(np.unravel_index(index, half_grid_shape(rs.rank, n)), axis=-1) / n


# -- evaluation ---------------------------------------------------------------


def character_grid(table: IrrepTable, n: int) -> np.ndarray:
    """chi on the half grid of the uniform n^rank grid of torus fractions y.

    Frequencies are integer root coordinates, so the value at grid node
    (i1,..) is sum_mu m_mu exp(2pi i c(mu) . (i1/n, ..)): the conjugate of
    the forward FFT of the real multiplicities scattered at c(mu) mod n,
    which np.fft.rfftn returns on the half grid (half_grid_shape).

    rfftn transforms each row (the last axis) of the scattered array, then
    the other axes. Only the rows some weight occupies are scattered and
    transformed; every other row holds the transform of a zero row, as
    rfftn leaves it, signs of zero included, so the result equals
    np.fft.rfftn of the dense array bit for bit. Raises ValueError for an
    irrep off the root lattice.
    """
    if table.root_c is None:
        raise ValueError(f"{table.rs.type_label}: lam={table.lam} is not in the root lattice")
    rank = table.rs.rank
    c = table.root_c % n
    # flat index of each weight's row: its leading coordinates, row-major
    row = c[:, :-1] @ n ** np.arange(rank - 2, -1, -1)
    occupied = np.bincount(row, minlength=n ** (rank - 1)).astype(bool)
    slot = np.cumsum(occupied) - 1  # row -> its place among the occupied rows
    rows = np.bincount(slot[row] * n + c[:, -1], weights=table.mult_arr,
                       minlength=int(occupied.sum()) * n).reshape(-1, n)
    half = np.empty((n ** (rank - 1), n // 2 + 1), dtype=complex)
    half[...] = np.fft.rfft(np.zeros(n))
    half[occupied] = np.fft.rfft(rows)
    half = half.reshape(half_grid_shape(rank, n))
    for axis in range(rank - 1):
        half = np.fft.fft(half, axis=axis)
    return np.conj(half, out=half)


def full_grid_nodes(half: np.ndarray, n: int, index) -> np.ndarray:
    """Values at flat indices (C order) into the whole n^rank grid, read
    from a half grid of a real-multiplicity sum: a node y past the middle of
    the last axis holds conj chi(-y), and -y mod 1 lies on the half grid."""
    y = np.unravel_index(index, (n,) * half.ndim)
    past = y[-1] > n // 2
    z = half[tuple(np.where(past, -i % n, i) for i in y)]
    return np.conjugate(z, out=z, where=past)


def weyl_density_grid(rs: RootSystem, n: int) -> np.ndarray:
    """Weyl-integration quadrature weights of the half grid.

    The weight of a node is |Delta(y)|^2 = prod over positive roots of
    4 sin^2(pi c(a).y), times the number of full-grid nodes it stands for
    (1 on the self-conjugate last-axis columns 0 and n/2, the latter only
    for even n; 2 elsewhere), over n^rank. The weights sum to |W| once n
    exceeds the bandwidth of |Delta|^2.
    """
    shape = half_grid_shape(rs.rank, n)
    y = np.indices(shape) / n
    out = np.full(shape, 2.0 / n ** rs.rank)
    out[..., 0] /= 2
    if n % 2 == 0:
        out[..., -1] /= 2
    for c in rs.positive_root_coords:
        u = sum(int(ci) * yi for ci, yi in zip(c, y))
        out *= 4 * np.sin(np.pi * u) ** 2
    return out


def haar_bandwidth(rs: RootSystem, lams) -> int:
    """max_i (max_mu |c_i(mu)| + c_i(2 rho)) over the weights mu of every V(lam).

    It bounds every frequency of chi_lam |Delta|^2 along each grid axis, so
    on an n^rank grid with n above it no nonzero frequency aliases onto 0
    and haar_character_integral is exact. The weights lie in the convex
    hull of the W-orbit of lam, so the maximum over mu is taken on it.
    """
    lams = np.array([_check_dominant(lam) for lam in lams], dtype=np.int64)
    orbits = rs.weyl_weight_matrices @ lams.T
    c = rs.root_coords(orbits.transpose(0, 2, 1).reshape(-1, rs.rank))
    return int(np.max(np.abs(c).max(axis=0) + rs.two_rho_coords))


def haar_character_integral(rs: RootSystem, chi: np.ndarray, density: np.ndarray) -> float:
    """Integral of a character over the group by Weyl integration on the torus.

    chi and density are the character_grid and weyl_density_grid of one
    half grid. The full-grid mean of chi |Delta|^2 is real, its terms at y
    and -y being conjugate, so it is sum Re chi * weights. The integrand is
    a trigonometric polynomial, so once n exceeds its haar_bandwidth the
    sum is exact to rounding.
    """
    if chi.shape != density.shape:
        raise ValueError(
            f"character grid {chi.shape} and density grid {density.shape} differ"
        )
    return float((chi.real * density).sum() / rs.weyl_order)
