"""Irreducible characters of the adjoint group restricted to its maximal torus.

A torus point is a coefficient vector theta of length rank; its pairing with a
weight mu (fundamental coordinates f) is <mu, theta> = sum_j f_j(mu) theta_j.
Characters are evaluated as multiplicity-weighted Fourier sums — never the
Weyl quotient formula — so singular torus points need no special casing. On a
uniform torus grid that sum is an inverse FFT.

Weight multiplicities come from the Freudenthal recursion run in exact
integer arithmetic: all inner products are scaled by a common denominator so
each multiplicity is produced by an exact integer division (remainder checked).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .rootsys import RootSystem


@dataclass
class IrrepTable:
    """Weight multiplicities of one irreducible representation.

    mults maps full weights (fundamental coordinates) to multiplicities;
    freq_f/mult_arr are the same data as dense arrays for evaluation.
    Immutable after construction.
    """

    rs: RootSystem
    lam: tuple[int, ...]
    mults: dict[tuple[int, ...], int]
    dim: int
    freq_f: np.ndarray
    mult_arr: np.ndarray


@dataclass
class CharacterSample:
    lam: tuple[int, ...]
    theta: np.ndarray
    z: complex


def weyl_dimension(rs: RootSystem, lam) -> int:
    """Exact dimension: prod over positive roots of <lam+rho, a^v>/<rho, a^v>."""
    lam = _check_dominant(lam)
    rho = (1,) * rs.rank
    num = Fraction(1)
    den = Fraction(1)
    for c_alpha in rs.positive_root_coords:
        num *= _pairing(rs, tuple(l + r for l, r in zip(lam, rho)), c_alpha)
        den *= _pairing(rs, rho, c_alpha)
    dim = num / den
    assert dim.denominator == 1 and dim > 0
    return int(dim)


def _pairing(rs: RootSystem, f, c_alpha) -> Fraction:
    """<x, alpha> for x in fundamental coords, alpha in root coords."""
    return sum(
        Fraction(int(f[i])) * int(c_alpha[i]) * rs.simple_root_norm2[i] / 2
        for i in range(rs.rank)
    )


def _check_dominant(lam) -> tuple[int, ...]:
    lam = tuple(int(x) for x in lam)
    if any(x < 0 for x in lam):
        raise ValueError(f"highest weight must be dominant, got {lam}")
    return lam


def _freudenthal_scaling(rs: RootSystem):
    """Common denominator D plus the D-scaled pairing data.

    Returns (ghat, pair_vectors, rho_pair) where ghat[i][j] = D <w_i, w_j>,
    pair_vectors[a][i] = D * d<x,alpha_a>/df_i, rho_pair[i] = D <w_i, rho>.
    """
    fracs = [x for row in rs.weight_gram_exact for x in row]
    fracs += [n / 2 for n in rs.simple_root_norm2]
    d = exact.lcm_denominator(fracs)
    ghat = np.array(
        [[int(d * x) for x in row] for row in rs.weight_gram_exact], dtype=np.int64
    )
    pair_vectors = []
    for c_alpha in rs.positive_root_coords:
        u = [int(d * int(c_alpha[i]) * rs.simple_root_norm2[i] / 2) for i in range(rs.rank)]
        pair_vectors.append(tuple(u))
    rho_pair = tuple(int(ghat[i, :].sum()) for i in range(rs.rank))
    return ghat, pair_vectors, rho_pair


def _weyl_orbit(rs: RootSystem, f0: tuple[int, ...]) -> set[tuple[int, ...]]:
    """W-orbit of a weight (fundamental coords), by breadth-first reflection."""
    orbit = {f0}
    frontier = [f0]
    while frontier:
        fresh = []
        for f in frontier:
            for i in range(rs.rank):
                g = tuple(f[k] - f[i] * rs.cartan_rows[i][k] for k in range(rs.rank))
                if g not in orbit:
                    orbit.add(g)
                    fresh.append(g)
        frontier = fresh
    return orbit


def _freudenthal(rs: RootSystem, lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Multiplicities of every weight of V(lam).

    Dominant weights are processed by depth below lam, and each nonzero
    multiplicity is filed under its whole W-orbit at once. A lookup at
    mu + k alpha then needs no reflection: the dominant weight of its orbit
    lies strictly above mu, so it was filed before mu is reached.
    """
    rank = rs.rank
    ghat, pair_vectors, rho_pair = _freudenthal_scaling(rs)
    falpha = [rs.fundamental_of_root_coords(c) for c in rs.positive_root_coords]

    def norm2hat(f):
        v = np.asarray(f, dtype=np.int64)
        return int(v @ ghat @ v)

    c_lam = rs.root_coords_of_weight(lam)
    box = [int(x) for x in c_lam]  # entries of c_lam are >= 0 for dominant lam
    candidates = []
    for offset in np.ndindex(*[b + 1 for b in box]):
        f_mu = tuple(
            lam[j] - sum(offset[i] * rs.cartan_rows[i][j] for i in range(rank))
            for j in range(rank)
        )
        if all(x >= 0 for x in f_mu):
            candidates.append((sum(offset), f_mu))
    candidates.sort()

    lam_rho_norm = norm2hat(tuple(l + 1 for l in lam))
    s_lam = sum(rho_pair[i] * lam[i] for i in range(rank))
    mults = dict.fromkeys(_weyl_orbit(rs, lam), 1)
    for height, f_mu in candidates:
        if height == 0:
            continue
        s_mu = sum(rho_pair[i] * f_mu[i] for i in range(rank))
        num = 0
        for a, u in enumerate(pair_vectors):
            fa = falpha[a]
            s_alpha = sum(rho_pair[i] * fa[i] for i in range(rank))
            k_cap = (s_lam - s_mu) // s_alpha
            for k in range(1, k_cap + 1):
                f_x = tuple(f_mu[i] + k * fa[i] for i in range(rank))
                m = mults.get(f_x)
                if m:
                    num += m * sum(u[i] * f_x[i] for i in range(rank))
        denom = lam_rho_norm - norm2hat(tuple(x + 1 for x in f_mu))
        q, r = divmod(2 * num, denom)
        assert r == 0 and q >= 0, f"Freudenthal division failed at {f_mu}"
        if q:
            mults.update(dict.fromkeys(_weyl_orbit(rs, f_mu), q))
    return mults


def weight_multiplicities(rs: RootSystem, lam) -> IrrepTable:
    """Full weight-multiplicity table of the irrep with highest weight lam."""
    lam = _check_dominant(lam)
    mults = _freudenthal(rs, lam)
    dim = sum(mults.values())
    expected = weyl_dimension(rs, lam)
    assert dim == expected, f"multiplicity total {dim} != dimension {expected}"
    keys = sorted(mults)
    freq_f = np.array(keys, dtype=np.int64).reshape(len(keys), rs.rank)
    mult_arr = np.array([mults[k] for k in keys], dtype=np.int64)
    return IrrepTable(rs=rs, lam=lam, mults=mults, dim=dim, freq_f=freq_f, mult_arr=mult_arr)


# -- torus geometry ---------------------------------------------------------


def theta_of_torus_fraction(rs: RootSystem, y) -> np.ndarray:
    """Map torus fraction coordinates y in [0,1)^rank to a theta vector."""
    return np.linalg.solve(rs.cartan.astype(float), 2 * np.pi * np.asarray(y, float))


def grid_torus_fractions(rs: RootSystem, index, n: int) -> np.ndarray:
    """Torus fractions y of flat indices (C order) into the n^rank grid that
    character_grid evaluates; shape index.shape + (rank,)."""
    return np.stack(np.unravel_index(index, (n,) * rs.rank), axis=-1) / n


# -- evaluation ---------------------------------------------------------------


def character_value(table: IrrepTable, theta) -> complex:
    """chi(theta) = sum_mu m_mu exp(i <mu, theta>); equals dim at theta = 0."""
    theta = np.asarray(theta, dtype=float)
    phases = table.freq_f @ theta
    return complex(np.sum(table.mult_arr * np.exp(1j * phases)))


def normalized_character(table: IrrepTable, theta) -> CharacterSample:
    z = character_value(table, theta) / table.dim
    assert abs(z) <= 1 + 1e-9
    return CharacterSample(lam=table.lam, theta=np.asarray(theta, float), z=z)


def root_coordinate_frequencies(table: IrrepTable) -> np.ndarray:
    """Weights of the table as integer root coordinates.

    Only defined when the highest weight lies in the root lattice (the
    adjoint-group case); raises otherwise.
    """
    rs = table.rs
    inv = rs.inv_cartan_exact
    d = exact.lcm_denominator([x for row in inv for x in row])
    m = np.array([[int(d * x) for x in row] for row in inv], dtype=np.int64)
    scaled = table.freq_f @ m  # row f -> row f A^-1, times d
    if np.any(scaled % d):
        raise ValueError(f"weight {tuple(table.lam)} is not in the root lattice")
    return scaled // d


def character_grid(table: IrrepTable, n: int) -> np.ndarray:
    """chi on the uniform n^rank tensor grid of torus fractions y.

    Frequencies are integer root coordinates, so the value at grid node
    (i1,..) is sum_mu m_mu exp(2pi i c(mu) . (i1/n, ..)): n^rank times the
    inverse FFT of the multiplicities scattered at c(mu) mod n.
    """
    c = root_coordinate_frequencies(table)
    coeffs = np.zeros((n,) * table.rs.rank)
    np.add.at(coeffs, tuple((c % n).T), table.mult_arr)
    return n ** table.rs.rank * np.fft.ifftn(coeffs)


def weyl_density_grid(rs: RootSystem, n: int) -> np.ndarray:
    """|Delta(y)|^2 = prod over positive roots of 4 sin^2(pi c(a).y)."""
    y = np.indices((n,) * rs.rank) / n
    out = np.ones((n,) * rs.rank)
    for c in rs.positive_root_coords:
        u = sum(int(ci) * yi for ci, yi in zip(c, y))
        out *= 4 * np.sin(np.pi * u) ** 2
    return out


def haar_character_integral(rs: RootSystem, chi: np.ndarray, density: np.ndarray) -> complex:
    """Integral of a character over the group by Weyl integration on the torus.

    chi and density are the character_grid and weyl_density_grid of one
    n^rank grid. The integrand is a trigonometric polynomial, so once n
    clears its bandwidth the grid mean is exact to rounding.
    """
    if chi.shape != density.shape:
        raise ValueError(
            f"character grid {chi.shape} and density grid {density.shape} differ"
        )
    return complex((chi * density).mean() / rs.weyl_order)
