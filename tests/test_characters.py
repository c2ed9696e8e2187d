"""Weight multiplicities and torus characters.

Dimension oracles are the standard tables (so(3)/su(3)/so(5)/sp(4)/g2 low
irreps); the analytic oracles are Weyl orthonormality, the zero-sum of
weights, the closed-form A1 character sin((m+1)u)/sin(u), the known minima
of low normalized characters, and the Haar integral in exact integers.
"""

import dataclasses
import hashlib
import itertools
from collections.abc import Mapping

import numpy as np
import pytest

from adjointlab.characters import (
    IrrepTable,
    character_grid,
    full_grid,
    full_grid_nodes,
    grid_torus_fractions,
    half_grid_shape,
    haar_bandwidth,
    haar_character_integral,
    theta_of_torus_fraction,
    weight_multiplicities,
    weyl_density_grid,
    weyl_dimension,
)
from adjointlab.rootsys import (
    build_root_system,
    enumerate_adjoint_dominant_weights,
    is_in_root_lattice,
)

KNOWN_DIMS = [
    ("A1", (2,), 3),
    ("A1", (4,), 5),
    ("A1", (6,), 7),
    ("A2", (1, 1), 8),
    ("A2", (3, 0), 10),
    ("A2", (0, 3), 10),
    ("A2", (2, 2), 27),
    ("B2", (1, 0), 5),
    ("B2", (0, 1), 4),
    ("B2", (0, 2), 10),
    ("B2", (2, 0), 14),
    ("C2", (1, 0), 4),
    ("C2", (0, 1), 5),
    ("C2", (2, 0), 10),
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
    ("G2", (2, 0), 27),
    ("G2", (1, 1), 64),
]


@pytest.mark.parametrize("label,lam,dim", KNOWN_DIMS)
def test_known_dimensions(systems, label, lam, dim):
    assert weyl_dimension(systems[label], lam) == dim


@pytest.mark.parametrize("label,lam,dim", KNOWN_DIMS)
def test_multiplicities_sum_to_dimension(systems, label, lam, dim):
    # Weyl-numerator division and the Weyl product formula are independent
    # routes to the dimension; weight_multiplicities checks agreement, and
    # we re-check here against the frozen table values.
    table = weight_multiplicities(systems[label], lam)
    assert table.dim == dim
    assert int(table.mult_arr.sum()) == dim


def test_a1_spin_two_weights(systems):
    table = weight_multiplicities(systems["A1"], (4,))
    assert table.mults == {(-4,): 1, (-2,): 1, (0,): 1, (2,): 1, (4,): 1}


# SHA-256 over repr((lam, sorted(mults.items()))) for every nontrivial
# dominant lam of level <= 12, lam in lexicographic order. Generated at
# commit fa569b2, whose tables came from the Freudenthal recursion.
TABLE_FINGERPRINTS = {
    "A1": "1fdaefa994fb91f0ed3212ecf44ab7a7677caa9b32f9f224004a654fa2b5647f",
    "A2": "7f43a2207223f7c54bf579390e800b3d36e6309c10cf85f3d6f9f4464f71f720",
    "B2": "d3421453ef3d88567af49a9ed31bfe2b73f4d9da869b38da3864ba4b375cb64f",
    "C2": "376c7452fe4d709aa6a367f3fc72342f9e16d85fb82464c7b0a4c8b78944696b",
    "G2": "fad4992645c3dfda9ac0bfb8f5744da455b1e507465c3a496294314a8e96b6a1",
}


@pytest.mark.parametrize("label", sorted(TABLE_FINGERPRINTS))
def test_tables_match_fingerprint(systems, label):
    rs = systems[label]
    digest = hashlib.sha256()
    for lam in itertools.product(range(13), repeat=rs.rank):
        if 0 < sum(lam) <= 12:
            items = sorted(weight_multiplicities(rs, lam).mults.items())
            digest.update(repr((lam, items)).encode())
    assert digest.hexdigest() == TABLE_FINGERPRINTS[label]


def multiply_back(rs, table):
    """The table at root depth c(lam - mu) times prod_(a>0) (1 - x^a), by
    shifted subtractions in the depth array, next to the signed W-orbit of
    lam+rho at depth c((lam+rho) - w(lam+rho)) on the same array shape."""
    top = np.array(table.lam) + 1
    orbit = [(rs.root_coords(top - w @ top), sign)
             for w, sign in zip(rs.weyl_weight_matrices, rs.weyl_signs.tolist())]
    shape = tuple(np.max([d for d, _ in orbit], axis=0) + 1)
    numerator = np.zeros(shape, dtype=np.int64)
    for d, sign in orbit:
        numerator[tuple(d)] += sign
    depth = rs.root_coords(np.array(table.lam) - table.freq_f)
    assert depth.min() >= 0
    product = np.zeros(shape, dtype=np.int64)
    product[tuple(depth.T)] = table.mult_arr
    for a in rs.positive_root_coords:
        lower = product[tuple(slice(None, n - k) for n, k in zip(shape, a))].copy()
        product[tuple(slice(k, None) for k in a)] -= lower
    return product, numerator


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_tables_multiply_back_to_the_weyl_numerator(systems, label):
    # chi_lam prod_(a>0) (1 - e^-a) = e^(-rho) A_(lam+rho), multiplied out in
    # the root-depth array apart from the table's own division: A1 to level
    # 40, and every rank-2 lam of level 13 to 16, past the fingerprints
    rs = systems[label]
    low, high = (0, 40) if rs.rank == 1 else (13, 16)
    for lam in itertools.product(range(high + 1), repeat=rs.rank):
        if low <= sum(lam) <= high:
            product, numerator = multiply_back(rs, weight_multiplicities(rs, lam))
            assert np.array_equal(product, numerator), lam


def test_table_fields_hold_no_weight_mapping(systems):
    # a table is its arrays: no field is a per-weight dict
    fields = dataclasses.fields(IrrepTable)
    assert not any("dict" in str(f.type) or "Mapping" in str(f.type) for f in fields)
    table = weight_multiplicities(systems["G2"], (1, 1))
    assert not any(isinstance(getattr(table, f.name), Mapping) for f in fields)


@pytest.mark.parametrize("label,lam", [("A1", (7,)), ("A2", (2, 2)), ("B2", (0, 3)),
                                       ("C2", (3, 1)), ("G2", (2, 1))])
def test_mults_follow_the_arrays(systems, label, lam):
    table = weight_multiplicities(systems[label], lam)
    assert table.mults == dict(zip(map(tuple, table.freq_f.tolist()),
                                   table.mult_arr.tolist()))


@pytest.mark.parametrize("label,lam", [("B2", (2, 1)), ("G2", (1, 1))])
def test_division_exactness_check_fires(monkeypatch, label, lam):
    # without one factor (1 - e^-a) of the Weyl denominator the quotient
    # overruns the character's support, whichever positive root is dropped
    rs = build_root_system(label)
    roots = rs.positive_root_coords
    for k in range(len(roots)):
        monkeypatch.setattr(rs, "positive_root_coords", np.delete(roots, k, axis=0))
        with pytest.raises(AssertionError, match="does not divide exactly"):
            weight_multiplicities(rs, lam)


@pytest.mark.parametrize("label,lams", [("A1", [(2,), (7,)]), ("B2", [(0, 1), (2, 1)]),
                                        ("G2", [(1, 0), (1, 1)])])
def test_negativity_check_fires(label, lams):
    # with every sign of the Weyl numerator flipped the division is still
    # exact, and every multiplicity comes out negative; a fresh system, so
    # the shared fixtures keep their true signs
    rs = build_root_system(label)
    rs.weyl_signs = -rs.weyl_signs
    for lam in lams:
        with pytest.raises(AssertionError, match="negative multiplicity"):
            weight_multiplicities(rs, lam)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_tables_are_in_depth_order(systems, label):
    # rows run in the C order of the root depths d = c(lam - mu), lam first,
    # and freq_f, root_c and mult_arr are aligned row for row
    rs = systems[label]
    for lam in itertools.product(range(9), repeat=rs.rank):
        if sum(lam) > 8:
            continue
        table = weight_multiplicities(rs, lam)
        d = rs.root_coords(np.array(lam) - table.freq_f)
        offsets = np.ravel_multi_index(d.T, tuple(d.max(axis=0) + 1))
        assert offsets[0] == 0 and np.all(np.diff(offsets) > 0), lam
        assert np.array_equal(table.freq_f, np.array(lam) - d @ rs.cartan), lam
        if table.root_c is None:
            assert not is_in_root_lattice(rs, lam)
        else:
            assert np.array_equal(table.root_c, rs.root_coords(table.freq_f)), lam
        assert table.mult_arr.shape == (len(d),) and table.mult_arr.min() > 0


def test_orbit_check_fires(monkeypatch):
    # the signed orbit of lam+rho must have one point per Weyl group element
    rs = build_root_system("G2")
    monkeypatch.setattr(rs, "weyl_order", 10)
    with pytest.raises(AssertionError, match="regular integral orbit"):
        weight_multiplicities(rs, (1, 0))


def test_adjoint_zero_weight_multiplicity(systems):
    # the zero weight of the adjoint rep carries the Cartan, so mult = rank
    for label, lam in [("A1", (2,)), ("A2", (1, 1)), ("B2", (0, 2)),
                       ("C2", (2, 0)), ("G2", (0, 1))]:
        rs = systems[label]
        table = weight_multiplicities(rs, lam)
        assert table.dim == rs.algebra_dimension
        assert table.mults[(0,) * rs.rank] == rs.rank


def test_weights_sum_to_zero(systems):
    for label, lam in [("A2", (2, 2)), ("B2", (2, 0)), ("G2", (1, 1))]:
        rs = systems[label]
        table = weight_multiplicities(rs, lam)
        # exactly, in fundamental coordinates
        assert (table.mult_arr @ table.freq_f).tolist() == [0] * rs.rank


def test_weyl_invariance_of_multiplicities(systems):
    # every weight has the multiplicity of each of its W-images
    for label, lam in [("A1", (6,)), ("A2", (2, 2)), ("B2", (2, 1)),
                       ("C2", (1, 2)), ("G2", (1, 1))]:
        rs = systems[label]
        table = weight_multiplicities(rs, lam)
        for w in rs.weyl_weight_matrices:
            for f, m in table.mults.items():
                image = tuple(int(x) for x in w @ np.array(f))
                assert table.mults.get(image) == m, (label, f)


def test_character_at_zero_is_dimension(systems, character_value):
    for label, lam in [("A1", (4,)), ("A2", (1, 1)), ("G2", (0, 1))]:
        rs = systems[label]
        table = weight_multiplicities(rs, lam)
        assert character_value(table, np.zeros(rs.rank)) == pytest.approx(table.dim)


def test_a1_character_closed_form(systems, character_value):
    # weights of lam=(6) are -6,-4,...,6, so chi(theta=(u,)) is the Dirichlet
    # ratio sin(7u)/sin(u)
    rs = systems["A1"]
    table = weight_multiplicities(rs, (6,))
    for u in (0.3, 1.1, 2.9):
        expected = np.sin(7 * u) / np.sin(u)
        got = character_value(table, (u,))
        assert got == pytest.approx(expected, abs=1e-12)


def test_normalized_character_in_unit_disk(systems, rng, character_value):
    rs = systems["B2"]
    table = weight_multiplicities(rs, (0, 2))
    for _ in range(50):
        theta = rng.uniform(-8, 8, size=2)
        z = character_value(table, theta) / table.dim
        assert abs(z) <= 1 + 1e-12


def test_torus_periodicity(systems, rng, character_value):
    # shifting theta by a whole turn of the torus (an integer vector of
    # torus fractions) leaves the character value unchanged
    for label in ("A1", "C2"):
        rs = systems[label]
        lam = (2,) if rs.rank == 1 else (2, 0)
        table = weight_multiplicities(rs, lam)
        for _ in range(20):
            theta = rng.uniform(-20, 20, size=rs.rank)
            k = rng.integers(-5, 6, size=rs.rank)
            shifted = theta + theta_of_torus_fraction(rs, k)
            a = character_value(table, theta)
            b = character_value(table, shifted)
            assert a == pytest.approx(b, abs=1e-8)


def test_character_grid_matches_pointwise(systems, character_value):
    rs = systems["A2"]
    table = weight_multiplicities(rs, (1, 1))
    n = 12
    grid = character_grid(table, n)
    assert grid.shape == (12, 7)  # the half grid: last index at most n/2
    nodes = [(0, 0), (3, 5), (11, 2), (5, 6)]
    for i1, i2 in nodes:
        theta = theta_of_torus_fraction(rs, (i1 / n, i2 / n))
        assert grid[i1, i2] == pytest.approx(character_value(table, theta), abs=1e-10)
    # flat C-order indices into the half grid map back to the same fractions
    flat = np.array([i1 * 7 + i2 for i1, i2 in nodes])
    assert np.array_equal(grid_torus_fractions(rs, flat, n), np.array(nodes) / n)
    assert np.array_equal(grid_torus_fractions(rs, 3 * 7 + 5, n), (3 / n, 5 / n))


def dense_multiplicities(table, n):
    """The multiplicities scattered at their root coordinates mod n on the
    whole n^rank array."""
    c = table.rs.root_coords(table.freq_f)
    coeffs = np.zeros((n,) * table.rs.rank)
    np.add.at(coeffs, tuple((c % n).T), table.mult_arr)
    return coeffs


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_character_grid_equals_dense_rfftn(systems, label, n):
    # transforming only the occupied rows, and leaving every other row the
    # transform of a zero row, gives the dense rfftn bit for bit (signs of
    # zero included) for every irrep up to level 8: on rank 2 at n = 8 some
    # irreps occupy every row and at n >= 64 none does; rank 1 has one row
    rs = systems[label]
    lams = enumerate_adjoint_dominant_weights(rs, 8)
    all_rows = 0
    for lam in lams:
        table = weight_multiplicities(rs, lam)
        assert np.array_equal(table.root_c, rs.root_coords(table.freq_f))
        grid = character_grid(table, n)
        oracle = np.fft.rfftn(dense_multiplicities(table, n)).conj()
        assert grid.shape == oracle.shape == half_grid_shape(rs.rank, n)
        assert np.array_equal(grid, oracle), lam
        assert np.array_equal(np.signbit(grid.real), np.signbit(oracle.real)), lam
        assert np.array_equal(np.signbit(grid.imag), np.signbit(oracle.imag)), lam
        all_rows += len(np.unique(table.root_c[:, :-1] % n, axis=0)) == n ** (rs.rank - 1)
    if rs.rank == 1:
        assert all_rows == len(lams)
    else:
        assert (all_rows > 0) == (n == 8)


def test_theta_stack_matches_single_points(systems, rng):
    # a (k, rank) stack of torus fractions maps to the same theta bits as k
    # single-point calls, so one call per run leaves every artifact as it was
    k, n = 300, 256
    for rs in systems.values():
        nodes = int(np.prod(half_grid_shape(rs.rank, n)))
        y = grid_torus_fractions(rs, rng.integers(0, nodes, k), n)
        stack = theta_of_torus_fraction(rs, y)
        assert stack.shape == (k, rs.rank)
        assert np.array_equal(stack, [theta_of_torus_fraction(rs, point) for point in y])


def test_character_grid_rank1(systems, character_value):
    rs = systems["A1"]
    table = weight_multiplicities(rs, (2,))
    n = 16
    grid = character_grid(table, n)
    for i in (0, 4, 8):
        theta = theta_of_torus_fraction(rs, (i / n,))
        assert grid[i] == pytest.approx(character_value(table, theta), abs=1e-12)
    # adjoint character of SO(3): 1 + 2 cos(2 pi y), on y = 0, 1/n, ..., 1/2
    y = np.arange(n // 2 + 1) / n
    assert np.allclose(grid, 1 + 2 * np.cos(2 * np.pi * y), atol=1e-12)


def full_grid_by_inverse_fft(table, n):
    """chi on every node of the n^rank grid: n^rank times the inverse FFT of
    the multiplicities scattered at their root coordinates mod n."""
    return n ** table.rs.rank * np.fft.ifftn(dense_multiplicities(table, n))


def full_weyl_density(rs, n):
    """|Delta(y)|^2 on every node of the n^rank grid."""
    y = np.indices((n,) * rs.rank) / n
    out = np.ones((n,) * rs.rank)
    for c in rs.positive_root_coords:
        out *= 4 * np.sin(np.pi * sum(int(ci) * yi for ci, yi in zip(c, y))) ** 2
    return out


@pytest.mark.parametrize("n", [10, 11])
@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_half_grid_layout(systems, label, n, character_value):
    # even n has the self-conjugate column n/2 and odd n has none: at both,
    # the half grid holds chi at the theta of each of its nodes, unfolds to
    # the inverse-FFT grid, and its weighted sum is the full-grid mean
    rs = systems[label]
    density = weyl_density_grid(rs, n)
    assert density.shape == half_grid_shape(rs.rank, n) == (n,) * (rs.rank - 1) + (n // 2 + 1,)
    full_density = full_weyl_density(rs, n)
    for lam in [(0,) * rs.rank] + enumerate_adjoint_dominant_weights(rs, 4):
        table = weight_multiplicities(rs, lam)
        half = character_grid(table, n)
        assert half.shape == density.shape
        thetas = theta_of_torus_fraction(rs, grid_torus_fractions(rs, np.arange(half.size), n))
        pointwise = [character_value(table, theta) for theta in thetas]
        assert np.allclose(half.ravel(), pointwise, rtol=0, atol=1e-12 * table.dim)
        full = full_grid_by_inverse_fft(table, n)
        assert np.allclose(full_grid(half, n), full, rtol=0, atol=1e-12 * table.dim)
        mean = (full * full_density).mean() / rs.weyl_order
        assert abs(mean.imag) <= 1e-12 * table.dim
        haar = haar_character_integral(rs, half, density)
        assert isinstance(haar, float)
        assert haar == pytest.approx(mean.real, abs=1e-12 * table.dim), lam


@pytest.mark.parametrize("n", [10, 11, 64])
@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_full_grid_nodes_read_the_whole_grid(systems, label, n):
    # any flat index of the whole grid reads the node full_grid holds there,
    # bit for bit, the sign of a zero imaginary part included
    rs = systems[label]
    for lam in enumerate_adjoint_dominant_weights(rs, 4):
        table = weight_multiplicities(rs, lam)
        half = character_grid(table, n) / table.dim
        full = full_grid(half, n).ravel()
        for index in (np.arange(full.size), np.arange(0, full.size, 7), np.array([full.size - 1])):
            nodes = full_grid_nodes(half, n, index)
            assert np.array_equal(nodes, full[index]), lam
            assert np.array_equal(np.signbit(nodes.imag), np.signbit(full[index].imag)), lam


# min over the torus of Re chi/dim: trace >= -1 on SO(3), >= -3 on SO(5)
# (B2 vector, C2 (0,1) is the same 5-dim rep), >= -2 on the 7-dim rep of G2
EXACT_MINIMA = [
    ("A1", (2,), -1 / 3, 64),
    ("B2", (1, 0), -3 / 5, 64),
    ("C2", (0, 1), -3 / 5, 64),
    ("G2", (1, 0), -2 / 7, 96),
]


@pytest.mark.parametrize("label,lam,exact,n", EXACT_MINIMA)
def test_grid_minimum_is_exact(systems, label, lam, exact, n):
    table = weight_multiplicities(systems[label], lam)

    def grid_min(m):
        return float((character_grid(table, m).real / table.dim).min())

    # the grid of size n holds an exact minimizer
    assert grid_min(n) == pytest.approx(exact, abs=1e-12)
    # no grid finds a value below the exact minimum
    for m in (64, 96, 128):
        assert grid_min(m) >= exact - 1e-12


def weyl_density_coefficients(rs):
    """Integer coefficients of |Delta|^2 = prod over a > 0 of
    (2 - e^a - e^-a), keyed by root coordinates."""
    zero = (0,) * rs.rank
    poly = {zero: 1}
    for c in rs.positive_root_coords:
        c = tuple(int(x) for x in c)
        factor = ((zero, 2), (c, -1), (tuple(-x for x in c), -1))
        out = {}
        for key, v in poly.items():
            for shift, w in factor:
                k = tuple(a + b for a, b in zip(key, shift))
                out[k] = out.get(k, 0) + v * w
        poly = out
    return poly


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_exact_haar_oracle(systems, label):
    # |W| times the Haar integral of chi is sum_mu m_mu D[-c(mu)] in exact
    # integers: |W| for the trivial irrep, 0 for every other one
    rs = systems[label]
    dens = weyl_density_coefficients(rs)

    def haar_times_order(lam):
        table = weight_multiplicities(rs, lam)
        c = rs.root_coords(table.freq_f)
        return sum(int(m) * dens.get(tuple(-int(x) for x in ci), 0)
                   for m, ci in zip(table.mult_arr, c))

    assert dens[(0,) * rs.rank] == rs.weyl_order
    assert haar_times_order((0,) * rs.rank) == rs.weyl_order
    lams = enumerate_adjoint_dominant_weights(rs, 8)
    assert lams
    for lam in lams:
        assert haar_times_order(lam) == 0, lam


def test_root_lattice_restriction(systems):
    table = weight_multiplicities(systems["B2"], (0, 1))  # spinor: not adjoint
    with pytest.raises(ValueError):
        table.rs.root_coords(table.freq_f)
    assert table.root_c is None
    with pytest.raises(ValueError, match="root lattice"):
        character_grid(table, 16)


def test_weyl_density_mean_is_group_order(systems):
    # the mean over a full-bandwidth grid of |Delta|^2 equals |W| exactly,
    # and the half grid's quadrature weights sum to that mean
    for label, n in [("A1", 8), ("A2", 16), ("B2", 24), ("C2", 24), ("G2", 48),
                     ("A1", 9), ("A2", 17), ("G2", 49)]:
        rs = systems[label]
        dens = weyl_density_grid(rs, n)
        assert dens.min() >= -1e-12
        assert dens.sum() == pytest.approx(rs.weyl_order, abs=1e-9)


def haar(rs, lam, n):
    chi = character_grid(weight_multiplicities(rs, lam), n)
    return haar_character_integral(rs, chi, weyl_density_grid(rs, n))


def test_haar_trivial_is_one(systems):
    for label in ("A1", "A2", "G2"):
        rs = systems[label]
        assert haar(rs, (0,) * rs.rank, 64) == pytest.approx(1.0, abs=1e-10)


def test_haar_nontrivial_vanishes(systems):
    for label, lam, n in [("A1", (2,), 64), ("A1", (8,), 64),
                          ("A2", (1, 1), 24), ("A2", (3, 0), 32)]:
        assert abs(haar(systems[label], lam, n)) < 1e-10


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_haar_bandwidth(systems, label):
    # the W-orbit of lam attains the table's largest root coordinates, and a
    # grid one above the bandwidth gives the exact integral 0
    rs = systems[label]
    two_rho = rs.root_coords((2,) * rs.rank)
    lams = enumerate_adjoint_dominant_weights(rs, 6)
    assert haar_bandwidth(rs, lams) == max(haar_bandwidth(rs, [lam]) for lam in lams)
    for lam in lams:
        table = weight_multiplicities(rs, lam)
        c = np.abs(rs.root_coords(table.freq_f)).max(axis=0) + two_rho
        n = haar_bandwidth(rs, [lam])
        assert n == c.max(), lam
        assert abs(haar(rs, lam, n + 1)) < 1e-12, lam


def test_haar_rejects_mismatched_grids(systems):
    # numpy would broadcast an (n, n) grid against an (n,) one without a word
    rs = systems["A2"]
    chi = character_grid(weight_multiplicities(rs, (1, 1)), 24)
    with pytest.raises(ValueError):
        haar_character_integral(rs, chi, weyl_density_grid(systems["A1"], 24))
    with pytest.raises(ValueError):
        haar_character_integral(rs, chi, weyl_density_grid(rs, 32))


def test_haar_orthonormality(systems):
    # <chi_a, chi_b> under Weyl integration = delta_ab; the quadrature is
    # exact once the per-axis grid clears the combined bandwidth
    rs = systems["A2"]
    ta = weight_multiplicities(rs, (1, 1))
    tb = weight_multiplicities(rs, (3, 0))
    n = 24
    dens = weyl_density_grid(rs, n)
    ga, gb = character_grid(ta, n), character_grid(tb, n)
    inner = lambda u, v: haar_character_integral(rs, u * np.conj(v), dens)
    assert inner(ga, ga) == pytest.approx(1.0, abs=1e-9)
    assert inner(gb, gb) == pytest.approx(1.0, abs=1e-9)
    assert abs(inner(ga, gb)) < 1e-9


def test_rejects_non_dominant(systems):
    with pytest.raises(ValueError):
        weight_multiplicities(systems["A2"], (-1, 2))
