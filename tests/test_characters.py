"""Weight multiplicities and torus characters.

Dimension oracles are the standard tables (so(3)/su(3)/so(5)/sp(4)/g2 low
irreps); the analytic oracles are Weyl orthonormality, the zero-sum of
weights, and the closed-form A1 character sin((m+1)u)/sin(u).
"""

import json
import os

import numpy as np
import pytest

from adjointlab.characters import (
    character_grid,
    character_value,
    dominant_representative,
    grid_torus_fractions,
    haar_character_integral,
    normalized_character,
    root_coordinate_frequencies,
    theta_of_torus_fraction,
    weight_multiplicities,
    weyl_density_grid,
    weyl_dimension,
)
from adjointlab.rootsys import generate_weyl_group

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
    # Freudenthal recursion and the Weyl product formula are independent
    # routes to the dimension; weight_multiplicities asserts agreement, and
    # we re-check here against the frozen table values.
    table = weight_multiplicities(systems[label], lam)
    assert table.dim == dim
    assert int(table.mult_arr.sum()) == dim


def test_a1_spin_two_weights(systems):
    table = weight_multiplicities(systems["A1"], (4,))
    assert table.mults == {(-4,): 1, (-2,): 1, (0,): 1, (2,): 1, (4,): 1}


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
        vecs = np.array(list(table.mults), dtype=float) @ rs.fundamental_weights
        mults = np.array([table.mults[f] for f in table.mults])
        assert np.linalg.norm(mults @ vecs) < 1e-12


def test_weyl_invariance_of_multiplicities(systems):
    rs = systems["G2"]
    table = weight_multiplicities(rs, (1, 1))
    for w in generate_weyl_group(rs)[::3]:
        for f, m in table.mults.items():
            image = tuple(int(x) for x in w.weight_matrix @ np.array(f))
            assert table.mults.get(image) == m


def test_dominant_representative(systems):
    rs = systems["A2"]
    assert dominant_representative(rs, (-1, 2)) == (1, 1)
    assert dominant_representative(rs, (1, 1)) == (1, 1)
    table = weight_multiplicities(rs, (2, 2))
    for f, m in table.mults.items():
        dom = dominant_representative(rs, f)
        assert all(x >= 0 for x in dom)
        assert table.mults[dom] == m


def test_character_at_zero_is_dimension(systems):
    for label, lam in [("A1", (4,)), ("A2", (1, 1)), ("G2", (0, 1))]:
        rs = systems[label]
        table = weight_multiplicities(rs, lam)
        assert character_value(table, np.zeros(rs.rank)) == pytest.approx(table.dim)


def test_a1_character_closed_form(systems):
    # weights of lam=(6) are -6,-4,...,6, so chi(theta=(u,)) is the Dirichlet
    # ratio sin(7u)/sin(u)
    rs = systems["A1"]
    table = weight_multiplicities(rs, (6,))
    for u in (0.3, 1.1, 2.9):
        expected = np.sin(7 * u) / np.sin(u)
        got = character_value(table, (u,))
        assert got == pytest.approx(expected, abs=1e-12)


def test_normalized_character_in_unit_disk(systems, rng):
    rs = systems["B2"]
    table = weight_multiplicities(rs, (0, 2))
    for _ in range(50):
        theta = rng.uniform(-8, 8, size=2)
        sample = normalized_character(table, theta)
        assert abs(sample.z) <= 1 + 1e-12
        assert sample.lam == (0, 2)


def test_torus_periodicity(systems, rng):
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


def test_character_grid_matches_pointwise(systems):
    rs = systems["A2"]
    table = weight_multiplicities(rs, (1, 1))
    n = 12
    grid = character_grid(table, n)
    nodes = [(0, 0), (3, 7), (11, 2), (5, 5)]
    for i1, i2 in nodes:
        theta = theta_of_torus_fraction(rs, (i1 / n, i2 / n))
        assert grid[i1, i2] == pytest.approx(character_value(table, theta), abs=1e-10)
    # flat C-order indices map back to the same torus fractions
    flat = np.array([i1 * n + i2 for i1, i2 in nodes])
    assert np.array_equal(grid_torus_fractions(rs, flat, n), np.array(nodes) / n)
    assert np.array_equal(grid_torus_fractions(rs, 3 * n + 7, n), (3 / n, 7 / n))


def test_character_grid_rank1(systems):
    rs = systems["A1"]
    table = weight_multiplicities(rs, (2,))
    n = 16
    grid = character_grid(table, n)
    for i in (0, 4, 9):
        theta = theta_of_torus_fraction(rs, (i / n,))
        assert grid[i] == pytest.approx(character_value(table, theta), abs=1e-12)
    # adjoint character of SO(3): 1 + 2 cos(2 pi y)
    y = np.arange(n) / n
    assert np.allclose(grid, 1 + 2 * np.cos(2 * np.pi * y), atol=1e-12)


def test_root_lattice_restriction(systems):
    table = weight_multiplicities(systems["B2"], (0, 1))  # spinor: not adjoint
    with pytest.raises(ValueError):
        root_coordinate_frequencies(table)


def test_weyl_density_mean_is_group_order(systems):
    # mean over a full-bandwidth grid of |Delta|^2 equals |W| exactly
    for label, n in [("A1", 8), ("A2", 16), ("B2", 24), ("C2", 24), ("G2", 48)]:
        rs = systems[label]
        dens = weyl_density_grid(rs, n)
        assert dens.min() >= -1e-12
        assert dens.mean() == pytest.approx(rs.weyl_order, abs=1e-9)


def test_haar_trivial_is_one(systems):
    for label in ("A1", "A2", "G2"):
        rs = systems[label]
        table = weight_multiplicities(rs, (0,) * rs.rank)
        val = haar_character_integral(table, 64 ** rs.rank)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_haar_nontrivial_vanishes(systems):
    for label, lam, n in [("A1", (2,), 64), ("A1", (8,), 64),
                          ("A2", (1, 1), 24 ** 2), ("A2", (3, 0), 32 ** 2)]:
        table = weight_multiplicities(systems[label], lam)
        assert abs(haar_character_integral(table, n)) < 1e-10


def test_haar_orthonormality(systems):
    # <chi_a, chi_b> under Weyl integration = delta_ab; the quadrature is
    # exact once the per-axis grid clears the combined bandwidth
    rs = systems["A2"]
    ta = weight_multiplicities(rs, (1, 1))
    tb = weight_multiplicities(rs, (3, 0))
    n = 24
    dens = weyl_density_grid(rs, n)
    order = rs.weyl_order
    ga, gb = character_grid(ta, n), character_grid(tb, n)
    inner = lambda u, v: complex((u * np.conj(v) * dens).mean() / order)
    assert inner(ga, ga) == pytest.approx(1.0, abs=1e-9)
    assert inner(gb, gb) == pytest.approx(1.0, abs=1e-9)
    assert abs(inner(ga, gb)) < 1e-9


def test_cache_roundtrip(systems, tmp_path):
    rs = systems["G2"]
    t1 = weight_multiplicities(rs, (1, 1), cache_dir=tmp_path)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    doc = json.loads(files[0].read_text())
    assert doc["dim"] == 64
    t2 = weight_multiplicities(rs, (1, 1), cache_dir=tmp_path)
    assert t1.mults == t2.mults
    assert np.array_equal(t1.freq_f, t2.freq_f)


def test_cache_env_variable(systems, tmp_path, monkeypatch):
    monkeypatch.setenv("ADJOINTLAB_CACHE", str(tmp_path))
    weight_multiplicities(systems["A2"], (2, 2))
    assert list(tmp_path.glob("*.json"))


def test_rejects_non_dominant(systems):
    with pytest.raises(ValueError):
        weight_multiplicities(systems["A2"], (-1, 2))
