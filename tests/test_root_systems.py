"""Root-system combinatorics against hand-checked tables.

Every frozen constant below was either written down from the Cartan matrix
by hand or recomputed with exact rational arithmetic independent of the
code under test.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from adjointlab.orbits import simplest_in_interval
from adjointlab.rootsys import (
    ClosureBoundError,
    build_root_system,
    enumerate_adjoint_dominant_weights,
    generate_weyl_group,
    is_in_root_lattice,
)

# (type, #positive roots, dim, Weyl order, dual Coxeter, highest root coords)
TABLE = [
    ("A1", 1, 3, 2, 2, (1,)),
    ("A2", 3, 8, 6, 3, (1, 1)),
    ("B2", 4, 10, 8, 3, (1, 2)),
    ("C2", 4, 10, 8, 3, (2, 1)),
    ("G2", 6, 14, 12, 4, (3, 2)),
]

CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "C2": [[2, -1], [-2, 2]],
    "G2": [[2, -1], [-3, 2]],
}


@pytest.mark.parametrize("label,n_pos,dim,worder,hdual,theta", TABLE)
def test_counts_and_highest_root(systems, label, n_pos, dim, worder, hdual, theta):
    rs = systems[label]
    assert rs.n_positive == n_pos
    assert rs.algebra_dimension == dim
    assert rs.weyl_order == worder
    assert rs.dual_coxeter_number() == hdual
    assert tuple(rs.highest_root_coords) == theta


@pytest.mark.parametrize("label", CARTAN)
def test_cartan_matrices(systems, label):
    assert [list(r) for r in systems[label].cartan_rows] == CARTAN[label]


def test_long_root_normalization(systems):
    def norm2(rs, c):
        # c.G.c in exact arithmetic, G the Gram matrix of the simple roots
        return sum(Fraction(int(c[i])) * rs.gram_exact[i][j] * int(c[j])
                   for i in range(rs.rank) for j in range(rs.rank))

    # highest root is always long, and long means squared length 2
    for rs in systems.values():
        assert norm2(rs, rs.highest_root_coords) == 2
    # the short roots: A2 has none, B2/C2 have norm2 1, G2 norm2 2/3
    assert norm2(systems["B2"], (0, 1)) == 1
    assert norm2(systems["C2"], (1, 0)) == 1
    assert norm2(systems["G2"], (1, 0)) == Fraction(2, 3)


def test_euclidean_realization_matches_gram(systems):
    for rs in systems.values():
        gram = rs.simple_roots @ rs.simple_roots.T
        expected = np.array(rs.gram_exact, dtype=float)
        assert np.allclose(gram, expected, atol=1e-12)
        # fundamental weights are dual to the coroots
        coroots = 2 * rs.simple_roots / np.diag(expected)[:, None]
        pairing = rs.fundamental_weights @ coroots.T
        assert np.allclose(pairing, np.eye(rs.rank), atol=1e-12)


def test_root_closure_under_reflection(systems):
    # s_beta(alpha) = alpha - <alpha, beta_coroot> beta stays a root
    for rs in systems.values():
        roots = {tuple(c) for c in rs.positive_root_coords}
        roots |= {tuple(-x for x in c) for c in roots}
        for a in roots:
            for b in roots:
                bv = np.array(b, dtype=float) @ rs.simple_roots
                av = np.array(a, dtype=float) @ rs.simple_roots
                pair = 2 * (av @ bv) / (bv @ bv)
                refl = tuple(int(round(x)) for x in np.array(a) - round(pair) * np.array(b))
                assert refl in roots


@pytest.mark.parametrize("label,coords,expected", [
    ("A1", (1,), (2,)),
    ("A2", (1, 1), (1, 1)),
    ("B2", (1, 2), (0, 2)),
    ("C2", (2, 1), (2, 0)),
    ("G2", (3, 2), (0, 1)),
])
def test_highest_root_fundamental_coords(systems, label, coords, expected):
    assert systems[label].fundamental_of_root_coords(coords) == expected


def test_root_coords_of_weight_roundtrip(systems):
    for rs in systems.values():
        f = rs.fundamental_of_root_coords(rs.highest_root_coords)
        back = rs.root_coords(f)
        assert back.dtype == np.int64
        assert back.tolist() == list(rs.highest_root_coords)
    # the B2 spinor weight is off the root lattice
    with pytest.raises(ValueError):
        systems["B2"].root_coords((0, 1))


def test_root_coords_match_float_solve(systems):
    # integer adjugate arithmetic against rounding the float solve f A^-1
    for rs in systems.values():
        inv = np.linalg.inv(rs.cartan.astype(float))
        for f in itertools.product(range(-6, 7), repeat=rs.rank):
            c = np.array(f) @ inv
            on_lattice = bool(np.all(np.abs(c - np.round(c)) < 1e-9))
            assert is_in_root_lattice(rs, f) == on_lattice, (rs, f)
            if on_lattice:
                assert rs.root_coords(f).tolist() == np.round(c).astype(int).tolist()
                assert (rs.root_coords(f) @ rs.cartan).tolist() == list(f)
            else:
                with pytest.raises(ValueError):
                    rs.root_coords(f)


def test_root_lattice_membership(systems):
    a2 = systems["A2"]
    assert is_in_root_lattice(a2, (1, 1))
    assert is_in_root_lattice(a2, (3, 0))
    assert not is_in_root_lattice(a2, (1, 0))
    assert is_in_root_lattice(a2, (2, 2))
    b2 = systems["B2"]
    assert is_in_root_lattice(b2, (0, 2))
    assert not is_in_root_lattice(b2, (0, 1))


def test_enumeration_frozen_examples(systems):
    # level = sum of fundamental coordinates; bound caps the level
    a1 = enumerate_adjoint_dominant_weights(systems["A1"], 4)
    assert a1 == [(2,), (4,)]
    a2 = enumerate_adjoint_dominant_weights(systems["A2"], 2)
    assert a2 == [(1, 1)]
    g2 = enumerate_adjoint_dominant_weights(systems["G2"], 2)
    assert (0, 1) in g2 and (1, 0) in g2  # both fundamentals are in the lattice


def test_enumeration_is_sorted_and_dominant(systems):
    for rs in systems.values():
        ws = enumerate_adjoint_dominant_weights(rs, 6)
        assert ws == sorted(ws)
        assert all(x >= 0 for f in ws for x in f)
        assert all(is_in_root_lattice(rs, f) for f in ws)


def test_weyl_group_generation(systems):
    for rs in systems.values():
        elements = generate_weyl_group(rs)
        assert len(elements) == rs.weyl_order
        # each element permutes the roots: the weight matrix maps root
        # coordinates of roots to root coordinates of roots
        roots = {tuple(c) for c in rs.positive_root_coords}
        roots |= {tuple(-x for x in c) for c in roots}
        w = elements[-1]
        for c in roots:
            image = tuple(int(x) for x in w.root_matrix @ np.array(c))
            assert image in roots


def test_weyl_actions_agree(systems):
    # root and weight matrices are one element acting on two coordinate
    # systems: f = A^T c, so W_f A^T = A^T W_c
    for rs in systems.values():
        assert len(rs.weyl_group) == rs.weyl_order
        for w in rs.weyl_group:
            assert np.array_equal(w.weight_matrix @ rs.cartan.T, rs.cartan.T @ w.root_matrix)
            det = round(np.linalg.det(w.root_matrix))
            assert det == w.sign == (-1) ** len(w.word)
        distinct = {w.weight_matrix.tobytes() for w in rs.weyl_group}
        assert len(distinct) == rs.weyl_order


def test_weyl_group_cap():
    # a closure past the known order means corrupted data; a fresh system,
    # so the shared fixtures keep their true order
    rs = build_root_system("G2")
    rs.weyl_order = 3
    with pytest.raises(ClosureBoundError):
        generate_weyl_group(rs)


def test_bad_labels():
    for label in ("D2", "A0", "X1", "a1", "", "A", "G3",
                  "A3", "B3", "C3", "D4", "A10", "G2 "):
        with pytest.raises(ValueError):
            build_root_system(label)


def test_exact_helpers():
    assert simplest_in_interval(Fraction(1, 3), Fraction(1, 2)) == Fraction(1, 2)
    assert simplest_in_interval(Fraction(2, 7), Fraction(3, 7)) == Fraction(1, 3)
