"""Root-system combinatorics against hand-checked tables.

Every frozen constant below was either written down from the Cartan matrix
by hand or recomputed with exact rational arithmetic independent of the
code under test.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from adjointlab import rootsys
from adjointlab.orbits import simplest_in_interval
from adjointlab.rootsys import (
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
    assert systems[label].cartan.tolist() == CARTAN[label]


def six_gram(rs):
    # 6G = A diag(3|a|^2), G the Gram matrix of the simple roots, in integers
    return rs.cartan * rs.norm2_x3


def test_long_root_normalization(systems):
    def norm2(rs, c):
        # c.G.c in exact arithmetic
        c = np.array(c)
        return Fraction(int(c @ six_gram(rs) @ c), 6)

    # highest root is always long, and long means squared length 2
    for rs in systems.values():
        assert norm2(rs, rs.highest_root_coords) == 2
    # the short roots: A2 has none, B2/C2 have norm2 1, G2 norm2 2/3
    assert norm2(systems["B2"], (0, 1)) == 1
    assert norm2(systems["C2"], (1, 0)) == 1
    assert norm2(systems["G2"], (1, 0)) == Fraction(2, 3)


def test_inconsistent_root_lengths_rejected(monkeypatch):
    # A diag(3|a|^2) must be symmetric: G2 with equal root lengths is not
    cartan, _, order = rootsys._TYPES["G2"]
    monkeypatch.setitem(rootsys._TYPES, "G2", (cartan, (6, 6), order))
    with pytest.raises(ValueError, match="root lengths disagree"):
        build_root_system("G2")


def test_root_closure_under_reflection(systems):
    # s_beta(alpha) = alpha - <alpha, beta_coroot> beta stays a root, and the
    # pairing <alpha, beta_coroot> = 2<alpha, beta>/<beta, beta> is an integer
    for rs in systems.values():
        gram = six_gram(rs)
        roots = {tuple(c) for c in rs.positive_root_coords}
        roots |= {tuple(-x for x in c) for c in roots}
        for a in roots:
            for b in roots:
                pair, rem = divmod(2 * int(np.array(a) @ gram @ b), int(np.array(b) @ gram @ b))
                assert rem == 0
                refl = tuple((np.array(a) - pair * np.array(b)).tolist())
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
        assert elements.shape == (rs.weyl_order, rs.rank, rs.rank)
        assert np.array_equal(elements[0], np.eye(rs.rank))
        assert np.array_equal(elements, rs.weyl_root_matrices)
        keys = {w.tobytes() for w in elements}
        assert len(keys) == rs.weyl_order
        # closed under products, so a group
        assert all((v @ w).tobytes() in keys for v in elements for w in elements)
        # each element permutes the roots, in root coordinates
        roots = {tuple(c) for c in rs.positive_root_coords}
        roots |= {tuple(-x for x in c) for c in roots}
        for w in elements:
            assert {tuple((w @ np.array(c)).tolist()) for c in roots} == roots


def test_weyl_actions_agree(systems):
    # root and weight matrices are one element acting on two coordinate
    # systems: f = A^T c, so W_f A^T = A^T W_c
    for rs in systems.values():
        roots, weights = rs.weyl_root_matrices, rs.weyl_weight_matrices
        assert roots.shape == weights.shape == (rs.weyl_order, rs.rank, rs.rank)
        assert weights.dtype == rs.weyl_signs.dtype == np.int64
        for root_matrix, weight_matrix, sign in zip(roots, weights, rs.weyl_signs):
            assert np.array_equal(weight_matrix @ rs.cartan.T, rs.cartan.T @ root_matrix)
            assert round(np.linalg.det(root_matrix)) == sign
        assert rs.weyl_signs.sum() == 0  # as many odd elements as even
        distinct = {w.tobytes() for w in weights}
        assert len(distinct) == rs.weyl_order


def test_weyl_depth_matrices(systems):
    # D_w f is the root depth c(f - w f) of every weight f, in integers
    for rs in systems.values():
        depths = rs.weyl_depth_matrices
        assert depths.shape == (rs.weyl_order, rs.rank, rs.rank)
        assert depths.dtype == np.int64
        for f in itertools.product(range(-3, 4), repeat=rs.rank):
            images = rs.weyl_weight_matrices @ np.array(f)
            assert np.array_equal(depths @ np.array(f), rs.root_coords(np.array(f) - images))


def test_weyl_depth_exactness_check_fires(monkeypatch):
    # twice the identity has an integral weight matrix, but its depth matrix
    # -A^-T is not integral: f - 2f = -f is off the root lattice with f
    group = generate_weyl_group(build_root_system("A2"))
    corrupt = np.concatenate([group[:-1], 2 * group[:1]])
    monkeypatch.setattr(rootsys, "generate_weyl_group", lambda rs: corrupt)
    with pytest.raises(AssertionError, match="depth matrices are not integral"):
        build_root_system("A2")


@pytest.mark.parametrize("label,expected", [
    ("A1", True), ("A2", False), ("B2", True), ("C2", True), ("G2", True),
])
def test_minus_one_in_weyl_group(systems, label, expected):
    # -1 is in W except for A2, where it is the diagram automorphism times
    # w0; class-power predicts I in C.C at n = 2 exactly when it is
    rs = systems[label]
    minus_one = -np.eye(rs.rank, dtype=np.int64)
    assert (rs.weyl_root_matrices == minus_one).all(axis=(1, 2)).any() == expected


def test_weyl_group_cap():
    # a group order in the type table that is not G2's 12 means corrupted
    # data, too small (c^3 != 1) or too large (c^12 = 1 repeats elements); a
    # fresh system, so the shared fixtures keep their true order
    for order in (6, 24):
        rs = build_root_system("G2")
        rs.weyl_order = order
        with pytest.raises(ValueError, match=f"order {order}"):
            generate_weyl_group(rs)


def test_bad_labels():
    for label in ("D2", "A0", "X1", "a1", "", "A", "G3",
                  "A3", "B3", "C3", "D4", "A10", "G2 "):
        with pytest.raises(ValueError):
            build_root_system(label)


def test_exact_helpers():
    assert simplest_in_interval(Fraction(1, 3), Fraction(1, 2)) == Fraction(1, 2)
    assert simplest_in_interval(Fraction(2, 7), Fraction(3, 7)) == Fraction(1, 3)
