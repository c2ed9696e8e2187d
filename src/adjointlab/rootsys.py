"""Root systems, Weyl groups, and weight enumeration for the adjoint group.

Conventions fixed here and relied on everywhere else:

* Only the five adjoint types of rank <= 2 exist: A1, A2, B2, C2, G2. One
  literal integer table holds each type's Cartan matrix, 3|a_i|^2 for each
  simple root a_i (long roots have squared length 2, so there is no
  normalization ambiguity downstream), and its Weyl group order.
* "Root coordinates" of a vector are its coefficients over the simple roots;
  "fundamental coordinates" are coefficients over the fundamental weights.
  With the Cartan matrix A (rows indexed by roots, A[i][j] =
  2<a_i,a_j>/<a_j,a_j>) the two are related by f = A^T c.
* Lattice questions (root-lattice membership, Cartan solves, the Weyl
  group) are answered in integer arithmetic on A and its adjugate adj(A) =
  det(A) A^-1. The only floats are determinants and an inverse, rounded to
  integers, which is exact at rank <= 2. The Weyl group is kept only as
  stacks of integer matrices.
"""

from __future__ import annotations

import numpy as np

# label -> (Cartan matrix, 3|a_i|^2 per simple root, order of the Weyl
# group). Long roots have squared length 2; B2 puts its short root last, C2
# its long root last, and the G2 short root a_1 (squared length 2/3) meets a_2
# at 150 degrees.
_TYPES = {
    "A1": (((2,),), (6,), 2),
    "A2": (((2, -1), (-1, 2)), (6, 6), 6),
    "B2": (((2, -2), (-1, 2)), (6, 3), 8),
    "C2": (((2, -1), (-2, 2)), (3, 6), 8),
    "G2": (((2, -1), (-3, 2)), (2, 6), 12),
}
TYPE_LABELS = tuple(_TYPES)


class RootSystem:
    """Combinatorial data of one simple root system.

    Immutable after construction; safe to share between threads.
    """

    def __init__(self, type_label: str):
        if type_label not in _TYPES:
            raise ValueError(
                f"unsupported type label {type_label!r} (one of {', '.join(_TYPES)})"
            )
        self.type_label = type_label
        cartan, norm2_x3, self.weyl_order = _TYPES[type_label]
        self.cartan = np.array(cartan, dtype=np.int64)
        # 3|a_i|^2: A diag(3|a|^2) = 6 G, with G the Gram matrix of the simple roots
        self.norm2_x3 = np.array(norm2_x3, dtype=np.int64)
        self.rank = rank = len(cartan)
        symmetrized = self.cartan * self.norm2_x3
        if not np.array_equal(symmetrized, symmetrized.T):
            raise ValueError(f"{type_label}: Cartan matrix and root lengths disagree")
        # A^-1 = adj(A) / det(A) with an integer adjugate (exact at rank <= 2)
        self.cartan_det = int(round(np.linalg.det(self.cartan)))
        self.cartan_adj = np.rint(self.cartan_det * np.linalg.inv(self.cartan)).astype(np.int64)

        # the Weyl group as stacks (|W|, r, r): root matrices act on root
        # coordinates, weight matrices on fundamental ones, W_f = A^T W_c A^-T
        self.weyl_root_matrices = roots = generate_weyl_group(self)
        scaled = self.cartan.T @ roots @ self.cartan_adj.T
        if np.any(scaled % self.cartan_det):
            raise AssertionError(f"{type_label}: Weyl weight matrices are not integral")
        self.weyl_weight_matrices = scaled // self.cartan_det
        # orbit depths c(f - w f) = D_w f with D_w = (1 - W_c) A^-T, integral
        # because f - w f lies in the root lattice for every weight f
        scaled = (np.eye(rank, dtype=np.int64) - roots) @ self.cartan_adj.T
        if np.any(scaled % self.cartan_det):
            raise AssertionError(f"{type_label}: Weyl depth matrices are not integral")
        self.weyl_depth_matrices = scaled // self.cartan_det
        self.weyl_signs = np.rint(np.linalg.det(roots)).astype(np.int64)
        # -1 in W makes every weight W-conjugate to its negative, so every
        # character is real and every class of the group is self-inverse
        self.minus_one_in_weyl = bool((roots == -np.eye(rank, dtype=np.int64))
                                      .all(axis=(1, 2)).any())
        # every root is W-conjugate to a simple root, and the simple root a_i
        # goes to column i of w's root matrix
        columns = {tuple(c) for c in roots.transpose(0, 2, 1).reshape(-1, rank).tolist()}
        positive = sorted((c for c in columns if min(c) >= 0), key=lambda c: (sum(c), c))
        self.positive_root_coords = np.array(positive, dtype=np.int64)
        self.n_positive = len(positive)
        self.algebra_dimension = rank + 2 * self.n_positive
        self.highest_root_coords = positive[-1]
        # 2 rho, the sum of the positive roots, is (2, .., 2) in fundamental coords
        self.two_rho_coords = self.positive_root_coords.sum(axis=0)
        if np.any(self.two_rho_coords @ self.cartan != 2):
            raise AssertionError(
                f"{self.type_label}: half-sum of positive roots != sum of "
                f"fundamental weights"
            )

    # -- coordinate changes ------------------------------------------------

    def fundamental_of_root_coords(self, c) -> tuple[int, ...]:
        return tuple(int(x) for x in (self.cartan.T @ np.asarray(c, dtype=np.int64)))

    def root_coords(self, weights) -> np.ndarray:
        """Integer root coordinates c = f A^-1 of weights f (fundamental
        coordinates, one per row or a single vector); raises ValueError for
        a weight off the root lattice."""
        scaled = np.asarray(weights, dtype=np.int64) @ self.cartan_adj
        if np.any(scaled % self.cartan_det):
            raise ValueError(f"{self.type_label}: weight not in the root lattice")
        return scaled // self.cartan_det

    def dual_coxeter_number(self) -> int:
        # 1 + sum_k theta_k |a_k|^2 / 2, with |a_k|^2 = norm2_x3[k] / 3
        h, rem = divmod(int(np.dot(self.highest_root_coords, self.norm2_x3)), 6)
        if rem:
            raise AssertionError(f"{self.type_label}: dual Coxeter number not integral")
        return 1 + h

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label!r})"


def build_root_system(type_label: str) -> RootSystem:
    return RootSystem(type_label)


def generate_weyl_group(rs: RootSystem) -> np.ndarray:
    """Root matrices (|W|, r, r) of W, identity first: the rotations c^k,
    then the reflections c^k s_1, k < h = |W|/2, with c = s_1 s_r (each W of
    rank <= 2 is dihedral of order 2h; at rank 1, c = s_1^2 = 1).

    s_j sends root coordinates c to c - (c.A[:, j]) e_j. Raises ValueError
    unless c^h = 1, the 2h elements are distinct and 2h = rs.weyl_order.
    """
    r = rs.rank
    s = np.stack([np.eye(r, dtype=np.int64)] * r)
    s[np.arange(r), np.arange(r), :] -= rs.cartan.T
    h = rs.weyl_order // 2
    powers = [np.eye(r, dtype=np.int64)]
    for _ in range(h):
        powers.append(powers[-1] @ s[0] @ s[-1])
    group = np.concatenate([powers[:h], powers[:h] @ s[0]])
    if (2 * h != rs.weyl_order or np.any(powers[h] != powers[0])
            or np.count_nonzero((group[:, None] == group).all(axis=(2, 3))) > 2 * h):
        raise ValueError(
            f"{rs.type_label}: c = s_1 s_r gives no Weyl group of order {rs.weyl_order}")
    return group


def is_in_root_lattice(rs: RootSystem, weights) -> np.ndarray:
    """True where a weight (fundamental coordinates, one per row or a single
    vector) is an integer combination of simple roots, i.e. labels an
    adjoint-group character."""
    scaled = np.asarray(weights, dtype=np.int64) @ rs.cartan_adj
    return ~np.any(scaled % rs.cartan_det, axis=-1)


def enumerate_adjoint_dominant_weights(rs: RootSystem, bound: int) -> list[tuple[int, ...]]:
    """Nontrivial dominant root-lattice weights of level (sum of fundamental
    coordinates) at most `bound`, sorted lexicographically; excludes 0."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    # the (bound+1)^rank box in row-major, hence lexicographic, order
    box = np.indices((bound + 1,) * rs.rank).reshape(rs.rank, -1).T
    level = box.sum(axis=1)
    keep = (level > 0) & (level <= bound) & is_in_root_lattice(rs, box)
    return list(map(tuple, box[keep].tolist()))
