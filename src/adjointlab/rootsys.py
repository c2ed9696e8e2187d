"""Root systems, Weyl groups, and weight enumeration for the adjoint group.

Conventions fixed here and relied on everywhere else:

* Only the five adjoint types of rank <= 2 exist: A1, A2, B2, C2, G2. One
  literal table holds each type's simple-root Gram matrix, with long roots
  of squared length 2 so there is no normalization ambiguity downstream,
  and its Weyl group order.
* "Root coordinates" of a vector are its coefficients over the simple roots;
  "fundamental coordinates" are coefficients over the fundamental weights.
  With the Cartan matrix A (rows indexed by roots, A[i][j] =
  2<a_i,a_j>/<a_j,a_j>) the two are related by f = A^T c.
* Lattice questions (root-lattice membership, Cartan solves, the Weyl group)
  are answered in integer arithmetic on A and its adjugate adj(A) =
  det(A) A^-1; floats appear only in the Euclidean realization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# label -> (simple-root Gram matrix, order of the Weyl group). Long roots have
# squared length 2; B2 puts its short root last, C2 its long root last, and
# the G2 short root a_1 (squared length 2/3) meets a_2 at 150 degrees.
_TYPES = {
    "A1": (((2,),), 2),
    "A2": (((2, -1), (-1, 2)), 6),
    "B2": (((2, -1), (-1, 1)), 8),
    "C2": (((1, -1), (-1, 2)), 8),
    "G2": (((Fraction(2, 3), -1), (-1, 2)), 12),
}
TYPE_LABELS = tuple(_TYPES)


class ClosureBoundError(RuntimeError):
    """Reflection closure exceeded its safety bound (malformed input data)."""


class RootSystem:
    """Combinatorial and Euclidean data of one simple root system.

    Immutable after construction; safe to share between threads.
    """

    def __init__(self, type_label: str):
        if type_label not in _TYPES:
            raise ValueError(
                f"unsupported type label {type_label!r} (one of {', '.join(_TYPES)})"
            )
        self.type_label = type_label
        gram, self.weyl_order = _TYPES[type_label]
        self.gram_exact = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self.rank = rank = len(gram)
        self.simple_root_norm2 = tuple(self.gram_exact[i][i] for i in range(rank))
        cartan = [
            [2 * self.gram_exact[i][j] / self.simple_root_norm2[j] for j in range(rank)]
            for i in range(rank)
        ]
        if any(x.denominator != 1 for row in cartan for x in row):
            raise ValueError("Gram matrix is not crystallographic")
        self.cartan_rows = tuple(tuple(int(x) for x in row) for row in cartan)
        self.cartan = np.array(self.cartan_rows, dtype=np.int64)
        # A^-1 = adj(A) / det(A) with an integer adjugate (exact at rank <= 2)
        self.cartan_det = int(round(np.linalg.det(self.cartan)))
        self.cartan_adj = np.rint(self.cartan_det * np.linalg.inv(self.cartan)).astype(np.int64)

        self.weyl_group = generate_weyl_group(self)
        # the group's weight matrices (|W|, r, r) and signs, stacked once in
        # weyl_group order
        self.weyl_weight_matrices = np.stack([w.weight_matrix for w in self.weyl_group])
        self.weyl_signs = np.array([w.sign for w in self.weyl_group], dtype=np.int64)
        # every root is W-conjugate to a simple root, and the simple root a_i
        # goes to column i of w's root matrix
        roots = {tuple(c) for w in self.weyl_group for c in w.root_matrix.T.tolist()}
        positive = sorted((c for c in roots if min(c) >= 0), key=lambda c: (sum(c), c))
        self.positive_root_coords = np.array(positive, dtype=np.int64)
        self.n_positive = len(positive)
        self.algebra_dimension = rank + 2 * self.n_positive
        self.highest_root_coords = positive[-1]
        # 2 rho, the sum of the positive roots, is (2, .., 2) in fundamental coords
        if np.any(self.positive_root_coords.sum(axis=0) @ self.cartan != 2):
            raise AssertionError(
                f"{self.type_label}: half-sum of positive roots != sum of "
                f"fundamental weights"
            )

        # Euclidean realization: rows of the Cholesky factor of the Gram
        # matrix are the simple-root vectors (so <a_i, a_j> reproduces G).
        gram_float = np.array(self.gram_exact, dtype=float)
        self.simple_roots = np.linalg.cholesky(gram_float)
        self.fundamental_weights = (self.cartan_adj / self.cartan_det) @ self.simple_roots

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
        theta = self.highest_root_coords
        h = Fraction(1) + sum(
            theta[k] * self.simple_root_norm2[k] / 2 for k in range(self.rank)
        )
        if h.denominator != 1:
            raise AssertionError(f"{self.type_label}: dual Coxeter number {h} not integral")
        return int(h)

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label!r})"


def build_root_system(type_label: str) -> RootSystem:
    return RootSystem(type_label)


@dataclass
class WeylElement:
    """One Weyl group element.

    root_matrix acts on root coordinates, weight_matrix on fundamental
    coordinates (both integer, on column vectors); sign = det = (-1)^len(word).
    """

    word: tuple[int, ...]
    root_matrix: np.ndarray
    weight_matrix: np.ndarray
    sign: int


def generate_weyl_group(rs: RootSystem) -> list[WeylElement]:
    """Breadth-first closure of the simple reflections; shortest words win.

    s_j sends root coordinates c to c - (c.A[:, j]) e_j and fundamental
    coordinates f to f - f_j A[j, :]. Elements come back sorted by word
    (identity first). Raises ClosureBoundError if the closure exceeds
    rs.weyl_order, the known order of the group, which is exact, so
    overflow means corrupted data.
    """
    gens = []
    for j in range(rs.rank):
        r = np.eye(rs.rank, dtype=np.int64)
        r[j, :] -= rs.cartan[:, j]
        f = np.eye(rs.rank, dtype=np.int64)
        f[:, j] -= rs.cartan[j, :]
        gens.append((r, f))

    ident = np.eye(rs.rank, dtype=np.int64)
    seen = {ident.tobytes(): WeylElement((), ident, ident, 1)}
    queue = list(seen.values())
    while queue:
        next_queue = []
        for w in queue:
            for j, (r, f) in enumerate(gens):
                root_matrix = r @ w.root_matrix
                key = root_matrix.tobytes()
                if key not in seen:
                    seen[key] = image = WeylElement(
                        w.word + (j,), root_matrix, f @ w.weight_matrix, -w.sign
                    )
                    next_queue.append(image)
                    if len(seen) > rs.weyl_order:
                        raise ClosureBoundError(
                            f"Weyl closure for {rs.type_label} exceeded {rs.weyl_order}"
                        )
        queue = next_queue
    return sorted(seen.values(), key=lambda w: (len(w.word), w.word))


def is_in_root_lattice(rs: RootSystem, weight) -> bool:
    """True iff the weight (fundamental coordinates) is an integer
    combination of simple roots, i.e. labels an adjoint-group character."""
    return not np.any(np.asarray(weight, dtype=np.int64) @ rs.cartan_adj % rs.cartan_det)


def enumerate_adjoint_dominant_weights(rs: RootSystem, bound: int) -> list[tuple[int, ...]]:
    """Nontrivial dominant root-lattice weights of level (sum of fundamental
    coordinates) at most `bound`, sorted lexicographically; excludes 0."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    out = []
    for f in itertools.product(range(bound + 1), repeat=rs.rank):
        if 0 < sum(f) <= bound and is_in_root_lattice(rs, f):
            out.append(f)
    out.sort()
    return out
