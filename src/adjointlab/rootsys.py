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
* Lattice questions (root-lattice membership, Cartan solves) are answered in
  exact rational arithmetic; floats appear only in the Euclidean realization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact

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


def _cartan_from_gram(gram: exact.FracMatrix) -> tuple[tuple[int, ...], ...]:
    rank = len(gram)
    rows = []
    for i in range(rank):
        row = []
        for j in range(rank):
            entry = 2 * gram[i][j] / gram[j][j]
            if entry.denominator != 1:
                raise ValueError("Gram matrix is not crystallographic")
            row.append(int(entry))
        rows.append(tuple(row))
    return tuple(rows)


def _root_closure(cartan: tuple[tuple[int, ...], ...]) -> set[tuple[int, ...]]:
    """All roots in root coordinates: orbit of the simple roots under the
    simple reflections s_j(c) = c - (sum_i c_i A_ij) e_j."""
    rank = len(cartan)
    roots = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    frontier = list(roots)
    while frontier:
        fresh = []
        for c in frontier:
            for j in range(rank):
                pairing = sum(c[i] * cartan[i][j] for i in range(rank))
                image = list(c)
                image[j] -= pairing
                t = tuple(image)
                if t not in roots:
                    roots.add(t)
                    fresh.append(t)
        if len(roots) > 4096:
            raise ClosureBoundError("root closure did not terminate")
        frontier = fresh
    return roots


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
        self.gram_exact = exact.as_fractions(gram)
        self.rank = rank = len(gram)
        self.cartan_rows = _cartan_from_gram(self.gram_exact)
        self.cartan = np.array(self.cartan_rows, dtype=np.int64)
        self.cartan_exact = exact.as_fractions(self.cartan_rows)
        self.inv_cartan_exact = exact.invert(self.cartan_exact)
        self.inv_cartan_T_exact = exact.transpose(self.inv_cartan_exact)

        all_roots = _root_closure(self.cartan_rows)
        positive = [c for c in all_roots if all(x >= 0 for x in c)]
        positive.sort(key=lambda c: (sum(c), c))
        self.positive_root_coords = np.array(positive, dtype=np.int64)
        self.n_positive = len(positive)
        self.algebra_dimension = rank + 2 * self.n_positive
        self.highest_root_coords = positive[-1]

        # Euclidean realization: rows of the Cholesky factor of the Gram
        # matrix are the simple-root vectors (so <a_i, a_j> reproduces G).
        gram_float = np.array(self.gram_exact, dtype=float)
        self.simple_roots = np.linalg.cholesky(gram_float)
        inv_cartan_float = np.array(self.inv_cartan_exact, dtype=float)
        self.fundamental_weights = inv_cartan_float @ self.simple_roots

        self.simple_root_norm2 = tuple(self.gram_exact[i][i] for i in range(rank))
        # Gram matrix of the fundamental weights: <w_i, w_j> = (A^-1)_ij |a_j|^2 / 2
        self.weight_gram_exact = tuple(
            tuple(
                self.inv_cartan_exact[i][j] * self.simple_root_norm2[j] / 2
                for j in range(rank)
            )
            for i in range(rank)
        )

        self._check_weyl_vector()

    def _check_weyl_vector(self) -> None:
        half_sum = [
            Fraction(int(self.positive_root_coords[:, j].sum()), 2)
            for j in range(self.rank)
        ]
        in_fund = exact.matvec(exact.transpose(self.cartan_exact), half_sum)
        if list(in_fund) != [Fraction(1)] * self.rank:
            raise AssertionError(
                f"{self.type_label}: half-sum of positive roots != sum of "
                f"fundamental weights"
            )

    # -- coordinate changes ------------------------------------------------

    def fundamental_of_root_coords(self, c) -> tuple[int, ...]:
        return tuple(int(x) for x in (self.cartan.T @ np.asarray(c, dtype=np.int64)))

    def root_coords_of_weight(self, weight) -> exact.FracVector:
        """Exact coefficients of a weight (fundamental coords) over the simple
        roots; integral iff the weight lies in the root lattice."""
        return exact.matvec(self.inv_cartan_T_exact, weight)

    def root_norm2_exact(self, coords) -> Fraction:
        c = [Fraction(int(x)) for x in coords]
        return sum(
            c[i] * self.gram_exact[i][j] * c[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def dual_coxeter_number(self) -> int:
        theta = self.highest_root_coords
        h = Fraction(1) + sum(
            theta[k] * self.simple_root_norm2[k] / 2 for k in range(self.rank)
        )
        assert h.denominator == 1
        return int(h)

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label!r})"


def build_root_system(type_label: str) -> RootSystem:
    return RootSystem(type_label)


@dataclass
class WeylElement:
    """One Weyl group element.

    matrix acts on the Euclidean realization, root_matrix on root coordinates
    (integer), weight_matrix on fundamental coordinates (integer).
    """

    word: tuple[int, ...]
    matrix: np.ndarray
    root_matrix: np.ndarray
    weight_matrix: np.ndarray
    sign: int


def generate_weyl_group(rs: RootSystem, max_size: int | None = None) -> list[WeylElement]:
    """Breadth-first closure of the simple reflections; shortest words win.

    Elements come back in BFS order (identity first). Raises
    ClosureBoundError if the closure exceeds max_size (default: the known
    order of the group, which is exact, so overflow means corrupted data).
    """
    rank = rs.rank
    bound = max_size if max_size is not None else rs.weyl_order

    gens = []
    for j in range(rank):
        s = np.eye(rank, dtype=np.int64)
        for k in range(rank):
            s[j, k] -= rs.cartan_rows[k][j]
        gens.append(s)

    ident = np.eye(rank, dtype=np.int64)
    seen = {ident.tobytes(): ((), ident)}
    queue = [((), ident)]
    while queue:
        next_queue = []
        for word, mat in queue:
            for j, s in enumerate(gens):
                prod = s @ mat
                key = prod.tobytes()
                if key not in seen:
                    entry = (word + (j,), prod)
                    seen[key] = entry
                    next_queue.append(entry)
                    if len(seen) > bound:
                        raise ClosureBoundError(
                            f"Weyl closure for {rs.type_label} exceeded {bound}"
                        )
        queue = next_queue

    simple = rs.simple_roots  # rows are the simple-root vectors
    p = simple.T
    p_inv = np.linalg.inv(p)
    cartan_T = exact.transpose(rs.cartan_exact)
    elements = []
    for word, mat in seen.values():
        u_exact = exact.matmul(
            exact.matmul(cartan_T, exact.as_fractions(mat.tolist())),
            rs.inv_cartan_T_exact,
        )
        assert all(x.denominator == 1 for row in u_exact for x in row)
        weight_matrix = np.array([[int(x) for x in row] for row in u_exact], dtype=np.int64)
        elements.append(
            WeylElement(
                word=word,
                matrix=p @ mat @ p_inv,
                root_matrix=mat,
                weight_matrix=weight_matrix,
                sign=-1 if len(word) % 2 else 1,
            )
        )
    elements.sort(key=lambda e: (len(e.word), e.word))
    return elements


def is_in_root_lattice(rs: RootSystem, weight) -> bool:
    """True iff the weight (fundamental coordinates) is an integer
    combination of simple roots, i.e. labels an adjoint-group character."""
    return exact.is_integral(rs.root_coords_of_weight(weight))


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
