"""Dense two-phase simplex for the hull-certificate linear programs.

Problems here are tiny (tens of variables), so a plain tableau with Bland's
anti-cycling rule is both adequate and fully deterministic — the same input
bytes always produce the same vertex, which the reproducibility contract
needs. Not a general-purpose LP library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# tableau entries within this of zero count as zero
TOL = 1e-11


@dataclass
class LPResult:
    status: str
    x: np.ndarray | None
    objective: float | None


def solve_lp(c, a_eq, b_eq) -> LPResult:
    """min c.x subject to a_eq x = b_eq, x >= 0."""
    c = np.asarray(c, dtype=float)
    a = np.asarray(a_eq, dtype=float).copy()
    b = np.asarray(b_eq, dtype=float).copy()
    m, n = a.shape
    neg = b < 0
    a[neg] *= -1
    b[neg] *= -1

    # phase 1: minimize the sum of artificial variables
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = -a.sum(axis=0)
    t[m, -1] = -b.sum()
    basis = list(range(n, n + m))
    status = _iterate(t, basis, n + m)
    if status != OPTIMAL or -t[m, -1] > 1e-7:
        return LPResult(INFEASIBLE, None, None)

    # drive leftover artificials out of the basis; drop redundant rows
    keep = []
    for r in range(m):
        if basis[r] < n:
            keep.append(r)
            continue
        pivot_col = next((j for j in range(n) if abs(t[r, j]) > TOL), None)
        if pivot_col is None:
            continue  # redundant constraint
        _pivot(t, basis, r, pivot_col)
        keep.append(r)
    rows = keep + [m]
    t2 = t[np.ix_(rows, list(range(n)) + [n + m])]
    basis2 = [basis[r] for r in keep]
    m2 = len(basis2)

    # phase 2: rebuild the objective row for the real costs
    t2[m2, :n] = c
    t2[m2, -1] = 0.0
    for r, bi in enumerate(basis2):
        if c[bi]:
            t2[m2, :] -= c[bi] * t2[r, :]
    status = _iterate(t2, basis2, n)
    if status != OPTIMAL:
        return LPResult(status, None, None)
    x = np.zeros(n)
    for r, bi in enumerate(basis2):
        x[bi] = t2[r, -1]
    return LPResult(OPTIMAL, x, float(c @ x))


def _iterate(t, basis, n_cols) -> str:
    m = len(basis)
    while True:
        entering = next((j for j in range(n_cols) if t[m, j] < -TOL), None)
        if entering is None:
            return OPTIMAL
        col = t[:m, entering]
        rows = np.where(col > TOL)[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = t[rows, -1] / col[rows]
        best = np.min(ratios)
        # Bland tie-break: among minimal ratios, leave the smallest basis index
        tied = rows[ratios <= best + TOL * max(1.0, abs(best))]
        leaving = min(tied, key=lambda r: basis[r])
        _pivot(t, basis, leaving, entering)


def _pivot(t, basis, row, col) -> None:
    t[row, :] /= t[row, col]
    for r in range(t.shape[0]):
        if r != row and t[r, col]:
            t[r, :] -= t[r, col] * t[row, :]
    basis[row] = col
