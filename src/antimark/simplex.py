"""A small dense two-phase simplex solver.

Solves  maximize c.x  subject to  A x = b, x >= 0.

Bland's smallest-index rule is used for both the entering and the leaving
variable, which rules out cycling; the problems this package feeds in are
tiny (a handful of variables), so speed is irrelevant next to robustness.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-11
MAX_PIVOTS = 20000   # per phase; Bland's rule cannot cycle, so this only guards the loop


class SimplexResult:
    def __init__(self, status: str, x: np.ndarray | None, value: float | None):
        self.status = status  # "optimal" | "infeasible" | "unbounded"
        self.x = x
        self.value = value


def _iterate(tableau: np.ndarray, basis: list[int], costs: np.ndarray) -> str:
    """Run simplex pivots in place until optimal or unbounded."""
    m = tableau.shape[0]
    n = tableau.shape[1] - 1
    for _ in range(MAX_PIVOTS):
        cb = costs[basis]
        reduced = costs[:n] - cb @ tableau[:, :n]
        entering = -1
        for j in range(n):
            if reduced[j] > PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        # ratio test, Bland tie-break on the smallest basis index
        best_row, best_ratio = -1, None
        for i in range(m):
            a = tableau[i, entering]
            if a > PIVOT_TOL:
                ratio = tableau[i, -1] / a
                if (best_ratio is None or ratio < best_ratio - PIVOT_TOL
                        or (abs(ratio - best_ratio) <= PIVOT_TOL
                            and basis[i] < basis[best_row])):
                    best_row, best_ratio = i, ratio
        if best_row < 0:
            return "unbounded"
        _pivot(tableau, best_row, entering)
        basis[best_row] = entering
    raise RuntimeError("simplex failed to terminate")


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]


def simplex_maximize(c, A, b) -> SimplexResult:
    c = np.asarray(c, dtype=float).reshape(-1)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    if c.size != n or b.size != m:
        raise ValueError("inconsistent LP shapes")

    A = A.copy()
    b = b.copy()
    flip = b < 0.0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: artificial basis, drive sum of artificials to zero
    tableau = np.hstack([A, np.eye(m), b[:, None]])
    costs1 = np.concatenate([np.zeros(n), -np.ones(m)])
    basis = list(range(n, n + m))
    status = _iterate(tableau, basis, costs1)
    if status != "optimal":
        raise RuntimeError("phase-1 LP cannot be unbounded")
    phase1_value = float(costs1[basis] @ tableau[:, -1])
    if phase1_value < -1e-9:
        return SimplexResult("infeasible", None, None)

    # pivot remaining artificial variables out of the basis where possible
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if abs(tableau[i, j]) > PIVOT_TOL), None)
            if col is None:
                drop_rows.append(i)  # redundant constraint
            else:
                _pivot(tableau, i, col)
                basis[i] = col
    if drop_rows:
        keep = [i for i in range(m) if i not in drop_rows]
        tableau = tableau[keep]
        basis = [basis[i] for i in keep]

    # phase 2 on the original columns
    tableau = np.hstack([tableau[:, :n], tableau[:, -1:]])
    costs2 = c.copy()
    status = _iterate(tableau, basis, costs2)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None)
    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tableau[i, -1]
    return SimplexResult("optimal", x, float(c @ x))
