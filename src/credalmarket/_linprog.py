"""Dense simplex solver for small box-constrained linear programs.

Solves  max c.x  subject to  A x <= b,  0 <= x <= u  with b, u >= 0, which is
the shape of every linear program here: the optimal-license programs and the
hull-membership test.  The origin is always feasible, so no phase-1 step is
needed.  Bland's pivoting rule (R. G. Bland, "New finite pivoting rules for
the simplex method", Math. Oper. Res. 2(2), 1977) keeps the method finite and
deterministic.  Problem sizes are tiny (tens of variables), so the cost of a
solve is numpy call overhead, not arithmetic: the tableau is written in place
into one zeroed array, and each pivot is a few array operations on it plus a
row-by-row ratio scan.  The scan and the row update fix the result's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    value: float
    duals: np.ndarray  # one multiplier per row of A (then per upper bound)
    iterations: int


def solve_box_lp(c, A, b, upper) -> LpSolution:
    """Maximize ``c @ x`` over ``A x <= b``, ``0 <= x <= upper``.

    ``b`` and ``upper`` must be non-negative so the slack basis is feasible.
    """
    c = np.asarray(c, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    u = np.asarray(upper, dtype=float)
    n = c.size
    if A.shape[1] != n or b.shape != (A.shape[0],) or u.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if (b < 0).any() or (u < 0).any():
        raise ValueError("right-hand sides must be non-negative")

    # Fold the upper bounds in as rows x_j + s = u_j; slacks form the initial
    # basis.  Tableau columns: n structural vars, m_rows slacks, rhs.  Both
    # identity blocks are diagonals of the flat tableau with stride width + 1.
    k = A.shape[0]
    m_rows = k + n
    width = n + m_rows + 1
    T = np.zeros((m_rows + 1, width))
    flat = T.reshape(-1)
    T[:k, :n] = A
    flat[k * width : m_rows * width : width + 1] = 1.0  # upper-bound rows
    flat[n : m_rows * width : width + 1] = 1.0  # slack columns
    T[:k, -1] = b
    T[k:m_rows, -1] = u
    T[-1, :n] = -c  # objective row holds reduced costs of a max problem
    basis = list(range(n, n + m_rows))

    iterations = 0
    max_iter = 200 * (n + m_rows)
    while n > 0:  # with no variables the slack basis is optimal
        improving = T[-1, :-1] < -PIVOT_TOL
        entering = int(improving.argmax())  # Bland: lowest improving index
        if not improving[entering]:
            break
        col = T[:m_rows, entering].tolist()
        rhs = T[:m_rows, -1].tolist()
        # Bland's ratio test scans rows in order against the running best:
        # taking the minimum first and then its ties picks another row on
        # near-ties (ratios within PIVOT_TOL of each other).
        best_ratio = np.inf
        leaving = -1
        for i in range(m_rows):
            if col[i] > PIVOT_TOL:
                ratio = rhs[i] / col[i]
                if ratio < best_ratio - PIVOT_TOL or (
                    abs(ratio - best_ratio) <= PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("LP is unbounded, which a box LP cannot be")
        T[leaving] /= T[leaving, entering]
        factors = T[:, entering].copy()
        factors[leaving] = 0.0
        T -= factors[:, None] * T[leaving]
        basis[leaving] = entering
        iterations += 1
        if iterations > max_iter:
            raise RuntimeError("simplex failed to terminate")

    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = T[i, -1]
    # Reduced costs over the slack columns are the dual multipliers.
    duals = T[-1, n : n + m_rows].copy()
    duals[np.abs(duals) < PIVOT_TOL] = 0.0
    return LpSolution(x=x, value=float(c @ x), duals=duals, iterations=iterations)
