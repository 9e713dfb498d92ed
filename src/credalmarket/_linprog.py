"""Dense simplex solver for small box-constrained linear programs.

Solves  max c.x  subject to  A x <= b,  0 <= x <= u  with b, u >= 0, which is
the shape of every linear program here: the optimal-license programs and the
hull-membership test.  The origin is always feasible, so no phase-1 step is
needed.  Bland's pivoting rule (R. G. Bland, "New finite pivoting rules for
the simplex method", Math. Oper. Res. 2(2), 1977) keeps the method finite and
deterministic.  Problem sizes are tiny (tens of variables), so each pivot is
a few array operations on one dense tableau.
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
    if np.any(b < 0) or np.any(u < 0):
        raise ValueError("right-hand sides must be non-negative")

    # Fold the upper bounds in as ordinary rows; slacks form the initial basis.
    A_full = np.vstack([A, np.eye(n)])
    b_full = np.concatenate([b, u])
    m_rows = A_full.shape[0]

    # Tableau columns: n structural vars, m_rows slacks, rhs.
    T = np.zeros((m_rows + 1, n + m_rows + 1))
    T[:m_rows, :n] = A_full
    T[:m_rows, n : n + m_rows] = np.eye(m_rows)
    T[:m_rows, -1] = b_full
    T[-1, :n] = -c  # objective row holds reduced costs of a max problem
    basis = list(range(n, n + m_rows))

    iterations = 0
    max_iter = 200 * (n + m_rows)
    while True:
        improving = np.flatnonzero(T[-1, :-1] < -PIVOT_TOL)
        if improving.size == 0:
            break
        entering = int(improving[0])  # Bland: lowest improving index
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
