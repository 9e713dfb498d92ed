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

:func:`solve_box_lps` solves many LPs that share ``A`` and ``upper`` in
lock-step, one pivot per LP per round, and gives each the bits
:func:`solve_box_lp` gives it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
#: Entries of the largest stacked tableau :func:`solve_box_lps` pivots at
#: once (1 MB), which bounds its memory.  One tableau for all 1,000 providers
#: of the benchmark's optimal-LP market raised that run's peak RSS from 43.2
#: to 45.9 MB; blocks of this size (275 license or 222 membership LPs) keep
#: it at 43.2-43.3 MB, and four times smaller blocks made the solve about
#: twice as slow.
BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    value: float
    duals: np.ndarray  # one multiplier per row of A (then per upper bound)
    iterations: int


@dataclass(frozen=True)
class LpBatch:
    """The solutions of :func:`solve_box_lps`, one row per LP."""

    x: np.ndarray  # (N, n)
    value: np.ndarray  # (N,)
    duals: np.ndarray  # (N, k + n)
    iterations: np.ndarray  # (N,)


def _tableaux(c, A, b, upper) -> np.ndarray:
    """Validated initial tableaux, shape (N, k + n + 1, 2n + k + 1), of LPs sharing A and upper.

    ``c`` is (N, n) and ``b`` is (N, k).  The upper bounds are folded in as
    rows x_j + s = u_j; slacks form the initial basis.  Tableau columns: n
    structural vars, k + n slacks, rhs; the last row holds the reduced costs
    of a max problem.  Both identity blocks are diagonals of the flat tableau
    with stride width + 1.
    """
    N, n = c.shape
    k = A.shape[0]
    if A.shape[1] != n or b.shape != (N, k) or upper.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if (b < 0).any() or (upper < 0).any():
        raise ValueError("right-hand sides must be non-negative")
    m_rows = k + n
    width = n + m_rows + 1
    T = np.zeros((N, m_rows + 1, width))
    flat = T.reshape(N, (m_rows + 1) * width)
    T[:, :k, :n] = A
    flat[:, k * width : m_rows * width : width + 1] = 1.0  # upper-bound rows
    flat[:, n : m_rows * width : width + 1] = 1.0  # slack columns
    T[:, :k, -1] = b
    T[:, k:m_rows, -1] = upper
    T[:, -1, :n] = -c
    return T


def _primal_and_duals(rhs: np.ndarray, costs: np.ndarray, basis: np.ndarray,
                      n: int) -> tuple[np.ndarray, np.ndarray]:
    """The basic solutions x (N, n) and duals of optimal tableaux.

    ``rhs`` (N, k + n) is their right-hand-side column, ``costs`` their
    reduced costs over the slack columns, which are the dual multipliers,
    and ``basis`` (N, k + n) their basic variables.
    """
    rows, slots = np.nonzero(basis < n)
    x = np.zeros((rhs.shape[0], n))
    x[rows, basis[rows, slots]] = rhs[rows, slots]
    duals = costs.copy()
    duals[np.abs(duals) < PIVOT_TOL] = 0.0
    return x, duals


def solve_box_lp(c, A, b, upper) -> LpSolution:
    """Maximize ``c @ x`` over ``A x <= b``, ``0 <= x <= upper``.

    ``b`` and ``upper`` must be non-negative so the slack basis is feasible.
    """
    c = np.asarray(c, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    if c.ndim != 1 or b.ndim != 1:
        raise ValueError("inconsistent LP dimensions")
    T = _tableaux(c[None], A, b[None], np.asarray(upper, dtype=float))[0]
    n = c.size
    m_rows = A.shape[0] + n
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
    duals = T[-1, n:-1].copy()
    duals[np.abs(duals) < PIVOT_TOL] = 0.0
    return LpSolution(x=x, value=float(c @ x), duals=duals, iterations=iterations)


def solve_box_lps(c, A, b, upper) -> LpBatch:
    """Solve the LPs  max c_i.x  s.t.  A x <= b_i,  0 <= x <= upper  in lock-step.

    ``c`` is (N, n) and ``b`` is (N, k); either may be 1-D when every LP
    shares it.  ``A`` (k, n) and ``upper`` (n,) are shared.  Row i of the
    result is, to the byte, what :func:`solve_box_lp` returns for LP i.  The
    LPs run in blocks of at most ``BLOCK_ENTRIES`` tableau entries.  In each
    round every LP of a block that still has an improving column pivots once,
    with the entering column, the ratio scan and the row update of
    :func:`solve_box_lp` done as the same float operations across the block;
    an optimal LP leaves the block.  For a single LP, :func:`solve_box_lp` is
    faster.
    """
    c = np.asarray(c, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    u = np.asarray(upper, dtype=float)
    N = c.shape[0] if c.ndim == 2 else b.shape[0] if b.ndim == 2 else 1
    c, b = np.broadcast_to(c, (N, c.shape[-1])), np.broadcast_to(b, (N, b.shape[-1]))
    n = c.shape[1]
    m_rows = A.shape[0] + n
    x = np.zeros((N, n))
    duals = np.zeros((N, m_rows))
    iterations = np.zeros(N, dtype=int)
    block = max(1, BLOCK_ENTRIES // ((m_rows + 1) * (n + m_rows + 1)))
    for start in range(0, max(N, 1), block):  # an empty batch still checks its shapes
        rows = slice(start, start + block)
        x[rows], duals[rows], iterations[rows] = _solve_block(c[rows], A, b[rows], u)
    return LpBatch(x=x, value=np.vecdot(c, x), duals=duals, iterations=iterations)


def _solve_block(c, A, b, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, duals and pivot counts of the LPs of one block, pivoted in lock-step."""
    T = _tableaux(c, A, b, u)
    N, n = c.shape
    m_rows = A.shape[0] + n
    x = np.zeros((N, n))
    duals = np.zeros((N, m_rows))
    iterations = np.zeros(N, dtype=int)
    live = np.arange(N)  # the LP each tableau of T belongs to
    basis = np.tile(np.arange(n, n + m_rows), (N, 1))
    max_iter = 200 * (n + m_rows)
    rounds = 0
    # With no variables the slack basis is optimal: x and the duals are 0.
    while n > 0 and live.size:
        improving = T[:, -1, :-1] < -PIVOT_TOL
        entering = improving.argmax(axis=1)  # Bland: lowest improving index
        lane = np.arange(live.size)
        optimal = ~improving[lane, entering]
        if optimal.any():
            done = live[optimal]
            x[done], duals[done] = _primal_and_duals(
                T[optimal, :-1, -1], T[optimal, -1, n:-1], basis[optimal], n)
            iterations[done] = rounds
            # Unfinished tableaux from the tail fill the finished ones' slots,
            # and the block shrinks to a leading view: no tableau is copied whole.
            size = live.size - done.size
            holes = np.flatnonzero(optimal[:size])
            movers = size + np.flatnonzero(~optimal[size:])
            for a in (T, basis, live, entering):
                a[holes] = a[movers]
            T, basis, live, entering = T[:size], basis[:size], live[:size], entering[:size]
            lane = lane[:size]
            if size == 0:
                break
        if rounds == max_iter:
            raise RuntimeError("simplex failed to terminate")
        col = T[lane, :m_rows, entering].T
        rhs = T[:, :m_rows, -1].T
        eligible = col > PIVOT_TOL
        # Bland's sequential ratio scan, one row of every tableau per step.
        # Ratios of ineligible rows (inf or nan) are never taken.
        best_ratio = np.full(live.size, np.inf)
        leaving = np.full(live.size, -1)
        leaving_basic = np.full(live.size, n + m_rows)  # above every basic index
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = rhs / col
            for i in range(m_rows):
                ratio, basic = ratios[i], basis[:, i]
                take = eligible[i] & (
                    (ratio < best_ratio - PIVOT_TOL)
                    | ((np.abs(ratio - best_ratio) <= PIVOT_TOL) & (basic < leaving_basic))
                )
                best_ratio = np.where(take, ratio, best_ratio)
                leaving = np.where(take, i, leaving)
                leaving_basic = np.where(take, basic, leaving_basic)
        if (leaving < 0).any():
            raise RuntimeError("LP is unbounded, which a box LP cannot be")
        pivot_rows = T[lane, leaving]
        pivot_rows /= pivot_rows[lane, entering][:, None]
        T[lane, leaving] = pivot_rows
        factors = T[lane, :, entering]
        factors[lane, leaving] = 0.0
        for r in range(m_rows + 1):  # row by row, so no temporary as large as the block
            T[:, r] -= factors[:, r, None] * pivot_rows
        basis[lane, leaving] = entering
        rounds += 1
    return x, duals, iterations
