"""Dense simplex solver for small box-constrained linear programs.

Solves  max c.x  subject to  A x <= b,  0 <= x <= u  with b, u >= 0, which is
the shape of every linear program here: the optimal-license programs and the
hull-membership test.  The origin is always feasible, so no phase-1 step is
needed.  Bland's pivoting rule (R. G. Bland, "New finite pivoting rules for
the simplex method", Math. Oper. Res. 2(2), 1977) keeps the method finite and
deterministic.  Problem sizes are tiny (tens of variables), so the cost of a
solve is numpy call overhead, not arithmetic: the tableau is written in place
into one zeroed array, and each pivot is a few array operations on it plus
Bland's ratio scan over the rows in order.  The scan and the rank-1 update
fix the result's bits.

:func:`solve_box_lps` solves many LPs that share ``A`` and ``upper`` in
lock-step, one pivot per LP per round on a stack of their tableaux, and gives
each the bits :func:`solve_box_lp` gives it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
#: Entries of the largest stack of tableaux :func:`solve_box_lps` pivots at
#: once (1 MB: 275 license or 222 membership LPs of the benchmark's market),
#: which bounds its memory to a few copies of one block.  On 1,000 such LPs
#: one call's tracemalloc peak is 2.7 MB, against 9-11 MB with no blocks, and
#: the benchmark's optimal-LP market peaks at 42.4-42.7 MB RSS.  Four times
#: smaller blocks make the solve about twice as slow.
BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class LpSolution:
    """One LP's solution; :func:`solve_box_lps` gives N LPs' with a leading axis on each field."""

    x: np.ndarray
    value: float | np.ndarray
    duals: np.ndarray  # one multiplier per row of A (then per upper bound)
    iterations: int | np.ndarray


def _as_floats(c, A, b, upper) -> tuple[np.ndarray, ...]:
    """The LP data as float arrays, with A at least 2-D."""
    return (np.asarray(c, dtype=float), np.atleast_2d(np.asarray(A, dtype=float)),
            np.asarray(b, dtype=float), np.asarray(upper, dtype=float))


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


def solve_box_lp(c, A, b, upper) -> LpSolution:
    """Maximize ``c @ x`` over ``A x <= b``, ``0 <= x <= upper``.

    ``b`` and ``upper`` must be non-negative so the slack basis is feasible.
    """
    c, A, b, upper = _as_floats(c, A, b, upper)
    if c.ndim != 1 or b.ndim != 1:
        raise ValueError("inconsistent LP dimensions")
    T = _tableaux(c[None], A, b[None], upper)[0]
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


def solve_box_lps(c, A, b, upper) -> LpSolution:
    """Solve the LPs  max c_i.x  s.t.  A x <= b_i,  0 <= x <= upper  in lock-step.

    ``c`` is (N, n) and ``b`` is (N, k); either may be 1-D when every LP
    shares it.  ``A`` (k, n) and ``upper`` (n,) are shared.  Row i of the
    result is, to the byte, what :func:`solve_box_lp` returns for LP i.  The
    LPs run in blocks of at most ``BLOCK_ENTRIES`` tableau entries, each one
    pivot loop.  In each round every LP of the block that still has an
    improving column pivots once: the entering column, the ratio scan and the
    rank-1 update of :func:`solve_box_lp` are the same float operations done
    across the block, the update as one broadcast product.  An optimal LP
    writes its x, duals and pivot count into the result and leaves the block
    by boolean indexing.  A single LP costs about eight times as much here as
    in :func:`solve_box_lp`.
    """
    c, A, b, u = _as_floats(c, A, b, upper)
    N = c.shape[0] if c.ndim == 2 else b.shape[0] if b.ndim == 2 else 1
    c, b = np.broadcast_to(c, (N, c.shape[-1])), np.broadcast_to(b, (N, b.shape[-1]))
    n = c.shape[1]
    m_rows = A.shape[0] + n
    x = np.zeros((N, n))
    duals = np.zeros((N, m_rows))
    iterations = np.zeros(N, dtype=int)
    block = max(1, BLOCK_ENTRIES // ((m_rows + 1) * (n + m_rows + 1)))
    max_iter = 200 * (n + m_rows)
    for start in range(0, max(N, 1), block):  # an empty batch still checks its shapes
        live = np.arange(start, min(start + block, N))  # the LP each tableau of T belongs to
        T = _tableaux(c[live], A, b[live], u)
        basis = np.tile(np.arange(n, n + m_rows), (live.size, 1))
        rounds = 0
        # With no variables the slack basis is optimal: x and the duals are 0.
        while n > 0 and live.size:
            improving = T[:, -1, :-1] < -PIVOT_TOL
            entering = improving.argmax(axis=1)  # Bland: lowest improving index
            optimal = ~improving[np.arange(live.size), entering]
            if optimal.any():
                done, final, final_basis = live[optimal], T[optimal], basis[optimal]
                lps, slots = np.nonzero(final_basis < n)
                x[done[lps], final_basis[lps, slots]] = final[lps, slots, -1]
                duals[done] = final[:, -1, n:-1]
                iterations[done] = rounds
                T, basis, live, entering = (a[~optimal] for a in (T, basis, live, entering))
                if not live.size:
                    break
            if rounds == max_iter:
                raise RuntimeError("simplex failed to terminate")
            lane = np.arange(live.size)
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
            T -= factors[:, :, None] * pivot_rows[:, None, :]
            basis[lane, leaving] = entering
            rounds += 1
    duals[np.abs(duals) < PIVOT_TOL] = 0.0
    return LpSolution(x=x, value=np.vecdot(c, x), duals=duals, iterations=iterations)
