"""Dense simplex solver for small box-constrained linear programs.

Solves  max c.x  subject to  A x <= b,  0 <= x <= u  with b, u >= 0, which is
the shape of every linear program here: the optimal-license programs and the
hull-membership test.  The bounds x <= u are tableau rows; with ``upper``
None, :func:`solve_box_lps` drops them for LPs whose A rows already bound x
(the membership LP's do), so a tableau has k + 1 rows instead of k + n + 1;
dropping implied bounds is standard presolve (E. D. Andersen and K. D.
Andersen, "Presolving in linear programming", Math. Programming 71, 1995).
The origin is always feasible, so no phase-1 step is needed.  Bland's
pivoting rule (R. G. Bland, "New finite pivoting rules for the simplex
method", Math. Oper. Res. 2(2), 1977) keeps the method finite and
deterministic.  Problem sizes are tiny (tens of variables), so the cost of a
solve is numpy call overhead, not arithmetic: the tableau is written in place
into one zeroed array, and each pivot is a rank-1 update of it.  The lowest
improving column enters, and of the rows within PIVOT_TOL of the least
ratio, the one whose basic variable has the lowest index leaves; that rule
and the rank-1 update fix the result's bits.

:func:`solve_box_lps` solves many LPs that share ``A`` and ``upper`` in
lock-step, one pivot per LP per round on a stack of their tableaux, and gives
each the bits :func:`solve_box_lp` gives it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
#: Entries of the largest stack of tableaux :func:`solve_box_lps` pivots at
#: once (1 MB: 275 license or 985 membership LPs of the benchmark's market),
#: which bounds its memory to a few copies of one block.  On 1,000 such LPs
#: one call's tracemalloc peak is 2.7 MB (license) or 2.8 MB (membership),
#: against 9-11 MB with no blocks, and the benchmark's optimal-LP market
#: peaks at 42.4-42.7 MB RSS.  Four times smaller blocks make the solve about
#: twice as slow.
BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class LpSolution:
    """One LP's solution; :func:`solve_box_lps` gives N LPs' with a leading axis on each field."""

    x: np.ndarray
    value: float | np.ndarray
    duals: np.ndarray  # per row of A, then per upper-bound row, none when upper is None
    iterations: int | np.ndarray


def _as_floats(c, A, b, upper) -> tuple[np.ndarray, ...]:
    """The LP data as float arrays, with A at least 2-D and a None ``upper`` kept."""
    return (np.asarray(c, dtype=float), np.atleast_2d(np.asarray(A, dtype=float)),
            np.asarray(b, dtype=float), None if upper is None else np.asarray(upper, dtype=float))


def _tableaux(c, A, b, upper) -> np.ndarray:
    """Validated initial tableaux, shape (N, m + 1, n + m + 1), of LPs sharing A and upper.

    ``c`` is (N, n) and ``b`` is (N, k).  The upper bounds are folded in as
    rows x_j + s = u_j, so m = k + n; with ``upper`` None there are no bound
    rows and m = k.  Slacks form the initial basis.  Tableau columns: n
    structural vars, m slacks, rhs; the last row holds the reduced costs of a
    max problem.  Both identity blocks are diagonals of the flat tableau with
    stride width + 1.
    """
    N, n = c.shape
    k = A.shape[0]
    if A.shape[1] != n or b.shape != (N, k) or (upper is not None and upper.shape != (n,)):
        raise ValueError("inconsistent LP dimensions")
    if (b < 0).any() or (upper is not None and (upper < 0).any()):
        raise ValueError("right-hand sides must be non-negative")
    m_rows = k if upper is None else k + n
    width = n + m_rows + 1
    T = np.zeros((N, m_rows + 1, width))
    flat = T.reshape(N, (m_rows + 1) * width)
    T[:, :k, :n] = A
    flat[:, n : m_rows * width : width + 1] = 1.0  # slack columns
    T[:, :k, -1] = b
    if upper is not None:
        flat[:, k * width : m_rows * width : width + 1] = 1.0  # upper-bound rows
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
    m_rows = T.shape[0] - 1
    basis = list(range(n, n + m_rows))

    iterations = 0
    max_iter = 200 * (n + m_rows)
    while n > 0:  # with no variables the slack basis is optimal
        for entering, cost in enumerate(T[-1, :-1].tolist()):
            if cost < -PIVOT_TOL:  # Bland: the lowest improving index enters
                break
        else:
            break
        col = T[:m_rows, entering].tolist()
        rhs = T[:m_rows, -1].tolist()
        # Bland's ratio test, in two passes over floats: of the rows within
        # PIVOT_TOL of the least ratio, the one of lowest basic index leaves.
        least, leaving = np.inf, -1
        for i in range(m_rows):
            if col[i] > PIVOT_TOL and rhs[i] / col[i] < least:
                least, leaving = rhs[i] / col[i], i
        if leaving < 0:
            raise RuntimeError("LP is unbounded, which a box LP cannot be")
        for i in range(m_rows):
            if basis[i] < basis[leaving] and col[i] > PIVOT_TOL and rhs[i] / col[i] <= least + PIVOT_TOL:
                leaving = i
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
    result is, to the byte, what :func:`solve_box_lp` returns for LP i.

    ``upper`` None solves  max c_i.x  s.t.  A x <= b_i,  x >= 0  with no bound
    rows; A must then bound x, and the duals are (N, k).  When the A rows
    imply bounds u to well within ``PIVOT_TOL``, a bound row of u never
    leaves the basis (of tied rows, its slack has the highest basic index),
    and each rank-1 update is row-local, so x, the value and the pivot count
    are, to the byte, those of the solve with ``upper`` u, and the duals its
    first k.

    The LPs run in blocks of at most ``BLOCK_ENTRIES`` tableau entries, each one
    pivot loop.  In each round every LP of the block that still has an
    improving column pivots once: the entering column, the ratio test and the
    rank-1 update of :func:`solve_box_lp` are the same float operations done
    across the block, the update as one broadcast product.  An optimal LP
    writes its x, duals and pivot count into the result and leaves the block
    by boolean indexing.  A single LP costs three to four times as much here as
    in :func:`solve_box_lp`.
    """
    c, A, b, u = _as_floats(c, A, b, upper)
    N = c.shape[0] if c.ndim == 2 else b.shape[0] if b.ndim == 2 else 1
    c, b = np.broadcast_to(c, (N, c.shape[-1])), np.broadcast_to(b, (N, b.shape[-1]))
    n = c.shape[1]
    m_rows = A.shape[0] if u is None else A.shape[0] + n  # the tableau's constraint rows
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
            col = T[lane, :m_rows, entering]
            # Bland's ratio test of solve_box_lp across the block; the ratios
            # of ineligible rows (inf, nan or any sign) are masked to inf.
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(col > PIVOT_TOL, T[:, :m_rows, -1] / col, np.inf)
            bound = ratios.min(axis=1) + PIVOT_TOL
            if (bound == np.inf).any():
                raise RuntimeError("LP is unbounded, which a box LP cannot be")
            leaving = np.where(ratios <= bound[:, None], basis, n + m_rows).argmin(axis=1)
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
