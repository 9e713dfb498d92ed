"""Sequential testing-by-betting licenses and Kelly bet selection.

The wealth process starts at the entry fee and multiplies by 1 + lambda * b(z)
each round, where b(z) = h(z) - tau is the betting score and lambda is chosen
by the provider.  Under any null distribution with E[b] <= 0 and predictable
bets the process is a supermartingale, so the issued license min{wealth, R}
cannot recover the fee in expectation; under a compliant distribution the
Kelly-optimal bet grows wealth exponentially to the cap.

Wealth is tracked in log space and the cap applies only at license issuance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .evidence import (PROB_ATOL, Categorical, EvidenceSpace, SampleStream, frozen_vector,
                       require_same_space, sample, write_csv)
from .licenses import MechanismParams

__all__ = [
    "BettingScore",
    "KellyConfig",
    "kelly_bets",
    "kelly_optimal_bet",
    "run_sequential_license",
    "verify_supermartingale",
    "write_trajectory_csv",
]

#: bet ceiling B for scores with no losing outcome, and the cap on every ceiling
LAMBDA_DEFAULT_MAX = 10.0
#: :func:`kelly_bets`' Newton tolerance, its iterations before the grid fallback, and grid points
NEWTON_TOL = 1e-12
KELLY_MAX_ITER = 200
GRID_FALLBACK = 20001
#: entry fee C, the starting wealth of every :func:`verify_supermartingale` run
AUDIT_ENTRY_FEE = 15.0
#: Path rows of one block of rounds of :func:`_plugin_blocks` and of the
#: scenarios' explicit and naive routes: as many whole rounds as fit (at
#: least one), which bounds a block's memory to a few arrays of that many
#: rows.  A cold path solves a block per :func:`kelly_bets` call, so the
#: market's 120 x 500 betting paths take 30 calls of at most 17 rounds
#: instead of 499 of one.
PATH_BLOCK_ROWS = 2048
#: Stashed key cells of one :func:`verify_supermartingale` block: as many
#: whole rounds of ``runs`` keys as fit (at least one), so its keys take at
#: most 512 KiB (or one round's) whatever n is.  The audit's 10^4 runs x 500
#: rounds take 84 :func:`kelly_bets` calls of 6 rounds instead of 499 of one.
AUDIT_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class BettingScore:
    """Per-outcome betting score b(z) = h(z) - tau for a threshold metric h."""

    space: EvidenceSpace
    score: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "score", frozen_vector(self.score, "score", self.space))

    @staticmethod
    def from_metric(space: EvidenceSpace, metric, tau: float) -> "BettingScore":
        h = np.asarray(metric, dtype=float)
        return BettingScore(space, h - tau)


@dataclass(frozen=True)
class KellyConfig:
    """Bet admissibility.

    The ceiling rule guarantees 1 + lambda * b(z) >= margin for every outcome,
    keeping log-wealth finite; scores with no losing outcome get the finite
    default ceiling.  Laplace (add-one) smoothing tempers plug-in bets early.
    """

    margin: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.margin < 1.0:  # a margin of 1 or more leaves no bet in (0, B]
            raise ValueError(f"admissibility margin must lie in (0, 1), got {self.margin!r}")

    def ceiling(self, score: np.ndarray) -> float:
        worst = float(np.min(score))
        if worst >= 0.0:
            return LAMBDA_DEFAULT_MAX
        return min(LAMBDA_DEFAULT_MAX, (1.0 - self.margin) / (-worst))


@functools.lru_cache(maxsize=64)
def _kelly_constants(
    b: BettingScore, cfg: KellyConfig,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """B and the read-only vectors b / (1 + B b), b^2 and -b^2 of one (score, config) pair."""
    score = b.score
    ceiling = cfg.ceiling(score)
    vectors = score / (1.0 + ceiling * score), score**2, -(score**2)
    for v in vectors:
        v.flags.writeable = False
    return (ceiling, *vectors)


def kelly_bets(probs, b: BettingScore, cfg: KellyConfig, init=None) -> np.ndarray:
    """Per row of an (N, m) ``probs``: argmax over [0, B] of E[ln(1 + lambda * b(Z))].

    The objective is concave, so a safeguarded Newton iteration on its
    derivative converges fast; a dense grid pass backs up rows that stall.  A
    non-positive edge (E[b] <= 0) means no bet.  ``init`` holds optional
    per-row warm starts, used where strictly inside (0, B).  Rows are solved
    together, each bit-identical to solving it alone; B and its score
    vectors are computed once per (score, config).
    """
    # Row dots use np.vecdot on contiguous rows: it rounds like the 1-D
    # ``probs @ x`` of a single solve, where einsum or sum(axis=1) do not.
    # The ``P[rows]`` row subsets below stay C-ordered; a column subset must
    # go through ``licenses._column_subset`` to keep these bits.
    P = np.ascontiguousarray(probs, dtype=float)
    score = b.score
    ceiling, slope, sq, neg_sq = _kelly_constants(b, cfg)
    out = np.zeros(P.shape[0])
    edge = np.vecdot(P, score)
    rows = np.flatnonzero(edge > 0.0)
    if rows.size < P.shape[0]:
        P, edge = P[rows], edge[rows]
    # Objective still increasing at the ceiling: bet the ceiling.
    rising = np.vecdot(P, slope) >= 0.0
    if np.count_nonzero(rising):
        out[rows[rising]] = ceiling
        keep = ~rising
        rows, P, edge = rows[keep], P[keep], edge[keep]
    if rows.size == 0:
        return out

    # f'(lo) > 0 > f'(hi) brackets the root; start from the small-lambda
    # approximation unless a usable warm start is given.
    if init is None:
        lam = np.minimum(edge / np.vecdot(P, sq), ceiling)
    else:
        lam = np.asarray(init, dtype=float)[rows]
        cold = ~((0.0 < lam) & (lam < ceiling))
        if np.count_nonzero(cold):
            lam[cold] = np.minimum(edge[cold] / np.vecdot(P[cold], sq), ceiling)
    lo, hi = np.zeros(rows.size), np.full(rows.size, ceiling)
    for _ in range(KELLY_MAX_ITER):
        denom = 1.0 + lam[:, None] * score
        d1 = np.vecdot(P, score / denom)
        rising = d1 > 0.0
        np.copyto(lo, lam, where=rising)
        np.copyto(hi, lam, where=~rising)
        lam_next = lam - d1 / np.vecdot(P, neg_sq / denom**2)
        inside = (lo < lam_next) & (lam_next < hi)
        if np.count_nonzero(inside) < rows.size:
            np.copyto(lam_next, 0.5 * (lo + hi), where=~inside)
        # A flat derivative keeps lam; otherwise stop once the step is tiny.
        flat = np.abs(d1) <= NEWTON_TOL
        if np.count_nonzero(flat):
            np.copyto(lam_next, lam, where=flat)
        done = np.abs(lam_next - lam) <= NEWTON_TOL * np.maximum(1.0, lam)
        finished = np.count_nonzero(done)
        if finished == rows.size:
            out[rows] = lam_next
            return out
        if finished:
            out[rows[done]] = lam_next[done]
            keep = ~done
            rows, P, lam_next, lo, hi = (a[keep] for a in (rows, P, lam_next, lo, hi))
        lam = lam_next
    # Bisection stalled inside tolerance of the bracket; fall back to a grid.
    grid = np.linspace(0.0, ceiling, GRID_FALLBACK)
    table = np.log1p(np.outer(grid, score))
    for r, p in zip(rows, P):
        out[r] = grid[int(np.argmax(table @ p))]
    return out


def kelly_optimal_bet(dist: Categorical, b: BettingScore, cfg: KellyConfig) -> float:
    """argmax over [0, B] of E_dist[ln(1 + lambda * b(Z))]: one row of :func:`kelly_bets`."""
    require_same_space(dist, b)
    return float(kelly_bets(dist.probs[None, :], b, cfg)[0])


def _smoothed(counts, total, m: int) -> np.ndarray:
    """Add-one-smoothed distributions from count rows (the last axis) summing to ``total``.

    ``total`` is an int or an integer array broadcast against the leading
    axes of ``counts``; either way each entry is (count + 1) / (total + m).
    """
    return (np.atleast_2d(counts) + 1.0) / (total + m)


def _mean_se(x: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over the runs, axis ``axis`` of ``x`` (by default its rows)."""
    runs = x.shape[axis]
    mean = x.mean(axis=axis)
    se = x.std(axis=axis, ddof=1) / math.sqrt(runs) if runs > 1 else np.zeros_like(mean)
    return mean, se


def _round_blocks(n: int, rows: int) -> Iterator[tuple[int, int]]:
    """Blocks [t0, t1) of rounds 0..n-1 of paths with ``rows`` rows: as many whole rounds as fit
    in ``PATH_BLOCK_ROWS`` rows, at least one."""
    span = max(1, PATH_BLOCK_ROWS // max(rows, 1))
    return ((t0, min(n, t0 + span)) for t0 in range(0, n, span))


def _plugin_blocks(
    z: np.ndarray, b: BettingScore, cfg: KellyConfig, params: MechanismParams,
    warm_start: bool = False,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """(t0, bets, log-wealth, licenses) of plug-in Kelly betting along each row of ``z``, one
    block of rounds at a time: the only plug-in wealth loop.

    The three arrays hold rounds t0, t0 + 1, ... of every row, one per column.
    Round t bets against the add-one-smoothed counts of the row's first t
    outcomes (round 0 bets nothing).  Those counts depend only on ``z``, so
    every path runs in blocks of whole rounds, at most ``PATH_BLOCK_ROWS``
    rows (at least one round), with the counts carried across blocks as a
    cumulative one-hot sum; each block solves its bets, then sums its
    log-wealth.  A caller keeps what it reads, such as a per-step
    mean, the final licenses or a CSV block, and holds no (runs, n) float
    array.  A cold path solves each block as one :func:`kelly_bets` call.
    ``warm_start`` starts each solve from the row's previous bet instead, so
    a warm path solves its blocks one round per call.  A warm start changes
    the Newton path, so its bets agree with cold starts only to
    ``NEWTON_TOL``, not bit for bit; the fairness scenario's CSV depends on
    its warm starts (turning them off moves 11,098 fairness cells, at most
    9.1e-11 relative, 4 of them at 10 significant digits).  Wealth starts at
    C: ln C is added to each row's first ``math.log1p`` factor before the
    running sum, which carries across blocks in round order, so rows match
    a scalar loop bit for bit whatever the blocks.  The issued license is R
    once log-wealth reaches ln R, else the wealth.
    """
    runs, n = z.shape
    m = b.space.size
    seen = np.zeros((runs, m), dtype=np.int64)  # outcome counts before the block
    bets = np.zeros(runs)  # the last round's bets, a warm solve's starts
    wealth_so_far = np.full(runs, math.log(params.C))
    log_cap = math.log(params.R)
    for t0, t1 in _round_blocks(n, runs):
        lams = np.zeros((runs, t1 - t0))
        first = max(t0, 1)  # round 0 bets nothing
        if first < t1:
            counts = seen[:, None] + np.cumsum(z[:, first - 1:t1 - 1, None] == np.arange(m), axis=1)
            seen = counts[:, -1]
            probs = _smoothed(counts, np.arange(first, t1)[:, None], m)
            if warm_start:
                for t, round_probs in enumerate(probs.transpose(1, 0, 2).copy(), first):
                    bets = lams[:, t - t0] = kelly_bets(round_probs, b, cfg, init=bets)
            else:
                lams[:, first - t0:] = kelly_bets(probs.reshape(-1, m), b, cfg).reshape(runs, t1 - first)
        steps = lams * b.score[z[:, t0:t1]]
        block = np.fromiter(map(math.log1p, steps.flat), float, steps.size).reshape(steps.shape)
        block[:, 0] += wealth_so_far  # ln C enters before the first cumsum
        np.cumsum(block, axis=1, out=block)
        wealth_so_far = block[:, -1]
        issued = np.full(block.shape, float(params.R))
        below = block < log_cap
        issued[below] = np.fromiter(map(math.exp, block[below]), float)
        yield t0, lams, block, issued


def run_sequential_license(
    stream: SampleStream,
    b: BettingScore,
    cfg: KellyConfig,
    params: MechanismParams,
    n: int,
) -> np.ndarray:
    """Adaptive betting for n rounds; returns the per-step license values."""
    if n < 1:
        raise ValueError("need at least one betting round")
    z = sample(stream, n)[None, :]
    return np.concatenate([licenses[0] for *_, licenses in _plugin_blocks(z, b, cfg, params)])


def verify_supermartingale(
    null_dist: Categorical,
    b: BettingScore,
    cfg: KellyConfig,
    runs: int,
    n: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo check of E_P[final wealth] <= C under a null with E[b] <= 0.

    Simulates ``runs`` independent adaptive-bet trajectories from wealth
    C = ``AUDIT_ENTRY_FEE`` (no cap applied: this diagnostic watches raw
    wealth) and returns the mean and standard error of the final wealth.
    Obedience holds when mean <= C + 3 * SE.  The null's edge E[b] may exceed
    0 by ``PROB_ATOL * max(1, max|b|)``, the round-off of a zero-drift null.

    Bets are the same plug-in Kelly rule as :func:`_plugin_blocks`; since the
    rule depends on history only through outcome counts, each round's bets
    are those of its distinct count rows, shared across trajectories.

    The distinct rows live in a small state table, sorted by count vector,
    and each run holds an index into it.  After a round's draw, run r moves
    to child key ``state[r] * m + z[r]``: its row plus one count at z.  Only
    the keys some run reached are built, two parents reaching the same row
    are merged by one sort of those few children, and each run's index is
    remapped through its key.

    Rounds go in blocks of ``AUDIT_BLOCK_CELLS // runs`` (at least one).  A
    block stashes each round's table and keys, solves every table row of
    its rounds in one :func:`kelly_bets` call (each row smoothed by its own
    round), and builds one log-factor table ``log1p(lam * b(z))`` per state
    and outcome.  Round by round, each run then adds its key's entry of that
    table to its log-wealth.  The bits are those of a per-run count matrix:
    the draws and the tables are the same, :func:`kelly_bets` solves each
    row as it would alone, the smoothing takes the same float steps, each
    factor is the same product and ``np.log1p``, and every run sums its
    factors in round order.
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    require_same_space(null_dist, b)
    if float(null_dist.probs @ b.score) > PROB_ATOL * max(1.0, float(np.max(np.abs(b.score)))):
        raise ValueError("verify_supermartingale needs a null with E[b] <= 0")
    m = b.space.size
    span = max(1, AUDIT_BLOCK_CELLS // runs)  # rounds per block
    stream = SampleStream(null_dist, seed=seed)
    states = np.zeros((1, m), dtype=np.int64)  # distinct count rows, sorted
    state = np.zeros(runs, dtype=np.intp)  # each run's row in ``states``
    log_wealth = np.full(runs, math.log(AUDIT_ENTRY_FEE))
    for t0 in range(0, n, span):
        rounds, tables, keys = [], [], []  # the block's rounds that bet: all but round 0
        for t in range(t0, min(n, t0 + span)):
            key = state * m + sample(stream, runs)
            if t > 0:
                rounds.append(t)
                tables.append(states)
                keys.append(key)
            reached = np.flatnonzero(np.bincount(key))
            children = states[reached // m]
            children[np.arange(reached.size), reached % m] += 1
            order = np.lexsort(children.T[::-1])  # children sorted by count vector
            ordered = children[order]
            first = np.ones(reached.size, dtype=bool)
            first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
            merged = np.empty(reached.size, dtype=np.intp)
            merged[order] = np.cumsum(first) - 1
            remap = np.empty(states.shape[0] * m, dtype=np.intp)
            remap[reached] = merged
            states = ordered[first]
            state = remap[key]
        if not rounds:
            continue
        sizes = [table.shape[0] for table in tables]
        lams = kelly_bets(_smoothed(np.concatenate(tables), np.repeat(rounds, sizes)[:, None], m),
                          b, cfg)
        factors = np.log1p(lams[:, None] * b.score).ravel()  # row-major: a key indexes its rows
        offset = 0
        for key, size in zip(keys, sizes):
            log_wealth += factors[offset * m:][key]
            offset += size
    return tuple(map(float, _mean_se(np.exp(log_wealth))))


def write_trajectory_csv(
    path: str | Path,
    b: BettingScore,
    cfg: KellyConfig,
    params: MechanismParams,
    stream: SampleStream,
    n: int,
    header_comment: str,
) -> None:
    """Run one adaptive trajectory and dump step, lambda, outcome, wealth, license_value.

    The file opens with the line ``# {header_comment}``.  Wealth is uncapped
    and reads ``inf`` once it passes the float range.  Rows are written as
    :func:`_plugin_blocks` yields each block of rounds, so only the outcomes
    are held whole.
    """
    outcomes = sample(stream, n)

    def rows():
        for t0, lams, log_wealth, licenses in _plugin_blocks(outcomes[None, :], b, cfg, params):
            t1 = t0 + lams.shape[1]
            wealth = np.fromiter(map(_exp_or_inf, log_wealth[0].tolist()), float, t1 - t0)
            yield np.arange(t0 + 1, t1 + 1), lams[0], outcomes[t0:t1], wealth, licenses[0]

    write_csv(path, ("step", "lambda", "outcome", "wealth", "license_value"), rows(),
              comment=header_comment)


def _exp_or_inf(log_value: float) -> float:
    """``math.exp``, or inf past the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf
