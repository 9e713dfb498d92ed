"""Credal sets: convex hulls of categorical distributions and their envelopes.

A credal set is stored by its generating vertices; the represented set is
their convex hull, which is closed and convex by construction.  Envelope
queries reduce to finite maxima over vertices, hull membership to a small
linear program (w >= 0, its bounds w <= 1 implied) solved in lock-step
blocks on the package's simplex solver (one LP for :func:`membership`, many
for :func:`uncovered_masses`).
A threshold set {P : E_P[score] >= tau}, such as the fairness scenario's
non-compliant set, is built from the probability grid points it contains.

The mixture search :func:`maximize_over_mixtures` returns the first best
point of a weight grid.  The grid holds every point as a unit weight, so a
convex value function, such as an obedient LP mechanism's (a maximum of
functions linear in Q), reaches its maximum over the hull there.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._linprog import LpSolution, solve_box_lps
from .evidence import (
    Categorical,
    EvidenceSpace,
    json_categorical,
    json_labels,
    json_list,
    json_object,
    kl_divergence,
    load_json,
    require_same_space,
)

__all__ = [
    "CredalSet",
    "MembershipWitness",
    "GamingWitness",
    "upper_expectation",
    "membership",
    "uncovered_masses",
    "gaming_witness",
    "strategic_mixture_best_response",
    "approximate_constraint_set",
    "sequential_glr_value",
    "maximize_over_mixtures",
]

#: bound on the uncovered mass 1 - sum w of a hull member (LP round-off).
#: A member's witness reproduces q to 2 * tol in L1, and so in the
#: infinity norm; a q farther than 2 * tol from the hull in the infinity norm
#: leaves more than tol uncovered and is rejected.
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CredalSet:
    """A closed convex set of distributions, represented by its generators."""

    space: EvidenceSpace
    vertices: tuple[Categorical, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not self.vertices:
            raise ValueError("a credal set needs at least one vertex")
        for v in self.vertices:
            if v.space != self.space:
                raise ValueError("all vertices must share the credal set's space")

    @cached_property
    def vertex_matrix(self) -> np.ndarray:
        """Vertices stacked as a read-only (k, m) array, built on first access."""
        V = np.stack([v.probs for v in self.vertices])
        V.flags.writeable = False
        return V

    @staticmethod
    def singleton(p: Categorical) -> "CredalSet":
        return CredalSet(p.space, (p,))

    @staticmethod
    def from_json(payload: dict) -> "CredalSet":
        json_object(payload, ("space", "vertices"), "credal JSON", required=("space", "vertices"))
        space = EvidenceSpace(json_labels(payload["space"], "credal JSON field 'space'"))
        rows = json_list(payload["vertices"], "credal JSON field 'vertices'")
        return CredalSet(space, tuple(json_categorical(row, "credal JSON vertex", space)
                                      for row in rows))

    @staticmethod
    def load(path: str | Path) -> "CredalSet":
        return CredalSet.from_json(load_json(path, "credal set"))


def upper_expectation(credal: CredalSet, payoff) -> float:
    """sup_{P in set} E_P[payoff]; a linear functional attains it at a vertex."""
    g = np.asarray(payoff, dtype=float)
    if g.shape != (credal.space.size,):
        raise ValueError("payoff length does not match the credal set's space")
    return float(np.max(credal.vertex_matrix @ g))


class MembershipWitness(NamedTuple):
    is_member: bool
    weights: Optional[np.ndarray]
    uncovered: float


def _membership_lps(qs: list[Categorical], credal: CredalSet) -> LpSolution:
    """The membership LPs of the types, solved in lock-step blocks on
    :func:`_linprog.solve_box_lps`: max sum w  s.t.  V^T w <= q,  w >= 0.

    The bounds w <= 1 are implied, so they get no tableau rows: each vertex
    has unit mass, so V^T w <= q gives sum w <= sum q = 1 (to ``PROB_ATOL``).
    The bits are those of the box LP with 0 <= w <= 1 as rows."""
    space = require_same_space(credal, *qs)
    k = credal.vertex_matrix.shape[0]
    b = np.array([q.probs for q in qs]).reshape(len(qs), space.size)
    return solve_box_lps(np.ones(k), credal.vertex_matrix.T, b, None)


def membership(q: Categorical, credal: CredalSet) -> MembershipWitness:
    """Test whether q lies in the convex hull of the vertices.

    Solves the LP  max sum w  s.t.  V^T w <= q,  w >= 0.  V^T w has mass
    sum w and q has mass 1, so w <= 1 needs no constraint of its own, and the
    uncovered mass 1 - sum w is the L1 distance from q to the best
    sub-mixture below it; it is 0 exactly when q is a mixture of the
    vertices.  q is a member when the uncovered mass is at most
    ``MEMBERSHIP_TOL``, with witness weights w / sum w.
    """
    sol = _membership_lps([q], credal)
    uncovered = 1.0 - float(sol.value[0])
    if uncovered <= MEMBERSHIP_TOL:
        w = np.clip(sol.x[0], 0.0, None)  # the ratio-test tie tolerance can leave w_i slightly < 0
        return MembershipWitness(True, w / w.sum(), uncovered)
    return MembershipWitness(False, None, uncovered)


def uncovered_masses(qs: list[Categorical], credal: CredalSet) -> np.ndarray:
    """The uncovered mass of :func:`membership` for many types, to the bit.

    q_i is a member exactly when its mass is at most ``MEMBERSHIP_TOL``.
    """
    return 1.0 - _membership_lps(qs, credal).value


# ---------------------------------------------------------------------------
# Threshold credal sets (grid inner approximation)
# ---------------------------------------------------------------------------


def _grid_compositions(total: int, parts: int) -> np.ndarray:
    """Every ``parts``-vector of non-negative integers summing to ``total``, as float rows in
    lexicographic order: stars and bars, the gaps between ``parts - 1`` bars among the slots."""
    slots = total + parts - 1
    bars = np.array(list(itertools.combinations(range(slots), parts - 1)), dtype=float)
    return np.diff(bars, axis=1, prepend=-1.0, append=float(slots)) - 1.0


def approximate_constraint_set(space: EvidenceSpace, score, tau: float,
                               grid_resolution: int) -> CredalSet:
    """Grid points of the threshold set {P : E_P[score] >= tau}, in grid order.

    The grid is every distribution whose probabilities are multiples of
    1 / ``grid_resolution``.  The set is a closed convex polytope whose
    extreme points lie on the simplex's edges, so the hull of the kept points
    is an inner approximation, exact when those edge points are grid points
    (for a 0/1 score: when tau is a multiple of 1 / ``grid_resolution``).
    """
    g = grid_resolution
    if g < 2:
        raise ValueError("grid resolution must be at least 2")
    h = np.asarray(score, dtype=float)
    if h.shape != (space.size,):
        raise ValueError("the threshold set needs one score per outcome")
    counts = _grid_compositions(g, space.size)
    kept = counts[np.vecdot(counts, h) / g >= tau - 1e-12]
    if kept.size == 0:
        raise ValueError("no grid point reaches the threshold at this resolution")
    return CredalSet(space, tuple(Categorical(space, row / g) for row in kept))


# ---------------------------------------------------------------------------
# Gaming witness: mixtures that escape a non-convex regulator
# ---------------------------------------------------------------------------


#: rounds n of the naive regulator's value min{C * exp(n * min_i KL(Q||P_i)), R}
GAMING_HORIZON = 500


class GamingWitness(NamedTuple):
    weights: np.ndarray
    payoff_gap: float


def sequential_glr_value(
    points: list[Categorical], C: float, R: float, horizon: int
) -> Callable[[Categorical], float]:
    """Value function of a regulator that tests each point individually.

    The naive mechanism pays the capped generalized-likelihood-ratio license
    min{C * prod_t Q(z_t) / max_i prod_t P_i(z_t), R}.  Against an i.i.d.
    type Q its log grows at rate min_i KL(Q || P_i) per sample, so the
    horizon-n value is certified as min{C * exp(n * min_i KL(Q||P_i)), R}.
    It is obedient at each P_i (the rate is 0 there) but not on mixtures.
    """

    def value(q: Categorical) -> float:
        drift = min(kl_divergence(q, p) for p in points)
        if not np.isfinite(drift):
            return R
        return float(min(C * np.exp(min(horizon * drift, 700.0)), R))

    return value


def _weight_grid(k: int, resolution: float) -> np.ndarray:
    steps = round(1.0 / resolution)
    return _grid_compositions(steps, k) / steps


def _check_grid_resolution(resolution) -> None:
    """Reject a step the weight grid would not take: ``_weight_grid`` steps by 1 / round(1 / r)."""
    if isinstance(resolution, bool) or not isinstance(resolution, numbers.Real) \
            or not 0.0 < resolution <= 1.0 or abs(1.0 / resolution - round(1.0 / resolution)) > 1e-9:
        raise ValueError(f"grid_resolution must be 1/n for a whole number n >= 1, got {resolution!r}")


def maximize_over_mixtures(
    points: list[Categorical],
    value_fn: Callable[[Categorical], float],
    grid_resolution: float = 0.02,
) -> tuple[np.ndarray, float]:
    """The first weight-grid mixture of the points with the largest value, and that value.

    The grid steps the weights by ``grid_resolution``, 1/n for a whole
    number n, so it holds every point as a unit weight: a convex value
    function, an obedient LP mechanism's among them, peaks there over the
    hull.  A value that is not convex, such as the naive regulator's, may
    peak off the grid; any grid mixture that beats the fee still witnesses
    the gaming.  The points are stacked once; each mixture is ``w @ P``, the
    product :func:`evidence.mixture` forms, so the bits are the same.
    """
    _check_grid_resolution(grid_resolution)
    space = require_same_space(*points)
    P = np.stack([p.probs for p in points])
    grid = _weight_grid(len(points), grid_resolution)
    values = [value_fn(Categorical(space, w @ P)) for w in grid]
    best = int(np.argmax(values))  # the first grid point of the largest value
    return grid[best], float(values[best])


def strategic_mixture_best_response(
    base_models: list[Categorical],
    params,
    value_fn: Optional[Callable[[Categorical], float]] = None,
    grid_resolution: float = 0.02,
) -> tuple[np.ndarray, float]:
    """Best mixture of base models against a mechanism's value function.

    The first best point of :func:`maximize_over_mixtures`' weight grid.
    Defaults to the naive per-point sequential regulator (the gaming target of
    the simplex experiment); pass the credal mechanism's value function, e.g.
    ``lambda q: sup_value_over_obedient(q, credal, params).value``, to confirm
    that no mixture beats an obedient mechanism: the grid holds every base
    model, so that convex value reaches its maximum over the hull there.
    """
    if len(base_models) < 2:
        raise ValueError("strategic mixing needs at least two base models")
    fn = value_fn or sequential_glr_value(base_models, params.C, params.R, GAMING_HORIZON)
    return maximize_over_mixtures(base_models, fn, grid_resolution=grid_resolution)


def gaming_witness(
    points: list[Categorical],
    params,
    naive_license_builder: Optional[Callable[..., Callable[[Categorical], float]]] = None,
    grid_resolution: float = 0.02,
) -> Optional[GamingWitness]:
    """The best mixture of :func:`strategic_mixture_best_response`, when it beats the fee.

    Returns the best weights and the payoff excess over the entry fee when a
    profitable mixture exists, otherwise None (absence is a valid answer: for
    a single point, or coincident points, the hull adds nothing to game with).
    The builder takes the arguments of :func:`sequential_glr_value`.
    """
    from .licenses import participation_decision  # licenses imports this module

    _check_grid_resolution(grid_resolution)
    if len(points) < 2:
        return None
    builder = naive_license_builder or sequential_glr_value
    w, v = strategic_mixture_best_response(
        points, params, builder(points, params.C, params.R, GAMING_HORIZON), grid_resolution)
    if participation_decision(v, params):
        return GamingWitness(weights=w, payoff_gap=v - params.C)
    return None
