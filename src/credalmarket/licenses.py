"""Licenses, obedience audits, and optimal provider responses.

A license is a bounded payout vector over evidence outcomes.  A mechanism is
obedient when no distribution in the credal set earns more than the entry fee
in expectation; the risk-neutral best response is a linear program whose
optimum is an all-or-nothing gamble (equivalently a scaled Neyman-Pearson
test against a singleton), and the risk-averse (log-utility) best response is
a truncated likelihood ratio against the capped-KL projection of the
provider's type onto the credal set.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._linprog import solve_box_lp, solve_box_lps
from .credal import CredalSet, upper_expectation
from .evidence import (
    Categorical,
    EvidenceSpace,
    frozen_vector,
    json_number,
    json_object,
    log_ratio,
    ratio,
    require_same_space,
)

__all__ = [
    "BOUNDARY_BAND",
    "License",
    "MechanismParams",
    "OptimalLicenseResult",
    "is_obedient",
    "participation_decision",
    "sup_value_over_obedient",
    "sup_values_over_obedient",
    "neyman_pearson_license",
    "minimize_kappa",
    "minimize_kappas",
    "optimal_risk_averse_license",
    "optimal_risk_averse_licenses",
]

#: |sup_value - C| band of float residue around the fee: inside it, no gain is sure
BOUNDARY_BAND = 1e-9


@dataclass(frozen=True)
class MechanismParams:
    """Market entry fee C and market cap R, with 0 < C < R and R finite."""

    C: float
    R: float

    def __post_init__(self) -> None:
        for name in ("C", "R"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"mechanism parameter {name} must be a number, got {value!r}")
        # Floats, so integer values from a JSON config never give integer arrays.
        object.__setattr__(self, "C", float(self.C))
        object.__setattr__(self, "R", float(self.R))
        if not (0.0 < self.C < self.R < math.inf):
            raise ValueError("mechanism parameters need 0 < C < R < inf")

    @property
    def cap_ratio(self) -> float:
        return self.R / self.C

    @staticmethod
    def from_json(payload, what: str) -> "MechanismParams":
        """The ``params`` object of a config file: the numbers C and R, nothing else."""
        json_object(payload, ("C", "R"), what, required=("C", "R"))
        return MechanismParams(json_number(payload["C"], f"{what} field 'C'"),
                               json_number(payload["R"], f"{what} field 'R'"))


@dataclass(frozen=True, eq=False)
class License:
    """A payout vector over evidence outcomes, valued in [0, R]."""

    space: EvidenceSpace
    payout: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "payout", frozen_vector(self.payout, "payout", self.space))
        if np.any(self.payout < 0.0):
            raise ValueError("payouts must be non-negative")

    def to_json(self, params: MechanismParams) -> dict:
        return {
            "space": list(self.space.labels),
            "payout": self.payout.tolist(),
            "params": {"C": params.C, "R": params.R},
        }


@dataclass(frozen=True, eq=False)
class OptimalLicenseResult:
    """An optimal license with its value and optimizer diagnostics.

    ``projection`` is the credal-set member P* for the risk-averse response
    and None for the risk-neutral one.
    """

    license: License
    value: float
    projection: Optional[Categorical] = None
    converged: bool = True
    kappa_value: Optional[float] = None


def is_obedient(license: License, credal: CredalSet, params: MechanismParams) -> bool:
    """True iff no distribution in the set earns more than C + ``BOUNDARY_BAND`` from the license."""
    require_same_space(license, credal)
    return upper_expectation(credal, license.payout) - params.C <= BOUNDARY_BAND


def participation_decision(sup_value: float, params: MechanismParams) -> bool:
    """Enter the market iff the best attainable value beats the fee by more than float residue.

    The boundary ``sup_value == C`` belongs to exclusion, and so does every
    value within ``BOUNDARY_BAND`` of it: an LP value of C + 2e-15 is not a
    sure gain.
    """
    return sup_value - params.C > BOUNDARY_BAND


def _obedience_lp(credal: CredalSet, params: MechanismParams) -> tuple[np.ndarray, ...]:
    """(A, b, upper) of the obedient-license LP max E_Q[pi]: E_P[pi] <= C at
    each vertex P, 0 <= pi <= R.  Only the objective Q differs between types."""
    V = credal.vertex_matrix
    return V, np.full(V.shape[0], params.C), np.full(V.shape[1], params.R)


def sup_value_over_obedient(q: Categorical, credal: CredalSet,
                            params: MechanismParams) -> OptimalLicenseResult:
    """Risk-neutral best response: max_pi E_Q[pi] over all obedient licenses.

    The feasible region {0 <= pi <= R, E_P[pi] <= C for each vertex P} always
    contains pi = 0, and the optimizer sits at a vertex of the polytope.
    """
    require_same_space(q, credal)
    sol = solve_box_lp(q.probs, *_obedience_lp(credal, params))
    return OptimalLicenseResult(
        license=License(q.space, np.clip(sol.x, 0.0, params.R)),
        value=sol.value,
    )


def sup_values_over_obedient(qs: list[Categorical], credal: CredalSet,
                             params: MechanismParams) -> np.ndarray:
    """The values of :func:`sup_value_over_obedient` for many types, to the bit.

    The types' LPs share the constraint matrix and run in lock-step blocks
    on :func:`_linprog.solve_box_lps`.
    """
    space = require_same_space(credal, *qs)
    c = np.array([q.probs for q in qs]).reshape(len(qs), space.size)
    return solve_box_lps(c, *_obedience_lp(credal, params)).value


def neyman_pearson_license(q: Categorical, p: Categorical,
                           params: MechanismParams) -> License:
    """Closed-form risk-neutral optimum against a singleton null P.

    Outcomes are ranked by likelihood ratio Q/P (infinite where P=0 < Q, ties
    broken by ascending index) and paid R greedily until the P-budget C is
    spent; the boundary outcome gets the fractional payout that makes
    E_P[pi] = C exactly.
    """
    require_same_space(q, p)
    pp = p.probs
    order = np.lexsort((np.arange(q.space.size), -ratio(q.probs, pp)))
    payout = np.zeros(q.space.size)
    budget = params.C
    for z in order:
        cost = pp[z] * params.R
        if cost <= budget:
            payout[z] = params.R
            budget -= cost
        else:
            if budget > 0:
                payout[z] = params.R * (budget / cost)
                budget = 0.0
            break
    return License(q.space, payout)


def _project_rows_to_simplex(X: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex (sort-based)."""
    k = X.shape[1]
    u = np.sort(X, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    positive = u + (1.0 - css) / np.arange(1, k + 1) > 0
    rho = k - 1 - np.argmax(positive[:, ::-1], axis=1)  # last positive index
    theta = (1.0 - css[np.arange(X.shape[0]), rho]) / (rho + 1.0)
    return np.clip(X + theta[:, None], 0.0, None)


def _column_subset(X: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``X[..., mask]`` as a C-contiguous array.

    A fancy-indexed column subset comes back F-ordered, and ufuncs keep that
    layout.  BLAS then sums a strided row dot (``np.vecdot``, a stacked
    ``np.matmul``) in another order than the contiguous 1-D dot of a single
    row, so a batched kernel that must match the one-row path to the bit
    takes its column subsets here.
    """
    return np.ascontiguousarray(X[..., mask])


#: seed of :func:`minimize_kappa`'s random Dirichlet starts
KAPPA_SEED = 0
#: projected-gradient step length at which a :func:`minimize_kappa` start is stationary
KAPPA_GRAD_TOL = 1e-8
#: projected-gradient iterations per :func:`minimize_kappa` start
KAPPA_MAX_ITER = 500


def minimize_kappa(
    q: Categorical,
    credal: CredalSet,
    params: MechanismParams,
    n_starts: int = 8,
) -> tuple[np.ndarray, float, bool]:
    """Minimize kappa_Q over the credal set via multi-start projected gradient.

    The set is parameterized as P_w = sum_i w_i * vertex_i over the weight
    simplex.  kappa is not known to be convex in P, so the starts cover every
    vertex, the barycenter, and seeded random points; ties in the final value
    resolve to the lowest start index so results are deterministic.
    Returns (best weights, kappa value, converged flag); the flag is that of
    the returned start, False when it stopped at ``KAPPA_MAX_ITER``.

    This is the one-type view of :func:`minimize_kappas`, which runs the
    search for many types at once, each to the same bits.
    """
    W, values, converged = minimize_kappas([q], credal, params, n_starts)
    return W[0], float(values[0]), bool(converged[0])


def minimize_kappas(
    qs: list[Categorical],
    credal: CredalSet,
    params: MechanismParams,
    n_starts: int = 8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`minimize_kappa` for many types, one lock-step search per support pattern.

    Returns the best weights (one row per type), the kappa values and the
    converged flags, in the order of ``qs``, each type's to the bit of its
    one-type search.

    kappa sums over Q's support only, so the types are split by support
    pattern once, and each pattern's types run one search whose results are
    scattered back to their positions.  In a search every (type, start) pair
    is a row of one weight matrix, and the only per-row copy of Q is on the
    support.  All rows advance in lock-step: one batched gradient,
    projection and kappa evaluation per iteration, and a backtracking line
    search over the rows still searching.  A row leaves when it is
    stationary or when 40 halvings find no decrease.  The line search takes
    the halvings in chunks: halving 0 alone, then from halving h the next h
    (1, 2-3, 4-7, ..., capped at halving 39 and so that a chunk stacks at
    most as many rows as one type has starts, unless one halving already
    does).  One projection and one kappa evaluation cover every searching
    row at every halving of the chunk, and a row moves to its first
    improving halving there.  Each row takes exactly the steps, and gets
    exactly the bits, that the start would get alone: the projection and
    P = wV (one gemv per row) work row by row, kappa and the gradient work
    on the support columns, and every dot product runs over C-contiguous
    rows (see :func:`_column_subset`).
    """
    require_same_space(credal, *qs)
    V = credal.vertex_matrix
    k, m = V.shape
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(KAPPA_SEED)))
    W0 = np.empty((max(n_starts, k + 1), k))  # every type's starts
    W0[:k] = np.eye(k)
    W0[k] = 1.0 / k
    for i in range(k + 1, W0.shape[0]):
        W0[i] = rng.dirichlet(np.ones(k))
    Q = np.array([q.probs for q in qs]).reshape(len(qs), m)
    W, values, converged = np.empty((len(qs), k)), np.empty(len(qs)), np.empty(len(qs), bool)
    patterns, pattern_of = np.unique(Q > 0.0, axis=0, return_inverse=True)
    for j, support in enumerate(patterns):
        types = np.flatnonzero(pattern_of == j)
        W[types], values[types], converged[types] = _kappa_search(
            Q[types], support, V, W0, math.log(params.cap_ratio))
    return W, values, converged


def _kappa_search(Q: np.ndarray, support: np.ndarray, V: np.ndarray, W0: np.ndarray,
                  log_cap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`minimize_kappas`' search for the types ``Q`` of one ``support``, from starts ``W0``."""
    (k, m), n = V.shape, W0.shape[0]  # n starts per type
    VS = _column_subset(V, support)
    QS = np.repeat(_column_subset(Q, support), n, axis=0)

    def probs_of(W: np.ndarray) -> np.ndarray:
        return np.matmul(W[:, None, :], V)[:, 0, :]

    def kappa_of(P: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """kappa of ``rows`` at P, whose second-last axis runs over them."""
        q = QS[rows]
        return np.vecdot(np.minimum(log_ratio(q, _column_subset(P, support)), log_cap), q)

    def row_gradients(PS: np.ndarray, q: np.ndarray, mask: np.ndarray) -> np.ndarray:
        X = _column_subset(q, mask) / _column_subset(PS, mask)
        return -np.matmul(VS[:, mask], X[:, :, None])[:, :, 0]

    def gradients(P: np.ndarray, rows: np.ndarray) -> np.ndarray:
        q, PS = QS[rows], _column_subset(P, support)
        # P = 0 < Q gives +inf, so the ratio test also drops vanishing P.
        active = log_ratio(q, PS) < log_cap
        mask = active[0]
        if (active == mask).all():  # one mask for every row: no grouping
            return row_gradients(PS, q, mask) if mask.any() else np.zeros((P.shape[0], k))
        # Group rows by mask.  One 1-D key per row, the mask's packed bytes,
        # sorts 2-3x faster than np.unique(axis=0) over the bool rows.
        packed = np.packbits(active, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        G = np.zeros((P.shape[0], k))
        for j, row in enumerate(first):
            mask = active[row]
            if mask.any():
                sel = np.flatnonzero(group == j)
                G[sel] = row_gradients(PS[sel], q[sel], mask)
        return G

    W = np.tile(W0, (Q.shape[0], 1))
    P = probs_of(W)
    live = np.arange(W.shape[0])
    vals = kappa_of(P, live)
    converged = np.zeros(W.shape[0], dtype=bool)
    for _ in range(KAPPA_MAX_ITER):
        if live.size == 0:
            break
        W_live, G = W[live], gradients(P[live], live)
        # Projected-gradient stationarity on the simplex.  The projected point
        # is also the line search's full step: W - 1.0 * G is bitwise W - G.
        W_new = _project_rows_to_simplex(W_live - G)
        D = W_new - W_live
        stationary = np.sqrt(np.vecdot(D, D)) <= KAPPA_GRAD_TOL
        converged[live[stationary]] = True
        live, G, W_new = live[~stationary], G[~stationary], W_new[~stationary]
        searching, halving, chunk = live, 0, 1
        while searching.size and halving < 40:
            if halving:
                # The next ``chunk`` halvings stacked chunk-major; 2**-h is exact.
                chunk = min(halving, 40 - halving, max(1, n // searching.size))
                etas = np.ldexp(1.0, -np.arange(halving, halving + chunk))
                W_new = _project_rows_to_simplex(
                    (W[searching] - etas[:, None, None] * G).reshape(-1, k))
            P_new = probs_of(W_new)
            val_new = kappa_of(P_new.reshape(chunk, -1, m), searching)
            better = val_new < vals[searching] - 1e-14
            # Each row moves to its first improving halving in the chunk.
            found = better.any(axis=0)
            pick = better.argmax(axis=0)[found] * searching.size + np.flatnonzero(found)
            moved = searching[found]
            W[moved], P[moved], vals[moved] = W_new[pick], P_new[pick], val_new.reshape(-1)[pick]
            searching, G = searching[~found], G[~found]
            halving += chunk
        # A row that no step improves is stationary to line-search precision.
        converged[searching] = True
        live = live[~np.isin(live, searching)]

    # Per type, the lowest start index within 1e-15 of the least value.
    best = np.empty(Q.shape[0], dtype=np.intp)
    for t, type_vals in enumerate(vals.reshape(-1, n).tolist()):
        best_idx, best_val = n - 1, np.inf
        for idx, val in enumerate(type_vals):
            if val < best_val - 1e-15:
                best_idx, best_val = idx, val
        best[t] = t * n + best_idx
    return W[best], vals[best], converged[best]


def _truncated_payout(lr: np.ndarray, gamma: float, R: float) -> np.ndarray:
    """Truncated likelihood-ratio payout min{gamma * lr, R}: R where lr is +inf."""
    with np.errstate(invalid="ignore"):  # 0 * inf when gamma = 0
        return np.where(lr < np.inf, np.minimum(gamma * lr, R), R)


def _budget_exact_scale(lr: np.ndarray, V: np.ndarray, params: MechanismParams) -> float:
    """Largest gamma with max_P E_P[min{gamma * lr, R}] <= C for a ratio ``lr`` = Q/P*.

    The truncated likelihood-ratio license is only budget-tight when the cap
    never binds; scaling the uncapped branch keeps the mechanism's obedience
    constraint exactly active whenever some supported outcome stays below R.
    With no cap active, gamma equals C and the plain formula is recovered.
    """
    finite = (lr > 0) & (lr < np.inf)

    def sup_expectation(gamma: float) -> float:
        return float(np.max(V @ _truncated_payout(lr, gamma, params.R)))

    if not np.any(finite):
        return params.C
    gamma_all_capped = params.R / float(np.min(lr[finite]))
    if sup_expectation(gamma_all_capped) <= params.C:
        return gamma_all_capped  # every supported payout at R and still obedient
    lo, hi = 0.0, gamma_all_capped
    for _ in range(100):  # sup_expectation is monotone piecewise-linear in gamma
        mid = 0.5 * (lo + hi)
        if sup_expectation(mid) <= params.C:
            lo = mid
        else:
            hi = mid
    return lo


def optimal_risk_averse_license(
    q: Categorical, credal: CredalSet, params: MechanismParams
) -> OptimalLicenseResult:
    """Log-utility best response: truncated likelihood ratio against P*.

    P* minimizes kappa_Q over the credal set and the license is
    pi*(z) = min{gamma * Q(z)/P*(z), R}, with pi* = 0 where Q vanishes and
    pi* = R where P* vanishes on Q's support.  The multiplier gamma keeps the
    obedience budget exactly spent: whenever the cap is inactive everywhere
    on Q's support it equals C, recovering the plain truncated-ratio formula;
    with an active cap the plain formula can leave budget slack or even
    overcharge other credal vertices, and the scaled form restores
    sup_P E_P[pi*] = C.  When the optimizer exhausts its iteration budget the
    best point found is returned with converged=False, and so is a license
    that is not obedient (to within ``BOUNDARY_BAND``): a P* with
    no mass on a Q-supported outcome that another vertex charges pays R there
    for every gamma.

    This is the one-type view of :func:`optimal_risk_averse_licenses`.
    """
    return optimal_risk_averse_licenses([q], credal, params)[0]


def optimal_risk_averse_licenses(
    qs: list[Categorical], credal: CredalSet, params: MechanismParams
) -> list[OptimalLicenseResult]:
    """:func:`optimal_risk_averse_license` of each type, to the bit.

    One :func:`minimize_kappas` call finds every type's P*.
    """
    W, kappa_vals, converged = minimize_kappas(qs, credal, params)
    V = credal.vertex_matrix
    results = []
    for q, w, kappa_val, ok in zip(qs, W, kappa_vals.tolist(), converged.tolist()):
        p_star = w @ V
        lr = ratio(q.probs, p_star)
        gamma = _budget_exact_scale(lr, V, params)
        lic = License(q.space, _truncated_payout(lr, gamma, params.R))
        # Renormalize the projection in case of simplex round-off.
        p_star = np.clip(p_star, 0.0, None)
        p_star = p_star / p_star.sum()
        results.append(OptimalLicenseResult(
            license=lic,
            value=q.expectation(lic.payout),
            projection=Categorical(q.space, p_star),
            converged=ok and is_obedient(lic, credal, params),
            kappa_value=kappa_val,
        ))
    return results
