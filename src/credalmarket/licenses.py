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
    "kappa",
    "minimize_kappa",
    "optimal_risk_averse_license",
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
        pay = np.asarray(self.payout, dtype=float)
        if pay.shape != (self.space.size,):
            raise ValueError("payout length does not match the evidence space")
        if np.any(pay < 0.0) or not np.all(np.isfinite(pay)):
            raise ValueError("payouts must be finite and non-negative")
        pay = pay.copy()
        pay.flags.writeable = False
        object.__setattr__(self, "payout", pay)

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


def is_obedient(license: License, credal: CredalSet, params: MechanismParams,
                tol: float = BOUNDARY_BAND) -> bool:
    """True iff no distribution in the set earns more than C + ``tol`` from the license."""
    require_same_space(license, credal)
    return upper_expectation(credal, license.payout) - params.C <= tol


def participation_decision(sup_value: float, params: MechanismParams) -> bool:
    """Enter the market iff the best attainable value beats the fee by more than float residue.

    The boundary ``sup_value == C`` belongs to exclusion, and so does every
    value within ``BOUNDARY_BAND`` of it: an LP value of C + 2e-15 is not a
    sure gain.
    """
    return sup_value - params.C > BOUNDARY_BAND


def sup_value_over_obedient(q: Categorical, credal: CredalSet,
                            params: MechanismParams) -> OptimalLicenseResult:
    """Risk-neutral best response: max_pi E_Q[pi] over all obedient licenses.

    The feasible region {0 <= pi <= R, E_P[pi] <= C for each vertex P} always
    contains pi = 0, and the optimizer sits at a vertex of the polytope.
    """
    require_same_space(q, credal)
    V = credal.vertex_matrix
    k = V.shape[0]
    sol = solve_box_lp(
        c=q.probs,
        A=V,
        b=np.full(k, params.C),
        upper=np.full(q.space.size, params.R),
    )
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
    V = credal.vertex_matrix
    c = np.array([q.probs for q in qs]).reshape(len(qs), space.size)
    return solve_box_lps(c, V, np.full(V.shape[0], params.C), np.full(space.size, params.R)).value


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


def kappa(q: Categorical, p: Categorical, params: MechanismParams) -> float:
    """Capped-KL functional kappa_Q(P) = E_Q[min{ln(Q/P), ln(R/C)}].

    Algebraically equal to KL(Q||P) minus the tail correction over the region
    where the likelihood ratio exceeds R/C, but stays finite even when P
    vanishes on Q's support.
    """
    require_same_space(q, p)
    support = q.probs > 0.0
    qs = q.probs[support]
    return float(qs @ np.minimum(log_ratio(qs, p.probs[support]), math.log(params.cap_ratio)))


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
    """``X[:, mask]`` as a C-contiguous array.

    A fancy-indexed column subset comes back F-ordered, and ufuncs keep that
    layout.  BLAS then sums a strided row dot (``np.vecdot``, a stacked
    ``np.matmul``) in another order than the contiguous 1-D dot of a single
    row, so a batched kernel that must match the one-row path to the bit
    takes its column subsets here.
    """
    return np.ascontiguousarray(X[:, mask])


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

    All starts advance in lock-step as the rows of one weight matrix: one
    batched gradient, projection and kappa evaluation per iteration, and a
    backtracking line search over the rows still searching.  A row leaves
    when it is stationary or when 40 halvings find no decrease.  Each row
    takes exactly the steps, and gets exactly the bits, that the start
    would get alone: P = wV is one gemv per row, and every dot product runs
    over C-contiguous rows (see :func:`_column_subset`).
    """
    V = credal.vertex_matrix
    k = V.shape[0]
    qp = q.probs
    support = qp > 0.0
    qs = qp[support]
    log_cap = math.log(params.cap_ratio)

    def probs_of(W: np.ndarray) -> np.ndarray:
        return np.matmul(W[:, None, :], V)[:, 0, :]

    def kappa_of(P: np.ndarray) -> np.ndarray:
        return np.vecdot(np.minimum(log_ratio(qs, _column_subset(P, support)), log_cap), qs)

    def row_gradients(P: np.ndarray, mask: np.ndarray) -> np.ndarray:
        X = qp[mask] / _column_subset(P, mask)
        return -np.matmul(V[:, mask], X[:, :, None])[:, :, 0]

    def gradients(P: np.ndarray) -> np.ndarray:
        # P = 0 < Q gives +inf, so the ratio test also drops vanishing P.
        active = support & (log_ratio(qp, P) < log_cap)
        mask = active[0]
        if (active == mask).all():  # one mask for every row: no grouping
            return row_gradients(P, mask) if mask.any() else np.zeros((P.shape[0], k))
        # Group rows by mask.  One 1-D key per row, the mask's packed bytes,
        # sorts 2-3x faster than np.unique(axis=0) over the bool rows.
        packed = np.packbits(active, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        G = np.zeros((P.shape[0], k))
        for j, row in enumerate(first):
            mask = active[row]
            if mask.any():
                rows = np.flatnonzero(group == j)
                G[rows] = row_gradients(P[rows], mask)
        return G

    if k == 1:
        return np.ones(1), float(kappa_of(V)[0]), True

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(KAPPA_SEED)))
    W = np.empty((max(n_starts, k + 1), k))
    W[:k] = np.eye(k)
    W[k] = 1.0 / k
    for i in range(k + 1, W.shape[0]):
        W[i] = rng.dirichlet(np.ones(k))

    P = probs_of(W)
    vals = kappa_of(P)
    converged = np.zeros(W.shape[0], dtype=bool)
    live = np.arange(W.shape[0])
    for _ in range(KAPPA_MAX_ITER):
        if live.size == 0:
            break
        W_live, G = W[live], gradients(P[live])
        # Projected-gradient stationarity on the simplex.  The projected point
        # is also the line search's full step: W - 1.0 * G is bitwise W - G.
        W_new = _project_rows_to_simplex(W_live - G)
        D = W_new - W_live
        stationary = np.sqrt(np.vecdot(D, D)) <= KAPPA_GRAD_TOL
        converged[live[stationary]] = True
        live, G, W_new = live[~stationary], G[~stationary], W_new[~stationary]
        searching, eta = live, 1.0
        for halving in range(40):
            if searching.size == 0:
                break
            if halving:
                W_new = _project_rows_to_simplex(W[searching] - eta * G)
            P_new = probs_of(W_new)
            val_new = kappa_of(P_new)
            better = val_new < vals[searching] - 1e-14
            moved = searching[better]
            W[moved], P[moved], vals[moved] = W_new[better], P_new[better], val_new[better]
            searching, G = searching[~better], G[~better]
            eta *= 0.5
        # A row that no step improves is stationary to line-search precision.
        converged[searching] = True
        live = live[~np.isin(live, searching)]

    best_idx, best_val = -1, np.inf
    for idx, val in enumerate(vals.tolist()):
        if val < best_val - 1e-15:
            best_idx, best_val = idx, val
    return W[best_idx].copy(), best_val, bool(converged[best_idx])


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
    that is not obedient (to ``is_obedient``'s default tolerance): a P* with
    no mass on a Q-supported outcome that another vertex charges pays R there
    for every gamma.
    """
    require_same_space(q, credal)
    w, kappa_val, converged = minimize_kappa(q, credal, params)
    p_star = w @ credal.vertex_matrix
    lr = ratio(q.probs, p_star)
    gamma = _budget_exact_scale(lr, credal.vertex_matrix, params)
    lic = License(q.space, _truncated_payout(lr, gamma, params.R))
    # Renormalize the projection in case of simplex round-off.
    p_star = np.clip(p_star, 0.0, None)
    p_star = p_star / p_star.sum()
    return OptimalLicenseResult(
        license=lic,
        value=q.expectation(lic.payout),
        projection=Categorical(q.space, p_star),
        converged=converged and is_obedient(lic, credal, params),
        kappa_value=kappa_val,
    )
