"""Provider populations, requirement evaluation, and market simulation.

A market is perfect when every provider's participation decision matches its
compliance status.  Participation is :func:`licenses.participation_decision`,
which puts the boundary band around sup_value = C in exclusion; providers
within the band are also flagged indeterminate and left out of the
perfect-market verdict, since float noise must not decide it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Optional

import numpy as np

from .betting import BettingScore, KellyConfig, _plugin_blocks
from .credal import MEMBERSHIP_TOL, CredalSet, uncovered_masses
from .credal import strategic_mixture_best_response  # re-exported: its callers import it from here
from .evidence import Categorical, draw_outcomes, frozen_vector, require_same_space, write_csv, write_json
from .licenses import (
    BOUNDARY_BAND,
    MechanismParams,
    optimal_risk_averse_licenses,
    participation_decision,
    sup_values_over_obedient,
)

__all__ = [
    "Requirement",
    "Provider",
    "ProviderRow",
    "MarketReport",
    "evaluate_requirement",
    "simulate_market",
    "strategic_mixture_best_response",
]

#: seeded replicates behind each provider's betting-mechanism value
BETTING_REPLICATES = 30

Classification = Literal["true-in", "true-out", "false-in", "false-out"]


@dataclass(frozen=True, eq=False)
class Requirement:
    """Compliance rule: either E_P[metric] > tau, or exclusion from a credal set."""

    kind: Literal["threshold", "credal"]
    metric: Optional[np.ndarray] = None
    tau: Optional[float] = None
    credal: Optional[CredalSet] = None

    def __post_init__(self) -> None:
        if self.kind == "threshold":
            if self.metric is None or self.tau is None or self.credal is not None:
                raise ValueError("threshold requirement needs metric and tau only")
            object.__setattr__(self, "metric", frozen_vector(self.metric, "threshold metric"))
            if not np.isfinite(self.tau):
                raise ValueError("threshold tau must be finite")
        elif self.kind == "credal":
            if self.credal is None or self.metric is not None or self.tau is not None:
                raise ValueError("credal requirement needs a credal set only")
        else:
            raise ValueError(f"unknown requirement kind {self.kind!r}")

    def complies(self, types: list[Categorical]) -> np.ndarray:
        """Whether each type complies: E_Q[metric] > tau, or Q outside the credal set
        (more than ``MEMBERSHIP_TOL`` uncovered, as in :func:`credal.membership`)."""
        if self.kind == "threshold":
            return np.array([q.expectation(self.metric) > self.tau for q in types], dtype=bool)
        return uncovered_masses(types, self.credal) > MEMBERSHIP_TOL


@dataclass(frozen=True, eq=False)
class Provider:
    """A market participant: an id and its evidence distribution (type)."""

    id: str
    q: Categorical


@dataclass(frozen=True)
class ProviderRow:
    provider_id: str
    compliant: bool
    sup_value: float
    participated: bool
    classification: Classification
    indeterminate: bool


@dataclass(frozen=True)
class MarketReport:
    """Per-provider rows; ``nonconverged`` names the providers whose risk-averse
    solve hit its iteration cap or gave a license that is not obedient."""

    rows: tuple[ProviderRow, ...]
    perfect: bool
    nonconverged: tuple[str, ...] = ()

    def counts(self) -> dict[str, int]:
        out = {"true-in": 0, "true-out": 0, "false-in": 0, "false-out": 0}
        for row in self.rows:
            out[row.classification] += 1
        return out

    def to_csv(self, path: str | Path) -> None:
        rows = self.rows
        write_csv(path, ("provider_id", "compliant", "sup_value", "participated", "classification"),
                  [([r.provider_id for r in rows], [int(r.compliant) for r in rows],
                    [r.sup_value for r in rows], [int(r.participated) for r in rows],
                    [r.classification for r in rows])])

    def save_summary(self, path: str | Path) -> None:
        write_json(path, {"perfect": self.perfect, "counts": self.counts(),
                          "indeterminate": sum(r.indeterminate for r in self.rows)})


def evaluate_requirement(req: Requirement, q: Categorical) -> bool:
    """One type's :meth:`Requirement.complies`."""
    return bool(req.complies([q])[0])


def _classify(compliant: bool, participated: bool) -> Classification:
    """true/false marks whether the participation decision was the right one."""
    if participated:
        return "true-in" if compliant else "false-in"
    return "false-out" if compliant else "true-out"


def _betting_sup_values(providers: list[Provider], req: Requirement, params: MechanismParams,
                        n: int, seed: int) -> list[float]:
    """Mean final betting license of each provider over ``BETTING_REPLICATES`` seeded replicates.

    Rows are solved independently, so every provider's replicates run as the
    rows of one batch of cold-start paths, taken block by block, of which only
    the last round's licenses are kept.
    """
    space = require_same_space(*(pr.q for pr in providers))
    score = BettingScore.from_metric(space, req.metric, req.tau)
    z = np.vstack([draw_outcomes(pr.q, BETTING_REPLICATES, n, seed) for pr in providers])
    for *_, licenses in _plugin_blocks(z, score, KellyConfig(), params):
        finals = licenses[:, -1]  # the last block's is the final round
    return [float(np.mean(row)) for row in finals.reshape(len(providers), BETTING_REPLICATES)]


def simulate_market(
    providers: list[Provider],
    req: Requirement,
    credal: CredalSet,
    params: MechanismParams,
    mechanism: str = "optimal-LP",
    n: int = 500,
    seed: int = 0,
) -> MarketReport:
    """Evaluate each provider's best response, participation, and classification.

    ``mechanism`` is one of "optimal-LP", "risk-averse", or "betting"; the
    betting mechanism needs a threshold requirement (its score must be a
    per-outcome statistic) and decides participation ex ante via the Monte
    Carlo mean final license over ``BETTING_REPLICATES`` seeded replicates.
    Every mechanism solves the whole population at once: the optimal-LP
    values in lock-step LP blocks, the risk-averse ones in one kappa search
    whose rows span every provider's starts, the betting ones as the rows of
    one batch of cold-start paths, whose Kelly solves run a block of rounds
    per :func:`betting.kelly_bets` call.  Compliance is evaluated before any of them, so an
    invalid requirement raises before any solve.
    """
    if mechanism not in ("optimal-LP", "risk-averse", "betting"):
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if mechanism == "betting" and req.kind != "threshold":
        raise ValueError("the betting mechanism needs a threshold requirement")
    if mechanism == "betting" and n < 1:
        raise ValueError("need at least one betting round")
    ordered = sorted(providers, key=lambda pr: pr.id)
    for first, second in zip(ordered, ordered[1:]):
        if first.id == second.id:
            raise ValueError(f"provider id {first.id!r} is not unique")
    types = [pr.q for pr in ordered]
    # Compliance first: an input error in the requirement raises before any solve.
    compliance = req.complies(types).tolist()
    nonconverged: tuple[str, ...] = ()
    if mechanism == "optimal-LP":
        sup_values = sup_values_over_obedient(types, credal, params).tolist()
    elif mechanism == "risk-averse":
        results = optimal_risk_averse_licenses(types, credal, params)
        sup_values = [r.value for r in results]
        nonconverged = tuple(pr.id for pr, r in zip(ordered, results) if not r.converged)
    elif ordered:
        sup_values = _betting_sup_values(ordered, req, params, n=n, seed=seed)
    else:
        sup_values = []
    rows = []
    for provider, sup_value, compliant in zip(ordered, sup_values, compliance):
        participated = participation_decision(sup_value, params)
        rows.append(
            ProviderRow(
                provider_id=provider.id,
                compliant=compliant,
                sup_value=sup_value,
                participated=participated,
                classification=_classify(compliant, participated),
                indeterminate=abs(sup_value - params.C) <= BOUNDARY_BAND,
            )
        )
    perfect = all(r.participated == r.compliant for r in rows if not r.indeterminate)
    return MarketReport(rows=tuple(rows), perfect=perfect, nonconverged=nonconverged)
