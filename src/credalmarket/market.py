"""Provider populations, requirement evaluation, and market simulation.

A market is perfect when every provider's participation decision matches its
compliance status.  Participation is :func:`licenses.participation_decision`,
which puts the boundary band around sup_value = C in exclusion; providers
within the band are also flagged indeterminate and left out of the
perfect-market verdict, since float noise must not decide it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Literal, Optional

import numpy as np

from .betting import BettingScore, KellyConfig, plugin_paths
from .credal import (
    GAMING_HORIZON,
    MEMBERSHIP_TOL,
    CredalSet,
    maximize_over_mixtures,
    membership,
    sequential_glr_value,
    uncovered_masses,
)
from .evidence import Categorical, draw_outcomes, require_same_space
from .licenses import (
    BOUNDARY_BAND,
    MechanismParams,
    optimal_risk_averse_license,
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
            m = np.asarray(self.metric, dtype=float)
            if not (np.all(np.isfinite(m)) and np.isfinite(self.tau)):
                raise ValueError("threshold metric and tau must be finite")
            object.__setattr__(self, "metric", m)
        elif self.kind == "credal":
            if self.credal is None or self.metric is not None or self.tau is not None:
                raise ValueError("credal requirement needs a credal set only")
        else:
            raise ValueError(f"unknown requirement kind {self.kind!r}")


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
    rows: tuple[ProviderRow, ...]
    perfect: bool

    def counts(self) -> dict[str, int]:
        out = {"true-in": 0, "true-out": 0, "false-in": 0, "false-out": 0}
        for row in self.rows:
            out[row.classification] += 1
        return out

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["provider_id", "compliant", "sup_value", "participated", "classification"])
            for r in self.rows:
                writer.writerow(
                    [r.provider_id, int(r.compliant), repr(r.sup_value), int(r.participated), r.classification]
                )

    def summary_json(self) -> dict:
        return {
            "perfect": self.perfect,
            "counts": self.counts(),
            "indeterminate": sum(r.indeterminate for r in self.rows),
        }

    def save_summary(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.summary_json(), indent=2) + "\n")


def evaluate_requirement(req: Requirement, q: Categorical) -> bool:
    """True iff the type complies: E_Q[h] > tau, or Q outside the credal set."""
    if req.kind == "threshold":
        return q.expectation(req.metric) > req.tau
    return not membership(q, req.credal).is_member


def _classify(compliant: bool, participated: bool) -> Classification:
    """true/false marks whether the participation decision was the right one."""
    if participated:
        return "true-in" if compliant else "false-in"
    return "false-out" if compliant else "true-out"


def _betting_sup_values(
    providers: list[Provider],
    req: Requirement,
    params: MechanismParams,
    n: int,
    seed: int,
    replicates: int,
    cfg: KellyConfig,
) -> list[float]:
    """Mean final betting license of each provider over its seeded replicates.

    Rows are solved independently, so every provider's replicates run as the
    rows of one :func:`plugin_paths` call.
    """
    space = require_same_space(*(pr.q for pr in providers))
    score = BettingScore.from_metric(space, req.metric, req.tau)
    z = np.vstack([draw_outcomes(pr.q, replicates, n, seed) for pr in providers])
    finals = plugin_paths(z, score, cfg, params)[2][:, -1]
    return [float(np.mean(row)) for row in finals.reshape(len(providers), replicates)]


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
    if mechanism == "optimal-LP":
        sup_values = sup_values_over_obedient(types, credal, params).tolist()
    elif mechanism == "risk-averse":
        sup_values = [optimal_risk_averse_license(q, credal, params).value for q in types]
    elif ordered:
        sup_values = _betting_sup_values(ordered, req, params, n=n, seed=seed,
                                         replicates=BETTING_REPLICATES, cfg=KellyConfig())
    else:
        sup_values = []
    if req.kind == "credal":
        compliance = (uncovered_masses(types, req.credal) > MEMBERSHIP_TOL).tolist()
    else:
        compliance = [evaluate_requirement(req, q) for q in types]
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
    return MarketReport(rows=tuple(rows), perfect=perfect)


def strategic_mixture_best_response(
    base_models: list[Categorical],
    params: MechanismParams,
    value_fn: Optional[Callable[[Categorical], float]] = None,
    grid_resolution: float = 0.02,
) -> tuple[np.ndarray, float]:
    """Best mixture of base models against a mechanism's value function.

    Defaults to the naive per-point sequential regulator (the gaming target of
    the simplex experiment); pass the credal mechanism's value function, e.g.
    ``lambda q: sup_value_over_obedient(q, credal, params).value``, to confirm
    that no mixture beats an obedient mechanism.
    """
    if len(base_models) < 2:
        raise ValueError("strategic mixing needs at least two base models")
    fn = value_fn or sequential_glr_value(base_models, params.C, params.R, GAMING_HORIZON)
    return maximize_over_mixtures(base_models, fn, grid_resolution=grid_resolution)
