"""Desk-scale experiment runners emitting deterministic CSV tables.

Four scenarios:

* ``simplex_gaming`` - a strategic mixture of three prohibited distributions
  games a naive per-point regulator while the credal regulator holds.
* ``fairness`` - demographic-parity regulation run both as an implicit
  betting license on paired subgroup draws and as an explicit cumulative
  likelihood-ratio license against the parity credal set.
* ``chi2_strategic`` - power and participation curves for a likelihood-ratio
  test of effective model dimension, at a fixed fee/cap ratio.
* ``synthetic_spurious`` - cumulative licenses for declared compliant and
  non-compliant surrogate evidence distributions against a hull of a
  spurious-feature model and a random predictor.  The surrogates stand in for
  neural-model outputs that are out of scope here; they are config defaults,
  not measured data.

Every runner is deterministic given (config, seed): rerunning writes
byte-identical CSV, and each CSV carries its config hash and seed in a
leading comment line.
"""

from __future__ import annotations

import concurrent.futures
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat
from pathlib import Path
from typing import ClassVar, Optional, get_args, get_type_hints

import numpy as np

from .betting import BettingScore, KellyConfig, _mean_se, _smoothed, plugin_paths
from .credal import CredalSet, approximate_constraint_set
from .evidence import (
    Categorical,
    EvidenceSpace,
    json_digest,
    json_integer,
    json_number,
    json_numbers,
    json_object,
    log_ratio,
    ratio,
    spawn_seeds,
    write_csv,
)
from .evidence import draw_outcomes as _draw_outcomes  # the name perfbench traces, tests patch
from .licenses import MechanismParams, _truncated_payout, minimize_kappa

__all__ = [
    "ResultTable",
    "SimplexGamingConfig",
    "FairnessConfig",
    "Chi2Config",
    "SpuriousConfig",
    "run_simplex_gaming",
    "run_fairness",
    "run_chi2_strategic",
    "run_synthetic_spurious",
    "run_scenario",
    "load_config",
    "SCENARIOS",
]


@dataclass(frozen=True)
class ResultTable:
    """A rectangular result with provenance: scenario, seed, config hash."""

    scenario: str
    seed: int
    config_hash: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    headline: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("result table rows must match the column schema")

    @classmethod
    def of(cls, cfg, columns: tuple[str, ...], rows, headline: dict[str, float]) -> "ResultTable":
        """A run's table, stamped with the scenario, seed and config hash of ``cfg``."""
        return cls(cfg.scenario, cfg.seed, json_digest(asdict(cfg)), columns, tuple(rows), headline)

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, self.columns, self.rows,
                  comment=f"scenario={self.scenario} seed={self.seed} config_hash={self.config_hash}")

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows])


def _capped_exp(log_values: np.ndarray, cap: float) -> np.ndarray:
    return np.exp(np.minimum(log_values, math.log(cap)))


@contextmanager
def _naming_field(cfg, name: str):
    """Re-raise a ValueError of the block as one naming config field ``name``."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{cfg.scenario} config field {name!r}: {err}") from err


def _config_distribution(cfg, name: str, space: EvidenceSpace) -> Categorical:
    """The distribution in config field ``name``; an invalid one is a ValueError naming the field."""
    with _naming_field(cfg, name):
        return Categorical(space, getattr(cfg, name))


def _check_burn_in(cfg) -> None:
    """A burn-in must leave at least one step for the cumulative license to accumulate."""
    if cfg.burn_in >= cfg.n:
        raise ValueError(f"{cfg.scenario} config field 'burn_in' must be below n = {cfg.n}, "
                         f"got {cfg.burn_in}")


# ---------------------------------------------------------------------------
# Simplex gaming (three prohibited points vs their hull)
# ---------------------------------------------------------------------------

SIMPLEX_POINTS = (
    (0.35, 0.35, 0.30),
    (0.35, 0.30, 0.35),
    (0.30, 0.35, 0.35),
)


@dataclass(frozen=True)
class SimplexGamingConfig:
    scenario: str = "simplex_gaming"
    params: MechanismParams = MechanismParams(C=15.0, R=250.0)
    runs: int = 30
    n: int = 500
    seed: int = 7
    provider_q: Optional[tuple[float, ...]] = None  # defaults to the uniform mixture

    #: counts that must be at least 1 (a mean over no runs is NaN)
    POSITIVE: ClassVar[tuple[str, ...]] = ("runs",)


def _empirical_loglik(z: np.ndarray, m: int) -> np.ndarray:
    """Running maximized log-likelihood sum_z k_z(t) * ln(k_z(t)/t) per run."""
    counts = np.cumsum(z[:, :, None] == np.arange(m), axis=1, dtype=float)
    t = np.arange(1, z.shape[1] + 1, dtype=float)[None, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, counts * np.log(np.where(counts > 0, counts / t, 1.0)), 0.0)
    return terms.sum(axis=2)


def run_simplex_gaming(cfg: SimplexGamingConfig) -> ResultTable:
    """Mean license trajectories of a naive and a credal regulator.

    The naive regulator pays the capped generalized likelihood ratio of the
    evidence against the prohibited points tested individually: the maximized
    (empirical) likelihood over the GLR's free alternative divided by the
    best-fitting single P_i, scaled by C and capped at R.  The credal
    regulator pays the cumulative truncated likelihood ratio against the
    capped-KL projection onto the hull of the same points.
    """
    space = EvidenceSpace.of_size(3)
    points = [Categorical(space, p) for p in SIMPLEX_POINTS]
    hull = CredalSet(space, tuple(points))
    q = (_config_distribution(cfg, "provider_q", space) if cfg.provider_q
         else Categorical(space, np.mean(SIMPLEX_POINTS, axis=0)))
    z = _draw_outcomes(q, cfg.runs, cfg.n, cfg.seed)
    log_num = _empirical_loglik(z, space.size)
    log_points = np.stack([np.log(p.probs)[z].cumsum(axis=1) for p in points])
    naive_log = math.log(cfg.params.C) + log_num - log_points.max(axis=0)

    naive_mean, naive_se = _mean_se(_capped_exp(naive_log, cfg.params.R))
    _, credal_mean, credal_se = _explicit_route(z, q, hull, cfg.params, 0)
    rows = zip(range(1, cfg.n + 1), naive_mean.tolist(), naive_se.tolist(),
               credal_mean.tolist(), credal_se.tolist())
    return ResultTable.of(
        cfg,
        ("step", "naive_mean", "naive_se", "credal_mean", "credal_se"),
        rows,
        {
            "naive_final_mean": float(naive_mean[-1]) if cfg.n else cfg.params.C,
            "credal_final_mean": float(credal_mean[-1]) if cfg.n else cfg.params.C,
            "credal_final_se": float(credal_se[-1]) if cfg.n else 0.0,
        },
    )


# ---------------------------------------------------------------------------
# Fairness (demographic parity, implicit betting vs explicit credal)
# ---------------------------------------------------------------------------

PAIRED_SPACE = EvidenceSpace(("y0=0,y1=0", "y0=0,y1=1", "y0=1,y1=0", "y0=1,y1=1"))
#: |Y0 - Y1| per paired outcome
PAIRED_GAP_METRIC = (0.0, 1.0, 1.0, 0.0)


#: positive rate of the reference subgroup Y0
PARITY_BASE_RATE = 0.1


def paired_fairness_distribution(gamma: float) -> Categorical:
    """Joint law of one draw from each subgroup, Y0 ~ Bern(base rate), Y1 ~ Bern(gamma + base rate)."""
    p0, p1 = PARITY_BASE_RATE, gamma + PARITY_BASE_RATE
    if not (0.0 <= p1 <= 1.0):
        raise ValueError(f"gamma + base rate must stay inside [0, 1], got {gamma!r} + {p0!r}")
    probs = [(1 - p0) * (1 - p1), (1 - p0) * p1, p0 * (1 - p1), p0 * p1]
    return Categorical(PAIRED_SPACE, probs)


@dataclass(frozen=True)
class FairnessConfig:
    scenario: str = "fairness"
    params: MechanismParams = MechanismParams(C=15.0, R=250.0)
    gammas: tuple[float, ...] = (0.4, 0.6)
    tau: float = 0.6
    runs: int = 30
    n: int = 5000
    seed: int = 11
    burn_in: int = 0
    grid_resolution: int = 10
    kelly_margin: float = 0.01
    bet_zero_control: bool = False  # hold lambda at 0: flat-at-C control curves

    POSITIVE: ClassVar[tuple[str, ...]] = ("runs", "n")


def parity_betting_score(tau: float) -> BettingScore:
    """Score tau - |Y0 - Y1| on paired draws; drift <= 0 for gap >= tau."""
    return BettingScore(PAIRED_SPACE, tau - np.asarray(PAIRED_GAP_METRIC))


def parity_credal_set(tau: float, grid_resolution: int) -> CredalSet:
    """Grid approximation of the non-compliant set {P : E_P|Y0-Y1| >= tau}.

    The betting mechanism's implicit credal set is this linear-threshold
    polytope on the paired space; with tau on the grid the approximation is
    exact.
    """
    return approximate_constraint_set(PAIRED_SPACE, PAIRED_GAP_METRIC, tau, grid_resolution)


def _betting_trajectories(
    z: np.ndarray, score: BettingScore, cfg_kelly: KellyConfig, params: MechanismParams
) -> np.ndarray:
    """Warm-started plug-in Kelly license paths, one per row of ``z``."""
    return plugin_paths(z, score, cfg_kelly, params, warm_start=True)[2]


def _cumulative_trajectories(
    z: np.ndarray, q: Categorical, p_star: np.ndarray, params: MechanismParams, burn_in: int
) -> np.ndarray:
    """Cumulative likelihood-ratio licenses, held at C through the burn-in prefix."""
    step_log = log_ratio(q.probs, p_star)
    logs = np.zeros(z.shape)
    logs[:, burn_in:] = np.cumsum(step_log[z[:, burn_in:]], axis=1)
    return _capped_exp(math.log(params.C) + logs, params.R)


def _explicit_route(z: np.ndarray, q: Categorical, credal: CredalSet, params: MechanismParams,
                    burn_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P* = w* V, the capped-KL projection of ``q`` onto ``credal``, and the mean and SE of
    the cumulative likelihood-ratio licenses against it along the rows of ``z``."""
    w_star, _, _ = minimize_kappa(q, credal, params)
    p_star = w_star @ credal.vertex_matrix
    mean, se = _mean_se(_cumulative_trajectories(z, q, p_star, params, burn_in))
    return p_star, mean, se


def run_fairness(cfg: FairnessConfig) -> ResultTable:
    """Mean license trajectories per fairness gap, betting and explicit routes.

    Both routes see the same paired sample paths; every gamma's betting paths
    run as rows of one batched call.  The explicit route uses the
    provider's exact type when burn_in = 0; with a positive burn-in the type
    is re-estimated from the burn-in prefix (add-one smoothed) before the
    cumulative license starts accumulating.  An invalid field (a gamma out of
    range, a burn-in of n or more, a tau above every gap) is a ``ValueError``
    naming it, raised before any draw.
    """
    with _naming_field(cfg, "gammas"):  # every field is checked before the first draw
        types = [paired_fairness_distribution(gamma) for gamma in cfg.gammas]
    with _naming_field(cfg, "kelly_margin"):
        kelly_cfg = KellyConfig(margin=cfg.kelly_margin)
    _check_burn_in(cfg)
    score = parity_betting_score(cfg.tau)
    # Past the resolution check, only a tau above every gap leaves the set empty.
    with _naming_field(cfg, "grid_resolution" if cfg.grid_resolution < 2 else "tau"):
        credal = parity_credal_set(cfg.tau, cfg.grid_resolution)
    paths = [_draw_outcomes(q, cfg.runs, cfg.n, cfg.seed + g_idx) for g_idx, q in enumerate(types)]
    if cfg.bet_zero_control or not paths:
        bettings = [np.full(z.shape, cfg.params.C) for z in paths]
    else:  # rows are solved independently, so every gamma's paths share one call
        stacked = _betting_trajectories(np.vstack(paths), score, kelly_cfg, cfg.params)
        bettings = np.split(stacked, len(paths))
    rows = []
    headline: dict[str, float] = {}
    for gamma, q, z, betting in zip(cfg.gammas, types, paths, bettings):
        if cfg.burn_in == 0:
            q_used = q
        else:
            pooled = z[:, : cfg.burn_in].reshape(-1)
            counts = np.bincount(pooled, minlength=q.space.size)
            q_used = Categorical(q.space, _smoothed(counts, pooled.size, q.space.size)[0])
        _, e_mean, e_se = _explicit_route(z, q_used, credal, cfg.params, cfg.burn_in)
        b_mean, b_se = _mean_se(betting)
        rows += zip(repeat(gamma), range(1, cfg.n + 1), b_mean.tolist(), b_se.tolist(),
                    e_mean.tolist(), e_se.tolist())
        headline[f"betting_final_mean_gamma={gamma}"] = float(b_mean[-1])
        headline[f"explicit_final_mean_gamma={gamma}"] = float(e_mean[-1])
        headline[f"analytic_drift_gamma={gamma}"] = float(q.probs @ score.score)
    return ResultTable.of(
        cfg, ("gamma", "step", "betting_mean", "betting_se", "explicit_mean", "explicit_se"),
        rows, headline,
    )


# ---------------------------------------------------------------------------
# Chi-squared strategic test (effective model dimension)
# ---------------------------------------------------------------------------

#: Cells of the largest block of gamma draws :func:`_batch_loglik_ratio`
#: holds (2^16 floats, 512 KiB, which fits one core's L2): it draws
#: ``DRAW_BLOCK_CELLS // n`` batches of ``n`` at a time (at least one), which
#: bounds a stream's buffer to max(2^16, n) cells.  chi2_strategic's two
#: streams at the default n = 2000 then hold 1 MB instead of 32 MB, and the
#: benchmark's chi2 run peaks at 41.4 MB RSS against 70.0 MB, with no
#: measurable change in wall time.
DRAW_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class Chi2Config:
    scenario: str = "chi2_strategic"
    params: MechanismParams = MechanismParams(C=15.0, R=100.0)  # C/R = 0.15
    d0: int = 50
    alpha_grid: tuple[float, ...] = (
        0.0, 0.01, 0.025, 0.05, 0.075, 0.1, 0.125, 0.15, 0.175, 0.2, 0.25, 0.3, 0.4, 0.5,
    )
    # batch size per test; ~1600 draws are needed for power 0.99 at alpha 0.05
    # when separating chi^2_{d0} from chi^2_{d0+1}
    n_per_test: int = 2000
    mc_calibration: int = 100_000
    mc_power: int = 100_000
    seed: int = 23

    POSITIVE: ClassVar[tuple[str, ...]] = ("d0", "n_per_test", "mc_calibration", "mc_power")


def _batch_loglik_ratio(d0: int, df: int, batches: int, n: int, seed: int) -> np.ndarray:
    """Log LR of d0 (alternative) vs d0+1 (null) on batches of chi^2_df draws.

    log f_d(x) differs across d only through (d/2 - 1) log x and the
    normalizer, so the batch statistic is affine in sum(log x); the constant
    uses exact log-gamma terms.

    The draws go through one reused buffer of ``DRAW_BLOCK_CELLS // n`` rows
    (at least one), so the stream holds at most max(``DRAW_BLOCK_CELLS``, n)
    cells besides ``out``.  Each row's statistic is a sum over that row alone
    and the generator fills the rows in stream order, so the result does not
    depend on the block height.
    """
    const = 0.5 * math.log(2.0) + math.lgamma((d0 + 1) / 2.0) - math.lgamma(d0 / 2.0)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out = np.empty(batches)
    rows = max(1, DRAW_BLOCK_CELLS // n)
    buf = np.empty((min(rows, batches), n))  # one buffer, reused in place by every block
    done = 0
    while done < batches:
        take = min(rows, batches - done)
        draws = buf[:take]
        gen.standard_gamma(df / 2.0, out=draws)
        np.multiply(draws, 2.0, out=draws)
        np.log(draws, out=draws)
        out[done : done + take] = n * const - 0.5 * draws.sum(axis=1)
        done += take
    return out


def run_chi2_strategic(cfg: Chi2Config) -> ResultTable:
    """Power and participation curves for the dimension likelihood-ratio test.

    Null: the model uses the sensitive attribute (chi^2 with d0+1 degrees of
    freedom); alternative: it does not (d0).  The test statistic is the exact
    likelihood ratio over a batch of ``n_per_test`` standardized excess-risk
    draws, rejecting the null for large ratios at thresholds Monte Carlo
    calibrated under the null.  Sharing one null sample and one alternative
    sample across the alpha grid makes the power curve exactly monotone.

    Participation is ex ante: null providers enter iff alpha * R >= C,
    compliant providers iff power * R >= C; among null entrants the approved
    fraction is alpha.

    The null (calibration) and alternative (power) samples come from the two
    children of ``spawn_seeds(cfg.seed, 2)`` and run at the same time, the
    null one on a helper thread, so a run uses up to two cores.  Each stream
    draws in the same order as it would alone, so the table does not depend
    on the number of cores.  Each stream draws through a buffer of
    max(``DRAW_BLOCK_CELLS``, n_per_test) cells, and the table does not depend
    on that size either.  A level in ``alpha_grid`` outside [0, 1] is a
    ``ValueError`` raised before any draw.
    """
    bad = [alpha for alpha in cfg.alpha_grid if not 0.0 <= alpha <= 1.0]
    if bad:
        raise ValueError(f"{cfg.scenario} config field 'alpha_grid' must hold levels in [0, 1], got {bad}")
    seeds = spawn_seeds(cfg.seed, 2)
    # The gamma draws and the array passes release the GIL, so the streams
    # overlap; result() re-raises an error of the helper thread here.  (The
    # attribute access loads the executor's module only for this scenario.)
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        null_future = pool.submit(
            _batch_loglik_ratio, cfg.d0, cfg.d0 + 1, cfg.mc_calibration, cfg.n_per_test, seeds[0]
        )
        alt_stats = _batch_loglik_ratio(cfg.d0, cfg.d0, cfg.mc_power, cfg.n_per_test, seeds[1])
        null_stats = null_future.result()
    rows = []
    ratio = cfg.params.C / cfg.params.R
    for alpha in cfg.alpha_grid:
        if alpha == 0.0:
            power = 0.0  # a size-0 test never rejects; the MC max is not its threshold
        else:
            threshold = float(np.quantile(null_stats, 1.0 - alpha))
            power = float(np.mean(alt_stats > threshold))
        null_enter = 1.0 if alpha * cfg.params.R >= cfg.params.C else 0.0
        compliant_enter = 1.0 if power * cfg.params.R >= cfg.params.C else 0.0
        null_approved = alpha if null_enter else 0.0
        rows.append((float(alpha), power, null_enter, compliant_enter, float(null_approved)))
    powers = {row[0]: row[1] for row in rows}
    return ResultTable.of(
        cfg,
        ("alpha", "power", "null_enter", "compliant_enter", "null_approved"),
        rows,
        {"fee_cap_ratio": ratio, "power_at_0.05": powers.get(0.05, float("nan"))},
    )


# ---------------------------------------------------------------------------
# Synthetic spurious-feature surrogate (declared distributions, shape only)
# ---------------------------------------------------------------------------

SPURIOUS_SPACE = EvidenceSpace(("easy_correct", "easy_wrong", "hard_correct", "hard_wrong"))


@dataclass(frozen=True)
class SpuriousConfig:
    """Declared surrogate evidence distributions over group x correctness.

    The defaults are synthetic stand-ins chosen so the compliant surrogate
    differs from the spurious-model hull mainly on hard (minority) outcomes;
    they are not measurements of any trained model.
    """

    scenario: str = "synthetic_spurious"
    params: MechanismParams = MechanismParams(C=15.0, R=250.0)
    q_compliant: tuple[float, ...] = (0.72, 0.08, 0.17, 0.03)
    q_noncompliant: tuple[float, ...] = (0.76, 0.04, 0.06, 0.14)
    p_random: tuple[float, ...] = (0.40, 0.40, 0.10, 0.10)
    burn_in: int = 300
    runs: int = 30
    n: int = 1000
    seed: int = 31

    POSITIVE: ClassVar[tuple[str, ...]] = ("runs", "n")


def run_synthetic_spurious(cfg: SpuriousConfig) -> ResultTable:
    """Cumulative licenses for both surrogates plus the per-outcome ratio table.

    Emits a tidy table: series "license" rows hold (agent, step, mean, se)
    trajectories; series "ratio" rows hold the per-outcome and per-group
    compliant/non-compliant license ratios at step 0.  A ``q_compliant``
    with no mass on the easy or on the hard outcomes (its group ratios would
    be 0/0) and a burn-in of n or more are ``ValueError``s naming the field,
    raised before any draw.
    """
    q_dro, q_erm, p_rand = (_config_distribution(cfg, name, SPURIOUS_SPACE)
                            for name in ("q_compliant", "q_noncompliant", "p_random"))
    qd = q_dro.probs
    if not (qd[:2].sum() > 0.0 and qd[2:].sum() > 0.0):  # each group ratio is a mean under it
        raise ValueError(f"{cfg.scenario} config field 'q_compliant' must put mass on the easy "
                         f"(0-1) and on the hard (2-3) outcomes, got {qd.tolist()}")
    _check_burn_in(cfg)
    hull = CredalSet(SPURIOUS_SPACE, (q_erm, p_rand))

    rows = []
    finals = {}
    payouts = {}
    for agent, q in (("compliant", q_dro), ("non_compliant", q_erm)):
        # Same seed for both agents: paired paths, and equal surrogates give
        # identical trajectories.
        z = _draw_outcomes(q, cfg.runs, cfg.n, cfg.seed)
        p_star, mean, se = _explicit_route(z, q, hull, cfg.params, cfg.burn_in)
        rows += zip(repeat("license"), repeat(agent), range(1, cfg.n + 1),
                    mean.tolist(), se.tolist())
        finals[agent] = float(mean[-1])
        payouts[agent] = _truncated_payout(ratio(q.probs, p_star), cfg.params.C, cfg.params.R)

    payout_ratio = ratio(payouts["compliant"], payouts["non_compliant"])
    for j, label in enumerate(SPURIOUS_SPACE.labels):
        rows.append(("ratio", label, 0, float(payout_ratio[j]), 0.0))
    easy = float((qd[:2] @ payout_ratio[:2]) / qd[:2].sum())
    hard = float((qd[2:] @ payout_ratio[2:]) / qd[2:].sum())
    rows.append(("ratio", "easy_group", 0, easy, 0.0))
    rows.append(("ratio", "hard_group", 0, hard, 0.0))

    return ResultTable.of(
        cfg,
        ("series", "key", "step", "value", "stderr"),
        rows,
        {
            "compliant_final_mean": finals["compliant"],
            "non_compliant_final_mean": finals["non_compliant"],
            "easy_group_ratio": easy,
            "hard_group_ratio": hard,
        },
    )


# ---------------------------------------------------------------------------
# Dispatch and config loading
# ---------------------------------------------------------------------------

SCENARIOS = {
    "simplex_gaming": (SimplexGamingConfig, run_simplex_gaming),
    "fairness": (FairnessConfig, run_fairness),
    "chi2_strategic": (Chi2Config, run_chi2_strategic),
    "synthetic_spurious": (SpuriousConfig, run_synthetic_spurious),
}


def load_config(scenario: str, payload: Optional[dict] = None, seed: Optional[int] = None):
    """Build a scenario config from a JSON payload, applying defaults.

    A key the config does not have, a ``scenario`` key naming another
    scenario, a value of the wrong JSON type (a float for a count, NaN) and a
    count below 0, or below 1 for the config's ``POSITIVE`` counts, are errors.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    cls, _ = SCENARIOS[scenario]
    if payload is None:
        payload = {}
    payload = dict(json_object(payload, tuple(f.name for f in fields(cls)), f"{scenario} config"))
    named = payload.pop("scenario", scenario)
    if named != scenario:
        raise ValueError(f"{scenario} config field 'scenario' must be {scenario!r}, got {named!r}")
    if seed is not None:
        payload["seed"] = seed
    hints = get_type_hints(cls)
    for key, value in payload.items():
        name, hint = f"{scenario} config field {key!r}", hints[key]
        if hint is MechanismParams:
            payload[key] = MechanismParams.from_json(value, name)
        elif hint is int:
            json_integer(value, name, 1 if key in cls.POSITIVE else 0)
        elif hint is float:  # 1 and 1.0 are one config, with one hash
            payload[key] = float(json_number(value, name))
        elif hint is bool:
            if type(value) is not bool:
                raise ValueError(f"{name} must be true or false, got {value!r}")
        elif value is not None or type(None) not in get_args(hint):  # tuple[float, ...]
            payload[key] = tuple(map(float, json_numbers(value, name)))
    return cls(**payload)


def run_scenario(cfg) -> ResultTable:
    _, runner = SCENARIOS[cfg.scenario]
    return runner(cfg)
