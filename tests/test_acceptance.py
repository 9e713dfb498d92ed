"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single ``ACCEPTANCE <k> ...: PASS|FAIL`` line (visible with
``pytest -s`` or in failure output) and asserts every sub-check, including its
runtime budget.
"""

import math
import time

import numpy as np
import pytest

from conftest import kappa, random_categorical, random_credal
from credalmarket.betting import (
    BettingScore,
    KellyConfig,
    kelly_bets,
    kelly_optimal_bet,
    verify_supermartingale,
)
from credalmarket.credal import CredalSet, upper_expectation
from credalmarket.evidence import Categorical, EvidenceSpace, SampleStream, mixture, sample
from credalmarket.experiments import (
    Chi2Config,
    FairnessConfig,
    SimplexGamingConfig,
    paired_fairness_distribution,
    parity_betting_score,
    run_chi2_strategic,
    run_fairness,
    run_simplex_gaming,
)
from credalmarket.licenses import (
    License,
    MechanismParams,
    is_obedient,
    minimize_kappa,
    neyman_pearson_license,
    optimal_risk_averse_license,
    sup_value_over_obedient,
)


def report(number: int, name: str, checks: dict[str, bool], elapsed: float, budget: float) -> None:
    checks[f"runtime {elapsed:.1f}s < {budget:.0f}s"] = elapsed < budget
    status = "PASS" if all(checks.values()) else "FAIL"
    detail = "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    print(f"\nACCEPTANCE {number} ({name}): {status} [{detail}]")
    for key, ok in checks.items():
        assert ok, f"criterion {number} sub-check failed: {key}"


def test_criterion_1_simplex_gaming():
    t0 = time.perf_counter()
    cfg = SimplexGamingConfig()  # default instance: C=15, R=250, 30 runs x 500 steps
    table = run_simplex_gaming(cfg)
    naive = table.headline["naive_final_mean"]
    credal = table.headline["credal_final_mean"]
    credal_se = table.headline["credal_final_se"]

    space = EvidenceSpace.of_size(3)
    hull = CredalSet(space, tuple(Categorical(space, p) for p in
                                  ((0.35, 0.35, 0.30), (0.35, 0.30, 0.35), (0.30, 0.35, 0.35))))
    lp_bound = sup_value_over_obedient(Categorical.uniform(space), hull, cfg.params).value

    checks = {
        f"naive final mean {naive:.2f} > C": naive > cfg.params.C,
        f"credal final mean {credal:.6f} <= C + 3*SE": credal <= cfg.params.C + 3 * credal_se + 1e-9,
        f"LP bound {lp_bound:.9f} <= C + 1e-6": lp_bound <= cfg.params.C + 1e-6,
    }
    report(1, "simplex gaming", checks, time.perf_counter() - t0, 10.0)


def test_criterion_2_lp_np_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 7))
        space = EvidenceSpace.of_size(m)
        q = random_categorical(rng, space)
        p = random_categorical(rng, space)
        C = float(rng.uniform(0.1, 0.9))
        params = MechanismParams(C, C * float(rng.uniform(1.05, 5.0)))
        lp = sup_value_over_obedient(q, CredalSet.singleton(p), params).value
        np_value = q.expectation(neyman_pearson_license(q, p, params).payout)
        worst = max(worst, abs(lp - np_value))
    checks = {f"max |LP - NP| = {worst:.2e} <= 1e-8": worst <= 1e-8}
    report(2, "LP/NP oracle equivalence", checks, time.perf_counter() - t0, 5.0)


def _grid_kappa_min(q, credal, params, resolution=1e-3):
    """Dense simplex-grid oracle for the kappa projection (<= 3 vertices)."""
    V = credal.vertex_matrix
    k = V.shape[0]
    steps = int(round(1.0 / resolution))
    if k == 1:
        W = np.ones((1, 1))
    elif k == 2:
        w0 = np.linspace(0.0, 1.0, steps + 1)
        W = np.stack([w0, 1.0 - w0], axis=1)
    else:
        blocks = []
        for a in range(steps + 1):
            b = np.arange(0, steps - a + 1)
            blocks.append(np.stack([np.full_like(b, a), b, steps - a - b], axis=1))
        W = np.vstack(blocks) / steps
        if k == 2:
            W = W[:, :2]
    P = W @ V
    qp = q.probs
    cap = math.log(params.cap_ratio)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(P > 0, np.log(np.where(qp > 0, qp, 1.0)) - np.log(np.where(P > 0, P, 1.0)), np.inf)
    contrib = np.where(qp > 0, np.minimum(log_ratio, cap), 0.0)
    return float((contrib @ qp).min())


def test_criterion_3_kappa_projection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_gap = -np.inf
    all_obedient = True
    all_tight = True
    for _ in range(100):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        space = EvidenceSpace.of_size(m)
        credal = random_credal(rng, space, k)
        q = random_categorical(rng, space)
        C = float(rng.uniform(0.2, 1.0))
        params = MechanismParams(C, C * float(rng.uniform(1.2, 10.0)))
        res = optimal_risk_averse_license(q, credal, params)
        grid_val = _grid_kappa_min(q, credal, params)
        worst_gap = max(worst_gap, res.kappa_value - grid_val)
        if not is_obedient(res.license, credal, params):
            all_obedient = False
        pay = res.license.payout
        if np.any(pay[q.probs > 0] < params.R - 1e-9):
            sup = upper_expectation(credal, pay)
            if abs(sup - params.C) > 1e-6:
                all_tight = False
    checks = {
        f"kappa(P*) within 1e-4 of grid oracle (worst excess {worst_gap:.2e})": worst_gap <= 1e-4,
        "every license obedient at 1e-6": all_obedient,
        "tight (sup_P E_P = C +- 1e-6) when uncapped on Q-support": all_tight,
    }
    report(3, "kappa-projection correctness", checks, time.perf_counter() - t0, 60.0)


def _exact_expected_wealth(p_win: float, score: BettingScore, n: int, C: float,
                           cfg: KellyConfig) -> float:
    """Exact E[wealth_n] for the adaptive plug-in Kelly rule on a binary score.

    Dynamic program over the (step, win-count) lattice; the bets at each step
    come from one kelly_bets solve over the step's win counts, the same rule
    the simulator uses, so this is an exact (non-Monte-Carlo) evaluation of
    the wealth expectation.
    """
    b = score.score
    masses = {0: 1.0}
    for t in range(n):
        if t == 0:
            lams = np.zeros(1)
        else:
            wins = np.arange(t + 1)
            lams = kelly_bets(np.stack([(wins + 1) / (t + 2), (t - wins + 1) / (t + 2)], axis=1),
                              score, cfg)
        nxt: dict[int, float] = {}
        for wins, mass in masses.items():
            lam = float(lams[wins])
            nxt[wins + 1] = nxt.get(wins + 1, 0.0) + mass * p_win * (1.0 + lam * b[0])
            nxt[wins] = nxt.get(wins, 0.0) + mass * (1.0 - p_win) * (1.0 + lam * b[1])
        masses = nxt
    return C * sum(masses.values())


def test_criterion_4_supermartingale_obedience():
    t0 = time.perf_counter()
    space = EvidenceSpace.of_size(2, prefix="o")
    score = BettingScore(space, [1.0, -1.0])
    cfg = KellyConfig()
    C = 15.0

    # Exact check of the martingale level at zero drift: E[W_500] = C.  This is
    # the rigorous form of the mean-preservation claim; the 1e4-run Monte Carlo
    # mean below cannot certify it two-sidedly (see the xfail companion test).
    exact_zero = _exact_expected_wealth(0.5, score, 500, C, cfg)
    mean0, se0 = verify_supermartingale(
        Categorical(space, [0.5, 0.5]), score, cfg, runs=10_000, n=500, seed=404
    )
    exact_neg = _exact_expected_wealth(0.475, score, 500, C, cfg)
    mean_neg, _ = verify_supermartingale(
        Categorical(space, [0.475, 0.525]), score, cfg, runs=10_000, n=500, seed=404
    )
    checks = {
        f"exact E[W_500] = {exact_zero:.12f} within 1e-9 of C": abs(exact_zero - C) <= 1e-9,
        f"MC mean {mean0:.2f} <= C + 3*SE (obedience)": mean0 <= C + 3 * se0,
        f"exact E[W_500] {exact_neg:.3f} < C under drift -0.05": exact_neg < C,
        f"MC mean {mean_neg:.2f} < C under drift -0.05": mean_neg < C,
    }
    report(4, "supermartingale obedience", checks, time.perf_counter() - t0, 30.0)


@pytest.mark.xfail(
    reason=(
        "The literal two-sided Monte Carlo band at 1e4 runs is statistically "
        "unattainable for plug-in Kelly betting: the final-wealth expectation "
        "(exactly C, verified by the dynamic program in criterion 4) is carried "
        "by ~1e-5-probability paths the sample mean never sees, so the observed "
        "mean sits near C/2 with a tail-blind standard error. Documented in the "
        "decisions ledger."
    ),
    strict=False,
)
def test_criterion_4_literal_two_sided_band():
    space = EvidenceSpace.of_size(2, prefix="o")
    score = BettingScore(space, [1.0, -1.0])
    mean0, se0 = verify_supermartingale(
        Categorical(space, [0.5, 0.5]), score, KellyConfig(), runs=10_000, n=500, seed=404
    )
    assert abs(mean0 - 15.0) <= 3 * se0


def test_criterion_5_kelly_closed_form():
    t0 = time.perf_counter()
    space = EvidenceSpace.of_size(2, prefix="o")
    score = BettingScore(space, [1.0, -1.0])
    cfg = KellyConfig()
    checks = {}
    for p in (0.6, 0.75, 0.9):
        lam = kelly_optimal_bet(Categorical(space, [p, 1.0 - p]), score, cfg)
        checks[f"|lambda*({p}) - {2 * p - 1:g}| <= 1e-6"] = abs(lam - (2 * p - 1)) <= 1e-6
        # grid-verified oracle at resolution 1e-5 over the admissible range
        grid = np.linspace(0.0, cfg.ceiling(score.score), 100_001)
        f = p * np.log1p(grid) + (1.0 - p) * np.log1p(-grid)
        lam_grid = float(grid[int(np.argmax(f))])
        checks[f"grid oracle agrees at p={p}"] = abs(lam - lam_grid) <= 1e-4
    report(5, "Kelly closed form", checks, time.perf_counter() - t0, 10.0)


def test_criterion_6_fairness():
    t0 = time.perf_counter()
    cfg = FairnessConfig()  # gammas (0.4, 0.6), 30 runs x 5000 steps
    table = run_fairness(cfg)
    rows04 = [(r[1], r[2]) for r in table.rows if r[0] == 0.4]
    first_cap = next((step for step, mean in rows04 if mean >= cfg.params.R - 1e-9), None)
    final06 = table.headline["betting_final_mean_gamma=0.6"]

    # analytic drifts checked against 1e5 paired draws
    score = parity_betting_score(cfg.tau)
    drift_ok = {}
    for gamma, drift in ((0.4, 0.1), (0.6, -0.06)):
        q = paired_fairness_distribution(gamma)
        z = sample(SampleStream(q, seed=606), 100_000)
        vals = score.score[z]
        se = float(vals.std(ddof=1) / math.sqrt(vals.size))
        drift_ok[f"empirical drift at gamma={gamma} within 3 SE of {drift}"] = (
            abs(float(vals.mean()) - drift) <= 3 * se
        )

    checks = {
        f"gamma=0.4 betting mean reaches R at step {first_cap}": first_cap is not None,
        f"gamma=0.6 final mean {final06:.2f} <= C (self-exclusion)": final06 <= cfg.params.C,
        **drift_ok,
    }
    report(6, "fairness betting license", checks, time.perf_counter() - t0, 30.0)


def test_criterion_7_chi2_strategic():
    t0 = time.perf_counter()
    cfg = Chi2Config()  # d0=50, C/R=0.15, 1e5 calibration + 1e5 power draws
    table = run_chi2_strategic(cfg)
    rows = {r[0]: r for r in table.rows}
    ratio = cfg.params.C / cfg.params.R
    power05 = rows[0.05][1]
    se05 = math.sqrt(max(power05 * (1 - power05), 1e-12) / cfg.mc_power)
    flip_ok = all(r[2] == (1.0 if alpha >= ratio else 0.0) for alpha, r in rows.items())
    compliant = table.column("compliant_enter")
    checks = {
        f"power(0.05) = {power05:.4f} >= 0.99": power05 >= 0.99,
        f"power MC SE {se05:.2e} <= 0.003": se05 <= 0.003,
        "0.15 on the alpha grid": ratio in rows,
        "null participation flips exactly at alpha = C/R": flip_ok,
        "compliant participation non-decreasing": bool(np.all(np.diff(compliant) >= 0.0)),
    }
    report(7, "chi-squared strategic test", checks, time.perf_counter() - t0, 60.0)


def test_criterion_8_property_suites(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    checks = {}

    # hull invariance of obedience, 1000 cases
    ok = True
    for _ in range(1000):
        space = EvidenceSpace.of_size(int(rng.integers(2, 6)))
        credal = random_credal(rng, space, int(rng.integers(1, 4)))
        extra = [mixture(list(credal.vertices), rng.dirichlet(np.ones(len(credal.vertices))))
                 for _ in range(2)]
        enlarged = CredalSet(credal.space, credal.vertices + tuple(extra))
        payoff = rng.uniform(0.0, 2.0, size=space.size)
        if abs(upper_expectation(credal, payoff) - upper_expectation(enlarged, payoff)) > 1e-12:
            ok = False
            break
        params = MechanismParams(1.0, 2.0)
        lic = License(space, payoff)
        if is_obedient(lic, credal, params) != is_obedient(lic, enlarged, params):
            ok = False
            break
    checks["hull invariance of obedience (1000 cases, 1e-12)"] = ok

    # sup-min inequality, 1000 cases, exact
    ok = True
    for _ in range(1000):
        space = EvidenceSpace.of_size(int(rng.integers(2, 6)))
        credal = random_credal(rng, space, int(rng.integers(1, 5)))
        payoff = rng.uniform(0.0, 5.0, size=space.size)
        alpha = float(rng.uniform(-1.0, 6.0))
        exps = credal.vertex_matrix @ payoff
        if float(np.max(np.minimum(exps, alpha))) > min(float(np.max(exps)), alpha):
            ok = False
            break
    checks["sup-min inequality (1000 cases, exact)"] = ok

    # kappa two-formula identity, 1000 strictly positive cases at 1e-12
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        space = EvidenceSpace.of_size(m)
        q_raw = rng.dirichlet(np.ones(m)) + 1e-6
        p_raw = rng.dirichlet(np.ones(m)) + 1e-6
        q = Categorical(space, q_raw / q_raw.sum())
        p = Categorical(space, p_raw / p_raw.sum())
        params = MechanismParams(1.0, float(rng.uniform(1.05, 20.0)))
        log_cap = math.log(params.cap_ratio)
        log_ratio = np.log(q.probs / p.probs)
        two_term = float(q.probs @ log_ratio) - float(
            (q.probs * (log_ratio - log_cap))[log_ratio > log_cap].sum()
        )
        if abs(kappa(q, p, params) - two_term) > 1e-12:
            ok = False
            break
    checks["kappa two-formula identity (1000 cases, 1e-12)"] = ok

    # all-or-nothing structure of Neyman-Pearson licenses
    ok = True
    for _ in range(500):
        m = int(rng.integers(2, 7))
        space = EvidenceSpace.of_size(m)
        q = random_categorical(rng, space)
        p = random_categorical(rng, space)
        C = float(rng.uniform(0.1, 0.9))
        params = MechanismParams(C, C * float(rng.uniform(1.05, 5.0)))
        pay = neyman_pearson_license(q, p, params).payout
        if np.sum((pay > 1e-12) & (pay < params.R - 1e-12)) > 1:
            ok = False
            break
    checks["all-or-nothing NP structure (500 cases)"] = ok

    # FOSD monotonicity of monotone licenses
    ok = True
    for _ in range(500):
        m = int(rng.integers(2, 7))
        space = EvidenceSpace.of_size(m)
        payout = np.sort(rng.uniform(0.0, 1.0, size=m))[::-1]
        p1 = rng.dirichlet(np.ones(m))
        worse = p1.copy()
        for _ in range(3):
            i = int(rng.integers(0, m - 1))
            shift = worse[i] * float(rng.uniform(0.0, 1.0))
            worse[i] -= shift
            worse[i + 1] += shift
        if float(p1 @ payout) < float(worse @ payout) - 1e-12:
            ok = False
            break
    checks["FOSD monotonicity of monotone licenses (500 cases)"] = ok

    # byte-identical CSV reproducibility at a fixed seed
    cfg = SimplexGamingConfig(runs=3, n=60, seed=55)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_simplex_gaming(cfg).to_csv(a)
    run_simplex_gaming(cfg).to_csv(b)
    checks["byte-identical CSV at fixed seed"] = a.read_bytes() == b.read_bytes()

    report(8, "property suites", checks, time.perf_counter() - t0, 30.0)
