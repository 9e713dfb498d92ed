import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import loggamma

from credalmarket import experiments
from credalmarket.credal import CredalSet
from credalmarket.evidence import Categorical, EvidenceSpace, ratio, spawn_seeds
from credalmarket.experiments import (
    SPURIOUS_SPACE,
    Chi2Config,
    FairnessConfig,
    ResultTable,
    SimplexGamingConfig,
    SpuriousConfig,
    _cumulative_trajectories,
    load_config,
    paired_fairness_distribution,
    parity_betting_score,
    parity_credal_set,
    run_chi2_strategic,
    run_fairness,
    run_scenario,
    run_simplex_gaming,
    run_synthetic_spurious,
)
from credalmarket.licenses import MechanismParams, _truncated_payout, minimize_kappa


def table_bytes(table: ResultTable, tmp_path, name: str) -> bytes:
    path = tmp_path / name
    table.to_csv(path)
    return path.read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize(
        "cfg",
        [
            SimplexGamingConfig(runs=3, n=40, seed=7),
            FairnessConfig(runs=2, n=60, seed=7),
            Chi2Config(n_per_test=50, mc_calibration=2000, mc_power=2000, seed=7),
            SpuriousConfig(runs=3, n=120, burn_in=20, seed=7),
        ],
        ids=["simplex", "fairness", "chi2", "spurious"],
    )
    def test_reruns_are_byte_identical(self, cfg, tmp_path):
        a = table_bytes(run_scenario(cfg), tmp_path, "a.csv")
        b = table_bytes(run_scenario(cfg), tmp_path, "b.csv")
        assert a == b
        header = a.decode().splitlines()[0]
        assert header.startswith(f"# scenario={cfg.scenario} seed={cfg.seed} config_hash=")

    def test_numpy_float_cells_write_as_python_floats(self, tmp_path):
        python_row = (1, 2.5, 0.1 + 0.2, math.inf, "a")
        numpy_row = (1, *map(np.float64, python_row[1:4]), "a")
        written = [table_bytes(ResultTable("s", 0, "h", ("i", "x", "y", "z", "k"), (row,)), tmp_path, name)
                   for row, name in ((python_row, "python.csv"), (numpy_row, "numpy.csv"))]
        want = b"# scenario=s seed=0 config_hash=h\ni,x,y,z,k\r\n1,2.5,0.30000000000000004,inf,a\r\n"
        assert written == [want, want]

    def test_seed_changes_the_table(self, tmp_path):
        a = table_bytes(run_simplex_gaming(SimplexGamingConfig(runs=3, n=40, seed=1)), tmp_path, "a.csv")
        b = table_bytes(run_simplex_gaming(SimplexGamingConfig(runs=3, n=40, seed=2)), tmp_path, "b.csv")
        assert a != b


class TestSimplexGaming:
    def test_values_stay_in_range(self):
        cfg = SimplexGamingConfig(runs=4, n=80)
        table = run_simplex_gaming(cfg)
        for col in ("naive_mean", "credal_mean"):
            vals = table.column(col)
            assert np.all(vals >= 0.0) and np.all(vals <= cfg.params.R)

    def test_zero_steps_stay_at_the_fee(self):
        cfg = SimplexGamingConfig(runs=1, n=0)
        table = run_simplex_gaming(cfg)
        assert table.rows == ()
        assert table.headline["naive_final_mean"] == cfg.params.C
        assert table.headline["credal_final_mean"] == cfg.params.C

    def test_far_outside_provider_grows_under_both_regulators(self):
        cfg = SimplexGamingConfig(runs=5, n=200, seed=13, provider_q=(0.9, 0.05, 0.05))
        h = run_simplex_gaming(cfg).headline
        assert h["naive_final_mean"] > cfg.params.C
        assert h["credal_final_mean"] > cfg.params.C


class TestFairness:
    def test_paired_distribution(self):
        q = paired_fairness_distribution(0.4)
        assert np.allclose(q.probs, [0.45, 0.45, 0.05, 0.05])
        q6 = paired_fairness_distribution(0.6)
        assert np.allclose(q6.probs, [0.27, 0.63, 0.03, 0.07])
        with pytest.raises(ValueError):
            paired_fairness_distribution(0.95)

    def test_analytic_drifts(self):
        score = parity_betting_score(0.6)
        assert paired_fairness_distribution(0.4).expectation(score.score) == pytest.approx(0.1)
        assert paired_fairness_distribution(0.6).expectation(score.score) == pytest.approx(-0.06)

    def test_drift_signs_match_simulation(self):
        # empirical mean of the betting score over 1e5 draws within 3 SE of analytic
        from credalmarket.evidence import SampleStream, sample

        score = parity_betting_score(0.6)
        for gamma, drift in ((0.4, 0.1), (0.6, -0.06)):
            q = paired_fairness_distribution(gamma)
            z = sample(SampleStream(q, seed=101), 100_000)
            values = score.score[z]
            se = values.std(ddof=1) / np.sqrt(values.size)
            assert abs(values.mean() - drift) <= 3.0 * se

    def test_parity_credal_set_is_the_threshold_polytope(self):
        cs = parity_credal_set(0.6, 10)
        h = np.array([0.0, 1.0, 1.0, 0.0])
        assert all(v.expectation(h) >= 0.6 - 1e-12 for v in cs.vertices)

    def test_gamma_out_of_range_is_rejected_before_drawing(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("drew before checking every gamma")

        monkeypatch.setattr(experiments, "_draw_outcomes", fail)
        with pytest.raises(ValueError, match="'gammas'.*0.95"):
            run_fairness(FairnessConfig(gammas=(0.4, 0.95), runs=2, n=10))

    def test_burn_in_one_below_n_accumulates_one_step(self):
        cfg = FairnessConfig(runs=2, n=20, burn_in=19, gammas=(0.4,))
        explicit = run_fairness(cfg).column("explicit_mean")
        assert np.all(explicit[:19] == cfg.params.C) and explicit[19] != cfg.params.C

    def test_bet_zero_control_is_flat(self):
        cfg = FairnessConfig(runs=2, n=50, bet_zero_control=True)
        table = run_fairness(cfg)
        assert np.allclose(table.column("betting_mean"), cfg.params.C)

    def test_small_run_headlines(self):
        cfg = FairnessConfig(runs=4, n=800, seed=11)
        h = run_fairness(cfg).headline
        assert h["betting_final_mean_gamma=0.4"] > cfg.params.C
        assert h["betting_final_mean_gamma=0.6"] < cfg.params.C
        assert h["analytic_drift_gamma=0.4"] == pytest.approx(0.1)
        assert h["analytic_drift_gamma=0.6"] == pytest.approx(-0.06)

    def test_burn_in_estimates_the_type(self):
        cfg = FairnessConfig(runs=2, n=400, burn_in=100, seed=11, gammas=(0.4,))
        table = run_fairness(cfg)
        explicit = table.column("explicit_mean")
        assert np.allclose(explicit[:100], cfg.params.C)  # flat during calibration
        assert explicit[-1] > cfg.params.C  # grows afterwards

    def test_explicit_route_caps_no_later_than_betting(self):
        # seeded regression: both routes share sample paths and the same
        # asymptotic growth rate; the explicit route skips the learning cost
        cfg = FairnessConfig(runs=15, n=2500, seed=11, gammas=(0.4,))
        table = run_fairness(cfg)
        betting = table.column("betting_mean")
        explicit = table.column("explicit_mean")
        cap = cfg.params.R - 1e-9
        bet_step = int(np.argmax(betting >= cap))
        exp_step = int(np.argmax(explicit >= cap))
        assert betting[bet_step] >= cap and explicit[exp_step] >= cap
        assert exp_step <= bet_step


@pytest.fixture(scope="module")
def small_table():
    cfg = Chi2Config(n_per_test=400, mc_calibration=20_000, mc_power=20_000, seed=3)
    return cfg, run_chi2_strategic(cfg)


class TestChi2:
    def test_alpha_zero_never_rejects(self, small_table):
        _, table = small_table
        first = table.rows[0]
        assert first[0] == 0.0 and first[1] == 0.0 and first[2] == 0.0 and first[3] == 0.0

    def test_power_curve_monotone(self, small_table):
        _, table = small_table
        powers = table.column("power")
        assert np.all(np.diff(powers) >= 0.0)

    def test_null_participation_flips_at_fee_cap_ratio(self, small_table):
        cfg, table = small_table
        ratio = cfg.params.C / cfg.params.R
        for row in table.rows:
            alpha, _, null_enter, _, null_approved = row
            assert null_enter == (1.0 if alpha >= ratio else 0.0)
            assert null_approved == (alpha if null_enter else 0.0)

    def test_compliant_participation_non_decreasing(self, small_table):
        _, table = small_table
        enter = table.column("compliant_enter")
        assert np.all(np.diff(enter) >= 0.0)

    def test_rates_stay_in_unit_interval(self, small_table):
        _, table = small_table
        for col in ("power", "null_enter", "compliant_enter", "null_approved"):
            vals = table.column(col)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def _batch_loglik_ratio_reference(d0, df, batches, n, seed):
    """A loop that allocates each chunk of 2M cells, the oracle for the reused block."""
    const = 0.5 * math.log(2.0) + math.lgamma((d0 + 1) / 2.0) - math.lgamma(d0 / 2.0)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out = np.empty(batches)
    chunk = max(1, int(2_000_000 // max(n, 1)))
    done = 0
    while done < batches:
        take = min(chunk, batches - done)
        draws = 2.0 * gen.standard_gamma(df / 2.0, size=(take, n))
        out[done : done + take] = n * const - 0.5 * np.log(draws).sum(axis=1)
        done += take
    return out


def _chi2_rows_reference(cfg):
    """run_chi2_strategic's rows from its two streams computed one after the other."""
    seeds = spawn_seeds(cfg.seed, 2)
    null = experiments._batch_loglik_ratio(cfg.d0, cfg.d0 + 1, cfg.mc_calibration,
                                           cfg.n_per_test, seeds[0])
    alt = experiments._batch_loglik_ratio(cfg.d0, cfg.d0, cfg.mc_power, cfg.n_per_test, seeds[1])
    rows = []
    for alpha in cfg.alpha_grid:
        power = 0.0 if alpha == 0.0 else float(np.mean(alt > float(np.quantile(null, 1.0 - alpha))))
        null_enter = 1.0 if alpha * cfg.params.R >= cfg.params.C else 0.0
        compliant_enter = 1.0 if power * cfg.params.R >= cfg.params.C else 0.0
        rows.append((float(alpha), power, null_enter, compliant_enter,
                     float(alpha if null_enter else 0.0)))
    return tuple(rows)


def _sum_log_chi2_cdf(s, df, n):
    """P(S <= s) for S a sum of n i.i.d. ln chi^2_df, and quad's error bound.

    Gil-Pelaez inversion (Biometrika 1951) of the characteristic function
    E exp(iuS) = (2^(iu) Gamma(df/2 + iu) / Gamma(df/2))^n.
    """
    a = df / 2.0

    def integrand(u):
        log_cf = n * (1j * u * math.log(2.0) + loggamma(a + 1j * u) - loggamma(a)) - 1j * u * s
        return np.exp(log_cf).imag / u

    value, err = quad(integrand, 0.0, np.inf, limit=200)
    return 0.5 - value / math.pi, err / math.pi


class TestChi2ExactPower:
    def test_monte_carlo_curve_matches_the_exact_one_at_its_thresholds(self):
        # Evaluating the exact tails at the Monte Carlo thresholds leaves only
        # binomial error: the quantile error of a threshold cancels out.
        cfg = Chi2Config(n_per_test=200, mc_calibration=20_000, mc_power=20_000, seed=5)
        table = run_chi2_strategic(cfg)
        null = experiments._batch_loglik_ratio(cfg.d0, cfg.d0 + 1, cfg.mc_calibration,
                                               cfg.n_per_test, spawn_seeds(cfg.seed, 2)[0])
        n = cfg.n_per_test
        # log f_d0(x) - log f_(d0+1)(x) = const - ln(x) / 2 for chi^2 densities f_d
        const = 0.5 * math.log(2.0) + math.lgamma((cfg.d0 + 1) / 2.0) - math.lgamma(cfg.d0 / 2.0)
        exact_powers = []
        for alpha, power, *_ in table.rows[1:]:  # alpha = 0 has no threshold
            threshold = float(np.quantile(null, 1.0 - alpha))
            s = 2.0 * (n * const - threshold)  # T > threshold iff the sum of ln x is below s
            exact_power, power_err = _sum_log_chi2_cdf(s, cfg.d0, n)
            exact_size, size_err = _sum_log_chi2_cdf(s, cfg.d0 + 1, n)
            assert max(power_err, size_err) < 1e-6
            assert abs(power - exact_power) <= 4 * math.sqrt(power * (1 - power) / cfg.mc_power), alpha
            assert abs(exact_size - alpha) <= 4 * math.sqrt(alpha * (1 - alpha) / cfg.mc_calibration), alpha
            exact_powers.append(exact_power)
        assert len(exact_powers) == 13 and np.all(np.diff(exact_powers) > 0)


class TestChi2Streams:
    # Blocks of DRAW_BLOCK_CELLS = 65,536 cells; the allocating loop's chunks hold
    # 2M, so equal bits also show that no statistic depends on the block height.
    @pytest.mark.parametrize("d0, df, batches, n", [
        (50, 51, 100, 400),       # fewer batches than one block (163 rows)
        (50, 50, 2001, 3000),     # 95 full blocks of 21 rows and a partial one of 6
        (3, 4, 3, 70_000),        # n above the block: one row per block
    ])
    def test_buffered_draws_equal_the_allocating_loop(self, d0, df, batches, n):
        got = experiments._batch_loglik_ratio(d0, df, batches, n, seed=5)
        assert np.array_equal(got, _batch_loglik_ratio_reference(d0, df, batches, n, seed=5))

    def test_peak_memory_does_not_grow_with_the_batch_count(self):
        experiments._batch_loglik_ratio(50, 51, 1, 10, seed=0)  # the first call imports numpy.random
        above_out = []
        for batches in (2_000, 20_000):
            tracemalloc.start()
            try:
                experiments._batch_loglik_ratio(50, 51, batches, 2000, seed=5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            above_out.append(peak - 8 * batches)
        # one block of 32 rows x 2000 draws is 512 kB; a 2M-cell buffer is 16 MB
        assert abs(above_out[1] - above_out[0]) <= 4096, above_out
        assert max(above_out) < 1 << 20, above_out

    def test_rows_equal_the_sequential_streams(self, small_table):
        cfg, table = small_table
        assert table.rows == _chi2_rows_reference(cfg)
        assert run_chi2_strategic(cfg).rows == table.rows

    def test_null_stream_runs_on_a_helper_thread(self, monkeypatch):
        cfg = Chi2Config(n_per_test=50, mc_calibration=200, mc_power=300, seed=3)
        original = experiments._batch_loglik_ratio
        threads = {}

        def record(d0, df, batches, n, seed):
            threads[batches] = threading.get_ident()
            return original(d0, df, batches, n, seed)

        monkeypatch.setattr(experiments, "_batch_loglik_ratio", record)
        run_chi2_strategic(cfg)
        assert threads[cfg.mc_power] == threading.get_ident()
        assert threads[cfg.mc_calibration] != threading.get_ident()

    def test_error_on_the_helper_thread_reaches_the_caller(self, monkeypatch):
        cfg = Chi2Config(n_per_test=50, mc_calibration=200, mc_power=300, seed=3)
        null_seed = spawn_seeds(cfg.seed, 2)[0]
        original = experiments._batch_loglik_ratio

        def fail_on_null(d0, df, batches, n, seed):
            if seed == null_seed:
                raise RuntimeError("null stream failed")
            return original(d0, df, batches, n, seed)

        before = threading.active_count()
        monkeypatch.setattr(experiments, "_batch_loglik_ratio", fail_on_null)
        with pytest.raises(RuntimeError, match="null stream failed"):
            run_chi2_strategic(cfg)
        assert threading.active_count() == before

    @pytest.mark.parametrize("alpha", [-0.2, 1.5, float("nan")])
    def test_level_outside_the_unit_interval_is_rejected_before_drawing(self, monkeypatch, alpha):
        def fail(*args, **kwargs):
            raise AssertionError("drew before checking alpha_grid")

        monkeypatch.setattr(experiments, "_batch_loglik_ratio", fail)
        with pytest.raises(ValueError, match="'alpha_grid'"):
            run_chi2_strategic(Chi2Config(alpha_grid=(0.05, alpha)))


class TestCumulativeTrajectories:
    """The cumulative likelihood-ratio license min{C * prod Q(z)/P*(z), R} of every scenario."""

    SPACE = EvidenceSpace.of_size(2)
    PARAMS = MechanismParams(C=15.0, R=250.0)

    def paths(self, z, q, p_star, burn_in=0):
        q = Categorical(self.SPACE, q)
        return _cumulative_trajectories(np.array(z), q, np.array(p_star), self.PARAMS, burn_in)

    def test_outcome_outside_q_support_sends_the_license_to_zero(self):
        got = self.paths([[0, 1, 0]], [1.0, 0.0], [0.5, 0.5])
        assert got[0, 0] == pytest.approx(2 * self.PARAMS.C)
        assert got[0, 1:].tolist() == [0.0, 0.0]

    def test_outcome_outside_p_star_support_caps_the_license(self):
        got = self.paths([[0, 1, 0]], [0.5, 0.5], [0.0, 1.0])
        # the cap is issued as exp(ln R), one ulp below R = 250
        assert got.tolist() == [[249.9999999999999] * 3]

    def test_winning_streak_reaches_the_same_cap(self):
        got = self.paths([[0] * 20], [0.9, 0.1], [0.5, 0.5])
        assert got[0, 4] < 250.0 and np.all(got[0, 5:] == 249.9999999999999)

    def test_q_equal_to_p_star_stays_at_the_fee(self):
        got = self.paths([[0, 1, 0, 1], [1, 1, 0, 0]], [0.7, 0.3], [0.7, 0.3])
        assert np.all(got == self.PARAMS.C)

    def test_burn_in_prefix_is_held_at_the_fee(self):
        z = np.zeros((2, 6), dtype=np.int64)
        got = self.paths(z, [0.9, 0.1], [0.5, 0.5], burn_in=3)
        assert np.all(got[:, :3] == self.PARAMS.C)
        assert np.allclose(got[:, 3:], self.PARAMS.C * 1.8 ** np.arange(1, 4), rtol=1e-14, atol=0.0)
        assert np.all(self.paths(z, [0.9, 0.1], [0.5, 0.5], burn_in=6) == self.PARAMS.C)


class TestSpurious:
    def test_equal_surrogates_give_identical_trajectories(self):
        q = (0.7, 0.1, 0.15, 0.05)
        cfg = SpuriousConfig(q_compliant=q, q_noncompliant=q, runs=3, n=100, burn_in=10)
        table = run_synthetic_spurious(cfg)
        lic = [r for r in table.rows if r[0] == "license"]
        compliant = [r[3] for r in lic if r[1] == "compliant"]
        non = [r[3] for r in lic if r[1] == "non_compliant"]
        assert compliant == non

    def test_default_story(self):
        cfg = SpuriousConfig(runs=4, n=500)
        h = run_synthetic_spurious(cfg).headline
        assert h["compliant_final_mean"] == pytest.approx(cfg.params.R)
        assert h["non_compliant_final_mean"] <= cfg.params.C + 1e-9
        assert abs(h["easy_group_ratio"] - 1.0) <= 0.15
        assert h["hard_group_ratio"] > 1.0

    def test_ratio_rows_present(self):
        cfg = SpuriousConfig(runs=2, n=50, burn_in=10)
        table = run_synthetic_spurious(cfg)
        ratio_keys = {r[1] for r in table.rows if r[0] == "ratio"}
        assert {"easy_group", "hard_group"} <= ratio_keys
        assert len(ratio_keys) == 6

    def test_ratio_rows_are_truncated_payout_ratios(self):
        # The ratio rows do not depend on runs, n or burn_in: these are the
        # default config's rows.
        cfg = SpuriousConfig(runs=2, n=50, burn_in=10)
        hull = CredalSet(SPURIOUS_SPACE, (Categorical(SPURIOUS_SPACE, cfg.q_noncompliant),
                                          Categorical(SPURIOUS_SPACE, cfg.p_random)))
        payouts = {}
        for agent, probs in (("compliant", cfg.q_compliant), ("non_compliant", cfg.q_noncompliant)):
            q = Categorical(SPURIOUS_SPACE, probs)
            p_star = minimize_kappa(q, hull, cfg.params)[0] @ hull.vertex_matrix
            payouts[agent] = _truncated_payout(ratio(q.probs, p_star), cfg.params.C, cfg.params.R)
        # The non-compliant surrogate is a hull vertex, so it is its own P*.
        assert np.all(payouts["non_compliant"] == cfg.params.C)
        rows = {r[1]: r[3] for r in run_synthetic_spurious(cfg).rows if r[0] == "ratio"}
        want = payouts["compliant"] / payouts["non_compliant"]
        assert [rows[label] for label in SPURIOUS_SPACE.labels] == want.tolist()
        assert rows["hard_correct"] == 2.5370648378231873

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("overrides,want", [
        # the non-compliant surrogate has no hard mass: only the compliant license pays there
        ({"q_noncompliant": [0.5, 0.5, 0, 0], "p_random": [0.5, 0.5, 0, 0]},
         {"hard_correct": math.inf, "hard_wrong": math.inf, "hard_group": math.inf}),
        # neither surrogate has mass on hard_wrong: neither license pays there
        ({"q_compliant": [0.72, 0.08, 0.2, 0], "q_noncompliant": [0.7, 0.1, 0.2, 0],
          "p_random": [0.7, 0.1, 0.2, 0]},
         {"hard_correct": 1.0, "hard_wrong": 0.0, "hard_group": 1.0}),
    ])
    def test_a_license_paying_nothing_follows_the_ratio_rule(self, overrides, want):
        # once inf or nan rows and a divide-by-zero RuntimeWarning
        cfg = load_config("synthetic_spurious", dict(overrides, runs=2, n=40, burn_in=10))
        table = run_synthetic_spurious(cfg)
        rows = {r[1]: r[3] for r in table.rows if r[0] == "ratio"}
        assert {label: rows[label] for label in want} == want
        assert not any(map(math.isnan, rows.values()))
        assert table.headline["hard_group_ratio"] == want["hard_group"]


class TestConfigLoading:
    def test_defaults(self):
        cfg = load_config("simplex_gaming")
        assert cfg == SimplexGamingConfig()

    def test_overrides_and_seed(self):
        cfg = load_config("fairness", {"runs": 5, "params": {"C": 10.0, "R": 100.0}}, seed=99)
        assert cfg.runs == 5 and cfg.seed == 99
        assert cfg.params == MechanismParams(10.0, 100.0)

    def test_integer_params_are_stored_as_floats(self):
        cfg = load_config("fairness", {"params": {"C": 15, "R": 250}})
        assert type(cfg.params.C) is float and type(cfg.params.R) is float

    def test_integer_floats_are_stored_as_floats(self):
        # 1 and 1.0 are one config: one hash, and float cells in the CSV
        cfg = load_config("fairness", {"tau": 1, "kelly_margin": 0, "gammas": [0, 0.5]})
        assert cfg == load_config("fairness", {"tau": 1.0, "kelly_margin": 0.0, "gammas": [0.0, 0.5]})
        assert [type(v) for v in (cfg.tau, cfg.kelly_margin, *cfg.gammas)] == [float] * 4
        hashes = {ResultTable.of(load_config("fairness", {"tau": tau}), (), (), {}).config_hash
                  for tau in (1, 1.0)}
        assert len(hashes) == 1
        q = load_config("simplex_gaming", {"provider_q": [0, 1, 0]}).provider_q
        assert q == (0.0, 1.0, 0.0) and all(type(v) is float for v in q)
        assert load_config("simplex_gaming", {"provider_q": None}).provider_q is None

    def test_integer_gamma_is_written_as_a_float(self, tmp_path):
        cfg = load_config("fairness", {"gammas": [0], "runs": 2, "n": 2, "grid_resolution": 5})
        lines = table_bytes(run_fairness(cfg), tmp_path, "f.csv").decode().splitlines()
        assert [line.split(",")[0] for line in lines[2:]] == ["0.0", "0.0"]

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            load_config("nope")

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            load_config("fairness", {"bogus": 1})

    def test_scenario_key_must_name_the_scenario_loaded(self):
        with pytest.raises(ValueError, match="'scenario'"):
            load_config("fairness", {"scenario": "chi2_strategic", "runs": 2})
        with pytest.raises(ValueError, match="'scenario'"):
            load_config("fairness", {"scenario": None})
        assert load_config("fairness", {"scenario": "fairness", "runs": 2}) == FairnessConfig(runs=2)

    def test_result_table_shape_checked(self):
        with pytest.raises(ValueError):
            ResultTable("s", 0, "h", ("a", "b"), ((1,),))


class TestRunExperimentsCheck:
    """``scripts/run_experiments.py --check DIR`` compares each CSV's bytes with DIR's."""

    ROOT = Path(__file__).resolve().parents[1]

    def run_script(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.ROOT / "src"), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, str(self.ROOT / "scripts" / "run_experiments.py"),
             "--scenario", "synthetic_spurious", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_identical_rerun_exits_0_and_a_changed_byte_exits_1(self, tmp_path):
        first = self.run_script("--outdir", str(tmp_path / "first"))
        assert first.returncode == 0, first.stderr
        rerun = self.run_script("--outdir", str(tmp_path / "rerun"), "--check", str(tmp_path / "first"))
        assert rerun.returncode == 0, rerun.stderr
        assert "identical" in rerun.stdout and "differs" not in rerun.stdout

        changed = bytearray((tmp_path / "first" / "synthetic_spurious.csv").read_bytes())
        changed[-2] ^= 1
        (tmp_path / "changed").mkdir()
        (tmp_path / "changed" / "synthetic_spurious.csv").write_bytes(bytes(changed))
        against_changed = self.run_script(
            "--outdir", str(tmp_path / "again"), "--check", str(tmp_path / "changed"))
        assert against_changed.returncode == 1, against_changed.stderr
        assert "differs" in against_changed.stdout
