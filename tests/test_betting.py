import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import plugin_paths
from credalmarket import betting
from credalmarket.betting import (
    BettingScore,
    KellyConfig,
    _smoothed,
    kelly_bets,
    kelly_optimal_bet,
    run_sequential_license,
    verify_supermartingale,
    write_trajectory_csv,
)
from credalmarket.evidence import Categorical, EvidenceSpace, SampleStream, sample, spawn_seeds
from credalmarket.experiments import (
    FairnessConfig,
    _betting_trajectories,
    _draw_outcomes,
    _mean_se,
    paired_fairness_distribution,
    parity_betting_score,
    run_fairness,
)
from credalmarket.licenses import MechanismParams
from credalmarket.market import Provider, Requirement, _betting_sup_values

PARAMS = MechanismParams(C=15.0, R=250.0)
#: bound on the growth of ``write_trajectory_csv``'s tracemalloc peak from
#: n = 5,000 to 50,000: of its outputs it holds only the one-byte outcomes
#: whole (45 kB of the measured 48 kB) and writes the other columns block by
#: block as ``betting._plugin_blocks`` yields them (full (1, n) arrays grew 14.5 MB)
PEAK_ABOVE_OUTPUTS = 256 * 1024
#: largest change in the tracemalloc peak of ``betting._plugin_blocks``,
#: consumed block by block on the market's shape, from n = 500 to 5,000
BLOCK_PEAK_DRIFT = 4 * 1024
#: tracemalloc peak of one supermartingale audit at 10^4 runs x 500 rounds,
#: above its log-wealth vector
AUDIT_PEAK_ABOVE_WEALTH = 1024 * 1024


def scalar_kelly(probs, score, cfg, init=None):
    """One-distribution safeguarded Newton solve: the reference kelly_bets must match."""
    edge = float(probs @ score)
    if edge <= 0.0:
        return 0.0
    ceiling = cfg.ceiling(score)

    def fprime(lam):
        return float(probs @ (score / (1.0 + lam * score)))

    if fprime(ceiling) >= 0.0:
        return ceiling
    lo, hi = 0.0, ceiling
    lam = min(edge / float(probs @ score**2), ceiling)
    if init is not None and 0.0 < init < ceiling:
        lam = init
    for _ in range(betting.KELLY_MAX_ITER):
        d1 = fprime(lam)
        if abs(d1) <= betting.NEWTON_TOL:
            return lam
        if d1 > 0:
            lo = lam
        else:
            hi = lam
        d2 = float(probs @ (-(score**2) / (1.0 + lam * score) ** 2))
        lam_next = lam - d1 / d2
        if not (lo < lam_next < hi):
            lam_next = 0.5 * (lo + hi)
        if abs(lam_next - lam) <= betting.NEWTON_TOL * max(1.0, lam):
            return lam_next
        lam = lam_next
    grid = np.linspace(0.0, ceiling, betting.GRID_FALLBACK)
    values = np.log1p(np.outer(grid, score)) @ probs
    return float(grid[int(np.argmax(values))])


def scalar_paths(z, score, cfg, params, warm_start=False):
    """(bets, log-wealth, licenses) of one plug-in Kelly trajectory, one scalar solve per round."""
    m = score.space.size
    counts = np.zeros(m, dtype=np.int64)
    log_wealth, log_cap = math.log(params.C), math.log(params.R)
    lam = 0.0
    lams, log_wealths, licenses = (np.empty(len(z)) for _ in range(3))
    for t, zt in enumerate(z):
        if t > 0:
            lam = scalar_kelly((counts + 1.0) / (counts.sum() + m), score.score, cfg,
                               init=lam if warm_start else None)
        log_wealth += math.log1p(lam * float(score.score[zt]))
        counts[zt] += 1
        lams[t], log_wealths[t] = lam, log_wealth
        licenses[t] = params.R if log_wealth >= log_cap else math.exp(log_wealth)
    return lams, log_wealths, licenses


def scalar_license_path(z, score, cfg, params, warm_start=False):
    """Per-round license values of one plug-in Kelly trajectory: :func:`scalar_paths`' third array."""
    return scalar_paths(z, score, cfg, params, warm_start)[2]


def lexsort_supermartingale(null_dist, b, cfg, runs, n, seed, params=PARAMS, solve=kelly_bets):
    """The (runs, m) count-matrix audit loop: re-sorts every run's count row each round."""
    m = b.space.size
    stream = SampleStream(null_dist, seed=seed)
    counts = np.zeros((runs, m), dtype=np.int64)
    log_wealth = np.full(runs, math.log(params.C))
    for t in range(n):
        z = sample(stream, runs)
        if t > 0:
            order = np.lexsort(counts.T[::-1])  # rows sorted by count vector
            ordered = counts[order]
            first = np.ones(runs, dtype=bool)
            first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
            inverse = np.empty(runs, dtype=np.intp)
            inverse[order] = np.cumsum(first) - 1
            lams = solve(_smoothed(ordered[first], t, m), b, cfg)
            log_wealth += np.log1p(lams[inverse] * b.score[z])
        counts[np.arange(runs), z] += 1
    wealth = np.exp(log_wealth)
    mean = float(wealth.mean())
    se = float(wealth.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
    return mean, se


def binary_score(space):
    return BettingScore(space, [1.0, -1.0])


def binary_dist(space, p):
    return Categorical(space, [p, 1.0 - p])


@pytest.fixture
def bspace():
    return EvidenceSpace.of_size(2, prefix="o")


class TestKellyBet:
    @pytest.mark.parametrize("p", [0.6, 0.75, 0.9])
    def test_even_money_closed_form(self, bspace, p):
        cfg = KellyConfig()
        lam = kelly_optimal_bet(binary_dist(bspace, p), binary_score(bspace), cfg)
        assert lam == pytest.approx(2 * p - 1, abs=1e-9)

    def test_zero_edge_means_no_bet(self, bspace):
        assert kelly_optimal_bet(binary_dist(bspace, 0.5), binary_score(bspace), KellyConfig()) == 0.0

    def test_negative_edge_means_no_bet(self, bspace):
        assert kelly_optimal_bet(binary_dist(bspace, 0.3), binary_score(bspace), KellyConfig()) == 0.0

    @pytest.mark.parametrize("margin", [0.0, 1.0, 1.5, float("nan")])
    def test_margin_outside_the_unit_interval_is_rejected(self, margin):
        # A margin of 1 or more gives a ceiling at or below 0: no bet in (0, B].
        with pytest.raises(ValueError, match="margin"):
            KellyConfig(margin=margin)

    def test_sure_win_bets_the_ceiling(self, bspace):
        score = BettingScore(bspace, [0.4, 0.4])
        cfg = KellyConfig()
        lam = kelly_optimal_bet(binary_dist(bspace, 0.5), score, cfg)
        assert lam == betting.LAMBDA_DEFAULT_MAX

    def test_warm_start_does_not_change_answer(self, bspace):
        cfg = KellyConfig()
        probs = binary_dist(bspace, 0.7).probs[None, :]
        base = kelly_bets(probs, binary_score(bspace), cfg)
        for init in (0.01, 0.3, 0.9):
            assert kelly_bets(probs, binary_score(bspace), cfg, init=[init]) == pytest.approx(
                base, abs=1e-9
            )

    def test_beats_every_grid_point(self):
        rng = np.random.default_rng(31)
        cfg = KellyConfig()
        for _ in range(25):
            m = int(rng.integers(2, 5))
            space = EvidenceSpace.of_size(m)
            score = BettingScore(space, rng.uniform(-1.5, 1.5, size=m))
            dist = Categorical(space, rng.dirichlet(np.ones(m)))
            lam = kelly_optimal_bet(dist, score, cfg)
            ceiling = cfg.ceiling(score.score)
            grid = np.linspace(0.0, ceiling, 10001)
            f_grid = np.log1p(np.outer(grid, score.score)) @ dist.probs
            f_opt = float(dist.probs @ np.log1p(lam * score.score))
            assert f_opt >= float(f_grid.max()) - 1e-10


@st.composite
def kelly_problems(draw):
    """Shapes, margins, batch layouts, warm starts and Newton iteration budgets from
    hypothesis, values from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 6))
    rows = draw(st.integers(1, 12))
    score = rng.uniform(-2.0, 2.0, size=m)
    if draw(st.sampled_from([False, False, False, True])):
        score = np.abs(score)  # no losing outcome: the default ceiling applies, and every row bets it
    probs = rng.dirichlet(np.full(m, draw(st.sampled_from([0.3, 1.0, 5.0]))), size=rows)
    layout = draw(st.sampled_from(["drawn", "drawn", "ceiling", "repeated"]))
    if layout == "ceiling":  # about half the rows all but certain of the best outcome: they bet B
        sure = rng.random(rows) < 0.5
        probs[sure] = 1e-6 / (m - 1)
        probs[sure, np.argmax(score)] = 1.0 - 1e-6
    elif layout == "repeated":  # one row copied: from a shared start, every row stops at once
        probs = np.repeat(probs[:1], rows, axis=0)
    max_iter = draw(st.sampled_from([1, 2, 200]))
    cfg = KellyConfig(draw(st.sampled_from([0.01, 0.01, 0.05, 0.3])))  # several ceilings
    ceiling = cfg.ceiling(score)
    init = None
    starts = draw(st.sampled_from(["cold", "drawn", "mixed", "solved"]))
    if starts != "cold":
        init = rng.uniform(-0.5, 1.5, size=rows) * ceiling  # some outside (0, B)
    if starts == "mixed":  # a third each: drawn, unusable, and the row's answer
        kind = rng.integers(0, 3, size=rows)
        init[kind == 1] = rng.choice([np.nan, 0.0, ceiling, -ceiling, 2.0 * ceiling, np.inf],
                                     size=int(np.sum(kind == 1)))
    if starts in ("mixed", "solved"):  # a row that starts at its answer stops on iteration 1
        solved = kind == 2 if starts == "mixed" else np.ones(rows, dtype=bool)
        init[solved] = [scalar_kelly(p, score, cfg) for p in probs[solved]]
    return BettingScore(EvidenceSpace.of_size(m), score), probs, cfg, init, max_iter


class TestKellyBets:
    @given(kelly_problems())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_newton_bitwise(self, problem):
        b, probs, cfg, init, max_iter = problem
        with patch.object(betting, "KELLY_MAX_ITER", max_iter):
            got = kelly_bets(probs, b, cfg, init=init)
            want = [scalar_kelly(probs[i], b.score, cfg, None if init is None else float(init[i]))
                    for i in range(len(probs))]
        assert np.array_equal(got, want)

    def test_constants_follow_the_score_object_and_the_margin(self):
        space = EvidenceSpace.of_size(3)
        first, second = (BettingScore(space, [0.5, -1.5, 1.0]) for _ in range(2))
        assert first != second  # eq=False: equal arrays, two objects
        cfgs = [KellyConfig(0.01), KellyConfig(0.4)]
        assert cfgs[0].ceiling(first.score) != cfgs[1].ceiling(first.score)
        probs = np.random.default_rng(5).dirichlet(np.ones(3), size=40)
        for b in (first, second, first):
            for cfg in cfgs + cfgs[::-1]:
                want = [scalar_kelly(p, b.score, cfg) for p in probs]
                assert np.array_equal(kelly_bets(probs, b, cfg), want)

    def test_solver_settings_are_read_at_call_time(self, bspace):
        cfg = KellyConfig()
        score = BettingScore(bspace, [1.0, -0.5])
        probs = np.array([[0.5, 0.5], [0.6, 0.4]])
        newton = kelly_bets(probs, score, cfg)  # a first call with the default settings
        with patch.object(betting, "KELLY_MAX_ITER", 1), patch.object(betting, "GRID_FALLBACK", 1001):
            got = kelly_bets(probs, score, cfg)
            want = [scalar_kelly(p, score.score, cfg) for p in probs]
        assert np.array_equal(got, want) and not np.array_equal(got, newton)
        assert np.all(np.isin(got, np.linspace(0.0, cfg.ceiling(score.score), 1001)))
        with patch.object(betting, "NEWTON_TOL", 1e-3):
            loose = kelly_bets(probs, score, cfg)
            want = [scalar_kelly(p, score.score, cfg) for p in probs]
        assert np.array_equal(loose, want) and not np.array_equal(loose, newton)
        assert np.array_equal(kelly_bets(probs, score, cfg), newton)

    def test_rows_stopped_by_the_step_rule(self, bspace):
        # At p = 0.96 the Newton step drops under NEWTON_TOL before the derivative does.
        cfg = KellyConfig()
        score = BettingScore(bspace, [1.0, -0.5])
        for probs in (np.tile([0.96, 0.04], (4, 1)),  # every row stops on one iteration
                      np.array([[0.96, 0.04], [0.6, 0.4], [0.96, 0.04], [0.8, 0.2]])):
            want = [scalar_kelly(p, score.score, cfg) for p in probs]
            assert np.array_equal(kelly_bets(probs, score, cfg), want)

    def test_edge_cases_in_one_batch(self, bspace):
        cfg = KellyConfig()
        probs = np.array([[0.5, 0.5], [0.3, 0.7], [0.7, 0.3], [0.75, 0.25]])
        got = kelly_bets(probs, binary_score(bspace), cfg, init=[0.2, 0.2, 0.0, 0.3])
        assert got[0] == 0.0 and got[1] == 0.0  # zero and negative edge
        assert got[2] == pytest.approx(0.4, abs=1e-9)
        assert got[3] == pytest.approx(0.5, abs=1e-9)
        sure_win = kelly_bets(probs, BettingScore(bspace, [0.4, 0.4]), cfg)
        assert np.array_equal(sure_win, np.full(4, betting.LAMBDA_DEFAULT_MAX))

    def test_guesses_at_the_bracket_ends_are_ignored(self):
        cfg = KellyConfig()
        score = BettingScore(EvidenceSpace.of_size(3), [0.4, -1.6, 1.5])
        probs = np.random.default_rng(0).dirichlet(np.ones(3), size=500)
        cold = kelly_bets(probs, score, cfg)
        for end in (0.0, cfg.ceiling(score.score)):
            assert np.array_equal(kelly_bets(probs, score, cfg, init=np.full(500, end)), cold)

    def test_grid_fallback_after_one_iteration(self, bspace):
        # An uneven score leaves Newton short after one step, so the grid decides.
        cfg = KellyConfig()
        score = BettingScore(bspace, [1.0, -0.5])
        probs = np.array([[0.5, 0.5], [0.6, 0.4]])
        with patch.object(betting, "KELLY_MAX_ITER", 1), patch.object(betting, "GRID_FALLBACK", 1001):
            got = kelly_bets(probs, score, cfg)
            want = [scalar_kelly(p, score.score, cfg) for p in probs]
        grid = np.linspace(0.0, cfg.ceiling(score.score), 1001)
        assert np.all(np.isin(got, grid))
        assert got == pytest.approx([0.5, 0.8], abs=2e-3)
        assert np.array_equal(got, want)


class TestBatchedPaths:
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6), runs=st.integers(1, 5),
           n=st.integers(0, 80), no_loss=st.booleans(),
           block=st.sampled_from(["1", "runs-1", "runs+1", "short-last"]),
           max_iter=st.sampled_from([1, 2, 200]), warm_start=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_cold_blocks_match_per_row_scalar_loop_bitwise(self, seed, m, runs, n, no_loss,
                                                           block, max_iter, warm_start):
        # Warm paths take their counts from the same blocks, so a patched
        # block size makes their warm starts cross block boundaries too.
        rng = np.random.default_rng(seed)
        score = rng.uniform(-2.0, 2.0, size=m)
        if no_loss:
            score = np.abs(score)  # no losing outcome: the default ceiling applies
        b = BettingScore(EvidenceSpace.of_size(m), score)
        z = rng.choice(m, size=(runs, n), p=rng.dirichlet(np.ones(m)))
        # Rounds 1..n-1 in blocks of k leave a short last block for every n >= 4.
        k = next((j for j in range(2, n - 1) if (n - 1) % j), 2)
        rows = {"1": 1, "runs-1": runs - 1, "runs+1": runs + 1, "short-last": runs * k}[block]
        cfg = KellyConfig()
        with patch.object(betting, "PATH_BLOCK_ROWS", rows), \
                patch.object(betting, "KELLY_MAX_ITER", max_iter):
            got = plugin_paths(z, b, cfg, PARAMS, warm_start=warm_start)
            want = [scalar_paths(row, b, cfg, PARAMS, warm_start=warm_start) for row in z]
        for got_array, want_arrays in zip(got, zip(*want)):
            assert got_array.shape == (runs, n)
            assert np.array_equal(got_array, np.reshape(want_arrays, (runs, n)))

    def test_cold_blocks_peak_memory_does_not_grow_with_n(self):
        # The market's shape: 4 providers x 30 replicates over 6 outcomes.
        space = EvidenceSpace.of_size(6)
        b = BettingScore.from_metric(space, [0.4, 1.0, 0.0, 0.8, 0.2, 0.6], 0.5)
        q = Categorical(space, [0.1, 0.3, 0.1, 0.25, 0.1, 0.15])
        # A first pass makes numpy's one-time allocations (about 5 kB), so make it untraced.
        for _ in betting._plugin_blocks(_draw_outcomes(q, 120, 20, 1), b, KellyConfig(), PARAMS):
            pass
        peaks = []
        for n in (500, 5000):
            z = _draw_outcomes(q, 120, n, 0)
            tracemalloc.start()
            try:
                for _ in betting._plugin_blocks(z, b, KellyConfig(), PARAMS):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # measured 862 kB at both n: a block's counts, probabilities and solver temporaries
        assert abs(peaks[1] - peaks[0]) <= BLOCK_PEAK_DRIFT, peaks

    def test_trajectory_csv_peak_memory_does_not_grow_with_n(self, tmp_path):
        space = EvidenceSpace.of_size(6)
        b = BettingScore.from_metric(space, [0.4, 1.0, 0.0, 0.8, 0.2, 0.6], 0.5)
        q = Categorical(space, [0.1, 0.3, 0.1, 0.25, 0.1, 0.15])
        peaks = []
        for n in (5000, 50_000):
            stream = SampleStream(q, seed=0)
            tracemalloc.start()
            try:
                write_trajectory_csv(tmp_path / f"{n}.csv", b, KellyConfig(), PARAMS, stream, n, "peak")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= PEAK_ABOVE_OUTPUTS, peaks

    def test_fairness_loop_matches_per_run_scalar_loop(self):
        cfg = FairnessConfig(runs=4, n=300)
        score = parity_betting_score(cfg.tau)
        kelly_cfg = KellyConfig(margin=cfg.kelly_margin)
        z = _draw_outcomes(paired_fairness_distribution(0.4), cfg.runs, cfg.n, cfg.seed)
        want = np.stack([scalar_license_path(row, score, kelly_cfg, cfg.params, warm_start=True)
                         for row in z])
        assert np.array_equal(plugin_paths(z, score, kelly_cfg, cfg.params, warm_start=True)[2], want)
        (mean,), (se,) = _betting_trajectories(z, score, kelly_cfg, cfg.params, 1)
        assert np.array_equal(mean, want.mean(axis=0))
        assert np.array_equal(se, want.std(axis=0, ddof=1) / 2.0)

    def test_integer_params_give_the_float_params_paths(self):
        # A JSON config can give C and R as integers; licenses below R must
        # not be truncated to integers.
        cfg = FairnessConfig(runs=3, n=200)
        score = parity_betting_score(cfg.tau)
        kelly_cfg = KellyConfig(margin=cfg.kelly_margin)
        z = _draw_outcomes(paired_fairness_distribution(0.4), cfg.runs, cfg.n, cfg.seed)
        ints, floats = MechanismParams(C=15, R=250), MechanismParams(C=15.0, R=250.0)
        got = plugin_paths(z, score, kelly_cfg, ints, warm_start=True)[2]
        want = plugin_paths(z, score, kelly_cfg, floats, warm_start=True)[2]
        assert got.dtype == float and np.array_equal(got, want)
        assert np.any(got != np.round(got))
        for a, b in zip(_betting_trajectories(z, score, kelly_cfg, ints, 1),
                        _betting_trajectories(z, score, kelly_cfg, floats, 1)):
            assert a.dtype == float and np.array_equal(a, b)

    @pytest.mark.parametrize("block_rows", [1, 7, betting.PATH_BLOCK_ROWS])
    def test_sequential_license_matches_scalar_loop(self, block_rows):
        # The licenses are the blocks' rows, concatenated in round order.
        space = EvidenceSpace.of_size(3)
        score = BettingScore(space, [0.5, -0.3, -1.0])
        q = Categorical(space, [0.6, 0.3, 0.1])
        with patch.object(betting, "PATH_BLOCK_ROWS", block_rows):
            got = run_sequential_license(SampleStream(q, seed=5), score, KellyConfig(), PARAMS, 300)
        want = scalar_license_path(sample(SampleStream(q, seed=5), 300), score, KellyConfig(), PARAMS)
        assert np.array_equal(got, want)

    def test_market_sup_value_matches_per_replicate_loop(self):
        # every provider's replicates are rows of one call; each provider's
        # value must still be its own replicates' mean, in the given order
        space = EvidenceSpace.of_size(3)
        req = Requirement(kind="threshold", metric=np.array([1.0, 0.4, 0.0]), tau=0.5)
        providers = [Provider(id=f"p{i}", q=Categorical(space, q))
                     for i, q in enumerate([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.7, 0.2, 0.1]])]
        cfg = KellyConfig()
        with patch("credalmarket.market.BETTING_REPLICATES", 7):
            got = _betting_sup_values(providers, req, PARAMS, n=200, seed=9)
        score = BettingScore.from_metric(space, req.metric, req.tau)
        for provider, value in zip(providers, got):
            finals = [run_sequential_license(SampleStream(provider.q, seed=s), score, cfg, PARAMS, 200)[-1]
                      for s in spawn_seeds(9, 7)]
            assert value == float(np.mean(finals))

    @pytest.mark.parametrize("block_rows", [1, 20, 22, 63])  # 21 rows: 1 round, 1 round, 1, 3
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_market_final_licenses_at_block_edges(self, block_rows, n):
        # The market keeps only the last block's last round of the cold paths.
        space = EvidenceSpace.of_size(3)
        req = Requirement(kind="threshold", metric=np.array([1.0, 0.4, 0.0]), tau=0.5)
        providers = [Provider(id=f"p{i}", q=Categorical(space, q))
                     for i, q in enumerate([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.7, 0.2, 0.1]])]
        score = BettingScore.from_metric(space, req.metric, req.tau)
        z = np.vstack([_draw_outcomes(pr.q, 7, n, 9) for pr in providers])
        finals = plugin_paths(z, score, KellyConfig(), PARAMS)[2][:, -1].reshape(3, 7)
        with patch("credalmarket.market.BETTING_REPLICATES", 7), \
                patch.object(betting, "PATH_BLOCK_ROWS", block_rows):
            got = _betting_sup_values(providers, req, PARAMS, n=n, seed=9)
        assert got == [float(np.mean(row)) for row in finals]

    def test_market_providers_must_share_a_space(self):
        req = Requirement(kind="threshold", metric=np.array([1.0, 0.0]), tau=0.5)
        providers = [Provider(id="a", q=Categorical(EvidenceSpace(("x", "y")), [0.5, 0.5])),
                     Provider(id="b", q=Categorical(EvidenceSpace(("u", "v")), [0.5, 0.5]))]
        with patch("credalmarket.market.BETTING_REPLICATES", 2), \
                pytest.raises(ValueError, match="different evidence spaces"):
            _betting_sup_values(providers, req, PARAMS, n=10, seed=0)

    def test_fairness_stacks_gammas_as_the_per_gamma_loop(self):
        cfg = FairnessConfig(runs=3, n=150, gammas=(0.4, 0.5, 0.6), grid_resolution=5)
        table = run_fairness(cfg)
        score = parity_betting_score(cfg.tau)
        kelly_cfg = KellyConfig(margin=cfg.kelly_margin)
        for g_idx, gamma in enumerate(cfg.gammas):
            z = _draw_outcomes(paired_fairness_distribution(gamma), cfg.runs, cfg.n, cfg.seed + g_idx)
            mean, se = _mean_se(plugin_paths(z, score, kelly_cfg, cfg.params, warm_start=True)[2])
            rows = table.column("gamma") == gamma
            assert np.array_equal(table.column("betting_mean")[rows], mean)
            assert np.array_equal(table.column("betting_se")[rows], se)


class TestPluginBet:
    def test_round_zero_bets_nothing(self, bspace):
        z = np.zeros((3, 5), dtype=np.int64)
        lams = plugin_paths(z, binary_score(bspace), KellyConfig(), PARAMS)[0]
        assert np.all(lams[:, 0] == 0.0)

    def test_all_wins_stays_under_ceiling(self, bspace):
        cfg = KellyConfig()
        z = np.zeros((1, 21), dtype=np.int64)
        lam = plugin_paths(z, binary_score(bspace), cfg, PARAMS)[0][0, 20]
        # smoothed estimate (21/22) after 20 wins keeps the plug-in bet off the ceiling
        assert lam == pytest.approx(2 * (21 / 22) - 1, abs=1e-9)
        assert lam < cfg.ceiling(binary_score(bspace).score)


class TestSequentialLicense:
    def test_compliant_score_reaches_cap(self, bspace):
        stream = SampleStream(binary_dist(bspace, 0.75), seed=8)
        values = run_sequential_license(stream, binary_score(bspace), KellyConfig(), PARAMS, 500)
        assert values[-1] == PARAMS.R
        assert np.all(values <= PARAMS.R)

    def test_nonpositive_edge_never_bets(self, bspace):
        # score never positive: the plug-in edge stays <= 0, so lambda = 0 throughout
        score = BettingScore(bspace, [0.0, -1.0])
        stream = SampleStream(binary_dist(bspace, 0.6), seed=3)
        values = run_sequential_license(stream, score, KellyConfig(), PARAMS, 200)
        assert np.allclose(values, PARAMS.C)

    def test_needs_at_least_one_round(self, bspace):
        stream = SampleStream(binary_dist(bspace, 0.5), seed=0)
        with pytest.raises(ValueError):
            run_sequential_license(stream, binary_score(bspace), KellyConfig(), PARAMS, 0)


class TestSupermartingale:
    def test_never_betting_preserves_the_fee_exactly(self, bspace):
        score = BettingScore(bspace, [0.0, -1.0])  # edge never positive
        mean, se = verify_supermartingale(
            binary_dist(bspace, 0.5), score, KellyConfig(), runs=200, n=50, seed=1
        )
        assert mean == PARAMS.C and se == 0.0

    def test_positive_edge_rejected(self, bspace):
        with pytest.raises(ValueError):
            verify_supermartingale(
                binary_dist(bspace, 0.6), binary_score(bspace), KellyConfig(), runs=10, n=5, seed=0
            )

    @given(m=st.integers(2, 6), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_zero_drift_nulls_are_accepted_despite_round_off(self, m, scale, seed):
        # tau = E_P[h] makes E[b] = 0, the boundary the audit checks; the
        # computed edge is float residue of either sign
        rng = np.random.default_rng(seed)
        space = EvidenceSpace.of_size(m)
        null = Categorical(space, rng.dirichlet(np.ones(m)))
        h = scale * rng.normal(size=m)
        score = BettingScore.from_metric(space, h, float(null.probs @ h))
        mean, se = verify_supermartingale(null, score, KellyConfig(), runs=3, n=2, seed=0)
        assert math.isfinite(mean) and math.isfinite(se)

    def test_edge_beyond_round_off_rejected(self, bspace):
        score = BettingScore(bspace, [1.0, -1.0 + 2e-9])  # E[b] = 1e-9 on a fair coin
        with pytest.raises(ValueError, match=r"E\[b\] <= 0"):
            verify_supermartingale(binary_dist(bspace, 0.5), score, KellyConfig(), runs=2, n=1, seed=0)

    def test_zero_drift_checkpoints_respect_obedience(self, bspace):
        # mean wealth never exceeds C + 3 SE at any checkpoint
        for n in (10, 100, 500):
            mean, se = verify_supermartingale(
                binary_dist(bspace, 0.5), binary_score(bspace), KellyConfig(),
                runs=2000, n=n, seed=14,
            )
            assert mean <= PARAMS.C + 3.0 * se

    def test_strictly_negative_drift_loses_money(self, bspace):
        mean, se = verify_supermartingale(
            binary_dist(bspace, 0.475), binary_score(bspace), KellyConfig(),
            runs=2000, n=200, seed=15,
        )
        assert mean < PARAMS.C

    @pytest.mark.parametrize("runs, n, name", [(0, 5, "runs"), (-2, 5, "runs"), (10, -3, "n")])
    def test_meaningless_run_counts_rejected(self, bspace, runs, n, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least"):
            verify_supermartingale(
                binary_dist(bspace, 0.5), binary_score(bspace), KellyConfig(), runs=runs, n=n, seed=0
            )

    def test_no_rounds_keeps_the_fee(self, bspace):
        mean, se = verify_supermartingale(
            binary_dist(bspace, 0.5), binary_score(bspace), KellyConfig(), runs=7, n=0, seed=0
        )
        assert mean == PARAMS.C and se == 0.0

    def test_audit_shape_is_pinned(self, bspace):
        mean, se = verify_supermartingale(
            binary_dist(bspace, 0.5), binary_score(bspace), KellyConfig(),
            runs=10_000, n=500, seed=404,
        )
        assert (mean, se) == (8.09726079414165, 1.3186792426797682)


@st.composite
def audit_problems(draw):
    """A null, some of whose outcomes may have probability 0, and a score with E[b] <= 0 under it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 5))
    probs = rng.dirichlet(np.full(m, draw(st.sampled_from([0.3, 1.0, 5.0]))))
    probs[:draw(st.integers(0, m - 1))] = 0.0  # outcomes the null never draws
    probs /= probs.sum()
    score = rng.uniform(-2.0, 2.0, size=m)
    if draw(st.booleans()):
        # No losing outcome: the default ceiling applies, and there is no edge under the null.
        score = np.where(probs > 0.0, 0.0, np.abs(score))
    else:
        score -= float(probs @ score) + draw(st.sampled_from([1e-12, 0.05]))
    space = EvidenceSpace.of_size(m)
    return (Categorical(space, probs), BettingScore(space, score), draw(st.integers(1, 300)),
            draw(st.integers(0, 60)), draw(st.integers(0, 2**16)))


def recording(solved):
    """kelly_bets that also appends each call's probability rows to ``solved``."""
    def solve(probs, b, cfg):
        solved.append(probs)
        return kelly_bets(probs, b, cfg)
    return solve


class TestSupermartingaleStateTable:
    """The state table against the count-matrix loop it replaced."""

    @staticmethod
    def check(null, b, runs, n, seed):
        cfg, got_rows, want_rows = KellyConfig(), [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(betting, "kelly_bets", recording(got_rows))
            got = verify_supermartingale(null, b, cfg, runs=runs, n=n, seed=seed)
        assert got == lexsort_supermartingale(null, b, cfg, runs, n, seed,
                                              solve=recording(want_rows))
        # Each round solves its distinct count rows once, in the same sorted
        # order, and a call solves one or more whole rounds.
        assert len(got_rows) <= len(want_rows)
        none = np.empty((0, b.space.size))
        assert np.array_equal(np.concatenate([none, *got_rows]), np.concatenate([none, *want_rows]))
        return got_rows

    @given(audit_problems())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_count_matrix_loop_bitwise(self, problem):
        self.check(*problem)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_the_count_matrix_loop_at_zero_drift(self, bspace, seed):
        self.check(binary_dist(bspace, 0.5), binary_score(bspace), 3000, 120, seed)

    # A block bound of 12 key cells: 4 runs take 3 rounds per block, 5 and 6
    # take 2, 7 and more take 1, and n = 9 leaves a short last block of 2.
    @pytest.mark.parametrize("runs, n, span", [
        (5, 9, 2), (6, 9, 2), (7, 9, 1), (11, 9, 1), (12, 9, 1), (13, 9, 1),
        (6, 10, 2), (4, 11, 3), (1, 25, 12), (1, 13, 12), (1, 1, 12), (6, 1, 2), (30, 1, 1),
    ])
    def test_block_edges_match_the_count_matrix_loop(self, bspace, runs, n, span):
        with patch.object(betting, "AUDIT_BLOCK_CELLS", 12):
            solved = self.check(binary_dist(bspace, 0.5), binary_score(bspace), runs, n, 7)
        # Blocks of ``span`` rounds start at round 0, which bets nothing.
        assert len(solved) == len({t // span for t in range(1, n)})

    def test_one_block_covers_every_round_of_one_run(self, bspace):
        solved = self.check(binary_dist(bspace, 0.3), binary_score(bspace), 1, 300, 5)
        assert len(solved) == 1

    @pytest.mark.parametrize("probs", [
        (0.5, 0.0, 0.5), (0.4, 0.6, 0.0), (0.2, 0.0, 0.3, 0.5), (0.3, 0.7, 0.0, 0.0),
        (0.0, 0.25, 0.0, 0.75),
    ], ids=["m3-interior-zero", "m3-trailing-zero", "m4-interior-zero", "m4-trailing-zeros",
            "m4-leading-and-interior-zero"])
    @pytest.mark.parametrize("runs", [3, 4, 5])
    def test_zero_mass_outcomes_across_blocks(self, probs, runs):
        space = EvidenceSpace.of_size(len(probs))
        null = Categorical(space, probs)
        score = np.linspace(1.0, -1.5, len(probs))
        score -= float(null.probs @ score) + 0.01
        with patch.object(betting, "AUDIT_BLOCK_CELLS", 12):
            self.check(null, BettingScore(space, score), runs, 20, 3)

    def test_peak_memory_at_the_audit_shape_does_not_grow_with_n(self, bspace):
        null, score = binary_dist(bspace, 0.5), binary_score(bspace)
        # A first call imports numpy.random's modules (about 0.7 MB), so make it untraced.
        verify_supermartingale(null, score, KellyConfig(), runs=2, n=2, seed=0)
        tracemalloc.start()
        try:
            verify_supermartingale(null, score, KellyConfig(), runs=10_000, n=500, seed=404)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 0.84 MB, with 0.48 MB of it a block's stashed keys; a
        # stash of every round's keys would take 40 MB
        assert peak - 10_000 * 8 <= AUDIT_PEAK_ABOVE_WEALTH, peak


@pytest.mark.parametrize("n", [1, 2, 25, 2050])  # 2,050 rounds cross the default block
def test_trajectory_csv(tmp_path, bspace, n):
    # The rows are written block by block; the blocks must not show in the file.
    score, dist = binary_score(bspace), binary_dist(bspace, 0.7)
    files = []
    for block_rows in (1, 7, betting.PATH_BLOCK_ROWS):
        path = tmp_path / f"trajectory-{block_rows}.csv"
        with patch.object(betting, "PATH_BLOCK_ROWS", block_rows):
            write_trajectory_csv(path, score, KellyConfig(), PARAMS, SampleStream(dist, seed=2), n,
                                 header_comment="test run")
        files.append(path.read_bytes())
    assert files[1] == files[0] and files[2] == files[0]
    lines = files[0].decode().splitlines()
    assert lines[0] == "# test run"
    assert lines[1] == "step,lambda,outcome,wealth,license_value"
    assert len(lines) == 2 + n
    step, lam, outcome, wealth, license_value = zip(*(line.split(",") for line in lines[2:]))
    z = sample(SampleStream(dist, seed=2), n)
    lams, log_wealth, licenses = scalar_paths(z, score, KellyConfig(), PARAMS)
    assert list(map(int, step)) == list(range(1, n + 1))
    assert list(map(int, outcome)) == z.tolist()
    assert np.array_equal(np.array(lam, dtype=float), lams)
    assert list(map(float, wealth)) == [math.exp(v) for v in log_wealth.tolist()]
    assert np.array_equal(np.array(license_value, dtype=float), licenses)
    assert np.all(licenses <= PARAMS.R)
