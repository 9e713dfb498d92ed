import hashlib
import json

import numpy as np
import pytest

from conftest import random_categorical, random_credal
from credalmarket.credal import CredalSet, membership
from credalmarket.evidence import Categorical, EvidenceSpace
from credalmarket._linprog import BLOCK_ENTRIES
from credalmarket.licenses import MechanismParams, participation_decision, sup_value_over_obedient
from credalmarket.market import (
    BOUNDARY_BAND,
    MarketReport,
    Provider,
    ProviderRow,
    Requirement,
    _classify,
    evaluate_requirement,
    simulate_market,
    strategic_mixture_best_response,
)

PARAMS = MechanismParams(C=15.0, R=250.0)


class TestRequirement:
    def test_exactly_one_kind(self, simplex_hull):
        with pytest.raises(ValueError):
            Requirement(kind="threshold", metric=[1.0, 0.0], tau=0.5, credal=simplex_hull)
        with pytest.raises(ValueError):
            Requirement(kind="credal")
        with pytest.raises(ValueError):
            Requirement(kind="other")

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_threshold_tau_must_be_finite(self, tau):
        with pytest.raises(ValueError, match="finite"):
            Requirement(kind="threshold", metric=[1.0, 0.0], tau=tau)

    def test_threshold_evaluation(self, space2):
        req = Requirement(kind="threshold", metric=np.array([1.0, 0.0]), tau=0.5)
        assert evaluate_requirement(req, Categorical(space2, [0.7, 0.3]))
        assert not evaluate_requirement(req, Categorical(space2, [0.4, 0.6]))

    def test_credal_evaluation(self, simplex_hull, simplex_points, uniform3, space3):
        req = Requirement(kind="credal", credal=simplex_hull)
        assert not evaluate_requirement(req, simplex_points[0])
        assert not evaluate_requirement(req, uniform3)  # the strategic mixture is in the hull
        assert evaluate_requirement(req, Categorical(space3, [0.9, 0.05, 0.05]))


class TestSimulateMarket:
    def test_gaming_population_all_excluded(self, simplex_hull, simplex_points, uniform3):
        providers = [Provider(id=f"p{i}", q=p) for i, p in enumerate(simplex_points)]
        providers.append(Provider(id="strategic", q=uniform3))
        req = Requirement(kind="credal", credal=simplex_hull)
        report = simulate_market(providers, req, simplex_hull, PARAMS, mechanism="optimal-LP")
        assert all(not row.participated for row in report.rows)
        assert all(not row.compliant for row in report.rows)
        assert report.perfect
        # hull members sit exactly on the fee boundary, hence indeterminate
        assert all(row.indeterminate for row in report.rows)

    def test_compliant_outsider_participates(self, simplex_hull, space3):
        q = Categorical(space3, [0.9, 0.05, 0.05])
        assert not membership(q, simplex_hull).is_member
        req = Requirement(kind="credal", credal=simplex_hull)
        report = simulate_market([Provider(id="good", q=q)], req, simplex_hull, PARAMS)
        row = report.rows[0]
        assert row.compliant and row.participated
        assert row.sup_value > PARAMS.C
        assert row.classification == "true-in"
        assert report.perfect

    def test_duplicate_provider_ids_rejected(self, simplex_hull, simplex_points, uniform3):
        providers = [Provider(id="p", q=simplex_points[0]), Provider(id="q", q=uniform3),
                     Provider(id="p", q=simplex_points[1])]
        req = Requirement(kind="credal", credal=simplex_hull)
        with pytest.raises(ValueError, match="'p' is not unique"):
            simulate_market(providers, req, simplex_hull, PARAMS)

    @pytest.mark.parametrize("mechanism", ["optimal-LP", "risk-averse"])
    def test_provider_on_another_space_of_the_same_size_is_rejected(self, simplex_hull, uniform3,
                                                                    mechanism):
        other = Categorical(EvidenceSpace(("x", "y", "z")), [0.2, 0.3, 0.5])
        providers = [Provider(id="a", q=uniform3), Provider(id="b", q=other)]
        req = Requirement(kind="credal", credal=simplex_hull)
        with pytest.raises(ValueError, match="different evidence spaces"):
            simulate_market(providers, req, simplex_hull, PARAMS, mechanism=mechanism)

    def test_empty_market_is_vacuously_perfect(self, simplex_hull):
        req = Requirement(kind="credal", credal=simplex_hull)
        report = simulate_market([], req, simplex_hull, PARAMS)
        assert report.perfect and report.rows == ()

    def test_risk_averse_mechanism(self, simplex_hull, space3):
        q = Categorical(space3, [0.9, 0.05, 0.05])
        req = Requirement(kind="credal", credal=simplex_hull)
        report = simulate_market([Provider(id="good", q=q)], req, simplex_hull, PARAMS,
                                 mechanism="risk-averse")
        assert report.rows[0].participated

    def test_betting_mechanism_needs_threshold_requirement(self, simplex_hull, uniform3):
        req = Requirement(kind="credal", credal=simplex_hull)
        with pytest.raises(ValueError):
            simulate_market([Provider(id="x", q=uniform3)], req, simplex_hull, PARAMS,
                            mechanism="betting")
        with pytest.raises(ValueError):
            simulate_market([], req, simplex_hull, PARAMS, mechanism="nope")

    def test_betting_mechanism_smoke(self, space2):
        credal = CredalSet.singleton(Categorical(space2, [0.4, 0.6]))
        req = Requirement(kind="threshold", metric=np.array([1.0, -1.0]), tau=0.0)
        compliant = Provider(id="win", q=Categorical(space2, [0.75, 0.25]))
        noncompliant = Provider(id="lose", q=Categorical(space2, [0.45, 0.55]))
        report = simulate_market(
            [compliant, noncompliant], req, credal, PARAMS,
            mechanism="betting", n=400, seed=5,
        )
        by_id = {r.provider_id: r for r in report.rows}
        assert by_id["win"].participated and by_id["win"].compliant
        assert not by_id["lose"].participated and not by_id["lose"].compliant
        assert report.perfect

    def test_implementability_on_random_instances(self):
        # with the credal requirement and the optimal-LP mechanism, participation
        # matches compliance away from the fee boundary
        rng = np.random.default_rng(33)
        for _ in range(30):
            space = EvidenceSpace.of_size(int(rng.integers(2, 5)))
            credal = random_credal(rng, space, int(rng.integers(1, 4)))
            providers = [
                Provider(id=f"p{i}", q=random_categorical(rng, space)) for i in range(4)
            ]
            req = Requirement(kind="credal", credal=credal)
            report = simulate_market(providers, req, credal, PARAMS)
            for row in report.rows:
                if not row.indeterminate:
                    assert row.participated == row.compliant
            assert report.perfect

    def test_classification_partition(self):
        rng = np.random.default_rng(35)
        space = EvidenceSpace.of_size(3)
        credal = random_credal(rng, space, 2)
        providers = [Provider(id=f"p{i}", q=random_categorical(rng, space)) for i in range(8)]
        req = Requirement(kind="credal", credal=credal)
        report = simulate_market(providers, req, credal, PARAMS)
        assert sum(report.counts().values()) == len(report.rows)
        for row in report.rows:
            assert row.classification in ("true-in", "true-out", "false-in", "false-out")

    def test_classification_labels_mark_decision_correctness(self, simplex_hull,
                                                             simplex_points, space3):
        req = Requirement(kind="credal", credal=simplex_hull)
        rows = simulate_market(
            [Provider(id="bad", q=simplex_points[0]),
             Provider(id="good", q=Categorical(space3, [0.9, 0.05, 0.05]))],
            req, simplex_hull, PARAMS,
        ).rows
        by_id = {r.provider_id: r for r in rows}
        assert by_id["bad"].classification == "true-out"  # non-compliant, correctly out
        assert by_id["good"].classification == "true-in"  # compliant, correctly in

    def test_enlarging_credal_set_never_raises_sup_value(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            space = EvidenceSpace.of_size(int(rng.integers(2, 5)))
            credal = random_credal(rng, space, int(rng.integers(1, 4)))
            extra = [random_categorical(rng, space) for _ in range(2)]
            bigger = CredalSet(space, credal.vertices + tuple(extra))
            q = random_categorical(rng, space)
            v_small = sup_value_over_obedient(q, credal, PARAMS).value
            v_big = sup_value_over_obedient(q, bigger, PARAMS).value
            assert v_big <= v_small + 1e-9


class TestStrategicBestResponse:
    def test_beats_naive_regulator_near_uniform(self, simplex_points):
        w, payoff = strategic_mixture_best_response(simplex_points, PARAMS)
        assert payoff > PARAMS.C
        assert np.max(np.abs(w - 1 / 3)) <= 0.05

    def test_cannot_beat_credal_regulator(self, simplex_points, simplex_hull):
        value_fn = lambda q: sup_value_over_obedient(q, simplex_hull, PARAMS).value
        w, payoff = strategic_mixture_best_response(
            simplex_points, PARAMS, value_fn=value_fn, grid_resolution=0.05
        )
        assert payoff <= PARAMS.C + 1e-8

    def test_identical_base_models_match_single_model(self, uniform3):
        value_fn = lambda q: float(q.probs[0])
        w, payoff = strategic_mixture_best_response([uniform3, uniform3], PARAMS, value_fn=value_fn)
        assert payoff == pytest.approx(value_fn(uniform3))

    def test_needs_two_models(self, uniform3):
        with pytest.raises(ValueError):
            strategic_mixture_best_response([uniform3], PARAMS)


def test_report_outputs(tmp_path, simplex_hull, uniform3):
    req = Requirement(kind="credal", credal=simplex_hull)
    report = simulate_market([Provider(id="m", q=uniform3)], req, simplex_hull, PARAMS)
    csv_path = tmp_path / "report.csv"
    report.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "provider_id,compliant,sup_value,participated,classification"
    assert len(lines) == 2
    summary_path = tmp_path / "report.json"
    report.save_summary(summary_path)
    summary = json.loads(summary_path.read_text())
    assert set(summary) == {"perfect", "counts", "indeterminate"}
    assert sum(summary["counts"].values()) == 1


def golden_market():
    """A small copy of the benchmark market: 12 Dirichlet(3) vertices over 6 outcomes.

    Even-numbered optimal-LP providers are hull mixtures (on the fee
    boundary), odd-numbered ones Dirichlet draws; the risk-averse market takes
    the first two hull mixtures, and the betting market one provider clearly
    above and one clearly below the threshold.
    """
    space = EvidenceSpace.of_size(6)
    V = np.random.default_rng(0).dirichlet(np.full(6, 3.0), size=12)
    credal = CredalSet(space, tuple(Categorical(space, v) for v in V))
    rng = np.random.default_rng(1)
    providers = []
    for i in range(20):
        q = rng.dirichlet(np.ones(12)) @ V if i % 2 == 0 else rng.dirichlet(np.ones(6))
        providers.append(Provider(id=f"p{i:02d}", q=Categorical(space, q / q.sum())))
    metric = rng.permutation(np.linspace(0.0, 1.0, 6))
    above = below = None
    while above is None or below is None:
        q = rng.dirichlet(np.ones(6))
        edge = float(q @ metric) - 0.5
        if edge >= 0.1 and above is None:
            above = q
        elif edge <= -0.1 and below is None:
            below = q
    bettors = [Provider(id=f"b{i}", q=Categorical(space, q)) for i, q in enumerate((above, below))]
    return {
        "optimal-LP": (providers, Requirement(kind="credal", credal=credal), {}),
        "risk-averse": (providers[:4:2], Requirement(kind="credal", credal=credal), {}),
        "betting": (bettors, Requirement(kind="threshold", metric=metric, tau=0.5), {"n": 100}),
    }, credal


#: SHA-256 of each report CSV of :func:`golden_market`; the sup values are
#: written with repr, so these pin the LP, kappa and betting bits.
GOLDEN_REPORT_SHA256 = {
    "optimal-LP": "276593e94c66a66989e9c383fe07e0a56d80290377b49bca35ce24e6b0b26af9",
    "risk-averse": "c0cfedac67291a265cb6aa744c6d91f614e74d2d9371ab4b8b341bbd9db936e6",
    "betting": "80b80544bb6314ca2b8079a7c6ee184d8054eac828f78e23a6e90b6ed537d4ca",
}


@pytest.mark.parametrize("mechanism", sorted(GOLDEN_REPORT_SHA256))
def test_market_reports_are_pinned_to_the_byte(tmp_path, mechanism):
    markets, credal = golden_market()
    providers, req, extra = markets[mechanism]
    report = simulate_market(providers, req, credal, PARAMS, mechanism=mechanism, **extra)
    report.to_csv(tmp_path / "report.csv")
    digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256[mechanism]


def test_market_larger_than_one_lp_block_matches_the_per_provider_loop(tmp_path):
    # More providers than one block of either lock-step LP (license LP 12 x 6,
    # membership LP 6 x 12), each row against the single-LP calls.
    _, credal = golden_market()
    space, V = credal.space, credal.vertex_matrix
    lp_block = BLOCK_ENTRIES // ((18 + 1) * (6 + 18 + 1))
    rng = np.random.default_rng(3)
    providers = []
    for i in range(2 * lp_block + 11):
        q = rng.dirichlet(np.ones(12)) @ V if i % 2 == 0 else rng.dirichlet(np.ones(6))
        providers.append(Provider(id=f"p{i:04d}", q=Categorical(space, q / q.sum())))
    req = Requirement(kind="credal", credal=credal)
    rows = []
    for pr in providers:
        sup_value = sup_value_over_obedient(pr.q, credal, PARAMS).value
        compliant, participated = evaluate_requirement(req, pr.q), participation_decision(sup_value, PARAMS)
        rows.append(ProviderRow(pr.id, compliant, sup_value, participated,
                                _classify(compliant, participated),
                                abs(sup_value - PARAMS.C) <= BOUNDARY_BAND))
    MarketReport(rows=tuple(rows), perfect=True).to_csv(tmp_path / "loop.csv")
    report = simulate_market(providers[::-1], req, credal, PARAMS)
    report.to_csv(tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
    assert [r.indeterminate for r in report.rows] == [r.indeterminate for r in rows]
    assert report.perfect
