import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import random_credal
from credalmarket.credal import (
    MEMBERSHIP_TOL,
    MEAN_SCORE_GE,
    PARITY_GAP_GE,
    PARITY_GAP_LT,
    ConstraintCredalSpec,
    CredalSet,
    approximate_constraint_set,
    gaming_witness,
    lower_expectation,
    membership,
    upper_expectation,
)
from credalmarket.evidence import Categorical, EvidenceSpace, mixture
from credalmarket.licenses import MechanismParams


class TestEnvelopes:
    def test_vertex_max(self, space2):
        cs = CredalSet(space2, (Categorical(space2, [1, 0]), Categorical(space2, [0, 1])))
        assert upper_expectation(cs, [3.0, 5.0]) == 5.0
        assert lower_expectation(cs, [3.0, 5.0]) == 3.0

    def test_singleton(self, space3, uniform3):
        cs = CredalSet.singleton(uniform3)
        payoff = [1.0, 4.0, -2.0]
        assert upper_expectation(cs, payoff) == pytest.approx(uniform3.expectation(payoff))
        assert lower_expectation(cs, payoff) == pytest.approx(uniform3.expectation(payoff))

    def test_gaming_instance_first_coordinate(self, simplex_hull):
        assert upper_expectation(simplex_hull, [1.0, 0.0, 0.0]) == pytest.approx(0.35)
        assert lower_expectation(simplex_hull, [1.0, 0.0, 0.0]) == pytest.approx(0.30)

    def test_upper_dominates_members(self, simplex_hull, space3):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.dirichlet(np.ones(3))
            q = simplex_hull.mix(w)
            payoff = rng.normal(size=3)
            assert q.expectation(payoff) <= upper_expectation(simplex_hull, payoff) + 1e-12


class TestMembership:
    def test_uniform_in_gaming_hull(self, simplex_hull, uniform3):
        res = membership(uniform3, simplex_hull)
        assert res.is_member
        assert np.allclose(res.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)

    def test_vertex_is_member(self, simplex_hull, simplex_points):
        res = membership(simplex_points[0], simplex_hull)
        assert res.is_member
        recon = res.weights @ simplex_hull.vertex_matrix
        assert np.max(np.abs(recon - simplex_points[0].probs)) <= 1e-9

    def test_outside_point_rejected_with_grid_oracle(self, simplex_hull, space3):
        q = Categorical(space3, [0.9, 0.05, 0.05])
        assert not membership(q, simplex_hull).is_member
        # brute-force oracle: no weight vector at resolution 1e-3 reconstructs q
        steps = 1000
        best = np.inf
        V = simplex_hull.vertex_matrix
        for a in range(steps + 1):
            b = np.arange(0, steps - a + 1)
            W = np.stack([np.full_like(b, a), b, steps - a - b], axis=1) / steps
            dev = np.max(np.abs(W @ V - q.probs), axis=1)
            best = min(best, float(dev.min()))
        assert best > 1e-3

    def test_all_vertices_are_members(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            space = EvidenceSpace.of_size(int(rng.integers(2, 6)))
            cs = random_credal(rng, space, int(rng.integers(1, 5)))
            for v in cs.vertices:
                assert membership(v, cs).is_member

    def test_space_mismatch(self, simplex_hull, space2):
        with pytest.raises(ValueError):
            membership(Categorical.uniform(space2), simplex_hull)

    def test_point_just_outside_a_face_is_rejected(self, simplex_hull, simplex_points, space3):
        # Its first coordinate exceeds every hull point's by 6.5e-9, above the
        # tolerance but below an LP solver's default 1e-7 feasibility tolerance.
        v0 = simplex_points[0].probs
        q = Categorical(space3, v0 + 1e-8 * (np.array([1.0, 0.0, 0.0]) - v0))
        assert q.probs[0] - np.max(simplex_hull.vertex_matrix[:, 0]) > 6e-9
        res = membership(q, simplex_hull)
        assert not res.is_member and res.weights is None
        assert res.uncovered > MEMBERSHIP_TOL


def infinity_norm_distance(q: np.ndarray, V: np.ndarray) -> float:
    """min_w |V^T w - q|_inf over the weight simplex, by HiGHS at tight tolerances."""
    k, m = V.shape
    c = np.zeros(k + 1)
    c[-1] = 1.0
    slack = -np.ones((m, 1))
    res = linprog(
        c,
        A_ub=np.block([[V.T, slack], [-V.T, slack]]),
        b_ub=np.concatenate([q, -q]),
        A_eq=np.append(np.ones(k), 0.0)[None, :],
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success
    return float(res.fun)


class TestMembershipAgainstOracle:
    """The box-LP verdict against the infinity-norm LP, outside the band both tolerances blur."""

    @given(
        m=st.integers(2, 6),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        step=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 1.0]),
    )
    @example(m=30, k=60, seed=0, step=0.0)
    @example(m=30, k=60, seed=1, step=1e-4)
    @settings(max_examples=150, deadline=None)
    def test_verdict_matches_oracle(self, m, k, seed, step):
        # q moves from a hull point toward a random distribution by ``step``.
        rng = np.random.default_rng(seed)
        space = EvidenceSpace.of_size(m)
        cs = random_credal(rng, space, k)
        V = cs.vertex_matrix
        inside = rng.dirichlet(np.ones(k)) @ V
        probs = (1.0 - step) * inside + step * rng.dirichlet(np.ones(m))
        q = Categorical(space, probs / probs.sum())
        distance = infinity_norm_distance(q.probs, V)
        assume(not 1e-10 < distance <= 1e-7)
        res = membership(q, cs)
        assert res.is_member == (distance <= 1e-10)
        if res.is_member:
            # the witness reproduces q
            assert np.all(res.weights >= 0.0) and res.weights.sum() == pytest.approx(1.0)
            assert np.max(np.abs(res.weights @ V - q.probs)) <= 1e-9
        else:
            # the uncovered mass is at least half the distance to the hull
            assert res.uncovered >= distance / 2 - 1e-10


class TestHullInvariance:
    def test_appending_mixtures_preserves_envelope(self):
        # obedience is invariant up to the convex hull of the vertex set
        rng = np.random.default_rng(21)
        for _ in range(100):
            space = EvidenceSpace.of_size(int(rng.integers(2, 6)))
            cs = random_credal(rng, space, int(rng.integers(1, 5)))
            extra = [
                cs.mix(rng.dirichlet(np.ones(len(cs.vertices))))
                for _ in range(int(rng.integers(1, 4)))
            ]
            enlarged = cs.with_extra_vertices(extra)
            for _ in range(5):
                payoff = rng.normal(size=space.size)
                assert abs(
                    upper_expectation(cs, payoff) - upper_expectation(enlarged, payoff)
                ) <= 1e-12

    def test_sup_min_inequality(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            space = EvidenceSpace.of_size(int(rng.integers(2, 6)))
            cs = random_credal(rng, space, int(rng.integers(1, 5)))
            payoff = rng.uniform(0.0, 5.0, size=space.size)
            alpha = float(rng.uniform(-1.0, 6.0))
            expectations = cs.vertex_matrix @ payoff
            lhs = float(np.max(np.minimum(expectations, alpha)))
            rhs = min(float(np.max(expectations)), alpha)
            assert lhs <= rhs


class TestConstraintSets:
    def test_parity_grid_points_satisfy_predicate(self):
        space = EvidenceSpace(("y0a0", "y0a1", "y1a0", "y1a1"))
        spec = ConstraintCredalSpec(space=space, predicate=PARITY_GAP_LT, tau=0.6, grid_resolution=10)
        cs = approximate_constraint_set(spec)
        assert len(cs.vertices) > 0
        for v in cs.vertices:
            t00, t01, t10, t11 = v.probs
            g0, g1 = t00 + t10, t01 + t11
            assert g0 > 0 and g1 > 0
            gap = abs(t10 / g0 - t11 / g1)
            assert gap < 0.6

    def test_vacuous_threshold_keeps_most_points(self):
        space = EvidenceSpace(("y0a0", "y0a1", "y1a0", "y1a1"))
        tight = approximate_constraint_set(
            ConstraintCredalSpec(space=space, predicate=PARITY_GAP_LT, tau=0.6, grid_resolution=8)
        )
        loose = approximate_constraint_set(
            ConstraintCredalSpec(space=space, predicate=PARITY_GAP_LT, tau=1.0 - 1e-9, grid_resolution=8)
        )
        # with a vacuous threshold every grid point with both groups present and
        # a gap below one passes
        passing = 0
        for counts in itertools.product(range(9), repeat=3):
            if sum(counts) > 8:
                continue
            k00, k01, k10 = counts
            k11 = 8 - sum(counts)
            g0, g1 = k00 + k10, k01 + k11
            if g0 == 0 or g1 == 0:
                continue
            gap = abs(k10 / g0 - k11 / g1)
            if gap < 1.0 - 1e-9:
                passing += 1
        assert len(loose.vertices) == passing
        assert len(tight.vertices) < len(loose.vertices)

    def test_hand_evaluated_point_excluded(self):
        # theta = (0.45, 0.15, 0.05, 0.35): gap |0.1 - 0.7| = 0.6, excluded by strict <
        space = EvidenceSpace(("y0a0", "y0a1", "y1a0", "y1a1"))
        spec = ConstraintCredalSpec(space=space, predicate=PARITY_GAP_LT, tau=0.6, grid_resolution=20)
        cs = approximate_constraint_set(spec)
        target = np.array([0.45, 0.15, 0.05, 0.35])
        assert not any(np.allclose(v.probs, target, atol=1e-12) for v in cs.vertices)
        # ... and included by the complementary predicate
        comp = approximate_constraint_set(
            ConstraintCredalSpec(space=space, predicate=PARITY_GAP_GE, tau=0.6, grid_resolution=20)
        )
        assert any(np.allclose(v.probs, target, atol=1e-12) for v in comp.vertices)

    def test_mean_score_predicate(self):
        space = EvidenceSpace.of_size(4)
        spec = ConstraintCredalSpec(
            space=space, predicate=MEAN_SCORE_GE, tau=0.6, grid_resolution=10,
            score=(0.0, 1.0, 1.0, 0.0),
        )
        cs = approximate_constraint_set(spec)
        score = np.array([0.0, 1.0, 1.0, 0.0])
        for v in cs.vertices:
            assert v.expectation(score) >= 0.6 - 1e-12

    def test_empty_feasible_set_rejected(self):
        space = EvidenceSpace.of_size(4)
        with pytest.raises(ValueError):
            approximate_constraint_set(
                ConstraintCredalSpec(space=space, predicate=MEAN_SCORE_GE, tau=0.99,
                                     grid_resolution=2, score=(0.0, 0.1, 0.1, 0.0))
            )

    def test_spec_validation(self):
        space = EvidenceSpace.of_size(4)
        with pytest.raises(ValueError):
            ConstraintCredalSpec(space=space, predicate="nope")
        with pytest.raises(ValueError):
            ConstraintCredalSpec(space=space, predicate=PARITY_GAP_LT, tau=1.5)
        with pytest.raises(ValueError):
            ConstraintCredalSpec(space=space, predicate=PARITY_GAP_LT, grid_resolution=1)
        with pytest.raises(ValueError):
            ConstraintCredalSpec(space=EvidenceSpace.of_size(3), predicate=PARITY_GAP_LT)


class TestGamingWitness:
    def test_gaming_instance_has_uniform_witness(self, simplex_points):
        params = MechanismParams(C=15.0, R=250.0)
        witness = gaming_witness(simplex_points, params, horizon=500)
        assert witness is not None
        assert witness.payoff_gap > 0.0
        assert np.max(np.abs(witness.weights - 1 / 3)) <= 0.05

    def test_single_point_has_no_witness(self, simplex_points):
        assert gaming_witness(simplex_points[:1], MechanismParams(1.0, 2.0)) is None

    def test_identical_points_have_no_witness(self, uniform3):
        assert gaming_witness([uniform3, uniform3], MechanismParams(1.0, 2.0)) is None


def test_json_round_trip(tmp_path, simplex_hull):
    path = tmp_path / "credal.json"
    simplex_hull.save(path)
    loaded = CredalSet.load(path)
    assert loaded.space == simplex_hull.space
    assert np.allclose(loaded.vertex_matrix, simplex_hull.vertex_matrix)
    with pytest.raises(ValueError):
        CredalSet.from_json({"space": ["a", "b"]})
