import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import random_categorical, random_credal
from credalmarket import credal, market
from credalmarket._linprog import solve_box_lps
from credalmarket.credal import (
    GAMING_HORIZON,
    MEMBERSHIP_TOL,
    CredalSet,
    _grid_compositions,
    _weight_grid,
    approximate_constraint_set,
    gaming_witness,
    maximize_over_mixtures,
    membership,
    sequential_glr_value,
    strategic_mixture_best_response,
    uncovered_masses,
    upper_expectation,
)
from credalmarket.evidence import Categorical, EvidenceSpace, mixture
from credalmarket.experiments import parity_credal_set
from credalmarket.licenses import MechanismParams, sup_value_over_obedient


class TestEnvelopes:
    def test_vertex_max(self, space2):
        cs = CredalSet(space2, (Categorical(space2, [1, 0]), Categorical(space2, [0, 1])))
        assert upper_expectation(cs, [3.0, 5.0]) == 5.0

    def test_singleton(self, space3, uniform3):
        cs = CredalSet.singleton(uniform3)
        payoff = [1.0, 4.0, -2.0]
        assert upper_expectation(cs, payoff) == pytest.approx(uniform3.expectation(payoff))

    def test_gaming_instance_first_coordinate(self, simplex_hull):
        assert upper_expectation(simplex_hull, [1.0, 0.0, 0.0]) == pytest.approx(0.35)

    def test_upper_dominates_members(self, simplex_hull, space3):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.dirichlet(np.ones(3))
            q = mixture(list(simplex_hull.vertices), w)
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


def test_uncovered_masses_are_the_membership_masses_to_the_byte():
    rng = np.random.default_rng(7)
    space = EvidenceSpace.of_size(5)
    hull = random_credal(rng, space, 6)
    types = [Categorical(space, rng.dirichlet(np.ones(6)) @ hull.vertex_matrix) for _ in range(20)]
    types += list(hull.vertices) + [random_categorical(rng, space) for _ in range(20)]
    masses = uncovered_masses(types, hull)
    assert masses.shape == (len(types),)
    for q, mass in zip(types, masses):
        assert np.float64(membership(q, hull).uncovered).tobytes() == mass.tobytes()


@given(m=st.integers(2, 7), k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_membership_lps_match_the_box_lp_with_bound_rows(m, k, seed):
    # The membership LP has no rows for w <= 1; its x, value and pivot count
    # are, to the byte, those of the box LP with 0 <= w <= 1 as rows, and
    # membership's witness is the one that LP gives.  The types are the
    # vertices, hull mixtures, mixtures on a face of vertices that have zero
    # entries, and Dirichlet draws.
    rng = np.random.default_rng(seed)

    def sparse(rows, cols):
        p = rng.dirichlet(np.ones(cols), size=rows) * (rng.random((rows, cols)) > 0.4)
        p[np.arange(rows), rng.integers(cols, size=rows)] += 0.1  # no all-zero row
        return p

    space = EvidenceSpace.of_size(m)
    hull = CredalSet(space, tuple(Categorical(space, v / v.sum()) for v in sparse(k, m)))
    V = hull.vertex_matrix
    probs = np.vstack([V, rng.dirichlet(np.ones(k), size=4) @ V, sparse(4, k) @ V,
                       rng.dirichlet(np.ones(m), size=4)])
    types = [Categorical(space, p / p.sum()) for p in probs]
    sol = credal._membership_lps(types, hull)
    b = np.array([q.probs for q in types])
    ref = solve_box_lps(np.ones(k), V.T, b, np.ones(k))
    assert sol.x.tobytes() == ref.x.tobytes()
    assert sol.value.tobytes() == ref.value.tobytes()
    assert sol.iterations.tobytes() == ref.iterations.tobytes()
    for q, x, value in zip(types, ref.x, ref.value):
        res = membership(q, hull)
        assert np.float64(res.uncovered).tobytes() == np.float64(1.0 - value).tobytes()
        assert res.is_member == (1.0 - value <= MEMBERSHIP_TOL)
        if res.is_member:
            w = np.clip(x, 0.0, None)
            assert res.weights.tobytes() == (w / w.sum()).tobytes()


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
                mixture(list(cs.vertices), rng.dirichlet(np.ones(len(cs.vertices))))
                for _ in range(int(rng.integers(1, 4)))
            ]
            enlarged = CredalSet(cs.space, cs.vertices + tuple(extra))
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


def per_point_threshold_set(space, score, tau, grid_resolution):
    """The per-point grid loop that the vectorized threshold-set builder replaced."""
    g = grid_resolution
    score = np.asarray(score, dtype=float)
    kept = []
    for counts in _grid_compositions(g, space.size):
        if float(np.array(counts) @ score) / g >= tau - 1e-12:
            kept.append(Categorical(space, np.array(counts, dtype=float) / g))
    if not kept:
        raise ValueError("no grid point satisfies the predicate at this resolution")
    return CredalSet(space, tuple(kept))


@st.composite
def threshold_instances(draw):
    m = draw(st.integers(2, 6))
    g = draw(st.integers(2, 12))
    score = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
    kind = draw(st.sampled_from(("on-grid", "off-grid", "unreachable")))
    if kind == "on-grid":  # tau equal to some grid point's mean score
        cut = sorted(draw(st.lists(st.integers(0, g), min_size=m - 1, max_size=m - 1)))
        counts = np.diff([0, *cut, g])
        tau = float(counts @ score) / g
    elif kind == "off-grid":
        tau = draw(st.floats(float(score.min()), float(score.max())))
    else:
        tau = float(score.max()) + draw(st.floats(1e-9, 1.0))
    return EvidenceSpace.of_size(m), score, tau, g


class TestConstraintSets:
    @given(threshold_instances())
    @settings(max_examples=200, deadline=None)
    @example((EvidenceSpace.of_size(4), np.array([0.0, 1.0, 1.0, 0.0]), 0.6, 10))
    @example((EvidenceSpace.of_size(3), np.array([0.1, 0.7, 0.3]), 0.3, 10))
    def test_matches_the_per_point_loop(self, instance):
        space, score, tau, g = instance
        try:
            want = per_point_threshold_set(space, score, tau, g)
        except ValueError:
            with pytest.raises(ValueError, match="no grid point"):
                approximate_constraint_set(space, score, tau, g)
            return
        got = approximate_constraint_set(space, score, tau, g)
        assert np.array_equal(got.vertex_matrix, want.vertex_matrix)

    @pytest.mark.parametrize("g, count", [(10, 125), (5, 28)])
    def test_fairness_sets_are_pinned(self, g, count):
        # A paired point is non-compliant when P(0,1) + P(1,0) >= 0.6, i.e. the
        # grid counts k01 + k10 >= 0.6 g, taken in lexicographic grid order.
        want = np.array([c for c in itertools.product(range(g + 1), repeat=4)
                         if sum(c) == g and c[1] + c[2] >= round(0.6 * g)], dtype=float) / g
        cs = parity_credal_set(0.6, g)
        assert len(cs.vertices) == count
        assert np.array_equal(cs.vertex_matrix, want)

    def test_mean_score_predicate(self):
        score = np.array([0.0, 1.0, 1.0, 0.0])
        cs = approximate_constraint_set(EvidenceSpace.of_size(4), score, 0.6, 10)
        for v in cs.vertices:
            assert v.expectation(score) >= 0.6 - 1e-12

    def test_empty_feasible_set_rejected(self):
        with pytest.raises(ValueError):
            approximate_constraint_set(EvidenceSpace.of_size(4), (0.0, 0.1, 0.1, 0.0), 0.99, 2)

    def test_spec_validation(self):
        space = EvidenceSpace.of_size(4)
        with pytest.raises(ValueError, match="resolution"):
            approximate_constraint_set(space, (0.0, 1.0, 1.0, 0.0), 0.6, 1)
        with pytest.raises(ValueError, match="one score per outcome"):
            approximate_constraint_set(space, (0.0, 1.0, 1.0), 0.6, 10)


class TestGamingWitness:
    def test_gaming_instance_has_uniform_witness(self, simplex_points):
        params = MechanismParams(C=15.0, R=250.0)
        witness = gaming_witness(simplex_points, params)
        assert witness is not None
        assert witness.payoff_gap > 0.0
        assert np.max(np.abs(witness.weights - 1 / 3)) <= 0.05

    def test_single_point_has_no_witness(self, simplex_points):
        assert gaming_witness(simplex_points[:1], MechanismParams(1.0, 2.0)) is None

    def test_identical_points_have_no_witness(self, uniform3):
        assert gaming_witness([uniform3, uniform3], MechanismParams(1.0, 2.0)) is None

    @pytest.mark.parametrize("regulator", ["naive", "lp-singleton", "lp-hull"])
    def test_is_the_best_mixture_search_plus_the_fee_decision(self, simplex_points, regulator):
        params = MechanismParams(C=15.0, R=250.0)
        if regulator == "naive":  # the default builder
            builder, given = sequential_glr_value, None
        else:  # an obedient LP regulator of the hull, or one a mixture games: points[0] alone
            regulated = simplex_points if regulator == "lp-hull" else simplex_points[:1]
            hull = CredalSet(simplex_points[0].space, tuple(regulated))

            def builder(points, C, R, horizon):
                return lambda q: sup_value_over_obedient(q, hull, params).value

            given = builder
        witness = gaming_witness(simplex_points, params, given, grid_resolution=0.05)
        w, v = strategic_mixture_best_response(
            simplex_points, params,
            value_fn=builder(simplex_points, params.C, params.R, GAMING_HORIZON),
            grid_resolution=0.05)
        if regulator == "lp-hull":
            assert witness is None and v <= params.C + 1e-9
        else:
            assert witness.weights.tobytes() == w.tobytes()
            assert witness.payoff_gap == v - params.C

    def test_market_re_exports_the_search(self):
        assert market.strategic_mixture_best_response is credal.strategic_mixture_best_response


def recursive_compositions(total, parts):
    """The recursive generator that the stars-and-bars grid replaced."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in recursive_compositions(total - head, parts - 1):
            yield (head,) + tail


def test_grid_compositions_match_the_recursive_generator():
    for total, parts in itertools.product(range(12), range(1, 6)):
        got = _grid_compositions(total, parts)
        want = np.array(list(recursive_compositions(total, parts)), dtype=float)
        assert got.dtype == float and got.flags.c_contiguous
        assert got.shape == want.shape and np.array_equal(got, want), (total, parts)


class TestMixtureSearch:
    """The search stacks its points once and mixes them with ``w @ P``."""

    def test_ties_resolve_to_the_first_grid_point(self):
        # The unit vectors mix to w itself; the value peaks at two grid points,
        # and (0.2, 0.3, 0.5) comes first in the grid's lexicographic order.
        space = EvidenceSpace.of_size(3)
        points = [Categorical(space, row) for row in np.eye(3)]
        a, b = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.3, 0.2])

        def value(q):
            return -min(np.abs(q.probs - a).sum(), np.abs(q.probs - b).sum())

        w, v = maximize_over_mixtures(points, value, grid_resolution=0.1)
        assert np.array_equal(w, a) and v == 0.0
        w, v = maximize_over_mixtures(points, lambda q: 1.0, grid_resolution=0.1)
        assert np.array_equal(w, [0.0, 0.0, 1.0]) and v == 1.0

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(2, 4), m=st.integers(2, 6), resolution=st.sampled_from([0.5, 0.2, 0.1]),
           seed=st.integers(0, 2**32 - 1))
    def test_mixtures_match_mixture_bitwise(self, k, m, resolution, seed):
        rng = np.random.default_rng(seed)
        space = EvidenceSpace.of_size(m)
        points = [Categorical(space, rng.dirichlet(np.ones(m))) for _ in range(k)]
        h = rng.normal(size=m)
        seen = []

        def value(q):
            seen.append(q.probs)
            return float(q.probs @ h)

        w, v = maximize_over_mixtures(points, value, grid_resolution=resolution)
        grid = _weight_grid(k, resolution)
        assert len(seen) == len(grid)  # the search evaluates exactly the grid
        for got, wg in zip(seen, grid):
            assert np.array_equal(got, mixture(points, wg).probs)
        # the returned weights are a grid point and reproduce the returned value
        assert any(np.array_equal(w, wg) for wg in grid)
        assert float(mixture(points, w).probs @ h) == v

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 4), m=st.integers(3, 5), ratio=st.sampled_from([1.2, 2.0, 16.7]),
           resolution=st.sampled_from([0.25, 0.1]), seed=st.integers(0, 2**32 - 1))
    def test_an_obedient_lp_value_peaks_at_a_point(self, k, m, ratio, resolution, seed):
        # E_Q pi is linear in Q, so the LP value max_pi E_Q pi is convex in Q and
        # peaks over the hull at a point, a unit weight of the grid: the grid
        # search finds the largest point LP, and no mixture games the mechanism.
        rng = np.random.default_rng(seed)
        hull = random_credal(rng, EvidenceSpace.of_size(m), k)
        points = list(hull.vertices)
        params = MechanismParams(C=15.0, R=15.0 * ratio)

        def builder(points, C, R, horizon):
            return lambda q: sup_value_over_obedient(q, hull, params).value

        _, v = strategic_mixture_best_response(
            points, params, value_fn=builder(points, params.C, params.R, GAMING_HORIZON),
            grid_resolution=resolution)
        best_point = max(sup_value_over_obedient(p, hull, params).value for p in points)
        assert abs(v - best_point) <= 1e-9
        assert gaming_witness(points, params, builder, grid_resolution=resolution) is None

    def test_points_on_different_spaces_rejected(self, simplex_points):
        other = Categorical(EvidenceSpace(("a", "b", "c")), [0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="different evidence spaces"):
            maximize_over_mixtures([simplex_points[0], other], lambda q: 0.0)


class TestGridResolution:
    """The mixture search's weight step is 1/n for a whole number n."""

    @pytest.mark.parametrize("resolution",
                             [-0.5, 0.0, 2.0, np.inf, np.nan, True, "0.1", 0.3, 0.4, 0.7])
    def test_bad_grid_resolution_rejected(self, simplex_points, resolution):
        # -0.5, 2.0, inf and 0.7 once searched the vertices alone and missed the
        # gaming; 0.3 and 0.4 searched thirds and halves
        params = MechanismParams(15.0, 250.0)
        for search in (lambda: maximize_over_mixtures(simplex_points, lambda q: 0.0, resolution),
                       lambda: strategic_mixture_best_response(simplex_points, params,
                                                               grid_resolution=resolution),
                       lambda: gaming_witness(simplex_points, params, grid_resolution=resolution),
                       lambda: gaming_witness(simplex_points[:1], params,
                                              grid_resolution=resolution)):
            with pytest.raises(ValueError, match="grid_resolution"):
                search()

    def test_a_whole_step_searches_the_vertices(self, simplex_points):
        _, v = maximize_over_mixtures(simplex_points, lambda q: float(q.probs[0]), 1.0)
        assert v == pytest.approx(max(p.probs[0] for p in simplex_points))


def test_json_round_trip(tmp_path, simplex_hull):
    path = tmp_path / "credal.json"
    path.write_text(json.dumps({"space": list(simplex_hull.space.labels),
                                "vertices": simplex_hull.vertex_matrix.tolist()}))
    loaded = CredalSet.load(path)
    assert loaded.space == simplex_hull.space
    assert np.allclose(loaded.vertex_matrix, simplex_hull.vertex_matrix)
    with pytest.raises(ValueError):
        CredalSet.from_json({"space": ["a", "b"]})


def test_json_unknown_field_rejected():
    payload = {"space": ["a", "b"], "vertices": [[0.5, 0.5]], "extra_vertices": [[1.0, 0.0]]}
    with pytest.raises(ValueError, match="'extra_vertices'"):
        CredalSet.from_json(payload)
    with pytest.raises(ValueError, match="JSON object"):
        CredalSet.from_json([["a", "b"], [[0.5, 0.5]]])


@pytest.mark.parametrize("payload", [
    {"space": "ab", "vertices": [[0.5, 0.5]]},
    {"space": ["a", 2], "vertices": [[0.5, 0.5]]},
    {"space": ["a", "b"], "vertices": 0.5},
    {"space": ["a", "b"], "vertices": [[float("nan"), float("nan")]]},
    {"space": ["a", "b"], "vertices": [[float("inf"), 0.0]]},
])
def test_json_wrong_type_is_a_value_error(payload):
    with pytest.raises(ValueError, match="credal JSON"):
        CredalSet.from_json(payload)


@pytest.mark.parametrize("name, content, message", [
    (".", None, "cannot read credal set file"),
    ("missing.json", None, "cannot read credal set file"),
    ("bad.json", b"{\"space\": [", "not valid JSON"),
    ("latin1.json", b"\xff\xfe{", "not valid JSON"),
], ids=["directory", "missing", "invalid-json", "not-utf8"])
def test_load_errors_are_value_errors_naming_the_file(tmp_path, name, content, message):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ValueError, match=message) as err:
        CredalSet.load(path)
    assert str(path) in str(err.value)


def test_an_empty_path_is_rejected_before_reading():
    # Path("") is the working directory, a read that named no file
    with pytest.raises(ValueError, match="cannot read credal set file: the path is empty"):
        CredalSet.load("")


def test_vertex_matrix_is_built_once_and_read_only(simplex_hull):
    V = simplex_hull.vertex_matrix
    assert simplex_hull.vertex_matrix is V
    assert not V.flags.writeable
    with pytest.raises(ValueError):
        V[0, 0] = 1.0
