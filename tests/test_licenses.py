import json
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import kappa, random_categorical, random_credal
from credalmarket import licenses
from credalmarket import _linprog
from credalmarket._linprog import PIVOT_TOL, LpSolution, solve_box_lp, solve_box_lps
from credalmarket.cli import build_parser
from credalmarket.credal import CredalSet, upper_expectation
from credalmarket.evidence import (
    Categorical,
    EvidenceSpace,
    json_object,
    kl_divergence,
    load_json,
)
from credalmarket.experiments import (
    SIMPLEX_POINTS,
    paired_fairness_distribution,
    parity_credal_set,
)
from credalmarket.licenses import (
    BOUNDARY_BAND,
    KAPPA_MAX_ITER,
    License,
    MechanismParams,
    _project_rows_to_simplex,
    is_obedient,
    minimize_kappa,
    minimize_kappas,
    neyman_pearson_license,
    optimal_risk_averse_license,
    optimal_risk_averse_licenses,
    participation_decision,
    sup_value_over_obedient,
    sup_values_over_obedient,
)


def test_params_validation():
    with pytest.raises(ValueError):
        MechanismParams(C=1.0, R=1.0)
    with pytest.raises(ValueError):
        MechanismParams(C=0.0, R=1.0)
    assert MechanismParams(15.0, 250.0).cap_ratio == pytest.approx(250.0 / 15.0)


def looped_box_lp(c, A, b, u):
    """Reference: the Bland simplex with one Python loop per scan and per row update."""
    c, A, b, u = (np.asarray(v, dtype=float) for v in (c, np.atleast_2d(A), b, u))
    n = c.size
    A_full = np.vstack([A, np.eye(n)])
    m_rows = A_full.shape[0]
    T = np.zeros((m_rows + 1, n + m_rows + 1))
    T[:m_rows, :n] = A_full
    T[:m_rows, n : n + m_rows] = np.eye(m_rows)
    T[:m_rows, -1] = np.concatenate([b, u])
    T[-1, :n] = -c
    basis = list(range(n, n + m_rows))
    iterations = 0
    while True:
        entering = -1
        for j in range(n + m_rows):
            if T[-1, j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            break
        col, rhs = T[:m_rows, entering], T[:m_rows, -1]
        least = np.inf
        for i in range(m_rows):
            if col[i] > PIVOT_TOL:
                least = min(least, rhs[i] / col[i])
        leaving = -1
        for i in range(m_rows):
            if col[i] > PIVOT_TOL and rhs[i] / col[i] <= least + PIVOT_TOL:
                if leaving < 0 or basis[i] < basis[leaving]:
                    leaving = i
        pivot = T[leaving, entering]
        T[leaving] /= pivot
        for i in range(m_rows + 1):
            if i != leaving and abs(T[i, entering]) > 0.0:
                T[i] -= T[i, entering] * T[leaving]
        basis[leaving] = entering
        iterations += 1
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = T[i, -1]
    duals = T[-1, n : n + m_rows].copy()
    duals[np.abs(duals) < PIVOT_TOL] = 0.0
    return x, float(c @ x), duals, iterations


def market_vertices():
    """The benchmark market's credal set: 12 Dirichlet(3) vertices over 6 outcomes."""
    return np.random.default_rng(0).dirichlet(np.full(6, 3.0), size=12)


def fixed_box_lps():
    """The LPs the market and the audit solve: license (12 x 6), membership (6 x 12), 3 x 3."""
    V = market_vertices()
    gaming, outsider = np.random.default_rng(1).dirichlet(np.ones(12)) @ V, np.full(6, 1 / 6)
    points = np.array(SIMPLEX_POINTS)
    lps = []
    for q in (gaming, outsider):
        lps.append((q, V, np.full(12, 15.0), np.full(6, 250.0)))
        lps.append((np.ones(12), V.T, q, np.ones(12)))
    for q in (points.mean(axis=0), points[0]):
        lps.append((q, points, np.full(3, 15.0), np.full(3, 250.0)))
    return lps


def near_tie_box_lp(rng):
    """A box LP whose ratios tie within a few PIVOT_TOL: integer A, b near 1 or 2."""
    n, k = int(rng.integers(2, 4)), int(rng.integers(3, 7))
    A = rng.integers(0, 3, size=(k, n)).astype(float)
    b = 1.0 + rng.integers(0, 2, size=k) + rng.integers(-3, 4, size=k) * 0.45e-10
    return rng.integers(1, 4, size=n).astype(float), A, b, np.full(n, 5.0)


def witness_box_lps():
    """Near-tie LPs on which a row-by-row ratio scan's x broke A x <= b by 1.35e-10."""
    return [
        ([1.0, 3.0], [[1, 2], [0, 2], [0, 2], [1, 0]],
         [2.0, 1.999999999955, 1.999999999865, 1.999999999865], [5.0, 5.0]),
        ([3.0, 2.0], [[0, 1], [0, 2], [0, 1], [1, 1], [0, 0], [2, 1]],
         [1.0, 1.999999999955, 0.99999999991, 1.000000000045, 0.999999999955, 1.000000000045],
         [5.0, 5.0]),
        ([3.0, 2.0, 3.0], [[1, 0, 2], [2, 1, 2], [2, 1, 1]],
         [1.999999999955, 1.999999999955, 1.000000000045], [5.0, 5.0, 5.0]),
    ]


def random_box_lps():
    """300 license-shaped (sparse objective), membership-shaped and generic box LPs, then 100 near-tie LPs."""
    rng = np.random.default_rng(6)
    lps = []
    for trial in range(300):
        m, k = int(rng.integers(2, 8)), int(rng.integers(1, 13))
        V = rng.dirichlet(np.ones(m), size=k)
        if trial % 3 == 0:
            q = rng.dirichlet(np.ones(m)) * (rng.random(m) > 0.3)
            lps.append((q, V, np.full(k, 1.5), np.full(m, 20.0)))
        elif trial % 3 == 1:
            q = rng.dirichlet(np.ones(k)) @ V if trial % 2 else rng.dirichlet(np.ones(m))
            lps.append((np.ones(k), V.T, q, np.ones(k)))
        else:
            lps.append((rng.normal(size=m), rng.uniform(0.0, 1.0, size=(k, m)),
                        rng.uniform(0.2, 2.0, size=k), rng.uniform(0.2, 3.0, size=m)))
    return lps + [near_tie_box_lp(rng) for _ in range(100)]


def assert_lock_step_rows_equal_single_solves(c, A, b, u):
    """Every row of solve_box_lps is solve_box_lp's solution of that LP, to the byte."""
    batch = solve_box_lps(c, A, b, u)
    assert isinstance(batch, LpSolution)
    c, b = np.asarray(c, dtype=float), np.asarray(b, dtype=float)
    N = len(c) if c.ndim == 2 else len(b)
    assert batch.x.shape[0] == batch.value.shape[0] == batch.duals.shape[0] == N
    for i in range(N):
        sol = solve_box_lp(c[i] if c.ndim == 2 else c, A, b[i] if b.ndim == 2 else b, u)
        assert isinstance(sol, LpSolution)
        assert batch.x[i].tobytes() == sol.x.tobytes()
        assert batch.duals[i].tobytes() == sol.duals.tobytes()
        assert batch.value[i].tobytes() == np.float64(sol.value).tobytes()
        assert batch.iterations[i] == sol.iterations
    return batch


class TestSimplexSolver:
    def test_bitwise_equal_to_the_looped_tableau(self):
        for lp in random_box_lps() + fixed_box_lps() + witness_box_lps():
            sol = solve_box_lp(*lp)
            x, value, duals, iterations = looped_box_lp(*lp)
            assert sol.x.tobytes() == x.tobytes() and sol.duals.tobytes() == duals.tobytes()
            assert sol.value == value and sol.iterations == iterations

    def test_near_tie_ratios_follow_bland_row_order(self):
        # Of the rows within PIVOT_TOL of the least ratio (the third), the one
        # whose basic variable has the lowest index leaves: the second, whose
        # ratio is 0.7e-10 above the least.  The first is 1.4e-10 above it.
        b = np.array([1.0, 1.0 - 0.7e-10, 1.0 - 1.4e-10])
        lp = ([1.0], np.ones((3, 1)), b, [10.0])
        sol = solve_box_lp(*lp)
        assert sol.x[0] == b[1]
        x, value, duals, iterations = looped_box_lp(*lp)
        assert sol.x.tobytes() == x.tobytes() and sol.duals.tobytes() == duals.tobytes()
        assert sol.value == value and sol.iterations == iterations

    def test_lock_step_rows_equal_single_solves_by_shape(self):
        # Each shape group shares its first LP's A and upper bounds and keeps
        # every member's objective and right-hand side.  Integer A (the
        # near-tie LPs) groups apart, so its groups keep their near-ties.
        groups = {}
        for c, A, b, u in random_box_lps():
            groups.setdefault((c.size, b.size, not (A % 1).any()), []).append((c, A, b, u))
        assert len(groups) > 20 and max(map(len, groups.values())) > 5
        for lps in groups.values():
            A, u = lps[0][1], lps[0][3]
            c = np.array([lp[0] for lp in lps])
            b = np.array([lp[2] for lp in lps])
            assert_lock_step_rows_equal_single_solves(c, A, b, u)

    def test_lock_step_rows_equal_single_solves_on_the_fixed_lps(self):
        # Stacked in the pairs that share A and u: the two license LPs, the
        # two membership LPs (shared objective), the two 3 x 3 LPs (shared b);
        # a shared operand is passed both stacked and 1-D.
        lps = fixed_box_lps()
        for i, j in ((0, 2), (1, 3), (4, 5)):
            (c0, A, b0, u), (c1, _, b1, _) = lps[i], lps[j]
            c, b = np.array([c0, c1]), np.array([b0, b1])
            assert_lock_step_rows_equal_single_solves(c, A, b, u)
            assert_lock_step_rows_equal_single_solves(
                c0 if np.array_equal(c0, c1) else c, A, b0 if np.array_equal(b0, b1) else b, u)
        for c, A, b, u in lps + witness_box_lps():
            assert_lock_step_rows_equal_single_solves(np.atleast_2d(c), A, b, u)

    def test_lock_step_near_tie_among_other_lps(self):
        # Each near-tie LP takes, of the constraints within PIVOT_TOL of its
        # least ratio, the one of lowest basic index: LP 1 its second
        # (1 - 0.7e-10) and LP 3, the reversed near-tie, its first (1 - 1.4e-10).
        near_tie = np.array([1.0, 1.0 - 0.7e-10, 1.0 - 1.4e-10])
        b = np.array([[1.0, 2.0, 3.0], near_tie, [3.0, 2.0, 1.0], near_tie[::-1], [0.0, 1.0, 1.0]])
        batch = assert_lock_step_rows_equal_single_solves([1.0], np.ones((3, 1)), b, [10.0])
        assert batch.x[1, 0] == near_tie[1] and batch.x[3, 0] == near_tie[2]

    @pytest.mark.parametrize("lp", witness_box_lps())
    def test_near_tie_witnesses_stay_within_pivot_tol(self, lp):
        # Both solvers' x keep A x <= b + PIVOT_TOL and 0 <= x <= u.
        c, A, b, u = (np.asarray(v, dtype=float) for v in lp)
        for x in (solve_box_lp(c, A, b, u).x, solve_box_lps(c[None], A, b, u).x[0]):
            assert (A @ x <= b + PIVOT_TOL).all()
            assert (x >= 0.0).all() and (x <= u).all()

    @pytest.mark.parametrize("lps_per_block", [1, 3, None])
    def test_lock_step_batch_larger_than_one_block(self, monkeypatch, lps_per_block):
        # More LPs than one default block, cut into blocks of 1 LP, of 3 LPs
        # and of the default size: the rows do not depend on the cut.
        V = market_vertices()
        rows = V.shape[0] + V.shape[1]
        block = _linprog.BLOCK_ENTRIES // ((rows + 1) * (V.shape[1] + rows + 1))
        rng = np.random.default_rng(2)
        q = rng.dirichlet(np.ones(12), size=2 * block + 7) @ V
        q[1::2] = rng.dirichlet(np.ones(6), size=q[1::2].shape[0])
        for lp, n in (((q, V, np.full(12, 15.0), np.full(6, 250.0)), V.shape[1]),
                      ((np.ones(12), V.T, q, np.ones(12)), V.shape[0])):
            if lps_per_block:
                monkeypatch.setattr(_linprog, "BLOCK_ENTRIES",
                                    lps_per_block * (rows + 1) * (n + rows + 1))
            assert_lock_step_rows_equal_single_solves(*lp)

    def test_lock_step_without_implied_bound_rows(self):
        # Membership LPs: each column of A = V^T has unit mass, so A w <= q
        # implies w <= 1.  With upper None, each row is the looped solve with
        # the bound rows, to the byte, and its duals are the first k of that
        # solve's, whose bound-row duals are 0.  Each batch stacks the
        # vertices themselves (w_j = 1 ties a bound row), hull mixtures, face
        # mixtures and Dirichlet draws.
        rng = np.random.default_rng(8)
        V = market_vertices()
        batches = [(V, np.vstack([V, rng.dirichlet(np.ones(12), size=10) @ V,
                                  (rng.dirichlet(np.ones(12), size=10) * (rng.random((10, 12)) > 0.6)) @ V,
                                  rng.dirichlet(np.ones(6), size=10)]))]
        batches += [(A.T, np.vstack([b, A.T])) for _, A, b, _ in random_box_lps()[1:300:3]]
        for V, q in batches:
            n, k = V.shape
            q = q / q.sum(axis=1, keepdims=True)
            batch = solve_box_lps(np.ones(n), V.T, q, None)
            assert batch.duals.shape == (len(q), k)
            for i, qi in enumerate(q):
                x, value, duals, iterations = looped_box_lp(np.ones(n), V.T, qi, np.ones(n))
                assert batch.x[i].tobytes() == x.tobytes()
                assert batch.value[i].tobytes() == np.float64(value).tobytes()
                assert batch.iterations[i] == iterations
                assert not duals[k:].any() and batch.duals[i].tobytes() == duals[:k].tobytes()

    def test_lock_step_memory_is_bounded_by_the_block(self):
        # 1,000 market-shaped LPs of each kind: the tableaux of one block and
        # their temporaries, not of the whole batch (about 9-11 MB unblocked).
        V = market_vertices()
        rng = np.random.default_rng(4)
        q = rng.dirichlet(np.ones(12), size=1000) @ V
        q[1::2] = rng.dirichlet(np.ones(6), size=500)
        for lp in ((q, V, np.full(12, 15.0), np.full(6, 250.0)), (np.ones(12), V.T, q, np.ones(12))):
            tracemalloc.start()
            try:
                solve_box_lps(*lp)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 8 * _linprog.BLOCK_ENTRIES

    def test_lock_step_with_no_lps_or_no_variables(self):
        empty = solve_box_lps(np.zeros((0, 3)), np.ones((2, 3)), np.zeros((0, 2)), np.ones(3))
        assert empty.x.shape == (0, 3) and empty.value.shape == (0,)
        assert empty.duals.shape == (0, 5) and empty.iterations.shape == (0,)
        no_bound_rows = solve_box_lps(np.zeros((0, 3)), np.ones((2, 3)), np.zeros((0, 2)), None)
        assert no_bound_rows.x.shape == (0, 3) and no_bound_rows.duals.shape == (0, 2)
        for rows in (0, 2):
            batch = assert_lock_step_rows_equal_single_solves(
                np.zeros((4, 0)), np.zeros((rows, 0)), np.ones((4, rows)), [])
            assert batch.x.shape == (4, 0) and not batch.value.any() and not batch.iterations.any()

    def test_against_scipy_on_random_box_lps(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, 6))
            c = rng.normal(size=n)
            A = rng.uniform(0.0, 1.0, size=(k, n))
            b = rng.uniform(0.2, 2.0, size=k)
            u = rng.uniform(0.2, 3.0, size=n)
            mine = solve_box_lp(c, A, b, u)
            ref = linprog(-c, A_ub=A, b_ub=b, bounds=list(zip(np.zeros(n), u)), method="highs")
            assert ref.success
            assert mine.value == pytest.approx(-ref.fun, abs=1e-9)
            assert np.all(A @ mine.x <= b + 1e-9)
            assert np.all(mine.x >= -1e-12) and np.all(mine.x <= u + 1e-9)

    def test_no_variables_is_solved_at_the_origin(self):
        for rows in (0, 2):
            sol = solve_box_lp([], np.zeros((rows, 0)), np.ones(rows), [])
            assert sol.x.size == 0 and sol.value == 0.0 and sol.iterations == 0
            assert sol.duals.tobytes() == np.zeros(rows).tobytes()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            solve_box_lp([1.0], [[1.0, 2.0]], [1.0], [1.0])
        with pytest.raises(ValueError):
            solve_box_lp([1.0], [[1.0]], [-1.0], [1.0])
        with pytest.raises(ValueError):
            solve_box_lps([[1.0]], [[1.0, 2.0]], [1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            solve_box_lps([[1.0], [1.0]], [[1.0]], [[1.0], [-1.0]], [1.0])
        with pytest.raises(ValueError):
            solve_box_lps([[1.0], [1.0]], [[1.0]], [[1.0], [1.0], [1.0]], [1.0])
        with pytest.raises(ValueError):  # with no bound rows, A and b are still checked
            solve_box_lps([[1.0]], [[1.0, 2.0]], [1.0], None)
        with pytest.raises(ValueError):
            solve_box_lps([[1.0], [1.0]], [[1.0]], [[1.0], [-1.0]], None)


class TestObedience:
    def test_constant_license_at_fee(self, space3, uniform3, params_small):
        cs = CredalSet.singleton(uniform3)
        assert is_obedient(License(space3, [0.5, 0.5, 0.5]), cs, params_small)
        assert not is_obedient(License(space3, [1.0, 1.0, 1.0]), cs, params_small)

    def test_gaming_hull_indicator(self, simplex_hull, space3):
        params = MechanismParams(C=0.3, R=1.0)
        # max vertex mass on outcome 0 is 0.35 > 0.3
        assert not is_obedient(License(space3, [1.0, 0.0, 0.0]), simplex_hull, params)

    def test_participation_boundary(self, params_small):
        assert not participation_decision(params_small.C, params_small)
        assert participation_decision(params_small.R, params_small)
        assert not participation_decision(0.0, params_small)
        # the boundary band around C belongs to exclusion
        assert not participation_decision(params_small.C + BOUNDARY_BAND / 2, params_small)
        assert participation_decision(params_small.C + 2 * BOUNDARY_BAND, params_small)


class TestRiskNeutralResponse:
    def test_two_outcome_hand_lp(self, space2, params_small):
        q = Categorical(space2, [0.9, 0.1])
        cs = CredalSet.singleton(Categorical(space2, [0.5, 0.5]))
        res = sup_value_over_obedient(q, cs, params_small)
        assert np.allclose(res.license.payout, [1.0, 0.0], atol=1e-12)
        assert res.value == pytest.approx(0.9, abs=1e-12)

    def test_vertex_type_cannot_beat_fee(self, simplex_hull, simplex_points):
        params = MechanismParams(C=15.0, R=250.0)
        res = sup_value_over_obedient(simplex_points[0], simplex_hull, params)
        assert res.value <= params.C + 1e-9

    def test_hull_member_cannot_beat_fee(self, simplex_hull, uniform3):
        params = MechanismParams(C=15.0, R=250.0)
        res = sup_value_over_obedient(uniform3, simplex_hull, params)
        assert res.value <= params.C + 1e-9

    def test_result_is_obedient(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            space = EvidenceSpace.of_size(int(rng.integers(2, 6)))
            cs = random_credal(rng, space, int(rng.integers(1, 4)))
            q = random_categorical(rng, space)
            C = float(rng.uniform(0.2, 1.0))
            params = MechanismParams(C, C * float(rng.uniform(1.1, 6.0)))
            res = sup_value_over_obedient(q, cs, params)
            assert is_obedient(res.license, cs, params)

    def test_batch_values_are_the_single_values_to_the_byte(self):
        rng = np.random.default_rng(8)
        params = MechanismParams(C=15.0, R=250.0)
        for m, k in [(2, 1), (3, 3), (5, 7), (6, 12)]:
            space = EvidenceSpace.of_size(m)
            cs = random_credal(rng, space, k)
            types = [Categorical(space, rng.dirichlet(np.ones(k)) @ cs.vertex_matrix)
                     for _ in range(10)]
            types += list(cs.vertices) + [random_categorical(rng, space) for _ in range(10)]
            values = sup_values_over_obedient(types, cs, params)
            assert values.shape == (len(types),)
            for q, value in zip(types, values):
                single = sup_value_over_obedient(q, cs, params).value
                assert np.float64(single).tobytes() == value.tobytes()


class TestNeymanPearson:
    def test_budget_consumed_by_first_atom(self, space2, params_small):
        lic = neyman_pearson_license(
            Categorical(space2, [0.9, 0.1]), Categorical(space2, [0.5, 0.5]), params_small
        )
        assert np.allclose(lic.payout, [1.0, 0.0])

    def test_equal_distributions_spend_exactly_the_fee(self, space3, uniform3, params_small):
        lic = neyman_pearson_license(uniform3, uniform3, params_small)
        assert uniform3.expectation(lic.payout) == pytest.approx(params_small.C, abs=1e-12)

    def test_fractional_boundary_payout(self, space2, params_small):
        lic = neyman_pearson_license(
            Categorical(space2, [0.6, 0.4]), Categorical(space2, [0.25, 0.75]), params_small
        )
        assert np.allclose(lic.payout, [1.0, 1.0 / 3.0], atol=1e-12)
        p = Categorical(space2, [0.25, 0.75])
        assert p.expectation(lic.payout) == pytest.approx(0.5, abs=1e-12)

    def test_lp_equivalence_and_all_or_nothing(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            space = EvidenceSpace.of_size(m)
            q = random_categorical(rng, space)
            p = random_categorical(rng, space)
            C = float(rng.uniform(0.1, 0.9))
            params = MechanismParams(C, C * float(rng.uniform(1.1, 5.0)))
            lic = neyman_pearson_license(q, p, params)
            lp = sup_value_over_obedient(q, CredalSet.singleton(p), params)
            assert q.expectation(lic.payout) == pytest.approx(lp.value, abs=1e-8)
            interior = np.sum((lic.payout > 1e-12) & (lic.payout < params.R - 1e-12))
            assert interior <= 1


class TestKappa:
    def test_zero_at_identity(self, uniform3):
        params = MechanismParams(1.0, 2.0)
        assert kappa(uniform3, uniform3, params) == pytest.approx(0.0, abs=1e-15)

    def test_cap_active_on_disjoint_support(self, space2):
        params = MechanismParams(1.0, 10.0)
        q = Categorical(space2, [1.0, 0.0])
        p = Categorical(space2, [0.0, 1.0])
        assert kappa(q, p, params) == pytest.approx(math.log(10.0), abs=1e-12)

    def test_direct_summation(self, space2):
        params = MechanismParams(1.0, 2.0)
        q = Categorical(space2, [0.9, 0.1])
        p = Categorical(space2, [0.5, 0.5])
        expected = 0.9 * min(math.log(1.8), math.log(2)) + 0.1 * min(math.log(0.2), math.log(2))
        assert kappa(q, p, params) == pytest.approx(expected, abs=1e-15)

    def test_two_formula_identity(self):
        # capped form agrees with KL minus the tail correction on positive pairs
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            space = EvidenceSpace.of_size(m)
            q_raw = rng.dirichlet(np.ones(m)) + 1e-6
            q = Categorical(space, q_raw / q_raw.sum())
            p_raw = rng.dirichlet(np.ones(m)) + 1e-6
            p = Categorical(space, p_raw / p_raw.sum())
            params = MechanismParams(1.0, float(rng.uniform(1.1, 20.0)))
            log_cap = math.log(params.cap_ratio)
            tail = q.probs * (np.log(q.probs / p.probs) - log_cap)
            tail = float(tail[np.log(q.probs / p.probs) > log_cap].sum())
            two_term = kl_divergence(q, p) - tail
            assert kappa(q, p, params) == pytest.approx(two_term, abs=1e-12)

    @given(m=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_vertex_set_returns_the_vertex(self, m, seed):
        rng = np.random.default_rng(seed)
        space = EvidenceSpace.of_size(m)
        q, p = (Categorical(space, rng.dirichlet(np.ones(m))) for _ in range(2))
        params = MechanismParams(C=15.0, R=250.0)
        w, value, converged = minimize_kappa(q, CredalSet.singleton(p), params)
        assert w.tolist() == [1.0] and converged
        assert value == kappa(q, p, params)

    def test_converged_flag_describes_the_returned_start(self, space2):
        # One iteration leaves the best start short of the optimum while a
        # vertex start stops at once; the flag must report the best start.
        credal = CredalSet(space2, (Categorical(space2, [0.98, 0.02]),
                                    Categorical(space2, [0.12, 0.88])))
        q = Categorical(space2, [0.31, 0.69])
        params = MechanismParams(15.0, 250.0)
        with patch.object(licenses, "KAPPA_MAX_ITER", 1):
            _, val_short, converged_short = minimize_kappa(q, credal, params)
        _, val_full, converged_full = minimize_kappa(q, credal, params)
        assert converged_full
        assert val_full < val_short - 1e-6
        assert not converged_short


_SPACE2 = EvidenceSpace.of_size(2)
NOT_OBEDIENT_INSTANCE = (
    Categorical(_SPACE2, [0.9659557992953943, 0.03404420070460571]),
    CredalSet(_SPACE2, tuple(Categorical(_SPACE2, v) for v in (
        [0.0, 1.0], [0.11818315092721399, 0.881816849072786], [1.0, 0.0]))),
    MechanismParams(C=2.9063453991814963, R=212.37797700435968),
)


class TestRiskAverseResponse:
    def test_singleton_direct_formula(self, space2, params_small):
        q = Categorical(space2, [0.9, 0.1])
        cs = CredalSet.singleton(Categorical(space2, [0.5, 0.5]))
        res = optimal_risk_averse_license(q, cs, params_small)
        assert np.allclose(res.license.payout, [0.9, 0.1], atol=1e-9)
        p = cs.vertices[0]
        assert p.expectation(res.license.payout) == pytest.approx(params_small.C, abs=1e-9)

    def test_member_type_gets_flat_fee(self, simplex_hull, uniform3):
        params = MechanismParams(15.0, 250.0)
        res = optimal_risk_averse_license(uniform3, simplex_hull, params)
        assert np.allclose(res.license.payout, params.C, atol=1e-6)
        assert res.value == pytest.approx(params.C, abs=1e-6)

    def test_two_vertex_grid_oracle(self, space2):
        # independent check: dense 1-D scan over the mixing weight
        q = Categorical(space2, [0.8, 0.2])
        cs = CredalSet(space2, (Categorical(space2, [0.5, 0.5]), Categorical(space2, [0.6, 0.4])))
        params = MechanismParams(1.0, 4.0)
        w_grid = np.linspace(0.0, 1.0, 10001)
        best_kappa, best_w = np.inf, None
        for w in w_grid:
            p = Categorical(space2, w * cs.vertices[0].probs + (1 - w) * cs.vertices[1].probs)
            val = kappa(q, p, params)
            if val < best_kappa:
                best_kappa, best_w = val, w
        res = optimal_risk_averse_license(q, cs, params)
        assert res.kappa_value <= best_kappa + 1e-8
        p_star = res.projection.probs
        assert np.allclose(p_star, [0.6, 0.4], atol=1e-6)
        expected = np.minimum(params.C * q.probs / p_star, params.R)
        assert np.allclose(res.license.payout, expected, atol=1e-6)

    def test_obedient_and_budget_exact_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            space = EvidenceSpace.of_size(int(rng.integers(2, 6)))
            cs = random_credal(rng, space, int(rng.integers(1, 4)))
            q = random_categorical(rng, space)
            C = float(rng.uniform(0.2, 1.0))
            params = MechanismParams(C, C * float(rng.uniform(1.1, 5.0)))
            res = optimal_risk_averse_license(q, cs, params)
            assert is_obedient(res.license, cs, params)
            pay = res.license.payout
            if np.any(pay[q.probs > 0] < params.R - 1e-9):
                sup = upper_expectation(cs, pay)
                assert sup == pytest.approx(params.C, abs=1e-6)

    def test_neutral_dominates_averse_dominates_unoptimized(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            space = EvidenceSpace.of_size(int(rng.integers(2, 6)))
            cs = random_credal(rng, space, int(rng.integers(1, 4)))
            q = random_categorical(rng, space)
            C = float(rng.uniform(0.2, 1.0))
            params = MechanismParams(C, C * float(rng.uniform(1.2, 5.0)))
            neutral = sup_value_over_obedient(q, cs, params)
            averse = optimal_risk_averse_license(q, cs, params)
            assert neutral.value >= averse.value - 1e-8
            # any obedient license is weakly worse than the LP optimum
            raw = rng.uniform(0.0, params.R, size=space.size)
            scale = min(1.0, params.C / max(upper_expectation(cs, raw), 1e-12))
            arbitrary = License(space, raw * scale)
            assert is_obedient(arbitrary, cs, params)
            assert neutral.value >= q.expectation(arbitrary.payout) - 1e-8

    def test_license_that_is_not_obedient_is_not_converged(self):
        # P* = [1, 0] has no mass on outcome 1, which vertex [0, 1] charges, so
        # the payout there is R for every gamma and sup_P E_P[pi] = R > C.
        q, credal, params = NOT_OBEDIENT_INSTANCE
        res = optimal_risk_averse_license(q, credal, params)
        assert not is_obedient(res.license, credal, params)
        assert not res.converged

    def test_singleton_credal_set_of_equal_vertices(self, space2, params_small):
        p = Categorical(space2, [0.5, 0.5])
        cs = CredalSet(space2, (p, Categorical(space2, [0.5, 0.5])))
        res = optimal_risk_averse_license(p, cs, params_small)
        assert np.allclose(res.license.payout, params_small.C, atol=1e-9)


# The license JSON is output-only (``License.to_json``, written by ``license
# optimal --out``); the license JSON the program reads is that command's
# input: a credal file with the space and a config with the provider vector
# and the params.


def run_license_command(tmp_path, config, space=("a", "b"), config_path=None):
    """``license optimal`` on a one-vertex credal set over ``space``; input errors raise."""
    credal = tmp_path / "credal.json"
    credal.write_text(json.dumps({"space": space, "vertices": [[0.25, 0.75]]}))
    if config_path is None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
    args = build_parser().parse_args(
        ["license", "optimal", "--credal", str(credal), "--config", str(config_path)])
    return args.func(args)


def test_license_json_round_trip(tmp_path, space2):
    params = MechanismParams(0.5, 1.0)
    lic = License(space2, [1.0, 1.0 / 3.0])
    path = tmp_path / "license.json"
    path.write_text(json.dumps(lic.to_json(params)))
    fields = ("space", "payout", "params")
    payload = json_object(load_json(path, "license"), fields, "license JSON", required=fields)
    loaded = License(EvidenceSpace(payload["space"]), payload["payout"])
    assert np.array_equal(loaded.payout, lic.payout)
    assert loaded.space == lic.space
    assert MechanismParams.from_json(payload["params"], "license JSON field 'params'") == params


@pytest.mark.parametrize("name, content, message", [
    (".", None, "cannot read license config file"),
    ("missing.json", None, "cannot read license config file"),
    ("bad.json", "{\"provider\": [0.1,", "not valid JSON"),
], ids=["directory", "missing", "invalid-json"])
def test_license_load_errors_are_value_errors_naming_the_file(tmp_path, name, content, message):
    path = tmp_path / name
    if content is not None:
        path.write_text(content)
    with pytest.raises(ValueError, match=message) as err:
        run_license_command(tmp_path, None, config_path=path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("payout", [["0.1", 0.2], [0.1, True], [[0.1], 0.2], "0.1,0.2",
                                    [math.nan, 0.2], [0.1, math.inf], 0.1])
def test_license_json_rejects_payouts_that_are_not_numbers(tmp_path, payout):
    # the provider vector is read by the rule the license payout was read by
    with pytest.raises(ValueError, match="'provider'"):
        run_license_command(tmp_path, {"provider": payout, "params": {"C": 0.5, "R": 1.0}})


@pytest.mark.parametrize("C, R", [(0.5, math.inf), (math.nan, 1.0), (0.5, math.nan)])
def test_mechanism_params_must_be_finite(C, R):
    with pytest.raises(ValueError):
        MechanismParams(C, R)
    with pytest.raises(ValueError, match="finite number"):
        MechanismParams.from_json({"C": C, "R": R}, "params")


@pytest.mark.parametrize("payload, key", [
    ({"space": ["a", "b"], "provider": [0.5, 0.5], "params": {"C": 0.5, "R": 1.0}, "seed": 3},
     "'seed'"),
    ({"space": ["a", "b"], "provider": [0.5, 0.5], "params": {"C": 0.5, "R": 1.0, "fee": 0.1}},
     "'fee'"),
    ({"space": ["a", "b"], "provider": [0.5, 0.5], "params": {"C": 0.5}}, "'R'"),
    ({"space": ["a", "b"], "provider": [0.5, 0.5], "params": {"C": "0.5", "R": 1.0}},
     "'params'"),
    ({"space": ["a", "b"], "provider": [0.5, 0.5], "params": [0.5, 1.0]}, "'params'"),
    ({"space": "ab", "provider": [0.5, 0.5], "params": {"C": 0.5, "R": 1.0}}, "'space'"),
    ({"space": ["a", 1], "provider": [0.5, 0.5], "params": {"C": 0.5, "R": 1.0}}, "'space'"),
], ids=["top-level", "params", "params-missing", "params-string", "params-list", "space-string",
        "space-number"])
def test_license_json_names_the_bad_key(tmp_path, payload, key):
    config = {k: v for k, v in payload.items() if k != "space"}
    with pytest.raises(ValueError, match=key):
        run_license_command(tmp_path, config, space=payload["space"])


# ---------------------------------------------------------------------------
# The shared P = 0 / Q = 0 rule against the inline formulas it replaced
# ---------------------------------------------------------------------------


def inline_np_payout(qp, pp, params):
    """Neyman-Pearson payout with the ratio written out inline."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pp > 0, qp / np.where(pp > 0, pp, 1.0), np.inf)
    ratio = np.where((pp == 0) & (qp == 0), 0.0, ratio)
    order = np.lexsort((np.arange(qp.size), -ratio))
    payout = np.zeros(qp.size)
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
    return payout


def inline_kappa_raw(qp, pp, log_cap):
    support = qp > 0.0
    qs, ps = qp[support], pp[support]
    with np.errstate(divide="ignore"):
        log_ratio = np.where(ps > 0, np.log(qs) - np.log(np.where(ps > 0, ps, 1.0)), np.inf)
    return float(qs @ np.minimum(log_ratio, log_cap))


def looped_project_to_simplex(v):
    """Reference: Euclidean projection of one vector onto the simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, v.size + 1) > 0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.clip(v + theta, 0.0, None)


def inline_minimize_kappa(qp, V, params, n_starts=8, max_iter=500):
    """Reference: the starts one after another, with the kappa gradient written out inline."""
    k = V.shape[0]
    log_cap = math.log(params.cap_ratio)

    def kappa_of(w):
        return inline_kappa_raw(qp, w @ V, log_cap)

    def gradient(w):
        p = w @ V
        support = qp > 0.0
        with np.errstate(divide="ignore"):
            log_ratio = np.where(
                p > 0, np.log(np.where(qp > 0, qp, 1.0)) - np.log(np.where(p > 0, p, 1.0)), np.inf
            )
        active = support & (log_ratio < log_cap) & (p > 0)
        if not np.any(active):
            return np.zeros(k)
        return -(V[:, active] @ (qp[active] / p[active]))

    if k == 1:
        return np.ones(1), kappa_of(np.ones(1)), True
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0)))
    starts = [np.eye(k)[i] for i in range(k)]
    starts.append(np.full(k, 1.0 / k))
    while len(starts) < max(n_starts, k + 1):
        starts.append(rng.dirichlet(np.ones(k)))
    best_w, best_val, best_idx, best_converged = None, np.inf, -1, False
    for idx, w0 in enumerate(starts):
        w = w0.copy()
        val = kappa_of(w)
        converged = False
        for _ in range(max_iter):
            g = gradient(w)
            step_dir = looped_project_to_simplex(w - g) - w
            if np.linalg.norm(step_dir) <= 1e-8:
                converged = True
                break
            eta = 1.0
            improved = False
            for _ in range(40):
                w_new = looped_project_to_simplex(w - eta * g)
                val_new = kappa_of(w_new)
                if val_new < val - 1e-14:
                    w, val = w_new, val_new
                    improved = True
                    break
                eta *= 0.5
            if not improved:
                converged = True
                break
        if val < best_val - 1e-15 or (abs(val - best_val) <= 1e-15 and best_idx < 0):
            best_w, best_val, best_idx, best_converged = w, val, idx, converged
    return best_w, best_val, best_converged


def inline_risk_averse_payout(qp, p_star, V, params):
    """Truncated-ratio payout and its budget scale, with the ratio written out inline."""
    support = qp > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p_star > 0, qp / np.where(p_star > 0, p_star, 1.0), np.inf)
    finite_pos = support & np.isfinite(ratio) & (ratio > 0)

    def sup_expectation(gamma):
        with np.errstate(invalid="ignore"):
            payout = np.where(finite_pos, np.minimum(gamma * ratio, params.R), 0.0)
        payout = np.where(support & ~finite_pos, params.R, payout)
        return float(np.max(V @ payout))

    if not np.any(finite_pos):
        gamma = params.C
    else:
        gamma = params.R / float(np.min(ratio[finite_pos]))
        if sup_expectation(gamma) > params.C:
            lo, hi = 0.0, gamma
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if sup_expectation(mid) <= params.C:
                    lo = mid
                else:
                    hi = mid
            gamma = lo
    finite = support & np.isfinite(ratio)
    with np.errstate(invalid="ignore"):  # gamma = 0 times an infinite ratio
        payout = np.where(finite, np.minimum(gamma * ratio, params.R), 0.0)
    return np.where(support & ~finite, params.R, payout)


@st.composite
def sparse_instances(draw):
    """A type Q and one to three credal vertices with zeros in Q, in P, or in both."""
    m = draw(st.integers(2, 5))

    def sparse_vector():
        mass = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
        w = np.array(draw(st.lists(mass, min_size=m, max_size=m)))
        if not np.any(w > 0):
            w[draw(st.integers(0, m - 1))] = 1.0
        return w / w.sum()

    space = EvidenceSpace.of_size(m)
    q = Categorical(space, sparse_vector())
    vertices = tuple(Categorical(space, sparse_vector()) for _ in range(draw(st.integers(1, 3))))
    params = MechanismParams(C=draw(st.floats(0.5, 20.0)), R=draw(st.floats(25.0, 300.0)))
    return q, CredalSet(space, vertices), params


class TestLikelihoodRatioRule:
    @given(sparse_instances())
    @settings(max_examples=150, deadline=None)
    def test_sites_match_the_inline_formulas_bitwise(self, instance):
        q, credal, params = instance
        V = credal.vertex_matrix
        p = credal.vertices[0]
        np_payout = neyman_pearson_license(q, p, params).payout
        assert np.array_equal(np_payout, inline_np_payout(q.probs, p.probs, params))
        log_cap = math.log(params.cap_ratio)
        for v in credal.vertices:
            assert kappa(q, v, params) == inline_kappa_raw(q.probs, v.probs, log_cap)
        w, val, converged = minimize_kappa(q, credal, params)
        w_ref, val_ref, converged_ref = inline_minimize_kappa(q.probs, V, params)
        assert np.array_equal(w, w_ref) and val == val_ref and converged == converged_ref
        res = optimal_risk_averse_license(q, credal, params)
        assert np.array_equal(res.license.payout,
                              inline_risk_averse_payout(q.probs, w_ref @ V, V, params))


# ---------------------------------------------------------------------------
# Lock-step kappa starts against the per-start loop
# ---------------------------------------------------------------------------


def seeded_kappa_instance(seed, m, k, **kwargs):
    """A type and k vertices over m outcomes, each with about a third of its mass points at 0."""
    rng = np.random.default_rng(seed)
    space = EvidenceSpace.of_size(m)

    def sparse_vector():
        w = rng.dirichlet(np.ones(m))
        w[rng.random(m) < 0.3] = 0.0
        if not np.any(w > 0):
            w[rng.integers(m)] = 1.0
        return w / w.sum()

    q = Categorical(space, sparse_vector())
    credal = CredalSet(space, tuple(Categorical(space, sparse_vector()) for _ in range(k)))
    return q, credal, MechanismParams(C=2.0, R=60.0), kwargs


def seeded_kappa_population(seed, m, k, n_types, **kwargs):
    """:func:`seeded_kappa_instance` with ``n_types`` types on the one set."""
    q, credal, params, _ = seeded_kappa_instance(seed, m, k)
    others = [seeded_kappa_instance(seed + 100 * i, m, k)[0] for i in range(1, n_types)]
    return [q, *others], credal, params, kwargs


def market_kappa_instance(seed):
    """A hull mixture of the benchmark market's set: several starts run to KAPPA_MAX_ITER."""
    V = market_vertices()
    q = np.random.default_rng(seed).dirichlet(np.ones(V.shape[0])) @ V
    space = EvidenceSpace.of_size(V.shape[1])
    credal = CredalSet(space, tuple(Categorical(space, v) for v in V))
    return Categorical(space, q / q.sum()), credal, MechanismParams(C=15.0, R=250.0), {}


def market_kappa_population(seeds):
    """The hull mixtures of :func:`market_kappa_instance` at ``seeds``, on the one set."""
    _, credal, params, _ = market_kappa_instance(seeds[0])
    return [market_kappa_instance(seed)[0] for seed in seeds], credal, params, {}


@st.composite
def kappa_populations(draw, n_types=st.integers(1, 4), max_m=9, max_k=10):
    """Types and up to ``max_k`` vertices over up to ``max_m`` outcomes, zeros allowed anywhere."""
    m, k = draw(st.integers(1, max_m)), draw(st.integers(1, max_k))

    def sparse_vector():
        mass = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
        w = np.array(draw(st.lists(mass, min_size=m, max_size=m)))
        if not np.any(w > 0):
            w[draw(st.integers(0, m - 1))] = 1.0
        return w / w.sum()

    space = EvidenceSpace.of_size(m)
    types = [Categorical(space, sparse_vector()) for _ in range(draw(n_types))]
    credal = CredalSet(space, tuple(Categorical(space, sparse_vector()) for _ in range(k)))
    params = MechanismParams(C=draw(st.floats(0.5, 20.0)), R=draw(st.floats(25.0, 300.0)))
    kwargs = {"max_iter": draw(st.sampled_from((1, 2, 500))),  # patched in as KAPPA_MAX_ITER
              "n_starts": draw(st.sampled_from((8, k + 4)))}
    return types, credal, params, kwargs


def kappa_instances():
    """One type of :func:`kappa_populations`."""
    return kappa_populations(n_types=st.just(1)).map(lambda inst: (inst[0][0], *inst[1:]))


def assert_kappa_matches_the_loop(q, credal, params, max_iter=KAPPA_MAX_ITER, **kwargs):
    with patch.object(licenses, "KAPPA_MAX_ITER", max_iter):
        w, val, converged = minimize_kappa(q, credal, params, **kwargs)
    w_ref, val_ref, converged_ref = inline_minimize_kappa(
        q.probs, credal.vertex_matrix, params, max_iter=max_iter, **kwargs)
    assert np.array_equal(w, w_ref)
    assert val == val_ref
    assert converged == converged_ref


def assert_kappas_match_the_loop(types, credal, params, max_iter=KAPPA_MAX_ITER, **kwargs):
    with patch.object(licenses, "KAPPA_MAX_ITER", max_iter):
        W, vals, converged = minimize_kappas(types, credal, params, **kwargs)
    assert W.shape == (len(types), len(credal.vertices))
    assert vals.shape == converged.shape == (len(types),)
    for q, w, val, flag in zip(types, W, vals.tolist(), converged.tolist()):
        w_ref, val_ref, converged_ref = inline_minimize_kappa(
            q.probs, credal.vertex_matrix, params, max_iter=max_iter, **kwargs)
        assert np.array_equal(w, w_ref)
        assert val == val_ref
        assert flag == converged_ref


class TestLockStepKappa:
    """Every start of every type of minimize_kappas takes the steps and bits it takes alone."""

    @pytest.mark.parametrize("gamma, burn_in", [(0.4, False), (0.6, False), (0.4, True)],
                             ids=["gamma0.4", "gamma0.6", "burn_in_type"])
    def test_fairness_parity_set_bitwise(self, gamma, burn_in):
        q = paired_fairness_distribution(gamma)
        if burn_in:  # pooled burn-in counts of 30 runs x 300 draws, add-one smoothed
            counts = np.random.default_rng(11).multinomial(9000, q.probs) + 1.0
            q = Categorical(q.space, counts / counts.sum())
        assert_kappa_matches_the_loop(q, parity_credal_set(0.6, 10), MechanismParams(15.0, 250.0))

    @given(kappa_instances())
    @example(seeded_kappa_instance(1, m=3, k=1))
    @example(seeded_kappa_instance(2, m=2, k=7))
    @example(seeded_kappa_instance(3, m=8, k=5))
    @example(seeded_kappa_instance(4, m=4, k=4, max_iter=1))
    @example(seeded_kappa_instance(5, m=4, k=4, max_iter=2))
    @example(seeded_kappa_instance(6, m=3, k=9, n_starts=14))
    @example(market_kappa_instance(1))
    @settings(max_examples=100, deadline=None)
    def test_random_instances_bitwise(self, instance):
        q, credal, params, kwargs = instance
        assert_kappa_matches_the_loop(q, credal, params, **kwargs)

    @given(kappa_populations(max_m=6, max_k=6))
    @example(seeded_kappa_population(1, m=3, k=1, n_types=3))
    @example(seeded_kappa_population(4, m=4, k=4, n_types=3, max_iter=1))
    @example(seeded_kappa_population(5, m=4, k=4, n_types=3, max_iter=2))
    @example(seeded_kappa_population(6, m=3, k=9, n_types=2, n_starts=13))
    @example(market_kappa_population((0, 1, 2, 3)))
    @settings(max_examples=40, deadline=None)
    def test_types_in_one_call_match_the_loop_per_type_bitwise(self, population):
        types, credal, params, kwargs = population
        assert_kappas_match_the_loop(types, credal, params, **kwargs)

    def test_types_with_different_supports_share_one_call(self):
        types, credal, params, _ = seeded_kappa_population(3, m=8, k=5, n_types=4)
        assert len({tuple(q.probs > 0) for q in types}) == 4
        assert_kappas_match_the_loop(types, credal, params)
        assert_kappas_match_the_loop(types[::-1], credal, params)

    def test_interleaved_supports_scatter_back_to_input_order(self):
        # Two types on each of two supports, interleaved: each support's search
        # returns its types in its own order, and the scatter restores the input's.
        (a1, b1), credal, params, _ = seeded_kappa_population(3, m=8, k=5, n_types=2)

        def same_support(q, seed):
            w = q.probs * np.random.default_rng(seed).uniform(0.5, 1.5, q.space.size)
            return Categorical(q.space, w / w.sum())

        types = [a1, b1, same_support(a1, 1), same_support(b1, 2)]
        assert [tuple(q.probs > 0) for q in types[:2]] == [tuple(q.probs > 0) for q in types[2:]]
        assert tuple(a1.probs > 0) != tuple(b1.probs > 0)
        W, _, _ = minimize_kappas(types, credal, params)
        assert not np.array_equal(W[0], W[2]) and not np.array_equal(W[1], W[3])
        assert_kappas_match_the_loop(types, credal, params)
        assert_kappas_match_the_loop(types[::-1], credal, params)

    def test_no_types(self):
        _, credal, params, _ = market_kappa_instance(1)
        W, vals, converged = minimize_kappas([], credal, params)
        assert W.shape == (0, 12) and vals.shape == converged.shape == (0,)
        assert optimal_risk_averse_licenses([], credal, params) == []

    def test_types_on_another_space_are_rejected(self):
        q, credal, params, _ = market_kappa_instance(1)
        other = Categorical(EvidenceSpace(tuple("abcdef")), q.probs)
        with pytest.raises(ValueError, match="different evidence spaces"):
            minimize_kappas([q, other], credal, params)

    def test_rows_sharing_one_mask_are_not_grouped(self):
        # On the market's set every live row has the same active mask at every
        # iteration, so the gradient never packs the masks into group keys.
        q, credal, params, _ = market_kappa_instance(1)
        with patch.object(np, "packbits", wraps=np.packbits) as packbits:
            minimize_kappa(q, credal, params)
        assert packbits.call_count == 0

    def test_row_projection_matches_the_vector_one_on_any_layout(self):
        rng = np.random.default_rng(3)
        block = np.round(rng.normal(scale=2.0, size=(24, 21)), 1)  # rounding makes ties
        for X in (block[:12, :7], np.asfortranarray(block[:12, :7]), block[::2, ::3]):
            projected = _project_rows_to_simplex(X)
            for row, out in zip(X, projected):
                assert np.array_equal(out, looped_project_to_simplex(row))

    @pytest.mark.parametrize("gamma, max_calls", [(0.4, 800), (0.6, 2700)])
    def test_line_search_halvings_are_stacked_in_chunks(self, gamma, max_calls):
        # 2,568 and 6,722 projections when every halving is a round of its own
        # (795 and 2,640 in chunks); no chunk stacks more rows than the
        # 126 x 125 weight matrix holds.
        rows = []

        def project(X):
            rows.append(X.shape[0])
            return _project_rows_to_simplex(X)

        with patch.object(licenses, "_project_rows_to_simplex", project):
            minimize_kappa(paired_fairness_distribution(gamma), parity_credal_set(0.6, 10),
                           MechanismParams(15.0, 250.0))
        assert len(rows) <= max_calls
        assert max(rows) <= 126

    @pytest.mark.parametrize("gamma", [0.4, 0.6])
    def test_peak_memory_on_the_parity_set(self, gamma):
        # One 126 x 125 weight matrix, not a 125 x 125 identity per start, and
        # line-search stacks of at most as many rows.
        credal = parity_credal_set(0.6, 10)
        q, params = paired_fairness_distribution(gamma), MechanismParams(15.0, 250.0)
        tracemalloc.start()
        try:
            minimize_kappa(q, credal, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
