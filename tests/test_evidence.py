import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credalmarket.betting import BettingScore, KellyConfig, kelly_optimal_bet, verify_supermartingale
from credalmarket.credal import CredalSet, membership
from credalmarket.evidence import (
    PROB_ATOL,
    Categorical,
    EvidenceSpace,
    SampleStream,
    draw_outcomes,
    json_integer,
    json_labels,
    json_number,
    json_numbers,
    json_object,
    kl_divergence,
    load_json,
    log_ratio,
    mixture,
    ratio,
    sample,
    spawn_seeds,
    write_csv,
    write_json,
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


def test_space_validation():
    with pytest.raises(ValueError):
        EvidenceSpace(())
    with pytest.raises(ValueError):
        EvidenceSpace(("a", "a"))
    assert EvidenceSpace.of_size(3).size == 3


def test_categorical_validation(space2):
    with pytest.raises(ValueError):
        Categorical(space2, [0.5, 0.4])
    with pytest.raises(ValueError):
        Categorical(space2, [1.2, -0.2])
    with pytest.raises(ValueError):
        Categorical(space2, [1.0])
    c = Categorical(space2, [0.25, 0.75])
    assert c.expectation([1.0, 0.0]) == 0.25


@pytest.mark.parametrize("probs", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0],
                                   [math.inf, -math.inf]])
def test_categorical_rejects_nan_and_inf(space2, probs):
    with pytest.raises(ValueError):
        Categorical(space2, probs)


PARAMS = MechanismParams(C=1.0, R=4.0)
#: every entry point that checks its inputs' spaces, called with q on one space and p on another
SPACE_CHECKS = {
    "kelly_optimal_bet": lambda q, p: kelly_optimal_bet(q, BettingScore(p.space, [1.0, -1.0]),
                                                        KellyConfig()),
    "verify_supermartingale": lambda q, p: verify_supermartingale(
        q, BettingScore(p.space, [-1.0, -1.0]), KellyConfig(), runs=2, n=2, seed=0),
    "is_obedient": lambda q, p: is_obedient(License(q.space, [1.0, 1.0]), CredalSet.singleton(p),
                                            PARAMS),
    "sup_value_over_obedient": lambda q, p: sup_value_over_obedient(q, CredalSet.singleton(p), PARAMS),
    "neyman_pearson_license": lambda q, p: neyman_pearson_license(q, p, PARAMS),
    "minimize_kappa": lambda q, p: minimize_kappa(q, CredalSet.singleton(p), PARAMS),
    "optimal_risk_averse_license": lambda q, p: optimal_risk_averse_license(
        q, CredalSet.singleton(p), PARAMS),
    "membership": lambda q, p: membership(q, CredalSet.singleton(p)),
}


@pytest.mark.parametrize("entry", sorted(SPACE_CHECKS))
def test_inputs_on_different_spaces_are_rejected(entry):
    q = Categorical(EvidenceSpace.of_size(2), [0.6, 0.4])
    p = Categorical(EvidenceSpace(("a", "b")), [0.5, 0.5])
    with pytest.raises(ValueError, match="different evidence spaces"):
        SPACE_CHECKS[entry](q, p)


class TestJsonRules:
    @pytest.mark.parametrize("value", [None, True, "0.5", [0.5], math.nan, math.inf, -math.inf])
    def test_number(self, value):
        with pytest.raises(ValueError, match="'tau' must be a finite number"):
            json_number(value, "config field 'tau'")

    def test_valid_values_are_returned_unchanged(self):
        assert type(json_number(3, "x")) is int and json_number(0.5, "x") == 0.5
        numbers = [1, 0.5]
        assert json_numbers(numbers, "x") is numbers
        assert json_labels(["a", "b"], "x") == ["a", "b"]
        assert json_integer(0, "x", 0) == 0

    @pytest.mark.parametrize("value", [[math.nan], [1.0, math.inf], [True], ["1"], 1.0, None])
    def test_numbers(self, value):
        with pytest.raises(ValueError, match="list of finite numbers"):
            json_numbers(value, "x")

    @pytest.mark.parametrize("value", ["ab", [1], ["a", None], None, {"a": "b"}])
    def test_labels(self, value):
        with pytest.raises(ValueError, match="list of strings"):
            json_labels(value, "x")

    @pytest.mark.parametrize("value, minimum", [(2.0, 0), (True, 0), (-1, 0), (0, 1), (None, 0)])
    def test_integer(self, value, minimum):
        with pytest.raises(ValueError, match=f"integer >= {minimum}"):
            json_integer(value, "x", minimum)

    def test_object_required_and_allowed_fields(self):
        payload = {"a": 1}
        assert json_object(payload, ("a", "b"), "cfg", required=("a",)) is payload
        with pytest.raises(ValueError, match="cfg is missing field 'b'"):
            json_object(payload, ("a", "b"), "cfg", required=("a", "b"))
        with pytest.raises(ValueError, match="'a'"):
            json_object(payload, ("b",), "cfg")


class TestWriters:
    #: the columns of a trajectory row whose wealth overflowed: step, lambda, outcome, wealth,
    #: license_value
    COLUMNS = ((7,), (0.5,), (1,), (math.inf,), (250.0,))

    def test_numpy_float_cells_write_as_python_floats(self, tmp_path):
        cells = [tuple(np.float64(v) if isinstance(v, float) else v for v in col) for col in self.COLUMNS]
        arrays = [np.array(col) for col in self.COLUMNS]  # int64 and float64 arrays
        for name, columns in (("python.csv", self.COLUMNS), ("numpy.csv", cells), ("arrays.csv", arrays)):
            write_csv(tmp_path / name, ("step", "lambda", "outcome", "wealth", "license_value"),
                      [columns], comment="run")
        written = {(tmp_path / name).read_bytes() for name in ("python.csv", "numpy.csv", "arrays.csv")}
        assert written == {b"# run\nstep,lambda,outcome,wealth,license_value\r\n7,0.5,1,inf,250.0\r\n"}

    def test_blocks_write_one_after_another(self, tmp_path):
        x = np.array([0.1, 2.5, -0.0, math.nan, math.inf])
        write_csv(tmp_path / "one.csv", ("i", "x"), [(np.arange(5), x)])
        write_csv(tmp_path / "three.csv", ("i", "x"),
                  [(np.arange(2), x[:2]), (np.arange(2, 3), x[2:3]), (range(3, 5), x[3:].tolist())])
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "three.csv").read_bytes() == (
            b"i,x\r\n0,0.1\r\n1,2.5\r\n2,-0.0\r\n3,nan\r\n4,inf\r\n")

    def test_json_is_indented_with_a_final_newline(self, tmp_path):
        write_json(tmp_path / "a.json", {"x": [1, 0.5]})
        assert (tmp_path / "a.json").read_text() == '{\n  "x": [\n    1,\n    0.5\n  ]\n}\n'
        assert load_json(tmp_path / "a.json", "test") == {"x": [1, 0.5]}


class TestMixture:
    def test_uniform_mixture_of_gaming_points(self, simplex_points):
        mixed = mixture(simplex_points, [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(mixed.probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_identity(self, simplex_points):
        assert mixture([simplex_points[0]], [1.0]).allclose(simplex_points[0])

    def test_vertex_interpolation(self, space2):
        out = mixture(
            [Categorical(space2, [1, 0]), Categorical(space2, [0, 1])], [0.25, 0.75]
        )
        assert np.allclose(out.probs, [0.25, 0.75])

    def test_mismatched_spaces_rejected(self, space2, space3):
        with pytest.raises(ValueError):
            mixture([Categorical.uniform(space2), Categorical.uniform(space3)], [0.5, 0.5])

    def test_weights_off_simplex_rejected(self, space2):
        u = Categorical.uniform(space2)
        with pytest.raises(ValueError):
            mixture([u, u], [0.6, 0.6])
        with pytest.raises(ValueError):
            mixture([u, u], [1.4, -0.4])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_mass_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        m, k = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        space = EvidenceSpace.of_size(m)
        dists = [Categorical(space, rng.dirichlet(np.ones(m))) for _ in range(k)]
        out = mixture(dists, rng.dirichlet(np.ones(k)))
        assert abs(float(out.probs.sum()) - 1.0) <= 1e-12


class TestKlDivergence:
    def test_identity_is_zero(self, uniform3):
        assert kl_divergence(uniform3, uniform3) == 0.0

    def test_point_mass_vs_fair_coin(self, space2):
        q = Categorical(space2, [1.0, 0.0])
        p = Categorical(space2, [0.5, 0.5])
        assert kl_divergence(q, p) == pytest.approx(math.log(2), abs=1e-15)

    def test_direct_summation_oracle(self, space2):
        q = Categorical(space2, [0.9, 0.1])
        p = Categorical(space2, [0.5, 0.5])
        expected = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        assert kl_divergence(q, p) == pytest.approx(expected, abs=1e-15)

    def test_infinite_sentinel(self, space2):
        q = Categorical(space2, [1.0, 0.0])
        p = Categorical(space2, [0.0, 1.0])
        assert kl_divergence(q, p) == math.inf

    def test_outcome_outside_both_supports_adds_nothing(self, space3):
        q = Categorical(space3, [0.6, 0.4, 0.0])
        p = Categorical(space3, [0.5, 0.5, 0.0])
        expected = 0.6 * math.log(0.6 / 0.5) + 0.4 * math.log(0.4 / 0.5)
        kl = kl_divergence(q, p)
        assert math.isfinite(kl)
        assert kl == pytest.approx(expected, abs=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gibbs_inequality(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        space = EvidenceSpace.of_size(m)
        q = Categorical(space, rng.dirichlet(np.ones(m)))
        p_raw = rng.dirichlet(np.full(m, 2.0)) + 1e-9
        p = Categorical(space, p_raw / p_raw.sum())
        kl = kl_divergence(q, p)
        assert kl >= 0.0
        if np.max(np.abs(q.probs - p.probs)) <= 1e-12:
            assert kl <= 1e-10
        else:
            assert kl > 0.0


class FixedUniforms:
    """A stand-in generator whose ``random(n)`` returns the given uniforms."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u

    def random(self, n: int) -> np.ndarray:
        assert n == self.u.size
        return self.u


#: sources that the sampling properties must cover, whatever hypothesis draws
SOURCES = {
    "one-outcome": (1.0,),
    "interior-and-trailing-zeros": (0.25, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0),
    "sum-below-one": (0.0, 0.3, 0.7 - 0.9 * PROB_ATOL, 0.0),
    # The cdf reaches 1 + 9e-13 before the last outcome with mass, which the
    # cdf's closing then lowers back to 1.
    "prefix-above-one": (0.5, 0.5 + 0.9 * PROB_ATOL, 1e-300, 0.0),
}


@st.composite
def sampling_sources(draw) -> tuple[float, ...]:
    """1 to 12 probabilities, some zero, that sum to 1 within PROB_ATOL."""
    m = draw(st.integers(1, 12))
    weights = np.array(draw(st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=m, max_size=m)))
    if not weights.any():
        weights[draw(st.integers(0, m - 1))] = 1.0
    probs = weights / weights.sum()
    # Move the sum off 1 by up to 0.9 PROB_ATOL through one outcome with mass.
    j = draw(st.sampled_from(np.flatnonzero(probs).tolist()))
    probs[j] += draw(st.sampled_from([-0.9, 0.0, 0.9])) * PROB_ATOL + (1.0 - probs.sum())
    return tuple(probs.tolist())


class TestSampling:
    def test_degenerate_source(self, space3):
        stream = SampleStream(Categorical(space3, [1.0, 0.0, 0.0]), seed=0)
        assert sample(stream, 5).tolist() == [0, 0, 0, 0, 0]

    def test_trailing_zero_outcome_is_never_drawn(self, space3):
        # The probabilities sum to 1 - 5e-13, inside PROB_ATOL; the largest
        # uniform below 1 must still land on the last outcome with mass.
        stream = SampleStream(Categorical(space3, [0.5, 0.5 - 5e-13, 0.0]), seed=0)
        stream._gen = FixedUniforms(np.full(3, np.nextafter(1.0, 0.0)))
        assert sample(stream, 3).tolist() == [1, 1, 1]

    def test_uniform_frequencies_regression(self, uniform3):
        # seeded run recorded: counts at seed 42 over 30000 draws
        stream = SampleStream(uniform3, seed=42)
        counts = np.bincount(sample(stream, 30000), minlength=3)
        assert counts.tolist() == [10017, 9914, 10069]
        assert np.max(np.abs(counts / 30000 - 1 / 3)) < 0.02

    def test_determinism_same_seed(self, uniform3):
        a = sample(SampleStream(uniform3, seed=9), 10)
        b = sample(SampleStream(uniform3, seed=9), 10)
        assert a.tolist() == b.tolist()

    def test_position_advances(self, uniform3):
        stream = SampleStream(uniform3, seed=1)
        head, tail = sample(stream, 7), sample(stream, 5)
        whole = sample(SampleStream(uniform3, seed=1), 12)
        assert np.concatenate([head, tail]).tolist() == whole.tolist()
        with pytest.raises(ValueError):
            sample(stream, -1)

    @given(sampling_sources(), st.integers(0, 2**32 - 1), st.integers(0, 300))
    @settings(max_examples=150, deadline=None)
    @example(SOURCES["one-outcome"], 0, 50)
    @example(SOURCES["interior-and-trailing-zeros"], 1, 0)
    @example(SOURCES["sum-below-one"], 2, 200)
    @example(SOURCES["prefix-above-one"], 3, 200)
    def test_boundary_count_is_the_binary_search(self, probs, seed, n):
        dist = Categorical(EvidenceSpace.of_size(len(probs)), probs)
        stream, twin = SampleStream(dist, seed), SampleStream(dist, seed)
        z = sample(stream, n)
        expected = np.searchsorted(twin._cdf, twin._gen.random(n), side="right")
        assert z.dtype == np.uint8 and z.shape == (n,)
        assert np.array_equal(z, expected)
        assert np.all(dist.probs[z] > 0.0)

    @given(sampling_sources())
    @settings(max_examples=150, deadline=None)
    @example(SOURCES["one-outcome"])
    @example(SOURCES["interior-and-trailing-zeros"])
    @example(SOURCES["sum-below-one"])
    @example(SOURCES["prefix-above-one"])
    def test_uniforms_on_cdf_values_draw_as_the_binary_search(self, probs):
        # Every cdf value below 1 and its float neighbours, plus both ends of [0, 1).
        stream = SampleStream(Categorical(EvidenceSpace.of_size(len(probs)), probs), seed=0)
        cdf = stream._cdf[stream._cdf < 1.0]
        largest = np.nextafter(1.0, 0.0)
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.minimum(np.nextafter(cdf, 1.0), largest),
                            [0.0, largest]])
        stream._gen = FixedUniforms(u)
        z = sample(stream, u.size)
        assert z.dtype == np.uint8
        assert np.array_equal(z, np.searchsorted(stream._cdf, u, side="right"))
        assert np.all(stream.source.probs[z] > 0.0)

    @pytest.mark.parametrize("runs, n", [(0, 0), (0, 7), (3, 0), (1, 1), (5, 40)])
    def test_draw_outcomes_is_the_row_wise_sample(self, runs, n):
        dist = Categorical(EvidenceSpace.of_size(4), [0.1, 0.0, 0.6, 0.3])
        z = draw_outcomes(dist, runs, n, seed=17)
        rows = [sample(SampleStream(dist, s), n) for s in spawn_seeds(17, runs)]
        assert z.dtype == np.uint8 and z.shape == (runs, n) and z.flags.c_contiguous
        assert z.tobytes() == np.array(rows, dtype=np.uint8).reshape(runs, n).tobytes()

    def test_draw_outcomes_fills_a_row_block_in_place(self):
        dist = Categorical(EvidenceSpace.of_size(4), [0.1, 0.0, 0.6, 0.3])
        matrix = np.full((9, 40), 255, dtype=np.uint8)
        block = matrix[3:8]  # rows 3..7, a C-contiguous view
        assert draw_outcomes(dist, 5, 40, seed=17, out=block) is block
        assert matrix[3:8].tobytes() == draw_outcomes(dist, 5, 40, seed=17).tobytes()
        assert np.all(matrix[:3] == 255) and np.all(matrix[8:] == 255)

    def test_a_space_of_257_outcomes_draws_uint16(self):
        dist = Categorical.uniform(EvidenceSpace.of_size(257))
        z = draw_outcomes(dist, 3, 2000, seed=5)
        assert z.dtype == np.uint16 and z.max() > 255
        out = np.empty((3, 2000), dtype=np.uint16)
        assert draw_outcomes(dist, 3, 2000, seed=5, out=out).tobytes() == z.tobytes()
        assert sample(SampleStream(dist, seed=5), 10).dtype == np.uint16

    @pytest.mark.parametrize("out", [
        np.empty((2, 6), dtype=np.int64),          # the wrong dtype
        np.empty((3, 6), dtype=np.uint8),          # the wrong shape
        np.empty((6, 2), dtype=np.uint8).T,        # Fortran order
        np.empty((2, 12), dtype=np.uint8)[:, ::2],  # strided columns
    ], ids=["dtype", "shape", "fortran", "strided"])
    def test_draw_outcomes_rejects_a_wrong_out(self, out):
        dist = Categorical(EvidenceSpace.of_size(3), [0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="C-contiguous"):
            draw_outcomes(dist, 2, 6, seed=1, out=out)

    def test_spawn_seeds_deterministic(self):
        assert spawn_seeds(5, 4) == spawn_seeds(5, 4)
        assert len(set(spawn_seeds(5, 4))) == 4

    def test_seeded_regression(self, space2):
        src = Categorical(space2, [0.7, 0.3])
        freqs = np.bincount(sample(SampleStream(src, seed=42), 10000), minlength=2) / 10000
        assert freqs.tolist() == [0.7058, 0.2942]
        assert np.max(np.abs(freqs - src.probs)) < 0.02

    def test_deviation_shrinks_with_sample_size(self, space2):
        # fixed seed family: deviations decrease monotonically over n x10 steps
        src = Categorical(space2, [0.7, 0.3])
        seeds = spawn_seeds(3, 4)
        devs = []
        for child, n in zip(seeds, (100, 1000, 10000, 100000)):
            freqs = np.bincount(sample(SampleStream(src, seed=child), n), minlength=2) / n
            devs.append(float(np.max(np.abs(freqs - src.probs))))
        assert all(devs[i + 1] < devs[i] for i in range(3))


class TestLikelihoodRatioRule:
    def test_ratio_conventions(self):
        q = np.array([0.5, 0.25, 0.0, 0.0, 0.25])
        p = np.array([0.0, 0.5, 0.0, 0.5, -0.0])
        assert ratio(q, p).tolist() == [np.inf, 0.5, 0.0, 0.0, np.inf]
        assert log_ratio(q, p).tolist() == [
            np.inf, math.log(0.25) - math.log(0.5), -np.inf, -np.inf, np.inf
        ]
