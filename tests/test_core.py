"""Domain types, oracle soundness, and randomness plumbing."""

import itertools

import numpy as np
import pytest

from costru.core import Dataset, InputError, Scenario, make_rng
from costru.problems.spanning_tree import enumerate_forests, grid_edges
from costru.problems.toy import ToyOracle, toy_scenarios
from costru.regularizers import RegularizerKind, prediction_rows
from costru.simplex_lab import ExplicitOracle, ExplicitPolytope


def sparsemax(v):
    """Sparsemax of one vector: the Euclidean projection onto the simplex."""
    return prediction_rows(np.asarray(v, dtype=float)[None, :], RegularizerKind.squared_l2())[0]


class TestProjectToSimplex:
    def test_projection_is_distribution(self):
        g = make_rng(3, 0).generator()
        for _ in range(50):
            p = sparsemax(g.standard_normal(6))
            assert np.all(p >= 0)
            assert np.isclose(p.sum(), 1.0, atol=1e-12)

    def test_interior_point_fixed(self):
        q = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(sparsemax(q), q, atol=1e-12)


class TestRngStream:
    def test_determinism(self):
        a = make_rng(42, 0).generator().standard_normal(100)
        b = make_rng(42, 0).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_stream_separation(self):
        a = make_rng(42, 0).generator().standard_normal(100)
        b = make_rng(42, 1).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_split_separation(self):
        root = make_rng(7, 0)
        a = root.split(1).generator().standard_normal(10)
        b = root.split(2).generator().standard_normal(10)
        c = root.split(1, 2).generator().standard_normal(10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_clt_mean(self):
        draws = make_rng(42, 0).generator().standard_normal(10 ** 6)
        assert abs(draws.mean()) < 4e-3  # 4 / sqrt(n)


class TestContainers:
    def test_scenario_validation(self):
        with pytest.raises(InputError):
            Scenario(0, np.zeros(3), None)  # features must be 2-D

    def test_dataset_validation(self):
        with pytest.raises(InputError):
            Dataset((), "train")
        s = toy_scenarios()[0]
        with pytest.raises(InputError):
            Dataset((s,), "weird-split")

    def test_by_context_groups(self):
        scenarios = toy_scenarios()
        data = Dataset(tuple(scenarios), "train")
        assert list(data.by_context()) == [0]
        assert len(data.by_context()[0]) == 3


class TestOracleSoundness:
    """argmax_linear must attain the best value over every enumerable y."""

    def test_toy_oracle(self):
        oracle = ToyOracle()
        g = make_rng(11, 0).generator()
        for theta in g.standard_normal((1000, 1)):
            y = oracle.argmax_linear(theta)
            assert theta[0] * y[0] >= max(0.0, theta[0]) - 1e-12

    def test_explicit_oracle(self):
        g = make_rng(12, 0).generator()
        verts = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
        poly = ExplicitPolytope.from_vertices(verts, validate=False)
        oracle = ExplicitOracle(poly)
        for theta in g.standard_normal((1000, 3)):
            y = oracle.argmax_linear(theta)
            assert theta @ y >= (verts @ theta).max() - 1e-12

    def test_mst_oracle(self):
        from costru.problems.spanning_tree import MstOracle

        oracle = MstOracle(2, 3)
        forests = enumerate_forests(grid_edges(2, 3), 6)
        g = make_rng(13, 0).generator()
        for theta in g.standard_normal((200, oracle.n_edges)):
            y = oracle.argmax_linear(theta)
            best = max(float(theta @ f) for f in forests)
            assert float(theta @ y) >= best - 1e-12


def _cube_oracle() -> ExplicitOracle:
    verts = np.array(list(itertools.product([0.0, 1.0], repeat=2)))
    return ExplicitOracle(ExplicitPolytope.from_vertices(verts, validate=False))


class TestBatchedOracleInputs:
    """The batched entries check what their single-row forms derive from."""

    @pytest.mark.parametrize("payload", [-1, 3, 2.5, None], ids=str)
    def test_toy_payload_outside_range_rejected(self, payload):
        scenario = Scenario(0, np.ones((1, 1)), payload)
        with pytest.raises(InputError, match="toy scenario index"):
            ToyOracle().argmin_shifted_many(np.zeros((2, 1)), 1.0, scenario)
        with pytest.raises(InputError, match="toy scenario index"):
            ToyOracle().argmin_shifted(np.zeros(1), 1.0, scenario)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_explicit_non_finite_scores_rejected(self, bad):
        oracle = _cube_oracle()
        thetas = np.zeros((3, 2))
        thetas[1, 0] = bad
        scenario = Scenario(0, np.ones((2, 1)), np.zeros(4))
        with pytest.raises(InputError, match="theta contains non-finite"):
            oracle.argmax_linear_many(thetas)
        with pytest.raises(InputError, match="theta contains non-finite"):
            oracle.argmin_shifted_many(thetas, 1.0, scenario)
        with pytest.raises(InputError, match="non-finite"):
            oracle.argmin_shifted_many(np.zeros((1, 2)), 1.0,
                                       Scenario(0, np.ones((2, 1)), np.full(4, bad)))

    def test_explicit_payload_of_another_length_rejected(self):
        scenario = Scenario(0, np.ones((2, 1)), np.zeros(3))
        with pytest.raises(InputError, match="one entry per vertex"):
            _cube_oracle().argmin_shifted_many(np.zeros((1, 2)), 1.0, scenario)

    @pytest.mark.parametrize("oracle, d", [(ToyOracle(), 1), (_cube_oracle(), 2)],
                             ids=["toy", "explicit"])
    def test_directions_of_another_shape_rejected(self, oracle, d):
        with pytest.raises(InputError):
            oracle.argmax_linear_many(np.zeros((2, d + 1)))
        with pytest.raises(InputError, match="one-dimensional"):
            oracle.argmax_linear(np.zeros((1, d)))
