"""Toy problem, spanning-tree oracles, generator, and containers."""

import ctypes
import json
import logging
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

import kruskal_reference as reference

from costru import cli, native
from costru.core import Dataset, InputError, RngStream, Scenario, make_rng
from costru.problems import spanning_tree
from costru.problems.datasets import (
    GenConfig,
    context_signal,
    generate_mst_dataset,
    generate_mst_split,
    hidden_vector,
    load_split,
    save_split,
    write_manifest,
)
from costru.problems.spanning_tree import (
    InfeasibleError,
    MstEvaluator,
    MstOracle,
    TwoStageCosts,
    enumerate_forests,
    enumerate_spanning_pairs,
    grid_edge_count,
    grid_edges,
    is_forest,
    max_weight_forests,
    second_stage_value,
    second_stage_values,
    two_stage_splits,
)
from costru.problems.toy import (
    TOY_COSTS,
    ToyEvaluator,
    ToyOracle,
    toy_scenarios,
)
from costru.simplex_lab import ExplicitOracle
from costru.trainer import (AdamState, TrainConfig, coordination_pass, evaluate_fixed_solutions,
                            evaluate_policy, score_instance, train_primal_dual)
from costru.verification import _SMALL_GRAPHS, enumeration_gap


def edge_array(pairs) -> np.ndarray:
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


TRIANGLE = (edge_array([(0, 1), (1, 2), (0, 2)]), 3)


def max_forest(weights, edges, n_nodes) -> np.ndarray:
    """The maximum-weight forest of one weight vector."""
    return max_weight_forests(np.asarray(weights, dtype=float)[None, :], edges, n_nodes)[0]


def split_row(eff, d, edges, n_nodes) -> tuple[np.ndarray, np.ndarray]:
    """The two-stage split (y, z) of one row of effective first-stage costs."""
    y, z = two_stage_splits(np.asarray(eff, dtype=float)[None, :], d, edges, n_nodes)
    return y[0], z[0]


def forest_gap(w, y, edges, n_nodes) -> float:
    """``enumeration_gap`` of the forests y for the weights w, one row each."""
    forests = enumerate_forests(edges, n_nodes)
    return enumeration_gap(np.atleast_2d(w) @ forests.T, forests, np.atleast_2d(y))


def split_gap(eff, d, y, z, edges, n_nodes) -> float:
    """``enumeration_gap`` of the two-stage splits (y, z), one row each, for
    the effective first-stage costs eff and second-stage costs d."""
    pairs = np.hstack(enumerate_spanning_pairs(edges, n_nodes))
    costs = np.hstack([np.atleast_2d(eff), np.atleast_2d(d)])
    answers = np.hstack([np.atleast_2d(y), np.atleast_2d(z)])
    return enumeration_gap(-costs @ pairs.T, pairs, answers)


def toy_choice(theta: float, kappa: float, j: int) -> float:
    """The toy oracle's argmin for one score and scenario j."""
    return ToyOracle().argmin_shifted(np.array([theta]), kappa, toy_scenarios()[j])[0]


def mst_scenario(c, d) -> Scenario:
    return Scenario(0, np.zeros((len(c), 1)), TwoStageCosts(c, d))


class TestToyProblem:
    def test_cost_table_values(self):
        np.testing.assert_array_equal(TOY_COSTS, np.array([[4.0, -1.0, -2.0],
                                                           [0.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(TOY_COSTS.T,
                                      np.array([[4.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]]))

    def test_first_state_prefers_one(self):
        assert toy_choice(0.0, 1.0, 0) == 1

    def test_other_states_prefer_zero(self):
        assert toy_choice(0.0, 1.0, 1) == 0
        assert toy_choice(0.0, 1.0, 2) == 0

    def test_negative_score_flips_first_state(self):
        assert toy_choice(-5.0, 1.0, 0) == 0  # 4 < 0 - (-5)

    def test_tie_breaks_to_zero(self):
        assert toy_choice(0.0, 1.0, 1) == 0
        # exact tie: cost(1) - kappa*theta == cost(0)
        assert toy_choice(-4.0, 1.0, 0) == 0

    def test_vectorized_matches_scalar(self):
        """Each row of a batch is the argmin over the cost table, ties to 0."""
        oracle = ToyOracle()
        thetas = make_rng(1, 0).generator().standard_normal((50, 1)) * 3
        for j, scenario in enumerate(toy_scenarios()):
            batch = oracle.argmin_shifted_many(thetas, 1.0, scenario)
            for theta, y in zip(thetas[:, 0], batch[:, 0]):
                objective = TOY_COSTS[:, j] - np.array([0.0, theta])
                assert y == float(np.argmin(objective))

    @pytest.mark.parametrize("payload", [-1, 3])
    def test_evaluator_payload_outside_range_rejected(self, payload):
        """As the oracle does; -1 would otherwise price scenario 2."""
        scenario = Scenario(0, np.array([[1.0]]), payload)
        evaluator = ToyEvaluator()
        with pytest.raises(InputError, match="toy scenario index"):
            evaluator.policy_cost(np.zeros(1), scenario)
        with pytest.raises(InputError, match="toy scenario index"):
            evaluator.anticipative_cost(scenario)


class TestGridEdges:
    def test_edge_count(self):
        for rows, cols in ((1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (6, 6)):
            expected = rows * (cols - 1) + (rows - 1) * cols
            assert len(grid_edges(rows, cols)) == grid_edge_count(rows, cols) == expected

    def test_horizontal_block_first(self):
        edges = grid_edges(2, 2)
        np.testing.assert_array_equal(edges, [(0, 1), (2, 3), (0, 2), (1, 3)])

    def test_read_only_int64_endpoints(self):
        for rows, cols in ((1, 1), (1, 4), (3, 2)):
            edges = grid_edges(rows, cols)
            assert edges.dtype == np.int64 and edges.shape == (len(edges), 2)
            assert edges.flags.c_contiguous and not edges.flags.writeable

    @pytest.mark.parametrize("edges", [((0, 1), (1, 2), (0, 2)),
                                       np.array([(0, 1), (1, 2), (0, 2)], dtype=np.int32),
                                       np.array([(0, 1, 9), (1, 2, 9), (0, 2, 9)])[:, :2]],
                             ids=["tuples", "int32", "strided"])
    def test_other_edge_formats_rejected(self, edges):
        with pytest.raises(InputError, match="edges must be"):
            max_weight_forests(np.ones((1, 3)), edges, 3)
        with pytest.raises(InputError, match="edges must be"):
            second_stage_value(np.zeros(3), np.ones(3), edges, 3)
        with pytest.raises(InputError, match="edges must be"):
            split_row(np.ones(3), np.ones(3), edges, 3)
        with pytest.raises(InputError, match="edges must be"):
            is_forest(np.zeros(3), edges, 3)


class TestIsForest:
    @pytest.mark.parametrize("y", [np.ones(2), np.zeros(4), np.zeros((1, 3)), np.ones(())],
                             ids=["short", "long", "2d", "scalar"])
    def test_y_of_another_shape_rejected(self, y):
        with pytest.raises(InputError, match="one entry per edge"):
            is_forest(y, *TRIANGLE)


# The six small graphs of the oracle suite, the 2x2 and 2x3 grids among
# them, with their spanning-tree counts.
_TREE_COUNTS = (3, 1, 4, 16, 15, 40)
_GRAPH_IDS = ["triangle", "star", "grid-2x2", "K4", "grid-2x3", "K4-plus-node"]


class TestEnumeration:
    @pytest.mark.parametrize("graph, trees", zip(_SMALL_GRAPHS, _TREE_COUNTS), ids=_GRAPH_IDS)
    def test_tree_count_is_kirchhoffs(self, graph, trees):
        """The forests with n - 1 edges number det of a reduced Laplacian."""
        edges, n = graph
        incidence = np.zeros((n, len(edges)))
        incidence[edges[:, 0], np.arange(len(edges))] = 1.0
        incidence[edges[:, 1], np.arange(len(edges))] = -1.0
        assert round(np.linalg.det((incidence @ incidence.T)[1:, 1:])) == trees
        forests = enumerate_forests(edges, n)
        assert np.sum(forests.sum(axis=1) == n - 1) == trees

    @pytest.mark.parametrize("graph", _SMALL_GRAPHS, ids=_GRAPH_IDS)
    def test_forests_in_increasing_bitmask_order(self, graph):
        edges, n = graph
        forests = enumerate_forests(edges, n)
        codes = (forests @ 2 ** np.arange(len(edges))).astype(int).tolist()
        assert codes == [mask for mask in range(2 ** len(edges)) if is_forest(
            np.array([(mask >> e) & 1 for e in range(len(edges))]), edges, n)]

    @pytest.mark.parametrize("graph, trees", zip(_SMALL_GRAPHS, _TREE_COUNTS), ids=_GRAPH_IDS)
    def test_pairs_split_every_tree_into_every_subforest(self, graph, trees):
        edges, n = graph
        ys, zs = enumerate_spanning_pairs(edges, n)
        assert ys.shape == zs.shape == (trees * 2 ** (n - 1), len(edges))
        assert len(np.unique(np.hstack([ys, zs]), axis=0)) == len(ys)
        assert not np.any(ys * zs)
        assert np.all((ys + zs).sum(axis=1) == n - 1)
        for y, z in zip(ys, zs):
            assert is_forest(y, edges, n) and is_forest(y + z, edges, n)

    def test_more_than_16_edges_rejected(self):
        with pytest.raises(InputError, match="16 edges"):
            enumerate_forests(grid_edges(3, 4), 12)


class TestKruskalMaxWeightForest:
    def test_all_negative_gives_empty_forest(self):
        y = max_forest(np.array([-1.0, -2.0, -0.5]), *TRIANGLE)
        np.testing.assert_array_equal(y, np.zeros(3))

    def test_triangle_example(self):
        y = max_forest(np.array([3.0, 2.0, -1.0]), *TRIANGLE)
        np.testing.assert_array_equal(y, np.array([1.0, 1.0, 0.0]))
        assert float(np.array([3.0, 2.0, -1.0]) @ y) == 5.0

    def test_matches_enumeration_on_grid(self):
        edges, n = grid_edges(2, 2), 4
        w = make_rng(2, 0).generator().normal(0, 2, (500, len(edges)))
        assert forest_gap(w, max_weight_forests(w, edges, n), edges, n) == 0.0

    def test_tie_break_lowest_index(self):
        # two equal-weight parallel options: the earlier edge wins
        edges = edge_array([(0, 1), (0, 1)])
        y = max_forest(np.array([1.0, 1.0]), edges, 2)
        np.testing.assert_array_equal(y, np.array([1.0, 0.0]))


class TestSecondStage:
    def test_spanning_tree_needs_nothing(self):
        edges, n = grid_edges(2, 2), 4
        y = np.array([1.0, 1.0, 1.0, 0.0])
        assert is_forest(y, edges, n)
        assert second_stage_value(y, np.full(4, 9.0), edges, n) == 0.0

    def test_triangle_completion(self):
        edges, n = TRIANGLE
        y = np.array([1.0, 0.0, 0.0])  # edge ab built
        d = np.array([99.0, 5.0, 2.0])
        assert second_stage_value(y, d, edges, n) == 2.0

    @pytest.mark.parametrize("d", [(-np.inf, 5.0), (-np.inf, np.inf)])
    def test_minus_inf_edge_completes_the_forest(self, d):
        """On the path 0-1-2 with edge 1-2 built, the completion is edge 0-1
        at -inf, whatever the built edge costs."""
        edges, n = edge_array([(0, 1), (1, 2)]), 3
        y, d = np.array([0.0, 1.0]), np.array(d)
        assert second_stage_value(y, d, edges, n) == -np.inf
        np.testing.assert_array_equal(second_stage_values(y[None, :], d[None, :], edges, n),
                                      [[-np.inf]])

    def test_empty_first_stage_is_mst(self):
        """With nothing built in stage one the completion is a minimum
        spanning tree; SciPy's MST is the independent reference."""
        edges, n = grid_edges(3, 3), 9
        u, v = np.array(edges).T
        g = make_rng(3, 0).generator()
        for _ in range(20):
            d = g.uniform(1, 10, len(edges))
            value = second_stage_value(np.zeros(len(edges)), d, edges, n)
            best = minimum_spanning_tree(csr_matrix((d, (u, v)), shape=(n, n))).sum()
            assert value == pytest.approx(best, abs=1e-9)

    def test_cycle_in_first_stage_rejected(self):
        edges, n = TRIANGLE
        with pytest.raises(Exception):
            second_stage_value(np.ones(3), np.ones(3), edges, n)

    def test_monotone_along_optimal_completion(self):
        """Forcing an edge of the optimal completion into the first stage
        cannot increase the completion cost.  With no first stage at all,
        the split builds that completion (a minimum spanning tree of d) in
        the second stage."""
        edges, n = grid_edges(2, 3), 6
        g = make_rng(4, 0).generator()
        for _ in range(50):
            d = g.uniform(1, 10, len(edges))
            y = np.zeros(len(edges))
            value = second_stage_value(y, d, edges, n)
            _, z = split_row(np.full(len(edges), np.inf), d, edges, n)
            e = int(np.nonzero(z)[0][0])
            y2 = y.copy()
            y2[e] = 1.0
            assert second_stage_value(y2, d, edges, n) <= value + 1e-12


class TestAnticipativeOracle:
    def test_matches_joint_enumeration(self):
        g = make_rng(5, 0).generator()
        kappas = (0.0, 0.5, 1.0, 2.0)
        for grid in ((2, 2), (2, 3)):
            edges = grid_edges(*grid)
            n = grid[0] * grid[1]
            for i in range(100):
                c = g.uniform(5, 10, len(edges))
                d = g.uniform(2, 12, len(edges))
                theta = g.standard_normal(len(edges))
                kappa = kappas[i % 4]
                eff = c - kappa * theta
                y, z = split_row(eff, d, edges, n)
                assert split_gap(eff, d, y, z, edges, n) == 0.0

    def test_second_stage_dominates(self):
        edges, n = grid_edges(2, 3), 6
        c = np.full(len(edges), 8.0)
        d = np.full(len(edges), 2.0)
        y = MstOracle(2, 3).argmin_shifted(np.zeros(len(edges)), 1.0, mst_scenario(c, d))
        np.testing.assert_array_equal(y, np.zeros(len(edges)))

    def test_forced_first_stage_tree(self):
        edges, n = grid_edges(2, 3), 6
        c = np.full(len(edges), 8.0)
        d = np.full(len(edges), 2.0)
        # make a specific spanning tree nearly free in stage one
        tree = max_forest(np.ones(len(edges)), edges, n)
        y = MstOracle(2, 3).argmin_shifted(1e6 * tree, 1.0, mst_scenario(c, d))
        np.testing.assert_array_equal(y, tree)

    def test_split_satisfies_tree_constraints(self):
        edges, n = grid_edges(2, 3), 6
        g = make_rng(6, 0).generator()
        for _ in range(100):
            eff = g.normal(5, 3, len(edges))
            d = g.uniform(1, 10, len(edges))
            y, z = split_row(eff, d, edges, n)
            assert y.sum() + z.sum() == n - 1
            assert is_forest(y, edges, n)
            assert is_forest(y + z, edges, n)
            assert np.all(y + z <= 1.0)

    def test_disconnected_graph_raises(self):
        edges = edge_array([(0, 1), (2, 3)])
        with pytest.raises(InfeasibleError):
            split_row(np.ones(2), np.ones(2), edges, 4)


class TestAnticipativeCost:
    @pytest.mark.parametrize("grid", [(2, 2), (2, 3)])
    def test_matches_enumerated_spanning_pairs(self, grid):
        """The anticipative cost is the least c.y + d.z over every spanning
        pair (y, z); a repeated scenario, priced again or by a fresh
        evaluator, gets the identical float."""
        oracle = MstOracle(*grid)
        y, z = enumerate_spanning_pairs(oracle.edges, oracle.n_nodes)
        evaluator = MstEvaluator(oracle)
        g = make_rng(8, grid[1]).generator()
        for _ in range(50):
            c = g.uniform(1.0, 10.0, oracle.n_edges)
            d = g.uniform(1.0, 10.0, oracle.n_edges)
            cost = evaluator.anticipative_cost(mst_scenario(c, d))
            assert abs(cost - float(np.min(y @ c + z @ d))) <= 1e-9
            assert evaluator.anticipative_cost(mst_scenario(c.copy(), d.copy())) == cost
            assert MstEvaluator(oracle).anticipative_cost(mst_scenario(c, d)) == cost


class TestMstOracleBatch:
    def test_batched_argmin_matches_scalar(self):
        oracle = MstOracle(3, 3)
        cfg = GenConfig(rows=3, cols=3, train_instances=1, val_instances=1,
                        test_instances=1, scenarios_per_instance=2)
        inst = generate_mst_split(cfg, 1, "train")[0]
        scenario = inst.scenario(0, 0)
        thetas = make_rng(7, 0).generator().standard_normal((20, oracle.n_edges))
        batch = oracle.argmin_shifted_many(thetas, 1.0, scenario)
        singles = np.stack([oracle.argmin_shifted(t, 1.0, scenario) for t in thetas])
        np.testing.assert_array_equal(batch, singles)

    def test_batched_argmax_matches_scalar(self):
        oracle = MstOracle(3, 3)
        thetas = make_rng(8, 0).generator().standard_normal((20, oracle.n_edges))
        batch = oracle.argmax_linear_many(thetas)
        singles = np.stack([oracle.argmax_linear(t) for t in thetas])
        np.testing.assert_array_equal(batch, singles)


# Integer weights in [-3, 3] make ties common, so these properties also
# exercise the lowest-index rule and the ties-to-stage-one attribution.
_TIED = st.integers(-3, 3)
_PROPERTY = settings(max_examples=150, deadline=None)


@st.composite
def small_graph_costs(draw, n_vectors):
    edges, n_nodes = draw(st.sampled_from(_SMALL_GRAPHS))
    vectors = [np.array(draw(st.lists(_TIED, min_size=len(edges), max_size=len(edges))),
                        dtype=float) for _ in range(n_vectors)]
    return edges, n_nodes, vectors


@st.composite
def grid_thetas(draw):
    oracle = MstOracle(draw(st.integers(1, 3)), draw(st.integers(2, 3)))
    n_rows = draw(st.integers(1, 4))
    flat = draw(st.lists(_TIED, min_size=n_rows * oracle.n_edges,
                         max_size=n_rows * oracle.n_edges))
    costs = draw(st.lists(st.integers(1, 4), min_size=2 * oracle.n_edges,
                          max_size=2 * oracle.n_edges))
    scenario = Scenario(0, np.zeros((oracle.n_edges, 1)),
                        TwoStageCosts(np.array(costs[:oracle.n_edges], dtype=float),
                                      np.array(costs[oracle.n_edges:], dtype=float)))
    return oracle, np.array(flat, dtype=float).reshape(n_rows, oracle.n_edges), scenario


@st.composite
def toy_thetas(draw):
    thetas = draw(st.lists(_TIED, min_size=1, max_size=4))
    scenario = draw(st.sampled_from(toy_scenarios()))
    return ToyOracle(), np.array(thetas, dtype=float)[:, None], scenario


@st.composite
def explicit_thetas(draw):
    """The 0/1 cube of dimension d, whose vertices tie on integer scores."""
    d = draw(st.integers(1, 3))
    vertices = np.array(list(np.ndindex(*(2,) * d)), dtype=float)
    oracle = ExplicitOracle(vertices)
    n_rows = draw(st.integers(1, 4))
    flat = draw(st.lists(_TIED, min_size=n_rows * d, max_size=n_rows * d))
    costs = draw(st.lists(_TIED, min_size=len(vertices), max_size=len(vertices)))
    scenario = Scenario(0, np.zeros((d, 1)), np.array(costs, dtype=float))
    return oracle, np.array(flat, dtype=float).reshape(n_rows, d), scenario


class TestOracleProperties:
    @_PROPERTY
    @given(small_graph_costs(1))
    def test_forest_matches_enumeration(self, case):
        edges, n, (w,) = case
        y = max_forest(w, edges, n)
        assert forest_gap(w, y, edges, n) == 0.0

    @_PROPERTY
    @given(small_graph_costs(2))
    def test_split_matches_enumeration_and_ties_go_to_stage_one(self, case):
        edges, n, (eff, d) = case
        y, z = split_row(eff, d, edges, n)
        assert y.sum() + z.sum() == n - 1 and is_forest(y + z, edges, n)
        assert split_gap(eff, d, y, z, edges, n) == 0.0
        chosen = (y + z) > 0.5
        np.testing.assert_array_equal(y, (chosen & (eff <= d)).astype(float))

    @_PROPERTY
    @given(small_graph_costs(1), st.data())
    def test_completion_matches_enumeration(self, case, data):
        edges, n, (d,) = case
        forests = enumerate_forests(edges, n)
        y = data.draw(st.sampled_from(list(forests)))
        value = second_stage_value(y, d, edges, n)
        trees = [f for f in forests if f.sum() == n - 1 and np.all(f >= y)]
        assert value == min(float(d @ (f - y)) for f in trees)

    @_PROPERTY
    @given(st.one_of(grid_thetas(), toy_thetas(), explicit_thetas()),
           st.sampled_from((0.0, 0.5, 1.0, 2.0)))
    def test_batched_calls_equal_single_rows(self, case, kappa):
        oracle, thetas, scenario = case
        np.testing.assert_array_equal(
            oracle.argmax_linear_many(thetas),
            np.stack([oracle.argmax_linear(t) for t in thetas]))
        np.testing.assert_array_equal(
            oracle.argmin_shifted_many(thetas, kappa, scenario),
            np.stack([oracle.argmin_shifted(t, kappa, scenario) for t in thetas]))

    def test_tied_instances_pin_lowest_index(self):
        edges, n = grid_edges(2, 2), 4
        forest = {(1, 1, 1, 1): (1, 1, 1, 0), (2, 1, 1, 2): (1, 1, 0, 1),
                  (0, 1, 1, 1): (0, 1, 1, 1), (1, -1, 1, 1): (1, 0, 1, 1)}
        for w, expected in forest.items():
            y = max_forest(np.array(w, dtype=float), edges, n)
            np.testing.assert_array_equal(y, np.array(expected, dtype=float))
        splits = [((1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 0), (0, 0, 0, 0)),
                  ((2, 1, 1, 2), (1, 2, 2, 1), (0, 1, 1, 0), (1, 0, 0, 0)),
                  ((1, 2, 1, 2), (1, 1, 2, 1), (1, 0, 1, 0), (0, 1, 0, 0))]
        for eff, d, y_expected, z_expected in splits:
            eff, d = np.array(eff, dtype=float), np.array(d, dtype=float)
            y, z = split_row(eff, d, edges, n)
            np.testing.assert_array_equal(y, np.array(y_expected, dtype=float))
            np.testing.assert_array_equal(z, np.array(z_expected, dtype=float))
            assert float(eff @ y + d @ z) == 3.0
        completions = [((0, 0, 0, 0), (1, 1, 1, 1), 3.0),
                       ((0, 0, 0, 1), (1, 1, 1, 1), 2.0),
                       ((0, 0, 1, 0), (2, 1, 1, 1), 2.0)]
        for y, d, expected_value in completions:
            value = second_stage_value(np.array(y, dtype=float), np.array(d, dtype=float),
                                       edges, n)
            assert value == expected_value
        np.testing.assert_array_equal(
            MstOracle(2, 2).argmax_linear_many(np.array([[1.0, 1, 1, 1], [2, 1, 1, 2]])),
            np.array([[1.0, 1, 1, 0], [1, 1, 0, 1]]))


# Kernel inputs: integer ties, both infinities, NaN and both zeros.
_ZEROS = st.sampled_from([-0.0, 0.0])
_KEYS = st.one_of(_TIED.map(float), _ZEROS, st.sampled_from([np.inf, -np.inf, np.nan]))
# Every small graph with an arbitrary subset of its edges (often disconnected),
# one-node graphs, whose only edges are self-loops, and grids with more edges
# than one insertion-sorted run of the C kernel (16), so that merges happen.
_KERNEL_GRAPHS = _SMALL_GRAPHS + [(edge_array([]), 1), (edge_array([(0, 0)]), 1),
                                  (edge_array([(0, 0), (0, 0)]), 1),
                                  (grid_edges(3, 4), 12), (grid_edges(4, 5), 20)]


@st.composite
def kernel_cases(draw, values=_KEYS):
    """(edges, n_nodes, (m, E) values, E values) with m in 0..4."""
    edges, n_nodes = draw(st.sampled_from(_KERNEL_GRAPHS))
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        edges = edges[np.array(keep, dtype=bool)]
    m = draw(st.integers(0, 4))
    flat = draw(st.lists(values, min_size=(m + 1) * len(edges),
                         max_size=(m + 1) * len(edges)))
    arr = np.array(flat, dtype=float)
    return edges, n_nodes, arr[len(edges):].reshape(m, len(edges)), arr[:len(edges)]


@st.composite
def one_cycle_or_acyclic_rows(draw):
    """(cycle, edges, n_nodes, (m, E) weights) on the 6x6 grid, m in 1..4.
    Without ``cycle`` each row's positive edges are a random subset of a
    random spanning tree; with it, the whole tree and one edge off it, so
    that they close exactly one cycle.  Positive weights are tied integers
    (1 or 2 with a cycle, so that its edges tie), the others -0.0, 0.0 or
    negative integers."""
    edges, n_nodes = grid_edges(6, 6), 36
    cycle = draw(st.booleans())
    order = np.array(draw(st.permutations(range(len(edges)))), dtype=float)
    tree = reference.kruskal_rows_py(order[None, :], edges, n_nodes)[0]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if cycle:
            positive = {*tree, draw(st.sampled_from(sorted(set(range(len(edges))) - set(tree))))}
        else:
            positive = {e for e in tree if draw(st.booleans())}
        high = st.integers(1, 2 if cycle else 3).map(float)
        low = st.sampled_from([-0.0, 0.0, -1.0, -2.0, -3.0])
        rows.append([draw(high if e in positive else low) for e in range(len(edges))])
    return cycle, edges, n_nodes, np.array(rows)


def _outcome(fn):
    try:
        return fn()
    except (InputError, InfeasibleError) as exc:
        return type(exc)


@pytest.fixture
def replace_builder(monkeypatch, request):
    """Replace the kernel's build step and forget the loaded kernel; the
    real kernel is loaded again after the test."""
    request.addfinalizer(native._compiled_kernel.cache_clear)

    def replace(build):
        monkeypatch.setattr(native, "_build_kernel", build)
        native._compiled_kernel.cache_clear()

    return replace


def _raise(exc):
    def build():
        raise exc
    return build


def _assert_same(compiled, reference):
    """Equal outcomes of two calls: the same exception type, or arrays equal
    in shape, dtype and every byte (so -0.0 != 0.0 and sums agree)."""
    got, expected = _outcome(compiled), _outcome(reference)
    if isinstance(expected, type):
        assert got is expected
        return
    for g, e in zip(got, expected, strict=True):
        assert (g.shape, g.dtype) == (e.shape, e.dtype)
        assert g.tobytes() == e.tobytes()


class TestCompiledKernel:
    """Each compiled entry against its reference in ``kruskal_reference``:
    ``kruskal_rows_py`` under the numpy glue that builds its keys and reads
    its picks."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases(st.one_of(_TIED.map(float), _ZEROS)), st.booleans())
    def test_matches_python_reference(self, case, poison):
        """The forest entry; a NaN or infinite weight raises InputError."""
        edges, n_nodes, w, _ = case
        if poison and w.size:
            w[-1, -1] = np.nan if n_nodes % 2 else -np.inf
        _assert_same(lambda: (spanning_tree.max_weight_forests(w, edges, n_nodes),),
                     lambda: (reference.max_weight_forests_py(w, edges, n_nodes),))

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases(), kernel_cases(), st.booleans())
    def test_split_matches_python_reference(self, case, other, per_row):
        """The split entry, NaN propagating as in np.minimum, with one
        second-stage vector for every row or one per row."""
        edges, n_nodes, eff, d = case
        if per_row:
            d = np.resize(np.concatenate([other[2].ravel(), other[3]]), eff.shape)
        _assert_same(lambda: spanning_tree.two_stage_splits(eff, d, edges, n_nodes),
                     lambda: reference.two_stage_splits_py(eff, d, edges, n_nodes))

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases(), st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0, np.nan]))
    # The reference's numpy sum of +inf and -inf warns; the kernel's sum does not.
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_completion_matches_python_reference(self, case, y_value):
        """The completion entry: the sums of the reference's costs, with
        cycles in y and disconnected rows raising as in the reference."""
        edges, n_nodes, d, y = case
        ys = np.where(np.isfinite(y) & (y > 0.0), y_value, 0.0)[None, :]
        _assert_same(lambda: (second_stage_values(ys, d, edges, n_nodes),),
                     lambda: (reference.completion_sums_py(ys, d, edges, n_nodes),))

    @settings(max_examples=150, deadline=None)
    @given(one_cycle_or_acyclic_rows())
    def test_acyclic_and_one_cycle_rows_match_python_reference(self, case):
        """Rows whose positive edges close no cycle, which the entry takes
        without a sort, and rows whose positive edges close exactly one
        cycle of tied weights, which it sorts."""
        cycle, edges, n_nodes, w = case
        for row in w:
            assert is_forest((row > 0.0).astype(float), edges, n_nodes) is not cycle
        _assert_same(lambda: (max_weight_forests(w, edges, n_nodes),),
                     lambda: (reference.max_weight_forests_py(w, edges, n_nodes),))

    @pytest.mark.parametrize("pairs, n_nodes, w", [
        ([(1, 1), (0, 1), (1, 2)], 3, [1.0, 2.0, 1.0]),
        ([(0, 1), (1, 2), (2, 2)], 3, [1.0, 1.0, 3.0]),
        ([(0, 1), (0, 1), (1, 2)], 3, [1.0, 1.0, 2.0]),
        ([(0, 1), (1, 2), (1, 0)], 3, [1.0, -1.0, 3.0]),
        ([(2, 3), (0, 1), (3, 2)], 4, [2.0, 1.0, 2.0]),
    ], ids=["self-loop-first", "self-loop-last", "parallel-tied", "parallel-heavier-later",
            "parallel-tied-reversed"])
    def test_positive_self_loop_and_parallel_edges(self, pairs, n_nodes, w):
        """A positive self-loop or pair of parallel edges closes a cycle, so
        the row is sorted; the result is the reference's."""
        edges = edge_array(pairs)
        w = np.array([w])
        _assert_same(lambda: (max_weight_forests(w, edges, n_nodes),),
                     lambda: (reference.max_weight_forests_py(w, edges, n_nodes),))

    @pytest.mark.parametrize("kernel", ["compiled", "reference"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_forest_weights_raise(self, kernel, bad):
        """The oracle and the reference reject a NaN or infinite weight with
        the same error, in a row of positive weights and in a row whose
        other positive edges (the 2x3 grid's horizontal edges and its first
        vertical one) close no cycle."""
        oracle = MstOracle(2, 3)
        for thetas in (np.ones((3, oracle.n_edges)),
                       np.where(np.arange(oracle.n_edges) < 5, 1.0, -1.0) * np.ones((3, 1))):
            thetas[1, 2] = bad
            if kernel == "compiled":
                calls = [lambda: oracle.argmax_linear_many(thetas),
                         lambda: oracle.argmax_linear(thetas[1])]
            else:
                calls = [lambda: reference.max_weight_forests_py(thetas, oracle.edges,
                                                                 oracle.n_nodes)]
            for call in calls:
                with pytest.raises(InputError, match="weights must be finite"):
                    call()

    def test_concurrent_calls_match_sequential(self):
        """The kernel runs without the GIL on a per-call workspace, so calls
        from more threads than cores give the sequential results."""
        oracle = MstOracle(6, 6)
        thetas = make_rng(13, 0).generator().normal(size=(64, 20, oracle.n_edges))
        expected = [oracle.argmax_linear_many(t) for t in thetas]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(oracle.argmax_linear_many, thetas, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for g, e in zip(got, expected, strict=True):
            np.testing.assert_array_equal(g, e)

    def test_new_build_deletes_superseded_libraries(self, tmp_path, monkeypatch):
        """A successful build removes the libraries of other sources from the
        cache directory and nothing else; a failed build removes nothing."""
        monkeypatch.setattr(native, "__file__", str(tmp_path / "native.py"))
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        stale = [cache / "_native-0123456789abcdef.so", cache / "_native-fedcba9876543210.so"]
        kept = cache / "native.cpython-311.pyc"
        for path in (*stale, kept):
            path.write_text("an older file")
        with monkeypatch.context() as no_compiler:
            no_compiler.setenv("PATH", str(tmp_path))
            with pytest.raises(FileNotFoundError):
                native._build_kernel()
        assert sorted(cache.iterdir()) == sorted([*stale, kept])
        target = native._build_kernel()
        assert sorted(cache.iterdir()) == sorted([target, kept])
        assert ctypes.CDLL(str(target)).forest_rows

    def test_numpy_random_library_names_the_build(self, tmp_path, monkeypatch):
        """The bytes of numpy's random library are part of the library's
        name: another archive, as after a numpy upgrade, makes a new build
        rather than loading the old one."""
        monkeypatch.setattr(native, "__file__", str(tmp_path / "native.py"))
        built = native._build_kernel()
        assert native._build_kernel() == built
        other = tmp_path / "libnpyrandom.a"
        other.write_bytes(native._npyrandom_archive().read_bytes() + b"\n")
        monkeypatch.setattr(native, "_npyrandom_archive", lambda: other)
        rebuilt = native._build_kernel()
        assert rebuilt != built
        assert sorted((tmp_path / "__pycache__").iterdir()) == [rebuilt]

    def test_missing_numpy_random_library_raises(self, tmp_path, monkeypatch, request):
        """Without numpy's random library there is no native library: the
        error names the archive, and the CLI exits 4."""
        missing = tmp_path / "lib" / "libnpyrandom.a"
        monkeypatch.setattr(native, "_npyrandom_archive", lambda: missing)
        request.addfinalizer(native._compiled_kernel.cache_clear)
        native._compiled_kernel.cache_clear()
        with pytest.raises(native.NativeLibraryError, match=str(missing)):
            MstOracle(2, 3).argmax_linear(np.ones(7))
        out = tmp_path / "report.csv"
        assert cli.main(["verify", "oracles", "--out", str(out)]) == 4
        assert not out.exists()

    def test_missing_numpy_blas_withdraws_only_the_coordination_pass(self, monkeypatch, request,
                                                                      caplog):
        """Without numpy's BLAS entries the oracle offers no coordination
        pass and says so once at info level; its decomposition pass, which
        takes numpy's scores, is still offered and gives the same bytes, and
        training gives the same weights bit for bit."""
        cfg = GenConfig(rows=2, cols=3, train_instances=2, val_instances=1, test_instances=1,
                        scenarios_per_instance=3)
        _, train = generate_mst_dataset(cfg, seed=4)["train"]
        oracle = MstOracle(2, 3)
        config = TrainConfig(nb_iterations=2, nb_scenarios=2, nb_samples=5, nb_epochs=2,
                             lr_init=0.1, epsilon=0.5, seed=3)
        expected = train_primal_dual(train, oracle, config)
        batch = list(train)
        thetas = np.stack([score_instance(np.full(train.feature_width, 0.3), s) for s in batch])
        split = oracle.perturbed_split_pass(thetas, batch, 1.5, 0.5, 5, make_rng(8))
        monkeypatch.setattr(native, "_BLAS", ("scipy_cblas_dgemv64_", "no_such_ddot"))
        request.addfinalizer(native._numpy_blas.cache_clear)
        native._numpy_blas.cache_clear()
        with caplog.at_level(logging.INFO, logger="costru.native"):
            assert oracle.perturbed_adam_pass is None
            got = oracle.perturbed_split_pass(thetas, batch, 1.5, 0.5, 5, make_rng(8))
            assert got.tobytes() == split.tobytes()
            trained = train_primal_dual(train, oracle, config)
        assert trained.per_iteration.tobytes() == expected.per_iteration.tobytes()
        assert [r.levelno for r in caplog.records if "no_such_ddot" in r.getMessage()] == [
            logging.INFO]

    def test_source_ships_as_package_data(self):
        source = resources.files("costru").joinpath("_native.c")
        assert source.is_file()
        text = source.read_text()
        for entry, _, restype in native._ENTRIES:
            assert f"{'void' if restype is None else 'int64_t'} {entry}(" in text

    @pytest.mark.parametrize("build, stderr", [
        (_raise(FileNotFoundError("No such file or directory: 'cc'")), None),
        (_raise(subprocess.CalledProcessError(1, ["cc"], stderr=b"x.c:1: error: no registers")),
         "x.c:1: error: no registers"),
        (_raise(PermissionError("read-only package directory")), None),
        ("not a shared library", None),
    ], ids=["no-compiler", "compile-error", "unwritable", "failed-dlopen"])
    def test_failed_loader_raises(self, build, stderr, replace_builder, tmp_path):
        """Without the library no oracle answers: a failed build or load is
        one NativeLibraryError that names cc and ends with the compiler's
        standard error, if any."""
        oracle = MstOracle(2, 3)
        theta = np.ones(oracle.n_edges)
        scenario = Scenario(0, np.zeros((oracle.n_edges, 1)), TwoStageCosts(theta, theta))
        calls = [lambda: oracle.argmax_linear_many(theta[None, :]),
                 lambda: oracle.perturbed_adam_pass(AdamState(np.ones(1)), [theta[:, None]],
                                                    [theta], 0.5, 1, 1, 0.1, make_rng(0)),
                 lambda: oracle.argmin_shifted(theta, 1.0, scenario),
                 lambda: second_stage_value(0.0 * theta, theta, oracle.edges, oracle.n_nodes)]
        if isinstance(build, str):
            junk = tmp_path / "junk.so"
            junk.write_text(build)
            build = lambda: junk  # noqa: E731
        replace_builder(build)
        for call in calls:
            with pytest.raises(native.NativeLibraryError, match="C compiler cc") as error:
                call()
            assert isinstance(error.value.__cause__, (OSError, subprocess.SubprocessError))
            if stderr is not None:
                assert str(error.value).endswith("\n" + stderr)


@st.composite
def tilt_cases(draw):
    """(edges, n_nodes, (E,) theta, eps, m, stream) with m in 1..5: integer
    theta with eps a power of two, or continuous theta and eps, both with
    zeros; the stream's seed and key words of any width."""
    edges, n_nodes = draw(st.sampled_from(_KERNEL_GRAPHS))
    tied = draw(st.booleans())
    values = st.one_of(_TIED.map(float) if tied else st.floats(-4.0, 4.0), _ZEROS)
    eps = draw(st.sampled_from([2.0 ** -30, 0.125, 0.5, 1.0, 2.0, 8.0]) if tied
               else st.floats(1e-3, 10.0))
    m = draw(st.integers(1, 5))
    theta = np.array(draw(st.lists(values, min_size=len(edges), max_size=len(edges))),
                     dtype=float)
    words = st.integers(0, 2 ** 96)
    stream = RngStream(draw(words), draw(words), tuple(draw(st.lists(words, max_size=3))))
    return edges, n_nodes, theta, eps, m, stream


def _forest_mean(theta, eps, m, stream, edges, n_nodes):
    """The numpy path that the kernel's draws replace: draw, tilt, forests,
    mean."""
    z = stream.generator().standard_normal((m, len(edges)))
    return max_weight_forests(theta[None, :] + eps * z, edges, n_nodes).mean(axis=0)


def _kernel_mean(theta, eps, m, stream, edges, n_nodes):
    """The mean forest of a one-step coordination pass on the graph, which
    draws z itself from ``stream.split(0, 0)``: with identity features
    (p = E) the scores are the weights theta, and a zero target leaves the
    mean in the gradient."""
    graph = SimpleNamespace(edges=edges, n_edges=len(edges), n_nodes=n_nodes)
    adam = AdamState(theta)
    MstOracle._adam_pass(graph, adam, [np.eye(len(edges))], [np.zeros(len(edges))], eps, m, 1,
                         0.1, stream)
    return adam.gradient


class TestPerturbedForestStats:
    """The kernel's perturbed forests, drawn inside the kernel, against the
    numpy path they replace, through the coordination pass."""

    @settings(max_examples=300, deadline=None)
    @given(tilt_cases())
    def test_matches_numpy_glue(self, case):
        """The mean is bit-identical."""
        edges, n_nodes, theta, eps, m, stream = case
        expected = _forest_mean(theta, eps, m, stream.split(0, 0), edges, n_nodes)
        assert _kernel_mean(theta, eps, m, stream, edges, n_nodes).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(tilt_cases())
    def test_sparse_positive_tilts_match_python_reference(self, case):
        """Theta shifted so that about 15 % of the tilts are positive, where
        their edges mostly close no cycle: the mean is the reference
        forests' mean bit for bit."""
        edges, n_nodes, theta, eps, m, stream = case
        z = stream.split(0, 0).generator().standard_normal((m, len(edges)))
        if z.size:
            theta = theta - np.quantile(theta + eps * z, 0.85)
        forests = reference.max_weight_forests_py(theta[None, :] + eps * z, edges, n_nodes)
        assert (_kernel_mean(theta, eps, m, stream, edges, n_nodes).tobytes()
                == forests.mean(axis=0).tobytes())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_positive_pass_equals_generic_path(self, seed):
        """A pass on the 6x6 grid whose scores start about one epsilon
        below zero, so that about 15 % of the tilts are positive and most,
        not all, rows' positive edges close no cycle: the first step's
        mean is the reference forests' mean, and the fused pass gives the
        generic path's weights bit for bit."""
        oracle = MstOracle(6, 6)
        g = make_rng(seed, 5).generator()
        batch, targets = [], []
        for ctx in range(3):
            features = g.uniform(-0.3, 0.3, (oracle.n_edges, 3))
            features[:, 0] = 1.0
            batch.append(Scenario(ctx, features, None))
            targets.append(g.uniform(0.0, 0.3, oracle.n_edges))
        config = TrainConfig(nb_iterations=1, nb_scenarios=1, nb_samples=40, nb_epochs=2,
                             lr_init=0.05, epsilon=1.0)
        w0, root = np.array([-1.0, 0.2, -0.2]), make_rng(seed, 6)
        theta = batch[0].features @ w0
        tilts = theta + root.split(0, 0).generator().standard_normal((40, oracle.n_edges))
        acyclic = [is_forest((t > 0.0).astype(float), oracle.edges, oracle.n_nodes)
                   for t in tilts]
        assert 0.1 < (tilts > 0.0).mean() < 0.25
        assert 0.5 < np.mean(acyclic) < 1.0
        forests = reference.max_weight_forests_py(tilts, oracle.edges, oracle.n_nodes)
        assert (_kernel_mean(theta, 1.0, 40, root, oracle.edges, oracle.n_nodes).tobytes()
                == forests.mean(axis=0).tobytes())
        fused = coordination_pass(w0, batch, targets, oracle, config, root)
        generic = coordination_pass(w0, batch, targets,
                                    SimpleNamespace(argmax_linear_many=oracle.argmax_linear_many),
                                    config, root)
        assert fused.tobytes() == generic.tobytes()

    @pytest.mark.parametrize("kernel", ["identity", "pass", "reference"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "overflow"])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_tilt_raises(self, kernel, bad):
        """A non-finite tilt, also one that overflows, raises the error of
        the reference on the tilt that numpy computes; in a pass, theta is
        the weights through identity features, or the single feature
        column times the weight 1."""
        oracle = MstOracle(2, 3)
        stream = make_rng(20, 1)
        theta, eps = np.ones(oracle.n_edges), 8.0
        if bad == "overflow":
            theta[:], eps = 1.7e308, 1e308
        else:
            theta[2] = bad
        with pytest.raises(InputError, match="weights must be finite"):
            if kernel == "identity":
                _kernel_mean(theta, eps, 3, stream, oracle.edges, oracle.n_nodes)
            elif kernel == "pass":
                adam = AdamState(np.ones(1))
                oracle.perturbed_adam_pass(adam, [theta[:, None]], [np.zeros(oracle.n_edges)],
                                           eps, 3, 1, 0.1, stream)
            else:
                z = stream.generator().standard_normal((3, oracle.n_edges))
                reference.max_weight_forests_py(theta[None, :] + eps * z, oracle.edges,
                                                oracle.n_nodes)

    @pytest.mark.parametrize("theta_shape, m", [((5,), 2), ((7, 1), 2), ((7,), 0), ((7,), -1)],
                             ids=["short-theta", "column-theta", "no-draws", "negative-draws"])
    def test_other_shapes_rejected(self, theta_shape, m):
        """A pass needs an (E,) target per example, an (E, p) feature
        matrix and at least one draw."""
        oracle = MstOracle(2, 3)
        with pytest.raises(InputError):
            oracle.perturbed_adam_pass(AdamState(np.zeros(2)), [np.ones((7, 2))],
                                       [np.ones(theta_shape)], 1.0, m, 1, 0.1, make_rng(0))

    @pytest.mark.parametrize("features, targets", [
        ([np.ones((6, 2))], [np.ones(7)]), ([np.ones((7, 3))], [np.ones(7)]),
        ([np.ones((7, 2))] * 2, [np.ones(7)]),
    ], ids=["short-features", "wide-features", "unmatched-targets"])
    def test_feature_shapes_rejected(self, features, targets):
        """Each example needs E rows of p features, p being the number of
        weights, and a target of its own."""
        with pytest.raises(InputError, match=r"\(E, p\) features and an \(E,\) target"):
            MstOracle(2, 3).perturbed_adam_pass(AdamState(np.zeros(2)), features, targets,
                                                1.0, 2, 1, 0.1, make_rng(0))

    def test_concurrent_calls_match_sequential(self):
        """Each pass keeps its workspace and its streams on its own stack:
        passes from more threads than cores give the sequential weights."""
        oracle = MstOracle(6, 6)
        g = make_rng(19, 0).generator()
        features = [g.uniform(-1.0, 1.0, (oracle.n_edges, 5)) for _ in range(3)]
        targets = [g.uniform(0.0, 1.0, oracle.n_edges) for _ in range(3)]

        def run(k):
            adam = AdamState(np.zeros(5))
            oracle.perturbed_adam_pass(adam, features, targets, 0.7, 20, 4, 0.05,
                                       make_rng(19, 1).split(k))
            return adam.weights

        expected = [run(k) for k in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(run, range(16), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for weights, exp_weights in zip(got, expected, strict=True):
            assert weights.tobytes() == exp_weights.tobytes()


@st.composite
def completion_cases(draw):
    edges, n_nodes = draw(st.sampled_from(_SMALL_GRAPHS))
    y = np.array(draw(st.lists(st.booleans(), min_size=len(edges),
                               max_size=len(edges))), dtype=float)
    k = draw(st.integers(1, 4))
    costs = st.one_of(st.integers(1, 4).map(float), st.just(np.inf))
    flat = draw(st.lists(costs, min_size=k * len(edges), max_size=k * len(edges)))
    return edges, n_nodes, y, np.array(flat).reshape(k, len(edges))


class TestBatchedCompletion:
    @_PROPERTY
    @given(completion_cases())
    def test_stack_equals_single_rows(self, case):
        """Row k of a (K, E) call is the call on row k; a failing row makes
        the whole call raise what the first failing row raises."""
        edges, n, y, d = case
        singles = [_outcome(lambda: second_stage_value(y, row, edges, n)) for row in d]
        batched = _outcome(lambda: second_stage_value(y, d, edges, n))
        failures = [s for s in singles if isinstance(s, type)]
        if failures:
            assert batched is failures[0]
            return
        assert batched.shape == (len(d),)
        for value, single in zip(batched, singles, strict=True):
            assert value == single


@st.composite
def pricing_cases(draw):
    """(edges, n_nodes, (n, E) 0/1 rows, (K, E) costs): forests and edge
    sets with cycles, over integer costs with ties, both zeros, both
    infinities and NaN."""
    edges, n_nodes = draw(st.sampled_from(_KERNEL_GRAPHS))
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    flags = draw(st.lists(st.booleans(), min_size=n * len(edges), max_size=n * len(edges)))
    costs = st.one_of(st.integers(1, 4).map(float), _ZEROS,
                      st.sampled_from([np.inf, -np.inf, np.nan]))
    flat = draw(st.lists(costs, min_size=k * len(edges), max_size=k * len(edges)))
    return (edges, n_nodes, np.array(flags, dtype=float).reshape(n, len(edges)),
            np.array(flat).reshape(k, len(edges)))


class TestOneCallPricing:
    """``second_stage_values``, which presorts each cost row once, against
    the Python reference: its completion costs in selection order, summed
    by numpy row by row."""

    @_PROPERTY
    @given(pricing_cases())
    # The reference's numpy sum of +inf and -inf warns; the kernel's sum does not.
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_rows_equal_reference_sums(self, case):
        """Row i is the reference's row i bit for bit, NaN sums included; a
        failing forest makes the whole call raise what the first failing
        forest raises."""
        edges, n, ys, d = case
        _assert_same(lambda: (second_stage_values(ys, d, edges, n),),
                     lambda: (reference.completion_sums_py(ys, d, edges, n),))

    @pytest.mark.parametrize("cols", [2, 8, 9, 16, 17, 129, 130, 137, 257, 300])
    def test_long_completions_sum_in_numpy_order(self, cols):
        """The kernel's pairwise sum is numpy's: completions of 0 to 299
        edges of continuous costs on a path, and up to 399 on a 20x20 grid,
        across numpy's block sizes."""
        g = make_rng(77, cols).generator()
        for edges, n_nodes in ((grid_edges(1, cols), cols), (grid_edges(20, 20), 400)):
            d = g.uniform(0.1, 100.0, (3, len(edges)))
            ys = np.zeros((4, len(edges)))
            ys[1, : len(edges) // 3] = 1.0
            ys[2] = max_weight_forests(g.standard_normal((1, len(edges))), edges, n_nodes)
            ys[3, 0] = 1.0
            priced = second_stage_values(ys, d, edges, n_nodes)
            assert priced.tobytes() == reference.completion_sums_py(ys, d, edges,
                                                                    n_nodes).tobytes()


def _per_scenario_gaps(decide, data, oracle):
    """The evaluator's reference: each scenario priced on its own, c.y plus
    the single-row completion of y and c.y + d.z of the single-row split,
    then the mean cost and gap in data order."""
    costs, gaps = [], []
    for s in data:
        c, d = s.noise_payload.first_stage, s.noise_payload.second_stage
        y = decide(s)
        cost = float(c @ y) + second_stage_value(y, d, oracle.edges, oracle.n_nodes)
        ya, za = split_row(c, d, oracle.edges, oracle.n_nodes)
        anticipative = float(c @ ya + d @ za)
        costs.append(cost)
        denom = abs(anticipative)
        gaps.append((cost - anticipative) / denom if denom > 1e-9 else cost - anticipative)
    return float(np.mean(costs)), float(np.mean(gaps))


def _per_scenario_policy(weights, data, oracle):
    """evaluate_policy's reference: one argmax per scenario."""
    return _per_scenario_gaps(lambda s: oracle.argmax_linear(score_instance(weights, s)),
                              data, oracle)


_PER_CONTEXT_CFG = GenConfig(rows=2, cols=3, train_instances=3, val_instances=1,
                             test_instances=1, scenarios_per_instance=3)
_UNEQUAL_CFG = GenConfig(rows=6, cols=6, train_instances=4, val_instances=1,
                         test_instances=1, scenarios_per_instance=5)


def _unequal_contexts(seed: int, first_stage: str):
    """Four 6x6 contexts of 5, 1, 3 and 2 scenarios, interleaved in data
    order, and a random forest per context.  ``first_stage`` "shared" keeps
    each context's one first-stage array, "distinct" gives every scenario
    its own first-stage costs."""
    scenarios = []
    for ctx, inst in enumerate(generate_mst_split(_UNEQUAL_CFG, seed, "train")):
        for k in range((5, 1, 3, 2)[ctx]):
            s = inst.scenario(ctx, k)
            if first_stage == "distinct":
                c = s.noise_payload.first_stage * (1.0 + 0.1 * k)
                s = Scenario(ctx, s.features, TwoStageCosts(c, s.noise_payload.second_stage))
            scenarios.append(s)
    # Interleave: data positions 0, 3, 6, ..., then 1, 4, 7, ..., then 2, 5, 8, ...
    scenarios = scenarios[0::3] + scenarios[1::3] + scenarios[2::3]
    oracle = MstOracle(6, 6)
    g = make_rng(seed, 9).generator()
    decisions = {ctx: max_forest(g.standard_normal(oracle.n_edges), oracle.edges, oracle.n_nodes)
                 for ctx in range(4)}
    return Dataset(tuple(scenarios)), decisions, oracle


class _ScenarioEvaluator:
    """An evaluator that prices one scenario at a time, as the benchmark's
    tracing wrapper does."""

    def __init__(self, inner):
        self.policy_cost = inner.policy_cost
        self.anticipative_cost = inner.anticipative_cost


class TestPerContextEvaluation:
    @_PROPERTY
    @given(st.lists(_TIED, min_size=5, max_size=5),
           st.sampled_from(["shared", "copied", "interleaved"]))
    def test_equals_per_scenario_decisions(self, weights, features):
        scenarios = []
        for ctx, inst in enumerate(generate_mst_split(_PER_CONTEXT_CFG, 12, "train")):
            for k in range(inst.n_scenarios):
                s = inst.scenario(ctx, k)
                if features == "copied":
                    s = Scenario(ctx, s.features.copy(), s.noise_payload)
                scenarios.append(s)
        if features == "interleaved":  # contexts 0, 1, 2, 0, 1, 2, ...
            scenarios = scenarios[0::3] + scenarios[1::3] + scenarios[2::3]
        data = Dataset(tuple(scenarios))
        oracle = MstOracle(2, 3)
        w = np.array(weights, dtype=float) / 4
        expected = _per_scenario_policy(w, data, oracle)
        assert evaluate_policy(w, data, oracle, MstEvaluator(oracle)) == expected

    @pytest.mark.parametrize("first_stage", ["shared", "distinct"])
    @pytest.mark.parametrize("seed", range(4))
    def test_fixed_solutions_equal_per_scenario_reference(self, seed, first_stage):
        """Contexts of unequal size, interleaved: the mean cost and gap are
        the per-scenario reference's bit for bit, and so are both arrays of
        ``context_costs``, row by row."""
        data, decisions, oracle = _unequal_contexts(seed, first_stage)
        evaluator = MstEvaluator(oracle)
        assert evaluate_fixed_solutions(decisions, data, evaluator) == _per_scenario_gaps(
            lambda s: decisions[s.context_id], data, oracle)
        for ctx, group in data.by_context().items():
            costs, anticipatives = evaluator.context_costs(decisions[ctx], group)
            assert costs.tolist() == [evaluator.policy_cost(decisions[ctx], s) for s in group]
            assert anticipatives.tolist() == [MstEvaluator(oracle).anticipative_cost(s)
                                              for s in group]

    def test_zero_anticipative_cost_takes_the_absolute_gap(self):
        """On one edge, a first-stage cost of 0 makes the anticipative cost
        0, and those scenarios contribute cost - 0."""
        oracle = MstOracle(1, 2)
        costs = [(0.0, 2.0, 0), (0.0, 3.0, 1), (1.5, 0.5, 0), (3.0, 0.5, 1), (-0.0, 1.0, 0)]
        data = Dataset(tuple(Scenario(ctx, np.zeros((1, 1)),
                                      TwoStageCosts(np.array([c]), np.array([d])))
                             for c, d, ctx in costs))
        decisions = {0: np.zeros(1), 1: np.ones(1)}
        result = evaluate_fixed_solutions(decisions, data, MstEvaluator(oracle))
        assert result == _per_scenario_gaps(lambda s: decisions[s.context_id], data, oracle)
        assert result == (1.3, 1.6)  # costs 2, 0, 0.5, 3, 1; gaps 2, 0, 0, 5, 1

    @pytest.mark.parametrize("first_stage", ["shared", "distinct"])
    def test_per_scenario_evaluator_gives_the_same_tuple(self, first_stage):
        """An evaluator with only ``policy_cost`` and ``anticipative_cost``
        is priced scenario by scenario, to the same numbers."""
        data, decisions, oracle = _unequal_contexts(1, first_stage)
        expected = evaluate_fixed_solutions(decisions, data, MstEvaluator(oracle))
        scenario_evaluator = _ScenarioEvaluator(MstEvaluator(oracle))
        assert evaluate_fixed_solutions(decisions, data, scenario_evaluator) == expected

    def test_one_completion_and_at_most_one_split_per_context(self, monkeypatch):
        calls = dict.fromkeys(["second_stage_values", "two_stage_splits"], 0)
        for name in calls:
            def counted(*args, _original=getattr(spanning_tree, name), _name=name):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(spanning_tree, name, counted)
        data, decisions, oracle = _unequal_contexts(2, "shared")
        evaluator = MstEvaluator(oracle)
        cold = evaluate_fixed_solutions(decisions, data, evaluator)
        assert calls == {"second_stage_values": 4, "two_stage_splits": 4}
        calls.update(second_stage_values=0, two_stage_splits=0)
        assert evaluate_fixed_solutions(decisions, data, evaluator) == cold
        assert calls == {"second_stage_values": 4, "two_stage_splits": 0}

    def test_a_context_without_a_decision_is_named(self):
        data, decisions, oracle = _unequal_contexts(0, "shared")
        del decisions[2]
        with pytest.raises(InputError, match="no decision for context 2"):
            evaluate_fixed_solutions(decisions, data, MstEvaluator(oracle))

    def test_evaluator_rejects_other_payloads(self):
        """As the oracle does: a payload that is not ``TwoStageCosts`` is an
        input error, not an AttributeError."""
        scenario = Scenario(0, np.zeros((7, 1)), noise_payload=0)
        evaluator = MstEvaluator(MstOracle(2, 3))
        for price in (lambda: evaluator.policy_cost(np.zeros(7), scenario),
                      lambda: evaluator.anticipative_cost(scenario),
                      lambda: evaluator.context_costs(np.zeros(7), [scenario])):
            with pytest.raises(InputError, match="TwoStageCosts payloads"):
                price()

    def test_distinct_features_in_one_context_are_rejected(self):
        """A context is one feature matrix; a dataset that gives one context
        two feature matrices is refused."""
        inst = generate_mst_split(_PER_CONTEXT_CFG, 12, "train")[0]
        scenarios = [Scenario(0, inst.features + k * np.arange(inst.features.shape[1]),
                              inst.scenario(0, k).noise_payload)
                     for k in range(inst.n_scenarios)]
        with pytest.raises(InputError, match="context 0 disagree on their features"):
            Dataset(tuple(scenarios))


class TestGenerator:
    def test_same_seed_bit_identical(self):
        cfg = GenConfig(rows=3, cols=3, train_instances=2, val_instances=1,
                        test_instances=1, scenarios_per_instance=3)
        a = generate_mst_dataset(cfg, seed=5)
        b = generate_mst_dataset(cfg, seed=5)
        for split in ("train", "val", "test"):
            for ia, ib in zip(a[split][0], b[split][0]):
                np.testing.assert_array_equal(ia.features, ib.features)
                np.testing.assert_array_equal(ia.first_stage_costs, ib.first_stage_costs)
                np.testing.assert_array_equal(ia.scenario_costs, ib.scenario_costs)

    def test_noise_free_costs_are_deterministic_per_context(self):
        cfg = GenConfig(rows=3, cols=3, train_instances=2, val_instances=1,
                        test_instances=1, scenarios_per_instance=4, noise_scale=0.0)
        for inst in generate_mst_split(cfg, 2, "train"):
            for k in range(1, 4):
                np.testing.assert_allclose(inst.scenario_costs[k],
                                           inst.scenario_costs[0], atol=1e-12)

    def test_signal_correlates_with_second_stage_ratio(self):
        cfg = GenConfig(rows=6, cols=6, train_instances=20, val_instances=1,
                        test_instances=1, scenarios_per_instance=10)
        instances = generate_mst_split(cfg, 3, "train")
        hidden = hidden_vector(cfg, 3)
        signals, costs = [], []
        for inst in instances:
            s = context_signal(inst.features, hidden, cfg.signal_shift)
            for k in range(inst.n_scenarios):
                signals.append(s)
                costs.append(inst.scenario_costs[k] / inst.first_stage_costs)
        signals = np.concatenate(signals)
        costs = np.concatenate(costs)
        assert signals.size >= 10_000
        corr = np.corrcoef(signals, costs)[0, 1]
        assert corr > 0.3

    @pytest.mark.parametrize("field", ["cost_low", "cost_high", "noise_scale", "ratio_span"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_scale_rejected_by_name(self, field, value):
        """A NaN or infinite scale used to construct (or be reported as a
        bad cost order); generation then failed with the misleading "costs
        and features must be finite"."""
        with pytest.raises(InputError, match=f"{field} must be a finite"):
            GenConfig(rows=2, cols=2, **{field: value})

    @pytest.mark.parametrize("low, span", [(1.5, 1.0), (1.0, 2.0)])
    def test_ratio_range_must_straddle_one(self, low, span):
        """A range that starts at or above 1 used to be accepted; generation
        then took the log of a non-positive number and failed later with
        "costs and features must be finite"."""
        with pytest.raises(InputError, match="must straddle 1"):
            GenConfig(ratio_low=low, ratio_span=span)

    def test_first_stage_cost_range_and_positivity(self):
        cfg = GenConfig(rows=3, cols=3, train_instances=3, val_instances=1,
                        test_instances=1, scenarios_per_instance=2)
        for inst in generate_mst_split(cfg, 4, "train"):
            assert np.all(inst.first_stage_costs >= cfg.cost_low)
            assert np.all(inst.first_stage_costs <= cfg.cost_high)
            assert np.all(inst.scenario_costs > 0)
            assert np.all(inst.features[:, 0] == 1.0)


class TestContainers:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = GenConfig(rows=3, cols=3, train_instances=2, val_instances=1,
                        test_instances=1, scenarios_per_instance=3)
        instances = generate_mst_split(cfg, 9, "train")
        path = tmp_path / "train.npz"
        save_split(path, instances, "train")
        loaded, dataset = load_split(path)
        assert len(loaded) == 2
        assert dataset.split_tag == "train"
        assert len(dataset) == 6
        for a, b in zip(instances, loaded):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.first_stage_costs, b.first_stage_costs)
            np.testing.assert_array_equal(a.scenario_costs, b.scenario_costs)

    def test_manifest_round_trip(self, tmp_path):
        cfg = GenConfig(rows=3, cols=3, train_instances=2, val_instances=1,
                        test_instances=1, scenarios_per_instance=3)
        path = tmp_path / "manifest.json"
        write_manifest(path, cfg, seed=11)
        manifest = json.loads(path.read_text())
        assert manifest["seed"] == 11
        assert manifest["generator"]["rows"] == 3
