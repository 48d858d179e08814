"""Benchmark policies: median, SAA heuristic, imitation fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costru.baselines import (
    SaaConfig,
    evaluate_fixed_solutions,
    fully_coordinated_imitation,
    lagrangian_saa_solution,
    lagrangian_targets,
    median_policy_solution,
    pooled_median_second_stage,
    saa_objective,
    uncoordinated_imitation,
)
from costru.core import Scenario, make_rng
from costru.problems.datasets import GenConfig, dataset_from_instances, generate_mst_split
from costru.problems.spanning_tree import (
    GridInstance,
    MstEvaluator,
    MstOracle,
    TwoStageCosts,
    enumerate_forests,
    second_stage_value,
    two_stage_splits,
)
from costru.problems.toy import TOY_COSTS
from costru.trainer import TrainConfig


def small_instances(seed=0, n=2, scenarios=4, rows=2, cols=2, **gen_kwargs):
    cfg = GenConfig(rows=rows, cols=cols, train_instances=n, val_instances=1,
                    test_instances=1, scenarios_per_instance=scenarios, **gen_kwargs)
    return generate_mst_split(cfg, seed, "train")


def imitation_config(seed=0, **overrides):
    params = dict(nb_iterations=1, nb_scenarios=8, nb_samples=10, nb_epochs=5,
                  lr_init=0.01, epsilon=0.2, kappa=1.0, seed=seed)
    params.update(overrides)
    return TrainConfig(**params)


class TestMedianPolicy:
    def test_single_scenario_equals_anticipative(self):
        inst = small_instances(scenarios=1)[0]
        oracle = MstOracle(2, 2)
        scenario = inst.scenario(0, 0)
        d_med = pooled_median_second_stage([scenario])
        y = median_policy_solution(scenario, d_med, oracle)
        expected = oracle.argmin_shifted(np.zeros(oracle.n_edges), 0.0, scenario)
        np.testing.assert_array_equal(y, expected)

    def test_cheap_median_defers_everything(self):
        inst = small_instances(scenarios=1)[0]
        oracle = MstOracle(2, 2)
        scenario = inst.scenario(0, 0)
        y = median_policy_solution(scenario, np.full(oracle.n_edges, 0.01), oracle)
        np.testing.assert_array_equal(y, np.zeros(oracle.n_edges))

    def test_pooled_median_permutation_invariant(self):
        instances = small_instances(n=3, scenarios=5)
        data = dataset_from_instances(instances, "train")
        forward = pooled_median_second_stage(list(data))
        backward = pooled_median_second_stage(list(data)[::-1])
        np.testing.assert_array_equal(forward, backward)

    def test_toy_analog_prefers_majority(self):
        """The per-state median of the tabular costs selects the majority
        single-state optimum, which is the poor decision."""
        medians = np.median(TOY_COSTS, axis=1)
        np.testing.assert_array_equal(medians, np.array([-1.0, 0.0]))
        assert int(np.argmin(medians)) == 0


class TestLagrangianSaa:
    def test_identical_scenarios_return_anticipative(self):
        inst = small_instances(scenarios=1)[0]
        oracle = MstOracle(2, 2)
        base = inst.scenario(0, 0)
        scenarios = [base, base, base]
        y = lagrangian_saa_solution(scenarios, oracle, SaaConfig(lagrangian_iters=5))
        expected = oracle.argmin_shifted(np.zeros(oracle.n_edges), 0.0, base)
        np.testing.assert_array_equal(y, expected)

    def test_requires_two_scenarios(self):
        inst = small_instances(scenarios=1)[0]
        with pytest.raises(Exception):
            lagrangian_saa_solution([inst.scenario(0, 0)], MstOracle(2, 2), SaaConfig())

    def test_within_two_percent_of_exhaustive_optimum(self):
        oracle = MstOracle(2, 2)
        forests = enumerate_forests(oracle.edges, oracle.n_nodes)
        g = make_rng(81, 0).generator()
        saa = SaaConfig(n_saa_scenarios=3, lagrangian_iters=30)
        for trial in range(100):
            c = g.uniform(5, 10, oracle.n_edges)
            d = g.uniform(2, 14, (3, oracle.n_edges))
            inst_scenarios = [
                GridInstance(2, 2, c, np.ones((oracle.n_edges, 3)), d).scenario(0, k)
                for k in range(3)
            ]
            y = lagrangian_saa_solution(inst_scenarios, oracle, saa)
            value = saa_objective(y, c, d, oracle)
            best = min(
                c @ f + np.mean([second_stage_value(f, dk, oracle.edges, 4)[0] for dk in d])
                for f in forests
            )
            assert value <= best * 1.02 + 1e-9

    def test_never_worse_than_anticipative_candidates(self):
        oracle = MstOracle(2, 3)
        instances = small_instances(n=1, scenarios=6, rows=2, cols=3)
        scenarios = [instances[0].scenario(0, k) for k in range(6)]
        c = instances[0].first_stage_costs
        d = instances[0].scenario_costs
        saa = SaaConfig(lagrangian_iters=10)
        y = lagrangian_saa_solution(scenarios, oracle, saa)
        value = saa_objective(y, c, d, oracle)
        for scenario in scenarios:
            cand = oracle.argmin_shifted(np.zeros(oracle.n_edges), 0.0, scenario)
            assert value <= saa_objective(cand, c, d, oracle) + 1e-9

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 3), st.integers(2, 5), st.data())
    def test_batched_round_equals_single_solves(self, rows, cols, n_scen, data):
        """A multiplier round is one split call on (c + lam, d_all): row k is
        the single solve of scenario k at first-stage costs c + lam[k].
        Integer costs and half-integer multipliers make ties common."""
        oracle = MstOracle(rows, cols)
        n_edges = oracle.n_edges

        def draw(low, high, shape):
            flat = data.draw(st.lists(st.integers(low, high), min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))
            return np.array(flat, dtype=float).reshape(shape)

        c, d_all = draw(1, 4, n_edges), draw(1, 4, (n_scen, n_edges))
        lam = draw(-3, 3, (n_scen, n_edges)) / 2
        ys, _ = two_stage_splits(c + lam, d_all, oracle.edges, oracle.n_nodes)
        for k in range(n_scen):
            scenario = Scenario(0, np.zeros((n_edges, 1)), TwoStageCosts(c + lam[k], d_all[k]))
            single = oracle.argmin_shifted(np.zeros(n_edges), 0.0, scenario)
            assert ys[k].tobytes() == single.tobytes()

    def test_toy_analog_saa_optimum_is_one(self):
        """Exhaustive SAA objective over the two tabular decisions."""
        mean_costs = TOY_COSTS.mean(axis=1)
        assert mean_costs[1] < mean_costs[0]
        assert int(np.argmin(mean_costs)) == 1


class TestImitationFits:
    def test_uncoordinated_on_toy_learns_majority_decision(self):
        """Imitating the single-scenario optima picks the majority decision
        y = 0, which is suboptimal for the expected cost."""
        from costru.problems.toy import ToyOracle, toy_dataset
        from costru.trainer import evaluate_policy
        from costru.problems.toy import ToyEvaluator

        config = TrainConfig(nb_iterations=1, nb_scenarios=3, nb_samples=500,
                             nb_epochs=10, lr_init=0.1, epsilon=1.0, kappa=1.0, seed=0)
        oracle = ToyOracle()
        w = uncoordinated_imitation(toy_dataset(), oracle, config)
        assert w[0] < 0
        assert oracle.argmax_linear(w)[0] == 0.0
        cost, _ = evaluate_policy(w, toy_dataset(), oracle, ToyEvaluator())
        assert cost == pytest.approx(1 / 3)  # the poor stochastic decision

    def test_identical_scenarios_reproduce_single_target(self):
        """With one repeated scenario the fit drives the residual between
        the perturbed policy moment and the anticipative target to zero."""
        from costru.regularizers import perturbed_fy_gradient
        from costru.trainer import score_instance

        base = small_instances(n=1, scenarios=1, seed=2)[0]
        inst = GridInstance(2, 2, base.first_stage_costs, base.features,
                            np.repeat(base.scenario_costs, 4, axis=0))
        data = dataset_from_instances([inst], "train")
        oracle = MstOracle(2, 2)
        config = imitation_config(seed=2, nb_epochs=40, nb_samples=50, lr_init=0.05)
        w = uncoordinated_imitation(data, oracle, config)
        scenario = data.scenarios[0]
        target = oracle.argmin_shifted(np.zeros(oracle.n_edges), 0.0, scenario)
        _, grad = perturbed_fy_gradient(oracle, score_instance(w, scenario), target,
                                        config.epsilon, 2000, make_rng(99, 0))
        assert np.linalg.norm(grad) < 0.2

    def test_uncoordinated_is_deterministic(self):
        instances = small_instances(n=2, scenarios=3)
        data = dataset_from_instances(instances, "train")
        oracle = MstOracle(2, 2)
        w1 = uncoordinated_imitation(data, oracle, imitation_config())
        w2 = uncoordinated_imitation(data, oracle, imitation_config())
        np.testing.assert_array_equal(w1, w2)

    def test_identical_scenarios_align_fully_coordinated_with_uncoordinated(self):
        """With every scenario of a context identical, the SAA targets equal
        the anticipative ones and the two imitation pipelines coincide."""
        base = small_instances(n=2, scenarios=1, seed=3)
        instances = [
            GridInstance(2, 2, inst.first_stage_costs, inst.features,
                         np.repeat(inst.scenario_costs, 3, axis=0))
            for inst in base
        ]
        data = dataset_from_instances(instances, "train")
        oracle = MstOracle(2, 2)
        config = imitation_config(seed=5)
        w_unc = uncoordinated_imitation(data, oracle, config)
        w_fc = fully_coordinated_imitation(data, oracle, SaaConfig(lagrangian_iters=5),
                                           config)
        np.testing.assert_array_equal(w_unc, w_fc)

    def test_single_scenario_contexts_degenerate(self):
        instances = small_instances(n=3, scenarios=1, seed=4)
        data = dataset_from_instances(instances, "train")
        oracle = MstOracle(2, 2)
        config = imitation_config(seed=6)
        w_unc = uncoordinated_imitation(data, oracle, config)
        w_fc = fully_coordinated_imitation(data, oracle, SaaConfig(), config)
        np.testing.assert_array_equal(w_unc, w_fc)

    def test_noise_free_generator_aligns_pipelines(self):
        instances = small_instances(n=2, scenarios=3, seed=7, noise_scale=0.0)
        data = dataset_from_instances(instances, "train")
        oracle = MstOracle(2, 2)
        config = imitation_config(seed=8)
        w_unc = uncoordinated_imitation(data, oracle, config)
        w_fc = fully_coordinated_imitation(data, oracle, SaaConfig(lagrangian_iters=5),
                                           config)
        np.testing.assert_array_equal(w_unc, w_fc)

    def test_lagrangian_targets_cover_contexts(self):
        instances = small_instances(n=3, scenarios=4, seed=9)
        data = dataset_from_instances(instances, "train")
        targets = lagrangian_targets(data, MstOracle(2, 2), SaaConfig(lagrangian_iters=5))
        assert sorted(targets) == [0, 1, 2]


class TestEvaluateFixedSolutions:
    def test_anticipative_per_context_not_below_zero(self):
        instances = small_instances(n=2, scenarios=3, seed=10)
        data = dataset_from_instances(instances, "train")
        oracle = MstOracle(2, 2)
        evaluator = MstEvaluator(oracle)
        sols = {
            ctx: oracle.argmin_shifted(np.zeros(oracle.n_edges), 0.0, group[0])
            for ctx, group in data.by_context().items()
        }
        cost, gap = evaluate_fixed_solutions(sols, data, evaluator)
        assert gap >= -1e-12
        assert np.isfinite(cost)
