"""Experiment drivers shared by the CLI and the acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import baselines
from .core import Dataset
from .problems import datasets
from .problems.spanning_tree import MstEvaluator, MstOracle
from .problems.toy import ToyOracle, toy_dataset
from .trainer import (
    TrainConfig,
    evaluate_policy,
    train_primal_dual,
)

# Toy-problem hyperparameters (tabular experiment defaults).
TOY_DEFAULTS = dict(
    nb_iterations=20,
    nb_scenarios=3,
    nb_samples=1000,
    nb_epochs=10,
    lr_init=0.1,
    epsilon=1.0,
    kappa=1.0,
)

# Spanning-tree hyperparameters (grid experiment defaults).
MST_DEFAULTS = dict(
    nb_iterations=50,
    nb_scenarios=10,
    nb_samples=20,
    nb_epochs=30,
    lr_init=1e-5,
    epsilon=1e-4,
    kappa=1.0,
)

# Benchmark configuration for the small-grid comparison of the four
# methods.  Learning rates and perturbation scales are retuned for this
# feature scaling; the generator uses its defaults.
MST_BENCH_GEN = datasets.GenConfig(
    rows=6, cols=6, train_instances=20, val_instances=10, test_instances=10,
    scenarios_per_instance=10,
)
MST_BENCH_SAA = baselines.SaaConfig(n_saa_scenarios=10, lagrangian_iters=30, sigma0=1.0)


def mst_bench_primal_dual_config(seed: int) -> TrainConfig:
    return TrainConfig(nb_iterations=50, nb_scenarios=3, nb_samples=10, nb_epochs=10,
                       lr_init=5e-2, epsilon=2.0, kappa=1.0, seed=seed)


def mst_bench_imitation_config(seed: int, epsilon: float = 0.1) -> TrainConfig:
    return TrainConfig(nb_iterations=1, nb_scenarios=10, nb_samples=20, nb_epochs=30,
                       lr_init=1e-2, epsilon=epsilon, kappa=1.0, seed=seed)


def toy_train_config(epsilon: float, seed: int, **overrides) -> TrainConfig:
    params = dict(TOY_DEFAULTS, epsilon=epsilon, seed=seed)
    params.update(overrides)
    return TrainConfig(**params)


def run_toy_epsilon_sweep(
    epsilons: list[float], nb_seeds: int, base_seed: int = 0, **overrides
) -> list[tuple[float, float]]:
    """Proportion of seeds whose averaged score selects the stochastic
    optimum (y = 1), per perturbation scale."""
    data = toy_dataset()
    oracle = ToyOracle()
    results = []
    for eps in epsilons:
        optimal = 0
        for s in range(nb_seeds):
            config = toy_train_config(eps, base_seed + s, **overrides)
            trajectory = train_primal_dual(data, oracle, config)
            theta_bar = float(trajectory.final_average[0])
            if oracle.argmax_linear(np.array([theta_bar]))[0] == 1.0:
                optimal += 1
        results.append((float(eps), optimal / nb_seeds))
    return results


def gap_series(weights: np.ndarray, data: Dataset, oracle: MstOracle,
               evaluator: MstEvaluator) -> np.ndarray:
    """Mean gap on one split of each weight vector, one per row of ``weights``."""
    return np.array([evaluate_policy(w, data, oracle, evaluator)[1] for w in weights])


def total_variation(series: np.ndarray) -> float:
    return float(np.sum(np.abs(np.diff(series))))


@dataclass(frozen=True)
class MstBenchmarkResult:
    """Mean test gaps of the four methods plus per-seed diagnostics."""

    median_gaps: np.ndarray
    uncoordinated_gaps: np.ndarray
    primal_dual_gaps: np.ndarray
    fully_coordinated_gaps: np.ndarray
    val_tv_ratios: np.ndarray  # TV(averaged-weights series) / TV(current-weights)

    def mean(self, name: str) -> float:
        return float(getattr(self, f"{name}_gaps").mean())


def run_mst_method_benchmark(seeds=range(5)) -> MstBenchmarkResult:
    """Four-method comparison on the small-grid benchmark, one dataset and
    training run per seed; gaps are measured on the test split with the
    averaged weights for the primal-dual method."""
    med, unc, pd, fc, ratios = [], [], [], [], []
    for seed in seeds:
        splits = datasets.generate_mst_dataset(MST_BENCH_GEN, seed=seed)
        _, train_data = splits["train"]
        _, val_data = splits["val"]
        _, test_data = splits["test"]
        oracle = MstOracle(MST_BENCH_GEN.rows, MST_BENCH_GEN.cols)
        evaluator = MstEvaluator(oracle)

        d_median = baselines.pooled_median_second_stage(train_data)
        solutions = {
            ctx: baselines.median_policy_solution(group[0], d_median, oracle)
            for ctx, group in test_data.by_context().items()
        }
        med.append(baselines.evaluate_fixed_solutions(solutions, test_data, evaluator)[1])

        w_unc = baselines.uncoordinated_imitation(
            train_data, oracle, mst_bench_imitation_config(seed))
        unc.append(evaluate_policy(w_unc, test_data, oracle, evaluator)[1])

        trajectory = train_primal_dual(train_data, oracle,
                                       mst_bench_primal_dual_config(seed))
        pd.append(evaluate_policy(trajectory.final_average, test_data, oracle,
                                  evaluator)[1])
        current = gap_series(trajectory.per_iteration, val_data, oracle, evaluator)
        averaged = gap_series(trajectory.running_average, val_data, oracle, evaluator)
        ratios.append(total_variation(averaged) / total_variation(current))

        targets = baselines.lagrangian_targets(train_data, oracle, MST_BENCH_SAA)
        w_fc = baselines.fully_coordinated_imitation(
            train_data, oracle, MST_BENCH_SAA,
            mst_bench_imitation_config(seed, epsilon=0.5), targets)
        fc.append(evaluate_policy(w_fc, test_data, oracle, evaluator)[1])

    return MstBenchmarkResult(
        median_gaps=np.asarray(med),
        uncoordinated_gaps=np.asarray(unc),
        primal_dual_gaps=np.asarray(pd),
        fully_coordinated_gaps=np.asarray(fc),
        val_tv_ratios=np.asarray(ratios),
    )
