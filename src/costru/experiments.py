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


def total_variation(series: np.ndarray) -> float:
    return float(np.sum(np.abs(np.diff(series))))


@dataclass(frozen=True)
class MethodRun:
    """One spanning-tree method's run: its metrics table, the arrays of each
    ``.npz`` file it writes (file name -> array name -> array) and its test
    gap (primal-dual's with the averaged weights)."""

    header: list[str]
    rows: list[list]
    files: dict[str, dict[str, np.ndarray]]
    test_gap: float


def _by_context(solutions: dict[int, np.ndarray]) -> dict[str, np.ndarray]:
    """One solution per context, in increasing context id."""
    ctx_ids = np.array(sorted(solutions), dtype=np.int64)
    return dict(context_ids=ctx_ids, solutions=np.stack([solutions[c] for c in ctx_ids]))


def run_mst_method(method: str, train: Dataset, val: Dataset, test: Dataset,
                   oracle: MstOracle, evaluator: MstEvaluator, config: TrainConfig | None,
                   saa: baselines.SaaConfig) -> MethodRun:
    """Train one of the four methods on ``train`` and evaluate it on ``val``
    and ``test``.  Median learns nothing and takes no ``config``; only
    fully-coordinated reads ``saa``."""
    if method == "median":
        d_median = baselines.pooled_median_second_stage(train)
        rows, files = [], {}
        for split, data in (("val", val), ("test", test)):
            sols = {ctx: baselines.median_policy_solution(group[0], d_median, oracle)
                    for ctx, group in data.by_context().items()}
            rows.append([split, *baselines.evaluate_fixed_solutions(sols, data, evaluator)])
            files[f"median_solutions_{split}.npz"] = _by_context(sols)
        return MethodRun(["split", "mean_cost", "mean_gap"], rows, files, rows[1][2])
    if method == "primal-dual":
        trajectory = train_primal_dual(train, oracle, config)
        # The mean gap of each iterate, current and averaged, on val and test.
        columns = [[evaluate_policy(w, data, oracle, evaluator)[1] for w in weights]
                   for data in (val, test)
                   for weights in (trajectory.per_iteration, trajectory.running_average)]
        rows = [[t + 1, *(column[t] for column in columns)]
                for t in range(config.nb_iterations)]
        arrays = dict(per_iteration=trajectory.per_iteration,
                      running_average=trajectory.running_average,
                      final_average=trajectory.final_average)
        return MethodRun(["iteration", "val_gap_current_w", "val_gap_avg_w",
                          "test_gap_current_w", "test_gap_avg_w"],
                         rows, {"weights.npz": arrays}, rows[-1][4])
    files = {}
    if method == "uncoordinated":
        w = baselines.uncoordinated_imitation(train, oracle, config)
    elif method == "fully-coordinated":
        targets = baselines.lagrangian_targets(train, oracle, saa)
        files["targets.npz"] = _by_context(targets)
        w = baselines.fully_coordinated_imitation(train, oracle, saa, config, targets)
    else:
        raise ValueError(f"unknown method {method!r}")
    files["weights.npz"] = dict(weights=w, final_average=w)
    val_cost, val_gap = evaluate_policy(w, val, oracle, evaluator)
    test_cost, test_gap = evaluate_policy(w, test, oracle, evaluator)
    return MethodRun(["val_mean_cost", "val_gap", "test_mean_cost", "test_gap"],
                     [[val_cost, val_gap, test_cost, test_gap]], files, test_gap)


@dataclass(frozen=True)
class MstBenchmarkResult:
    """Mean test gaps of the four methods plus per-seed diagnostics."""

    median_gaps: np.ndarray
    uncoordinated_gaps: np.ndarray
    primal_dual_gaps: np.ndarray
    fully_coordinated_gaps: np.ndarray
    val_tv_ratios: np.ndarray  # TV(averaged-weights series) / TV(current-weights)


def run_mst_method_benchmark(seeds=range(5)) -> MstBenchmarkResult:
    """Four-method comparison on the small-grid benchmark, one dataset and
    training run per seed; gaps are measured on the test split with the
    averaged weights for the primal-dual method."""
    gaps = {method: [] for method in ("median", "uncoordinated", "primal-dual",
                                      "fully-coordinated")}
    ratios = []
    for seed in seeds:
        splits = datasets.generate_mst_dataset(MST_BENCH_GEN, seed=seed)
        oracle = MstOracle(MST_BENCH_GEN.rows, MST_BENCH_GEN.cols)
        evaluator = MstEvaluator(oracle)
        configs = {"median": None,
                   "uncoordinated": mst_bench_imitation_config(seed),
                   "primal-dual": mst_bench_primal_dual_config(seed),
                   "fully-coordinated": mst_bench_imitation_config(seed, epsilon=0.5)}
        for method, config in configs.items():
            run = run_mst_method(method, splits["train"][1], splits["val"][1],
                                 splits["test"][1], oracle, evaluator, config, MST_BENCH_SAA)
            gaps[method].append(run.test_gap)
            if method == "primal-dual":  # columns val_gap_current_w, val_gap_avg_w
                val_current, val_averaged = np.array(run.rows)[:, 1:3].T
                ratios.append(total_variation(val_averaged) / total_variation(val_current))
    return MstBenchmarkResult(
        **{f"{method.replace('-', '_')}_gaps": np.asarray(g) for method, g in gaps.items()},
        val_tv_ratios=np.asarray(ratios))
