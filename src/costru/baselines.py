"""Benchmark policies: median, uncoordinated imitation, and imitation of
Lagrangian-heuristic SAA solutions (fully coordinated).

The SAA heuristic is a progressive-hedging-flavored subgradient scheme on
the non-anticipativity constraint: per-scenario anticipative solves with
multiplier-shifted first-stage costs, a consensus recovery step, and a
zero-sum projection of the multipliers after each round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, InputError, LinearOracle, Scenario, make_rng, require_positive
from .problems.spanning_tree import (
    MstOracle,
    TwoStageCosts,
    second_stage_value,
    second_stage_values,
    stage_costs,
    two_stage_splits,
)
# evaluate_fixed_solutions is also this module's: it prices the median
# policy's fixed solutions.
from .trainer import (
    GlmWeights,
    TrainConfig,
    coordination_pass,
    coordination_stream,
    evaluate_fixed_solutions,
)


@dataclass(frozen=True)
class SaaConfig:
    n_saa_scenarios: int = 20
    lagrangian_iters: int = 50
    sigma0: float = 1.0

    def __post_init__(self):
        if self.n_saa_scenarios < 1 or self.lagrangian_iters < 1:
            raise InputError("SAA counts must be >= 1")
        require_positive("sigma0", self.sigma0)


def _shared_costs(scenarios: list[Scenario]) -> tuple[np.ndarray, np.ndarray]:
    """First-stage costs (shared) and stacked second-stage costs of a context."""
    first, second = stage_costs(scenarios)
    if not all(np.array_equal(c, first[0]) for c in first[1:]):
        raise InputError("scenarios of one context must share first-stage costs")
    return first[0], np.stack(second)


def _anticipative_solution(oracle: LinearOracle, scenario: Scenario) -> np.ndarray:
    """Single-scenario optimum."""
    return oracle.argmin_shifted(np.zeros(scenario.dim), 0.0, scenario)


def pooled_median_second_stage(training_scenarios: Dataset | list[Scenario]) -> np.ndarray:
    """Per-edge median of the second-stage costs over training noise samples.

    Pooled across every training scenario (no conditioning on the context);
    the median policy is a no-learning sanity check.
    """
    stacked = np.stack(
        [s.noise_payload.second_stage for s in training_scenarios]
    )
    return np.median(stacked, axis=0)


def median_policy_solution(
    context: Scenario, median_second_stage: np.ndarray, oracle: MstOracle
) -> np.ndarray:
    """Solve the single-scenario problem with the unknown second-stage cost
    vector replaced by its (pooled) median estimator."""
    (first,), _ = stage_costs([context])
    synthetic = Scenario(context.context_id, context.features,
                         TwoStageCosts(first, median_second_stage))
    return _anticipative_solution(oracle, synthetic)


def saa_objective(
    y: np.ndarray, first_stage: np.ndarray, second_stages: np.ndarray, oracle: MstOracle
) -> float:
    """c . y + (1/K) sum_k Q(y; xi_k)."""
    completions = second_stage_value(y, second_stages, oracle.edges, oracle.n_nodes)
    return float(first_stage @ y) + float(np.mean(completions))


def lagrangian_saa_solution(
    scenarios: list[Scenario], oracle: MstOracle, saa: SaaConfig
) -> np.ndarray:
    """Heuristic SAA solve by multiplier coordination of anticipative solves.

    Every per-scenario solution seen during the run and every consensus
    recovery candidate is evaluated on the exact SAA objective, as
    ``saa_objective`` evaluates it but with all completions in one call; the
    first best candidate is returned.
    """
    if len(scenarios) < 2:
        raise InputError("the SAA heuristic needs at least two scenarios")
    c, d_all = _shared_costs(scenarios)
    n_scen, n_edges = d_all.shape
    lam = np.zeros((n_scen, n_edges))
    candidates: dict[bytes, np.ndarray] = {}

    def add_candidate(y: np.ndarray):
        candidates.setdefault(y.tobytes(), y)

    for j in range(1, saa.lagrangian_iters + 1):
        # Row k is the anticipative solution of scenario k at costs c + lam[k].
        ys, _ = two_stage_splits(c + lam, d_all, oracle.edges, oracle.n_nodes)
        for y in ys:
            add_candidate(y)
        y_bar = ys.mean(axis=0)
        # Consensus recovery: majority edges, greedy by consensus strength.
        recovery_weights = np.where(y_bar >= 0.5, y_bar, -1.0)
        add_candidate(oracle.argmax_linear(recovery_weights))
        sigma = saa.sigma0 / np.sqrt(j)
        lam = lam + sigma * (ys - y_bar)
        lam = lam - lam.mean(axis=0)

    ys = list(candidates.values())
    means = second_stage_values(np.stack(ys), d_all, oracle.edges, oracle.n_nodes).mean(axis=1)
    best_y = None
    best_value = np.inf
    for y, mean in zip(ys, means):
        value = float(c @ y) + float(mean)
        if value < best_value:
            best_value = value
            best_y = y
    return best_y


def imitation_fit(
    data: Dataset,
    targets: list[np.ndarray],
    oracle: LinearOracle,
    config: TrainConfig,
) -> GlmWeights:
    """Supervised perturbed-FY fit from zero weights: one coordination pass on
    the primal-dual trainer's first-iteration stream, so that the
    first-iteration identity is exact."""
    w = np.zeros(data.feature_width)
    stream = coordination_stream(make_rng(config.seed), 1)
    return coordination_pass(w, list(data), targets, oracle, config, stream)


def uncoordinated_imitation(
    data: Dataset, oracle: LinearOracle, config: TrainConfig
) -> GlmWeights:
    """Classic imitation of the per-scenario anticipative solutions."""
    targets = [_anticipative_solution(oracle, s) for s in data]
    return imitation_fit(data, targets, oracle, config)


def lagrangian_targets(
    data: Dataset, oracle: MstOracle, saa: SaaConfig
) -> dict[int, np.ndarray]:
    """One SAA-coordinated solution per context (requires scenario groups)."""
    targets: dict[int, np.ndarray] = {}
    for ctx, group in data.by_context().items():
        chosen = group[: saa.n_saa_scenarios]
        if len(chosen) == 1:
            targets[ctx] = _anticipative_solution(oracle, chosen[0])
        else:
            targets[ctx] = lagrangian_saa_solution(chosen, oracle, saa)
    return targets


def fully_coordinated_imitation(
    data: Dataset,
    oracle: MstOracle,
    saa: SaaConfig,
    config: TrainConfig,
    targets_by_context: dict[int, np.ndarray] | None = None,
) -> GlmWeights:
    """Imitate the SAA-coordinated solution of each scenario's context."""
    if targets_by_context is None:
        targets_by_context = lagrangian_targets(data, oracle, saa)
    targets = [targets_by_context[s.context_id] for s in data]
    return imitation_fit(data, targets, oracle, config)

