"""Primal-dual learning loop for generalized linear score models.

Outer iterations alternate a perturbation-based decomposition over
subsampled scenarios (producing per-scenario target moments) with a
coordination step that fits the shared weights by per-example Adam steps
on the perturbed Fenchel-Young loss.  A fresh optimizer state is created
at every outer iteration, and the running average of the weight iterates
is tracked alongside the iterates themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, InputError, LinearOracle, RngStream, Scenario, make_rng
from .regularizers import perturbed_decomposition_target, perturbed_fy_gradient

GlmWeights = np.ndarray

# Stream ids inside one outer iteration.
_SUBSAMPLE, _DECOMPOSITION, _COORDINATION = 0, 1, 2


@dataclass(frozen=True)
class TrainConfig:
    nb_iterations: int
    nb_scenarios: int
    nb_samples: int
    nb_epochs: int
    lr_init: float
    epsilon: float
    kappa: float = 1.0
    seed: int = 0
    # Replace the Monte-Carlo decomposition targets with the exact
    # unperturbed single-scenario solutions (used by the first-iteration
    # identity with uncoordinated imitation).
    unperturbed_targets: bool = False

    def __post_init__(self):
        counts = (self.nb_iterations, self.nb_scenarios, self.nb_samples, self.nb_epochs)
        if min(counts) < 1:
            raise InputError("all iteration/sample counts must be >= 1")
        if min(self.lr_init, self.epsilon, self.kappa) <= 0:
            raise InputError("lr_init, epsilon and kappa must be positive")


@dataclass(frozen=True)
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    beta1 = 0.9
    beta2 = 0.999
    eps_adam = 1e-8

    @staticmethod
    def zeros(n_weights: int) -> "AdamState":
        return AdamState(np.zeros(n_weights), np.zeros(n_weights))


def adam_step(
    adam: AdamState, w: GlmWeights, gradient: np.ndarray, lr: float
) -> tuple[AdamState, GlmWeights]:
    """One bias-corrected Adam update; returns the new state and weights."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != w.shape:
        raise InputError("gradient and weight shapes differ")
    t = adam.step_count + 1
    m = AdamState.beta1 * adam.first_moment + (1.0 - AdamState.beta1) * g
    v = AdamState.beta2 * adam.second_moment + (1.0 - AdamState.beta2) * g * g
    m_hat = m / (1.0 - AdamState.beta1 ** t)
    v_hat = v / (1.0 - AdamState.beta2 ** t)
    new_w = w - lr * m_hat / (np.sqrt(v_hat) + AdamState.eps_adam)
    return AdamState(m, v, t), new_w


def score_instance(weights: GlmWeights, scenario: Scenario) -> np.ndarray:
    """GLM score per solution coordinate: theta_e = <w | feature row e>."""
    if scenario.feature_width != weights.shape[0]:
        raise InputError(
            f"feature width {scenario.feature_width} does not match {weights.shape[0]} weights"
        )
    return scenario.features @ weights


def decomposition_pass(
    weights: GlmWeights,
    batch: list[Scenario],
    oracle: LinearOracle,
    config: TrainConfig,
    rng: RngStream,
) -> list[np.ndarray]:
    """Per-scenario target moments from the cost-shifted perturbed problems.

    Each batch slot draws from its own sub-stream, so the result is
    independent of processing order.
    """
    if not batch:
        raise InputError("decomposition needs a nonempty batch")

    def solve(slot: int) -> np.ndarray:
        scenario = batch[slot]
        theta = score_instance(weights, scenario)
        if config.unperturbed_targets:
            return oracle.argmin_shifted(theta, config.kappa, scenario)
        return perturbed_decomposition_target(
            oracle, theta, scenario, config.kappa, config.epsilon,
            config.nb_samples, rng.split(slot),
        )

    return [solve(slot) for slot in range(len(batch))]


def coordination_pass(
    weights: GlmWeights,
    batch: list[Scenario],
    targets: list[np.ndarray],
    oracle: LinearOracle,
    config: TrainConfig,
    rng: RngStream,
) -> GlmWeights:
    """Fit the shared weights to the targets by per-example Adam steps from
    a fresh optimizer state.

    Runs nb_epochs sweeps; every (epoch, example) slot resamples fresh
    perturbation draws from its own sub-stream.  The score-space gradient
    (perturbed maximizer moment minus target) is chained through the GLM
    Jacobian, i.e. the feature matrix.
    """
    if len(batch) != len(targets):
        raise InputError("targets must align with the batch")
    w = np.asarray(weights, dtype=float).copy()
    adam = AdamState.zeros(w.shape[0])
    for epoch in range(config.nb_epochs):
        for slot, (scenario, mu) in enumerate(zip(batch, targets)):
            theta = score_instance(w, scenario)
            _, g_theta = perturbed_fy_gradient(
                oracle, theta, mu, config.epsilon, config.nb_samples,
                rng.split(epoch, slot),
            )
            g_w = scenario.features.T @ g_theta
            if not np.isfinite(g_w).all():
                raise FloatingPointError(
                    f"non-finite gradient at epoch {epoch}, example {slot}"
                )
            adam, w = adam_step(adam, w, g_w, config.lr_init)
    return w


@dataclass(frozen=True)
class WeightTrajectory:
    per_iteration: np.ndarray     # (T, p) weight iterates
    running_average: np.ndarray   # (T, p) cumulative means

    def __post_init__(self):
        if self.per_iteration.shape != self.running_average.shape:
            raise InputError("trajectory arrays must share a shape")

    @property
    def final_weights(self) -> GlmWeights:
        return self.per_iteration[-1]

    @property
    def final_average(self) -> GlmWeights:
        return self.running_average[-1]


def subsample_batch(data: Dataset, nb_scenarios: int, rng: RngStream) -> list[Scenario]:
    """Pick up to nb_scenarios scenarios per context, deterministically."""
    batch: list[Scenario] = []
    groups = data.by_context()
    for ctx in sorted(groups):
        group = groups[ctx]
        if len(group) <= nb_scenarios:
            batch.extend(group)
            continue
        g = rng.split(ctx).generator()
        picked = np.sort(g.choice(len(group), size=nb_scenarios, replace=False))
        batch.extend(group[int(i)] for i in picked)
    return batch


def train_primal_dual(
    data: Dataset, oracle: LinearOracle, config: TrainConfig
) -> WeightTrajectory:
    """Full primal-dual loop from zero weights; records every iterate."""
    w = np.zeros(data.feature_width)
    root = make_rng(config.seed)
    history = []
    for t in range(1, config.nb_iterations + 1):
        batch = subsample_batch(data, config.nb_scenarios, root.split(t, _SUBSAMPLE))
        targets = decomposition_pass(w, batch, oracle, config, root.split(t, _DECOMPOSITION))
        w = coordination_pass(w, batch, targets, oracle, config, root.split(t, _COORDINATION))
        history.append(w)
    iterates = np.asarray(history)
    averages = np.cumsum(iterates, axis=0) / np.arange(1, len(history) + 1)[:, None]
    return WeightTrajectory(iterates, averages)


def evaluate_policy(
    weights: GlmWeights,
    data: Dataset,
    oracle: LinearOracle,
    problem_evaluator,
) -> tuple[float, float]:
    """Deploy the unregularized argmax policy and average cost and gap.

    A context is one feature matrix (a ``Dataset`` invariant), so the
    decisions of every context are one batched argmax over the scores of
    each context's first scenario.
    """
    groups = data.by_context()
    thetas = np.stack([score_instance(weights, group[0]) for group in groups.values()])
    decisions = dict(zip(groups, oracle.argmax_linear_many(thetas)))
    return evaluate_fixed_solutions(decisions, data, problem_evaluator)


def evaluate_fixed_solutions(
    decisions_by_context: dict[int, np.ndarray],
    data: Dataset,
    evaluator,
) -> tuple[float, float]:
    """Mean cost and mean gap of one decision per context, averaged over the
    scenarios of ``data`` in data order.

    The per-scenario gap is relative to the anticipative optimum,
    (cost - anticipative) / |anticipative|; when the anticipative cost is
    (numerically) zero the absolute difference is used instead.
    """
    costs = []
    gaps = []
    for scenario in data:
        cost = evaluator.policy_cost(decisions_by_context[scenario.context_id], scenario)
        anticipative = evaluator.anticipative_cost(scenario)
        costs.append(cost)
        denom = abs(anticipative)
        gaps.append((cost - anticipative) / denom if denom > 1e-9 else cost - anticipative)
    return float(np.mean(costs)), float(np.mean(gaps))
