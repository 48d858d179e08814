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

from . import native
from .core import (
    Dataset,
    InputError,
    LinearOracle,
    RngStream,
    Scenario,
    ensure_finite,
    make_rng,
    require_positive,
)
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

    def __post_init__(self):
        counts = (self.nb_iterations, self.nb_scenarios, self.nb_samples, self.nb_epochs)
        if min(counts) < 1:
            raise InputError("all iteration/sample counts must be >= 1")
        for name in ("lr_init", "epsilon", "kappa"):
            require_positive(name, getattr(self, name))


class AdamState:
    """Adam's state for one weight vector, updated in place by ``adam_step``:
    the weights, the gradient that the next step applies, the first and
    second moments, and the step count.  The four vectors are the rows of
    one buffer, whose ``address`` the native entries take."""

    beta1 = 0.9
    beta2 = 0.999
    eps_adam = 1e-8

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1:
            raise InputError("weights must be a vector")
        self._rows = np.zeros((4, len(w)))
        self.weights, self.gradient, self.first_moment, self.second_moment = self._rows
        self.weights[:] = w
        self.step_count = 0
        self.address = self._rows.ctypes.data


def adam_step(adam: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of ``adam.weights`` from
    ``adam.gradient``, in place: numpy's operations in numpy's order, run by
    the native library.  A non-finite gradient raises FloatingPointError and
    changes nothing."""
    t = adam.step_count + 1
    status = native._compiled_kernel().adam_step(
        adam.address, len(adam.weights), lr, AdamState.beta1, AdamState.beta2,
        AdamState.eps_adam, 1.0 - AdamState.beta1 ** t, 1.0 - AdamState.beta2 ** t)
    if status < 0:
        raise FloatingPointError("non-finite gradient")
    adam.step_count = t


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

    Each slot's scores theta = F w are computed once, by ``score_instance``,
    and each batch slot draws from its own sub-stream, so the result is
    independent of processing order.  An oracle with the optional
    ``perturbed_split_pass`` takes the S rows of scores and computes the
    perturbed targets in one native call; any other goes through
    ``perturbed_decomposition_target``, to the same bits.
    """
    if not batch:
        raise InputError("decomposition needs a nonempty batch")
    thetas = [score_instance(weights, scenario) for scenario in batch]
    fused = getattr(oracle, "perturbed_split_pass", None)
    if fused is not None:
        return list(fused(thetas, batch, config.kappa, config.epsilon, config.nb_samples, rng))
    return [perturbed_decomposition_target(oracle, theta, scenario, config.kappa,
                                           config.epsilon, config.nb_samples, rng.split(slot))
            for slot, (theta, scenario) in enumerate(zip(thetas, batch))]


def coordination_pass(
    weights: GlmWeights,
    batch: list[Scenario],
    targets: list[np.ndarray],
    oracle: LinearOracle,
    config: TrainConfig,
    rng: RngStream,
) -> GlmWeights:
    """Fit the shared weights to the targets by per-example Adam steps from
    a fresh optimizer state; returns new weights.

    Runs nb_epochs sweeps; every (epoch, example) slot resamples fresh
    perturbation draws from its own sub-stream.  The score-space gradient
    (perturbed maximizer moment minus target) is chained through the GLM
    Jacobian, i.e. the feature matrix.  An oracle with the optional
    ``perturbed_adam_pass`` runs the pass in one native call; any other goes
    through ``perturbed_fy_gradient`` and ``adam_step``, to the same bits.
    """
    if len(batch) != len(targets):
        raise InputError("targets must align with the batch")
    if not batch:
        raise InputError("coordination needs a nonempty batch")
    adam = AdamState(weights)
    examples = [_example(scenario, mu, batch[0].dim, len(adam.weights))
                for scenario, mu in zip(batch, targets)]
    fused = getattr(oracle, "perturbed_adam_pass", None)
    if fused is not None:
        fused(adam, *zip(*examples), config.epsilon, config.nb_samples, config.nb_epochs,
              config.lr_init, rng)
        return adam.weights.copy()
    theta = np.empty(batch[0].dim)
    for epoch in range(config.nb_epochs):
        for slot, (features, mu) in enumerate(examples):
            np.matmul(features, adam.weights, out=theta)
            _, g = perturbed_fy_gradient(oracle, theta, mu, config.epsilon, config.nb_samples,
                                         rng.split(epoch, slot))
            np.matmul(features.T, g, out=adam.gradient)
            try:
                adam_step(adam, config.lr_init)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"non-finite gradient at epoch {epoch}, example {slot}") from exc
    return adam.weights.copy()


def _example(scenario: Scenario, target: np.ndarray, dim: int, width: int) -> tuple:
    """A coordination example's features and target, checked once per pass:
    every scenario of a batch has ``dim`` solution coordinates and ``width``
    features, and its target is ``dim`` finite numbers."""
    if scenario.feature_width != width:
        raise InputError(f"feature width {scenario.feature_width} does not match {width} weights")
    if scenario.dim != dim:
        raise InputError("the scenarios of a batch must share their dimension")
    mu = ensure_finite(target, "target moment")
    if mu.shape != (dim,):
        raise InputError("theta and target dimensions differ")
    return scenario.features, mu


@dataclass(frozen=True)
class WeightTrajectory:
    per_iteration: np.ndarray     # (T, p) weight iterates
    running_average: np.ndarray   # (T, p) cumulative means

    def __post_init__(self):
        if self.per_iteration.shape != self.running_average.shape:
            raise InputError("trajectory arrays must share a shape")

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


def coordination_stream(root: RngStream, t: int) -> RngStream:
    """The coordination pass's stream at outer iteration t of a run keyed on
    ``root``; an imitation fit is that pass at t = 1."""
    return root.split(t, _COORDINATION)


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
        w = coordination_pass(w, batch, targets, oracle, config, coordination_stream(root, t))
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
    (numerically) zero the absolute difference is used instead.  A context
    is priced by one ``evaluator.context_costs(y, scenarios)`` call, or, for
    an evaluator without it, by ``policy_cost`` and ``anticipative_cost``
    per scenario; the two agree bit for bit.
    """
    context_costs = getattr(evaluator, "context_costs", None) or (lambda y, group: (
        np.array([evaluator.policy_cost(y, s) for s in group]),
        np.array([evaluator.anticipative_cost(s) for s in group])))
    positions: dict[int, list[int]] = {}
    for i, scenario in enumerate(data):
        positions.setdefault(scenario.context_id, []).append(i)
    costs, anticipatives = np.empty(len(data)), np.empty(len(data))
    for ctx, rows in positions.items():
        if ctx not in decisions_by_context:
            raise InputError(f"no decision for context {ctx}")
        costs[rows], anticipatives[rows] = context_costs(
            decisions_by_context[ctx], [data.scenarios[i] for i in rows])
    gaps = costs - anticipatives
    np.divide(gaps, np.abs(anticipatives), out=gaps, where=np.abs(anticipatives) > 1e-9)
    return float(np.mean(costs)), float(np.mean(gaps))
