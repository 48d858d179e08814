"""Tabular toy problem: one binary decision, three equally likely noise states.

The cost table is chosen so that the most frequent single-scenario optimum
(y = 0) is the worst decision for the expected cost, which is minimized by
y = 1.
"""

from __future__ import annotations

import numpy as np

from ..core import Dataset, InputError, LinearOracle, Scenario
from ..simplex_lab import CostTable

# Rows are the solutions {0, 1}; columns the scenarios {xi1, xi2, xi3}.
TOY_COSTS = np.array([[4.0, -1.0, -2.0], [0.0, 0.0, 0.0]])
TOY_COSTS.setflags(write=False)

N_TOY_SCENARIOS = TOY_COSTS.shape[1]


def _scenario_index(scenario: Scenario) -> int:
    j = scenario.noise_payload
    if j not in range(N_TOY_SCENARIOS):
        raise InputError(f"toy scenario index must be in 0..{N_TOY_SCENARIOS - 1}")
    return int(j)


def _directions(thetas) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != 1:
        raise InputError("toy directions must form an (m, 1) array")
    return thetas


class ToyOracle(LinearOracle):
    """Linear oracle for the one-dimensional set Y = {0, 1}; ties go to 0."""

    def argmax_linear_many(self, thetas: np.ndarray) -> np.ndarray:
        return (_directions(thetas) > 0.0).astype(float)

    def argmin_shifted_many(self, theta_tildes, kappa, scenario: Scenario) -> np.ndarray:
        j = _scenario_index(scenario)
        # y = 1 strictly wins iff kappa * theta_tilde > cost(1) - cost(0).
        margin = TOY_COSTS[1, j] - TOY_COSTS[0, j]
        return (kappa * _directions(theta_tildes) > margin).astype(float)


def toy_scenarios() -> list[Scenario]:
    """The three tabular scenarios, each with the constant feature 1."""
    feats = np.array([[1.0]])
    return [Scenario(context_id=0, features=feats, noise_payload=j)
            for j in range(N_TOY_SCENARIOS)]


def toy_dataset(split_tag: str = "train") -> Dataset:
    return Dataset(tuple(toy_scenarios()), split_tag)


def toy_cost_table() -> CostTable:
    """Cost score vectors over Y = (0, 1) for the exact simplex laboratory."""
    return CostTable(TOY_COSTS.T.copy())


class ToyEvaluator:
    """True cost and per-scenario anticipative optimum for the toy problem."""

    def policy_cost(self, y: np.ndarray, scenario: Scenario) -> float:
        return float(TOY_COSTS[int(round(float(y[0]))), _scenario_index(scenario)])

    def anticipative_cost(self, scenario: Scenario) -> float:
        return float(TOY_COSTS[:, _scenario_index(scenario)].min())
