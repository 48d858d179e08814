"""Per-iteration, per-trial and per-probe references of the exact lab's loops
(``costru/simplex_lab.py``).

The lab prices the alternating scheme's surrogate in blocks of iterations
and runs the Jensen-gap and five-point checks on stacks of all their trials.
These are the same computations written one step at a time, on one (N, K)
product per call; ``test_simplex_lab.py`` compares the lab with them bit
for bit.
"""

from __future__ import annotations

import numpy as np

from costru.regularizers import prediction_rows, validate_distribution, value_rows
from costru.simplex_lab import (
    AlternatingTrajectory,
    BoundaryError,
    exact_coordination,
    partial_min_surrogate,
    random_interior_product,
)


def jensen_gap_py(q_product: np.ndarray, kind) -> float:
    """(1/N) sum_i Psi(q_i) - Psi(mean q_i) of one (N, K) product."""
    q = validate_distribution(q_product, ndim=2)
    mean_value = float(value_rows(q, kind).mean())
    return mean_value - float(value_rows(q.mean(axis=0)[None, :], kind)[0])


def run_alternating_py(gamma, s0, kappa, kind, max_iters, record_iterates=True):
    """The alternating scheme on a (B, N, K) stack, its partial-min surrogate
    priced at every iteration."""
    b, n, k = gamma.shape
    shifted_costs = gamma / kappa
    s = np.asarray(s0, dtype=float)
    values = np.empty((max_iters, b))
    q_products, scores = [], []
    for t in range(max_iters):
        q = prediction_rows((s[:, None, :] - shifted_costs).reshape(b * n, k), kind)
        q = q.reshape(b, n, k)
        if t == 0:
            first_q = q
        try:
            s = exact_coordination(q, kind, strict=False)
        except BoundaryError as err:
            err.iteration = t + 1
            raise
        values[t] = partial_min_surrogate(q, gamma, kappa, kind)
        if record_iterates:
            q_products.append(q)
            scores.append(s)
    return AlternatingTrajectory(values, q_products, scores, first_q, q)


def check_jensen_gap_convexity_py(kind, n_trials, rng) -> float:
    """Largest convexity violation of the Jensen gap, one trial at a time."""
    g = rng.generator()
    worst = -np.inf
    for _ in range(n_trials):
        qa = random_interior_product(g, 4, 5)
        qb = random_interior_product(g, 4, 5)
        t = float(g.uniform(0.05, 0.95))
        combo = t * qa + (1.0 - t) * qb
        violation = jensen_gap_py(combo, kind) - (
            t * jensen_gap_py(qa, kind) + (1.0 - t) * jensen_gap_py(qb, kind)
        )
        worst = max(worst, violation)
    return float(worst)


def five_point_slack_py(s0, probe_q, gamma, kappa, kind) -> float:
    """Slack of the partial-minimizer five-point inequality at one probe."""
    n = gamma.shape[0]
    q1 = prediction_rows(s0[None, :] - gamma / kappa, kind)
    s1 = exact_coordination(q1, kind, strict=True)
    lhs = partial_min_surrogate(probe_q, gamma, kappa, kind) - partial_min_surrogate(
        q1, gamma, kappa, kind
    )
    rhs = (kappa / n) * (
        float(np.sum(q1 @ s1))
        + float(np.sum(probe_q @ s0))
        - float(np.sum(probe_q @ s1))
        - float(np.sum(q1 @ s0))
    )
    return lhs - rhs


def five_point_check_py(gamma, kappa, kind, probes, rng, score_scale=1.0) -> float:
    """Largest violation of the five-point inequality, one probe at a time."""
    g = rng.generator()
    n, k = gamma.shape
    worst = np.inf
    for _ in range(probes):
        s0 = score_scale * g.standard_normal(k)
        s0 -= s0.mean()
        probe_q = random_interior_product(g, n, k)
        worst = min(worst, five_point_slack_py(s0, probe_q, gamma, kappa, kind))
    return -float(worst)
