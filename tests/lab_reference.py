"""Per-iteration, per-trial and per-probe references of the exact lab's loops
(``costru/simplex_lab.py``).

The lab prices the alternating scheme's surrogate in blocks of iterations
and runs the Jensen-gap and five-point checks on stacks of all their trials.
These are the same computations written one step at a time, on one (N, K)
product per call, with the row-wise maps that the lab's atoms-major loop
replaced: numpy's ``mean`` and per-row sums over the last axis.
``test_simplex_lab.py`` compares the lab with them bit for bit.

The perturbed estimator of ``costru/regularizers.py`` prices a stack of
directions on one draw, in row blocks; ``perturbed_argmax_stats`` here
prices one direction on all its draws at once, and ``ArgmaxOracle`` answers
through ``np.argmax`` of the whole score array.  ``test_regularizers.py``
compares the estimator and ``ExplicitOracle`` with them bit for bit.
"""

from __future__ import annotations

import numpy as np

from costru.core import InputError, ensure_finite, require_perturbation
from costru.regularizers import NEGENTROPY, prediction_rows, validate_distribution
from costru.simplex_lab import (
    INTERIOR_CLAMP,
    AlternatingTrajectory,
    BoundaryError,
    ExplicitOracle,
    random_interior_product,
)


def value_rows(q: np.ndarray, kind) -> np.ndarray:
    """Omega(q) per row, summed along each row."""
    if kind.tag == NEGENTROPY:
        safe = np.where(q > 0.0, q, 1.0)
        return np.sum(q * np.log(safe), axis=1)
    return 0.5 * np.einsum("ij,ij->i", q, q)


def exact_coordination(q: np.ndarray, kind, strict: bool = True) -> np.ndarray:
    """The zero-sum common score whose prediction is the mean of the rows
    of q, per entry of a (B, N, K) stack."""
    q_bar = q.mean(axis=-2)
    if kind.tag == NEGENTROPY:
        if np.any(q_bar < INTERIOR_CLAMP):
            vanished = bool(np.any(q_bar <= 0.0))
            if strict or vanished:
                where = np.argwhere(q_bar <= 0.0 if vanished else q_bar == q_bar.min())[0]
                vertex = int(where[-1])
                instance = int(where[0]) if q_bar.ndim == 2 else None
                of = "" if instance is None else f" of instance {instance}"
                what = "vanishes" if vanished else "below clamp"
                raise BoundaryError(f"mean distribution{of} {what} at vertex {vertex}",
                                    vertex=vertex, instance=instance)
            q_bar = np.maximum(q_bar, INTERIOR_CLAMP)
        s = np.log(q_bar)
    else:
        s = q_bar
    return s - s.mean(axis=-1, keepdims=True)


def partial_min_surrogate(q: np.ndarray, gamma: np.ndarray, kappa: float, kind) -> np.ndarray:
    """The partial-min surrogate of (N, K) rows or of a (..., N, K) stack."""
    n, k = q.shape[-2:]
    cost_part = np.einsum("...ij,...ij->...", gamma, q) / n
    values = value_rows(q.reshape(-1, k), kind).reshape(q.shape[:-1]).sum(axis=-1)
    q_bar = q.mean(axis=-2)
    bar_value = value_rows(q_bar.reshape(-1, k), kind).reshape(q_bar.shape[:-1])
    return cost_part + (kappa / n) * (values - n * bar_value)


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


def perturbed_argmax_stats(oracle, theta, eps, m, rng) -> tuple[float, np.ndarray]:
    """Perturbed maximum and maximizer moment of one (d,) theta from the
    (m, d) tilts, scores and maximizers of all m draws at once."""
    theta = ensure_finite(theta, "theta")
    if theta.ndim != 1:
        raise InputError("theta must be a one-dimensional array")
    require_perturbation(eps, m)
    tilted = theta[None, :] + eps * rng.standard_normal((m, theta.shape[0]))
    ys = oracle.argmax_linear_many(tilted)
    return float(np.einsum("ij,ij->i", tilted, ys).sum() / m), ys.mean(axis=0)


class ArgmaxOracle(ExplicitOracle):
    """``ExplicitOracle`` answering each row through np.argmax of its scores."""

    def argmax_linear_many(self, thetas: np.ndarray) -> np.ndarray:
        return self.matrix.T[np.argmax(self._scores(thetas), axis=1)]
