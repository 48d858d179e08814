"""Regularization on distribution simplexes and moment polytopes.

Exact machinery (negentropy / squared-Euclidean on explicitly enumerated
sets): values, conjugates, gradients of conjugates, and Fenchel-Young
losses.  Monte-Carlo machinery (sparse perturbation): perturbed maxima and
maximizer moments through a linear oracle, with explicit rng streams so
that value and gradient estimators can share draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    InputError,
    LinearOracle,
    RngStream,
    Scenario,
    ensure_finite,
    require_perturbation,
    require_positive,
)

NEGENTROPY = "negentropy"
SQUARED_L2 = "squared_l2"


@dataclass(frozen=True)
class RegularizerKind:
    """One of the two exact regularizers on an explicit set.

    The sparse perturbation has no exact map; its scale and draw count are
    arguments of the Monte-Carlo functions below.
    """

    tag: str

    def __post_init__(self):
        if self.tag not in (NEGENTROPY, SQUARED_L2):
            raise InputError(f"unknown regularizer tag {self.tag!r}")

    @staticmethod
    def negentropy() -> "RegularizerKind":
        return RegularizerKind(NEGENTROPY)

    @staticmethod
    def squared_l2() -> "RegularizerKind":
        return RegularizerKind(SQUARED_L2)


def validate_distribution(q: np.ndarray, ndim: int = 1) -> np.ndarray:
    """Check q is a probability vector (entries >= -1e-12, sums to 1 within
    1e-12 per entry), or with ``ndim=2`` an (N, |Y|) stack of them, one per
    row."""
    q = ensure_finite(q, "distribution")
    if q.ndim != ndim:
        raise InputError("distribution must be one-dimensional" if ndim == 1
                         else "a product distribution must be an (N, |Y|) array")
    if np.any(q < -1e-12):
        raise InputError("distribution has negative entries")
    sums = q.sum(axis=-1)
    off = np.abs(sums - 1.0) > 1e-12 * max(1, q.shape[-1])
    if np.any(off):
        raise InputError(f"distribution sums to {sums[off][0]!r}, not 1")
    return q


# ---------------------------------------------------------------------------
# Exact maps on explicit sets, one row per score or distribution vector
# ---------------------------------------------------------------------------
# The maps take (N, K) arrays and are unchecked: callers validate input that
# comes from outside.  A single vector is row 0 of a (1, K) array.

def prediction_rows(scores: np.ndarray, kind: RegularizerKind) -> np.ndarray:
    """Regularized prediction per row, the gradient of the conjugate:
    softmax (negentropy) or the Euclidean projection onto the simplex,
    sparsemax (squared l2)."""
    if kind.tag == NEGENTROPY:
        shifted = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    n, k = scores.shape
    u = np.sort(scores, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    support = u * np.arange(1, k + 1) > css
    rho = k - 1 - np.argmax(support[:, ::-1], axis=1)
    tau = css[np.arange(n), rho] / (rho + 1.0)
    return np.maximum(scores - tau[:, None], 0.0)


def negentropy_terms(q: np.ndarray) -> np.ndarray:
    """q log q entrywise, 0 log 0 = 0: the terms of the negentropy."""
    return q * np.log(np.where(q > 0.0, q, 1.0))


def value_rows(q: np.ndarray, kind: RegularizerKind) -> np.ndarray:
    """Omega(q) per row: sum q log q with 0 log 0 = 0, or ||q||^2 / 2."""
    if kind.tag == NEGENTROPY:
        return np.add.reduce(negentropy_terms(q), axis=1)
    return 0.5 * np.einsum("ij,ij->i", q, q)


def conjugate_rows(scores: np.ndarray, kind: RegularizerKind) -> np.ndarray:
    """Omega*(s) per row: log-sum-exp, or max over the simplex of
    <s|q> - ||q||^2 / 2 through the projection."""
    if kind.tag == NEGENTROPY:
        m = scores.max(axis=1)
        return m + np.log(np.exp(scores - m[:, None]).sum(axis=1))
    p = prediction_rows(scores, kind)
    return np.einsum("ij,ij->i", scores, p) - 0.5 * np.einsum("ij,ij->i", p, p)


def fy_loss_exact(
    s: np.ndarray, target_q: np.ndarray, kind: RegularizerKind
) -> tuple[float, np.ndarray]:
    """Fenchel-Young loss and its score gradient on an explicit set.

    value = Omega*(s) + Omega(target) - <s|target> >= 0, zero exactly when
    the target equals the regularized prediction; gradient is the
    prediction minus the target.  For the negentropy the value is the
    Kullback-Leibler divergence KL(target || softmax(s)).
    """
    s = ensure_finite(s, "score")
    target_q = validate_distribution(target_q)
    if s.shape != target_q.shape:
        raise InputError("score and target dimensions differ")
    row, target_row = s[None, :], target_q[None, :]
    value = (float(conjugate_rows(row, kind)[0]) + float(value_rows(target_row, kind)[0])
             - float(s @ target_q))
    gradient = prediction_rows(row, kind)[0] - target_q
    return value, gradient


# ---------------------------------------------------------------------------
# Monte-Carlo maps through a linear oracle (sparse perturbation)
# ---------------------------------------------------------------------------

_DRAW_BLOCK = 4096  # draws whose tilts, scores and maximizers exist at once


def _scaled_draws(rng: RngStream, theta, eps: float, m: int, stack: bool = False):
    """A finite (d,) theta, or with ``stack`` an (n, d) stack too, and eps
    times the (m, d) standard normal draws of rng."""
    theta = ensure_finite(theta, "theta")
    if theta.ndim != 1 and not (stack and theta.ndim == 2):
        raise InputError("theta must be a one-dimensional array"
                         + (" or an (n, d) stack of them" if stack else ""))
    require_perturbation(eps, m)
    noise = rng.standard_normal((m, theta.shape[-1]))
    noise *= eps
    return theta, noise


def perturbed_argmax_stats(
    oracle: LinearOracle, theta: np.ndarray, eps: float, m: int, rng: RngStream
) -> tuple[float, np.ndarray] | tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimates, from one set of m draws, of the perturbed
    maximum E[max_y <theta + eps Z | y>] and of its gradient, the maximizer
    moment E[argmax_y <theta + eps Z | y>], which lies in conv(Y): the means
    of the row values <theta + eps z_r | y_r> and of the maximizers y_r.

    A (d,) theta gives a float and a (d,) moment; an (n, d) stack gives (n,)
    values and (n, d) moments, all on the same draws.  Each direction runs
    over the draws in row blocks, to the bits of all m rows at once for an
    oracle whose answer to a row does not depend on the rows around it."""
    theta, noise = _scaled_draws(rng, theta, eps, m, stack=True)
    thetas = np.atleast_2d(theta)
    # The last block takes up a row that would be left alone: OpenBLAS
    # prices a one-row matrix product on another path, which can round otherwise.
    starts = range(0, max(m - 1, 1), _DRAW_BLOCK)
    blocks = list(zip(starts, [*starts[1:], m]))
    values, moments, row_values = np.empty(len(thetas)), np.empty(thetas.shape), np.empty(m)
    # A column of maximizers is summed pairwise as a whole; wider rows add
    # up left to right, so a running sum in front of each block keeps them.
    column = np.empty((m, 1)) if thetas.shape[1] == 1 else None
    for i, direction in enumerate(thetas):
        total = None
        for start, stop in blocks:
            tilted = direction + noise[start:stop]
            ys = oracle.argmax_linear_many(tilted)
            np.einsum("ij,ij->i", tilted, ys, out=row_values[start:stop])
            if column is None:
                total = np.add.reduce(ys if total is None else np.vstack([total, ys]), axis=0)
            else:
                column[start:stop] = ys
        # The means of the rows bit for bit, without np.mean's Python overhead.
        values[i] = row_values.sum() / m
        moments[i] = (total if column is None else np.add.reduce(column, axis=0)) / m
    return (float(values[0]), moments[0]) if theta.ndim == 1 else (values, moments)


def perturbed_fy_gradient(
    oracle: LinearOracle,
    theta: np.ndarray,
    target_mu: np.ndarray,
    eps: float,
    m: int,
    rng: RngStream,
) -> tuple[float, np.ndarray]:
    """Shifted perturbed Fenchel-Young loss and its gradient in theta.

    The loss drops the theta-independent (and intractable) regularizer value
    at the target, hence "shifted"; the gradient is unaffected.  Value and
    gradient are computed from one common set of draws.
    """
    if np.ndim(theta) != 1:  # perturbed_argmax_stats alone takes a stack
        raise InputError("theta must be a one-dimensional array")
    target_mu = ensure_finite(target_mu, "target moment")
    if target_mu.shape != np.shape(theta):
        raise InputError("theta and target dimensions differ")
    value, moment = perturbed_argmax_stats(oracle, theta, eps, m, rng)
    loss_shifted = value - float(np.dot(theta, target_mu))
    gradient = moment - target_mu
    return loss_shifted, gradient


def perturbed_decomposition_target(
    oracle: LinearOracle,
    theta: np.ndarray,
    scenario: Scenario,
    kappa: float,
    eps: float,
    m: int,
    rng: RngStream,
) -> np.ndarray:
    """Per-scenario primal target: E_Z[argmin_y c(y, xi) - kappa <theta + eps Z | y>].

    Only ever evaluates the cost at combinatorial points, never in the hull
    interior; the returned average lies in conv(Y(x)).
    """
    require_positive("kappa", kappa)
    theta, noise = _scaled_draws(rng, theta, eps, m)
    return oracle.argmin_shifted_many(theta + noise, kappa, scenario).mean(axis=0)
