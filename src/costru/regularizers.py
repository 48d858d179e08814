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


def validate_distribution(q: np.ndarray, tol: float = 1e-12, ndim: int = 1) -> np.ndarray:
    """Check q is a probability vector (entries >= 0, sums to 1 within tol),
    or with ``ndim=2`` an (N, |Y|) stack of them, one per row."""
    q = ensure_finite(q, "distribution")
    if q.ndim != ndim:
        raise InputError("distribution must be one-dimensional" if ndim == 1
                         else "a product distribution must be an (N, |Y|) array")
    if np.any(q < -tol):
        raise InputError("distribution has negative entries")
    sums = q.sum(axis=-1)
    off = np.abs(sums - 1.0) > max(tol, 1e-12 * q.shape[-1])
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


def value_rows(q: np.ndarray, kind: RegularizerKind) -> np.ndarray:
    """Omega(q) per row: sum q log q with 0 log 0 = 0, or ||q||^2 / 2."""
    if kind.tag == NEGENTROPY:
        safe = np.where(q > 0.0, q, 1.0)
        return np.sum(q * np.log(safe), axis=1)
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

def _standard_normal_draws(rng: RngStream, m: int, d: int) -> np.ndarray:
    return rng.generator().standard_normal((m, d))


def _perturbed_argmax_stats(
    oracle: LinearOracle, theta: np.ndarray, eps: float, m: int, rng: RngStream
) -> tuple[float, np.ndarray]:
    """Shared-draw (value, moment) pair for the perturbed maximum.

    An oracle with the optional fused entry ``perturbed_stats(theta, eps, m,
    rng)`` answers from one call that also draws the m normals z_r of rng:
    the row values <theta + eps z_r | y_r> and the mean of the maximizers
    y_r.
    """
    theta = ensure_finite(theta, "theta")
    if eps <= 0:
        raise InputError("eps must be positive")
    if m < 1:
        raise InputError("sample count must be >= 1")
    fused = getattr(oracle, "perturbed_stats", None)
    if fused is not None:
        values, moment = fused(theta, eps, m, rng)
    else:
        z = _standard_normal_draws(rng, m, theta.shape[0])
        tilted = theta[None, :] + eps * z
        ys = oracle.argmax_linear_many(tilted)
        values, moment = np.einsum("ij,ij->i", tilted, ys), ys.mean(axis=0)
    # values.mean() bit for bit, without np.mean's Python overhead.
    return float(values.sum() / m), moment


def perturbed_max_value(
    oracle: LinearOracle, theta: np.ndarray, eps: float, m: int, rng: RngStream
) -> float:
    """Monte-Carlo estimate of E[max_y <theta + eps Z | y>]."""
    value, _ = _perturbed_argmax_stats(oracle, theta, eps, m, rng)
    return value


def perturbed_maximizer_moment(
    oracle: LinearOracle, theta: np.ndarray, eps: float, m: int, rng: RngStream
) -> np.ndarray:
    """Monte-Carlo estimate of E[argmax_y <theta + eps Z | y>]; lies in conv(Y)."""
    _, moment = _perturbed_argmax_stats(oracle, theta, eps, m, rng)
    return moment


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
    target_mu = ensure_finite(target_mu, "target moment")
    if target_mu.shape != np.shape(theta):
        raise InputError("theta and target dimensions differ")
    value, moment = _perturbed_argmax_stats(oracle, theta, eps, m, rng)
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
    theta = ensure_finite(theta, "theta")
    if kappa <= 0:
        raise InputError("kappa must be positive")
    if eps <= 0:
        raise InputError("eps must be positive")
    z = _standard_normal_draws(rng, m, theta.shape[0])
    tilted = theta[None, :] + eps * z
    ys = oracle.argmin_shifted_many(tilted, kappa, scenario)
    return ys.mean(axis=0)
