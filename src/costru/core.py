"""Shared domain types: scenarios, datasets, the linear-maximization oracle
contract, and deterministic randomness plumbing.

All containers are immutable after construction and safe to share across
threads.  Oracles must be callable concurrently (no interior mutation).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

# Solution vectors y live in R^d (binary 0/1 in both experiments); score
# directions theta live in the same space.  Both are plain float arrays.
SolutionVector = np.ndarray
ScoreDirection = np.ndarray


class InputError(ValueError):
    """Raised when an operation receives structurally invalid input."""


def ensure_finite(x: np.ndarray, name: str = "input") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise InputError(f"{name} contains non-finite entries")
    return x


@dataclass(frozen=True)
class Scenario:
    """One (context, noise) training pair, the atom of every dataset.

    ``features`` has one row per solution coordinate (d rows, p columns).
    ``noise_payload`` is problem-specific and opaque to this module.
    """

    context_id: int
    features: np.ndarray
    noise_payload: Any

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2:
            raise InputError("features must be a (d, p) matrix")
        object.__setattr__(self, "features", feats)
        self.features.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def feature_width(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Dataset:
    scenarios: tuple[Scenario, ...]
    split_tag: str = "train"

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise InputError("dataset must contain at least one scenario")
        if self.split_tag not in ("train", "val", "test"):
            raise InputError(f"unknown split tag {self.split_tag!r}")
        widths = {s.feature_width for s in self.scenarios}
        if len(widths) != 1:
            raise InputError(f"scenarios disagree on feature width: {sorted(widths)}")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    @property
    def feature_width(self) -> int:
        return self.scenarios[0].feature_width

    def by_context(self) -> dict[int, list[Scenario]]:
        """Group scenarios by context id, preserving insertion order."""
        groups: dict[int, list[Scenario]] = {}
        for s in self.scenarios:
            groups.setdefault(s.context_id, []).append(s)
        return groups


@dataclass(frozen=True)
class RngStream:
    """Reproducible, independent random stream.

    Identical (seed, stream_id, path) always reproduce identical draw
    sequences; distinct ids give statistically independent streams
    (SeedSequence spawn-key construction).  ``generator()`` returns a fresh
    generator each call, so two calls on the same stream see the same
    draws -- this is what makes common-random-number estimator pairing and
    processing-order independence trivial.
    """

    seed: int
    stream_id: int = 0
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *self.path))
        return np.random.default_rng(ss)

    def split(self, *ids: int) -> "RngStream":
        """Derive a child stream; children with distinct ids are independent."""
        return RngStream(self.seed, self.stream_id, self.path + ids)


def make_rng(seed: int, stream_id: int = 0) -> RngStream:
    return RngStream(int(seed), int(stream_id))


class LinearOracle(ABC):
    """Behavioral contract for linear maximization over a solution set Y(x).

    Implementations must be deterministic given inputs, with ties broken
    lowest-index-first, and must always return elements of Y(x).
    """

    @abstractmethod
    def argmax_linear(self, theta: ScoreDirection) -> SolutionVector:
        """Solve max_{y in Y(x)} <theta|y>."""

    @abstractmethod
    def argmin_shifted(
        self, theta_tilde: ScoreDirection, kappa: float, scenario: Scenario
    ) -> SolutionVector:
        """Solve min_{y in Y(x)} c(x, y, xi) - kappa * <theta_tilde|y>."""

    # Batched entry points used by the Monte-Carlo estimators.  The default
    # implementations loop; problem modules override them when a vectorized
    # form is available.

    def argmax_linear_many(self, thetas: np.ndarray) -> np.ndarray:
        return np.array([self.argmax_linear(t) for t in thetas], dtype=float)

    def argmin_shifted_many(
        self, theta_tildes: np.ndarray, kappa: float, scenario: Scenario
    ) -> np.ndarray:
        return np.array(
            [self.argmin_shifted(t, kappa, scenario) for t in theta_tildes], dtype=float
        )


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex (sort method)."""
    v = np.asarray(v, dtype=float)
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, n + 1) > css)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def nearest_point_in_hull_sq(candidate: np.ndarray, others: np.ndarray,
                             max_iters: int = 5000) -> float:
    """Squared distance from ``candidate`` to conv(rows of ``others``).

    Solved as min over simplex weights of ||candidate - others^T w||^2 with
    an accelerated projected-gradient method; no LP dependency, desk scale
    only.
    """
    o = np.asarray(others, dtype=float)  # (k, d)
    c = np.asarray(candidate, dtype=float)
    k = o.shape[0]
    gram = o @ o.T
    lin = o @ c
    lip = 2.0 * max(np.linalg.norm(gram, 2), 1e-12)
    w = np.full(k, 1.0 / k)
    z = w.copy()
    t_acc = 1.0
    f_prev = np.inf
    for _ in range(max_iters):
        grad = 2.0 * (gram @ z - lin)
        w_next = project_to_simplex(z - grad / lip)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        z = w_next + ((t_acc - 1.0) / t_next) * (w_next - w)
        w, t_acc = w_next, t_next
        diff = c - o.T @ w
        f = float(diff @ diff)
        if abs(f_prev - f) < 1e-16 * (1.0 + abs(f)):
            break
        f_prev = f
    diff = c - o.T @ w
    return float(diff @ diff)


def is_exposed_vertex(candidate: np.ndarray, others: Sequence[np.ndarray]) -> bool:
    """True iff ``candidate`` is not a convex combination of ``others``.

    Membership is declared when the nearest-point-in-hull squared distance
    falls below 1e-9.  Desk-scale only (|others| up to ~1e4).
    """
    c = ensure_finite(candidate, "candidate")
    if len(others) == 0:
        return True
    o = np.asarray(others, dtype=float)
    if o.ndim != 2 or o.shape[1] != c.shape[0]:
        raise InputError("candidate and others must share one dimension")
    return nearest_point_in_hull_sq(c, o) >= 1e-9


@dataclass(frozen=True)
class CheckRow:
    """One line of a verification report (machine readable).

    ``measured`` is the quantity named by ``check`` (a slack, deviation, or
    violation); ``passed`` encodes the comparison direction, which depends
    on the check.
    """

    check: str
    seed: int
    measured: float
    threshold: float
    passed: bool

    @staticmethod
    def csv_header() -> list[str]:
        return ["check", "instance_seed", "measured_slack", "threshold", "pass"]

    def csv_row(self) -> list[str]:
        return [
            self.check,
            str(self.seed),
            format(self.measured, ".17g"),
            format(self.threshold, ".17g"),
            str(int(self.passed)),
        ]
