"""Shared domain types: scenarios, datasets, the linear-maximization oracle
contract, and deterministic randomness plumbing.

All containers are immutable after construction and safe to share across
threads.  Oracles must be callable concurrently (no interior mutation).
"""

from __future__ import annotations

import zipfile
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import native

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


def read_npz(path, keys) -> dict[str, np.ndarray]:
    """The arrays named in ``keys`` that the npz archive at ``path`` holds,
    in the order of ``keys``; a file that is not an npz archive (text, an
    empty or broken zip, an npy array) raises ``InputError``."""
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("an npy array, not an npz archive")
        with data:
            return {key: data[key] for key in keys if key in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise InputError(f"cannot read {path} as an npz archive: {exc}") from exc


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
    """Scenarios of one split.  A context is one feature matrix: every
    scenario of a context id carries the same features, so a policy takes
    one decision per context."""

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
        for ctx, (first, *rest) in self.by_context().items():
            if any(s.features is not first.features
                   and not np.array_equal(s.features, first.features) for s in rest):
                raise InputError(f"the scenarios of context {ctx} disagree on their features")

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
    sequences; distinct ids give statistically independent streams.  The
    stream is numpy's default generator seeded by the seed sequence of
    ``seed`` with spawn key ``(stream_id, *path)``.  ``generator()`` returns
    a fresh generator each call, so two calls on the same stream see the
    same draws -- this is what makes common-random-number estimator pairing
    and processing-order independence trivial.
    """

    seed: int
    stream_id: int = 0
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        key = (self.stream_id, *self.path)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))

    def standard_normal(self, shape) -> np.ndarray:
        """``generator().standard_normal(shape)`` bit for bit, drawn by the
        native library in one call from the stream's entropy words."""
        out = np.empty(shape)
        key = native.entropy(self.seed, (self.stream_id, *self.path))
        native._compiled_kernel().normal_fill(key, len(key) // 4, out.size, out.ctypes.data)
        return out

    def split(self, *ids: int) -> "RngStream":
        """Derive a child stream; children with distinct ids are independent."""
        return RngStream(self.seed, self.stream_id, self.path + ids)


def make_rng(seed: int, stream_id: int = 0) -> RngStream:
    return RngStream(int(seed), int(stream_id))


def _one_row(theta: ScoreDirection) -> np.ndarray:
    row = np.asarray(theta, dtype=float)
    if row.ndim != 1:
        raise InputError("a single direction must be a one-dimensional array")
    return row[None, :]


def direction_rows(thetas, d: int, kappa: float = 0.0) -> np.ndarray:
    """The input rule of every batched oracle entry: ``thetas`` as an (m, d)
    array of finite floats, and a finite ``kappa`` (0 included: the
    anticipative solves use it)."""
    thetas = ensure_finite(thetas, "theta")
    if thetas.ndim != 2 or thetas.shape[1] != d:
        raise InputError(f"directions must form an (m, {d}) array")
    if not np.isfinite(kappa):
        raise InputError(f"kappa must be finite, not {kappa!r}")
    return thetas


class LinearOracle(ABC):
    """Behavioral contract for linear maximization over a solution set Y(x).

    Batch-first: an implementation answers an (m, d) stack of directions
    with an (m, d) stack of solutions, row r being the answer to row r, and
    a single-direction call is row 0 of the batched one.  Implementations
    must be deterministic given inputs, with ties broken lowest-index-first,
    and must always return elements of Y(x).  The two optional entries are
    the fused passes ``perturbed_adam_pass`` and ``perturbed_split_pass``
    (see ``MstOracle``); the base class has no default, and an oracle may
    offer either as None.
    """

    @abstractmethod
    def argmax_linear_many(self, thetas: np.ndarray) -> np.ndarray:
        """Row r solves max_{y in Y(x)} <thetas[r]|y>."""

    @abstractmethod
    def argmin_shifted_many(
        self, theta_tildes: np.ndarray, kappa: float, scenario: Scenario
    ) -> np.ndarray:
        """Row r solves min_{y in Y(x)} c(x, y, xi) - kappa * <theta_tildes[r]|y>."""

    def argmax_linear(self, theta: ScoreDirection) -> SolutionVector:
        return self.argmax_linear_many(_one_row(theta))[0]

    def argmin_shifted(
        self, theta_tilde: ScoreDirection, kappa: float, scenario: Scenario
    ) -> SolutionVector:
        return self.argmin_shifted_many(_one_row(theta_tilde), kappa, scenario)[0]


def require_samples(minimum: int = 1, **counts: int) -> None:
    """Reject a verification suite's sample count below ``minimum``: rows
    computed from no samples would pass without checking anything."""
    for name, count in counts.items():
        if count < minimum:
            raise InputError(f"{name} must be >= {minimum}, not {count}")


def require_positive(name: str, value: float) -> None:
    """Reject a ``value`` that is not finite and positive (NaN and inf too)."""
    if not (np.isfinite(value) and value > 0):
        raise InputError(f"{name} must be a finite positive number, not {value!r}")


def require_perturbation(eps: float, m: int) -> None:
    """Reject an eps that is not finite and positive, and fewer than one draw."""
    require_positive("eps", eps)
    require_samples(m=m)


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
