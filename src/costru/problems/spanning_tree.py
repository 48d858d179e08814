"""Contextual two-stage minimum weight spanning tree on grid graphs.

First-stage decisions are forests; the second stage completes them into a
spanning tree at scenario-dependent edge costs.  The single-scenario
problem reduces to one minimum spanning tree under the per-edge minimum of
the (shifted) stage costs, because y + z must form a spanning tree and any
sub-forest of a tree is feasible as its first stage; stage attribution per
chosen edge goes to the cheaper stage, ties to stage one.

Every oracle question -- forest argmax, two-stage split, second-stage
completion, a coordination pass of perturbed forests -- is one call into
the compiled Kruskal kernel of ``costru.native``; there is no second one.
The Python functions here check shapes and dtypes, and read the kernel's
output buffers.  ``is_forest`` and the enumerators at the end (0/1 matrices
of a small graph's forests and spanning pairs) are independent references.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .. import native
from ..core import (InputError, LinearOracle, RngStream, Scenario, direction_rows,
                    require_perturbation, require_positive)


class InfeasibleError(RuntimeError):
    """The graph cannot be spanned (disconnected input)."""


def grid_edge_count(rows: int, cols: int) -> int:
    """The number of edges of the rows x cols 4-neighbor grid."""
    return rows * (cols - 1) + (rows - 1) * cols


def grid_edges(rows: int, cols: int) -> np.ndarray:
    """4-neighbor grid edges as a read-only (E, 2) int64 array of endpoints,
    horizontal block first, row-major within each."""
    if rows < 1 or cols < 1:
        raise InputError("grid dimensions must be positive")
    nodes = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    edges = np.concatenate([
        np.stack([nodes[:, :-1].ravel(), nodes[:, 1:].ravel()], axis=1),
        np.stack([nodes[:-1, :].ravel(), nodes[1:, :].ravel()], axis=1),
    ])
    edges.setflags(write=False)
    return edges


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


_DISCONNECTED = "graph is disconnected"
_NO_COMPLETION = "graph is disconnected; no spanning completion"


def _status(status: int, disconnected: str = _DISCONNECTED) -> int:
    """A Kruskal entry's status; raise what a negative one (see
    ``_native.c``) means."""
    if status >= 0:
        return status
    if status == -1:
        raise MemoryError("no workspace for the Kruskal kernel")
    if status == -2:
        raise InputError("edge endpoints must lie in [0, n_nodes)")
    if status == -3:
        raise InputError("weights must be finite")
    if status == -4:
        raise InfeasibleError(disconnected)
    raise InputError("first-stage selection contains a cycle")


def _kernel(entry: str, *args, disconnected: str = _DISCONNECTED) -> int:
    """Call an entry of the Kruskal kernel and check its status."""
    return _status(getattr(native._compiled_kernel(), entry)(*args), disconnected)


def _check_edges(edges: np.ndarray) -> None:
    """The one edge format, which the kernel reads in place."""
    if not (isinstance(edges, np.ndarray) and edges.dtype == np.int64 and edges.ndim == 2
            and edges.shape[1] == 2 and edges.flags.c_contiguous):
        raise InputError("edges must be a C-contiguous (E, 2) int64 array")


def _rows(values, n_edges: int, n_nodes: int) -> np.ndarray:
    """``values`` as a C-contiguous (m, E) float64 array for the kernel."""
    rows = np.ascontiguousarray(values, dtype=np.float64)
    if n_nodes < 1:
        raise InputError("a graph needs at least one node")
    if rows.ndim != 2 or rows.shape[1] != n_edges:
        raise InputError("keys need one column per edge")
    return rows


def is_forest(y: np.ndarray, edges: np.ndarray, n_nodes: int) -> bool:
    """Whether the edges with y > 0.5 are acyclic; y has one entry per edge."""
    _check_edges(edges)
    y = np.asarray(y, dtype=float)
    if y.shape != (len(edges),):
        raise InputError("y needs one entry per edge")
    parent = list(range(n_nodes))
    for (u, v), flag in zip(edges.tolist(), y.tolist()):
        if flag > 0.5:
            ru = _find(parent, u)
            rv = _find(parent, v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True


def max_weight_forests(weights: np.ndarray, edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Row-wise maximum-total-weight forests of an (m, E) weight array:
    greedy by decreasing weight, ties by index, skipping cycles and edges
    with weight <= 0."""
    _check_edges(edges)
    w = _rows(weights, len(edges), n_nodes)
    out = np.empty(w.shape)
    _kernel("forest_rows", w.ctypes.data, edges.ctypes.data, w.shape[0], w.shape[1], n_nodes,
            out.ctypes.data)
    return out


def second_stage_value(
    y: np.ndarray, second_stage_costs: np.ndarray, edges: np.ndarray, n_nodes: int
) -> float | np.ndarray:
    """Cost of the cheapest completion of the forest y into a spanning tree.

    Kruskal with y's own edges first, whatever they cost, then the other
    edges in increasing second-stage cost.  Returns a float for an (E,)
    cost vector, and for a (K, E) stack of costs a (K,) array whose entry
    k is the call on row k: row 0 of ``second_stage_values``.
    """
    _check_edges(edges)
    d = np.asarray(second_stage_costs, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != (len(edges),):
        raise InputError("y needs one entry per edge")
    values = second_stage_values(y[None, :], d[None, :] if d.ndim == 1 else d, edges, n_nodes)[0]
    return float(values[0]) if d.ndim == 1 else values


def second_stage_values(
    ys: np.ndarray, second_stage_costs: np.ndarray, edges: np.ndarray, n_nodes: int
) -> np.ndarray:
    """The completion costs of each forest row of ys (n, E) under each row of
    the (K, E) second-stage costs, in one kernel call: an (n, K) array.
    Each cost row is sorted once; a forest's completion then takes its own
    edges in index order, then the row's other edges in sorted order, and
    the kernel sums each completion's costs, in selection order, in numpy's
    pairwise order.  The first forest that has a cycle or cannot be
    completed raises: ``InputError`` for a cycle, else ``InfeasibleError``."""
    _check_edges(edges)
    ys = _rows(ys, len(edges), n_nodes)
    d = _rows(second_stage_costs, len(edges), n_nodes)
    out = np.empty((len(ys), len(d)))
    _kernel("completion_sums", ys.ctypes.data, len(ys), d.ctypes.data, len(d),
            edges.ctypes.data, len(edges), n_nodes, out.ctypes.data, disconnected=_NO_COMPLETION)
    return out


def two_stage_splits(
    eff: np.ndarray, second: np.ndarray, edges: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (y, z) splits of an (m, E) array of effective first-stage
    costs against second-stage costs, one (E,) vector or an (m, E) array:
    row r minimizes <eff[r]|y> + <second|z> over spanning pairs by one
    Kruskal pass under the per-edge minimum of the two stage costs, each
    chosen edge going to the cheaper stage (ties to stage one)."""
    _check_edges(edges)
    eff = _rows(eff, len(edges), n_nodes)
    d = np.ascontiguousarray(second, dtype=np.float64)
    if d.shape != eff.shape and d.shape != eff.shape[1:]:
        raise InputError("second-stage costs need shape (E,) or (m, E)")
    yz = np.empty((2, *eff.shape))  # y rows, then z rows: one buffer to pass
    _kernel("split_rows", eff.ctypes.data, d.ctypes.data, d.shape[-1] * (d.ndim - 1),
            edges.ctypes.data, eff.shape[0], eff.shape[1], n_nodes, yz.ctypes.data)
    return yz[0], yz[1]


@dataclass(frozen=True)
class TwoStageCosts:
    """Noise payload for one spanning-tree scenario."""

    first_stage: np.ndarray
    second_stage: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.first_stage, dtype=float)
        d = np.asarray(self.second_stage, dtype=float)
        if c.shape != d.shape or c.ndim != 1:
            raise InputError("stage cost vectors must share one edge dimension")
        object.__setattr__(self, "first_stage", c)
        object.__setattr__(self, "second_stage", d)
        c.setflags(write=False)
        d.setflags(write=False)


@dataclass(frozen=True)
class GridInstance:
    rows: int
    cols: int
    first_stage_costs: np.ndarray   # (E,)
    features: np.ndarray            # (E, p)
    scenario_costs: np.ndarray      # (K, E) second-stage costs

    def __post_init__(self):
        expected = grid_edge_count(self.rows, self.cols)
        if self.first_stage_costs.shape != (expected,):
            raise InputError("first-stage cost vector does not match the grid")
        if self.features.shape[0] != expected:
            raise InputError("feature rows do not match the edge count")
        if self.scenario_costs.ndim != 2 or self.scenario_costs.shape[1] != expected:
            raise InputError("scenario costs do not match the edge count")
        arrays = (self.first_stage_costs, self.features, self.scenario_costs)
        if not all(np.all(np.isfinite(arr)) for arr in arrays):
            raise InputError("costs and features must be finite")
        if np.any(self.scenario_costs <= 0.0):
            raise InputError("second-stage costs must be positive")
        for arr in arrays:
            arr.setflags(write=False)

    @property
    def n_edges(self) -> int:
        return self.first_stage_costs.shape[0]

    @property
    def n_scenarios(self) -> int:
        return self.scenario_costs.shape[0]

    def scenario(self, context_id: int, k: int) -> Scenario:
        payload = TwoStageCosts(self.first_stage_costs, self.scenario_costs[k])
        return Scenario(context_id=context_id, features=self.features, noise_payload=payload)


class MstOracle(LinearOracle):
    """Linear oracle over the forests of a fixed grid graph."""

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.edges = grid_edges(rows, cols)
        self.n_nodes = rows * cols
        self.n_edges = len(self.edges)

    def argmax_linear_many(self, thetas: np.ndarray) -> np.ndarray:
        return max_weight_forests(thetas, self.edges, self.n_nodes)

    @property
    def perturbed_adam_pass(self):
        """The optional fused coordination pass, ``_adam_pass``, offered only
        where numpy's BLAS entries resolve; otherwise None."""
        return self._adam_pass if native._numpy_blas() is not None else None

    @property
    def perturbed_split_pass(self):
        """The optional fused decomposition pass, ``_split_pass``, offered
        only where numpy's BLAS entries resolve; otherwise None."""
        return self._split_pass if native._numpy_blas() is not None else None

    def _adam_pass(self, adam, features, targets, eps: float, m: int, n_epochs: int,
                   lr: float, rng: RngStream) -> None:
        """The coordination pass in one native call: per epoch and slot s,
        theta = F w for F = ``features[s]``, the mean of the maximum-weight
        forests of theta + eps * z for the (m, E) normals z of
        ``rng.split(epoch, s)``, and one in-place Adam step of ``adam`` (a
        ``trainer.AdamState``) from F^T (mean - ``targets[s]``), the products
        being numpy's matmul through numpy's BLAS.  A non-finite tilt raises
        ``InputError``, a non-finite gradient ``FloatingPointError``."""
        n_features = len(adam.weights)
        features = [np.ascontiguousarray(f, dtype=np.float64) for f in features]
        targets = [np.ascontiguousarray(mu, dtype=np.float64) for mu in targets]
        if len(features) != len(targets) or any(
                f.shape != (self.n_edges, n_features) or mu.shape != (self.n_edges,)
                for f, mu in zip(features, targets)):
            raise InputError("each example needs (E, p) features and an (E,) target")
        require_perturbation(eps, m)
        key = native.entropy(rng.seed, (rng.stream_id, *rng.path))
        pointers, step = ctypes.c_void_p * len(features), ctypes.c_int64()
        status = native._compiled_kernel().perturbed_adam_pass(
            pointers(*(f.ctypes.data for f in features)),
            pointers(*(mu.ctypes.data for mu in targets)), len(features), n_epochs,
            n_features, key, len(key) // 4, eps, m, self.edges.ctypes.data, self.n_edges,
            self.n_nodes, adam.address, adam.step_count, lr, adam.beta1, adam.beta2,
            adam.eps_adam, native._numpy_blas(), native._cpu_count() > 1, ctypes.byref(step))
        adam.step_count += step.value
        if status == -6:
            epoch, slot = divmod(step.value, len(features))
            raise FloatingPointError(f"non-finite gradient at epoch {epoch}, example {slot}")
        _status(status)

    def _split_pass(self, weights, batch, kappa: float, eps: float, m: int,
                    rng: RngStream) -> np.ndarray:
        """The decomposition pass in one native call: row s of the (S, E)
        result is the mean over the (m, E) normals z of ``rng.split(s)`` of
        the first stages of the two-stage splits of ``batch[s]`` under
        c - kappa * (theta + eps * z), theta = F w being numpy's matmul of the
        scenario's features through numpy's BLAS.  A non-finite theta or
        tilt raises ``InputError``."""
        w = np.ascontiguousarray(weights, dtype=np.float64)
        features = [np.ascontiguousarray(s.features, dtype=np.float64) for s in batch]
        if any(f.shape != (self.n_edges, len(w)) for f in features):
            raise InputError("each scenario needs (E, p) features for p weights")
        if not all(isinstance(s.noise_payload, TwoStageCosts) for s in batch):
            raise InputError("spanning-tree scenarios need TwoStageCosts payloads")
        costs = [np.ascontiguousarray(getattr(s.noise_payload, stage))
                 for stage in ("first_stage", "second_stage") for s in batch]
        if any(c.shape != (self.n_edges,) for c in costs):
            raise InputError("stage costs need one entry per edge")
        require_positive("kappa", kappa)
        require_perturbation(eps, m)
        key = native.entropy(rng.seed, (rng.stream_id, *rng.path))
        pointers, step = ctypes.c_void_p * len(batch), ctypes.c_int64()
        out = np.empty((len(batch), self.n_edges))
        status = native._compiled_kernel().perturbed_split_pass(
            pointers(*(f.ctypes.data for f in features)),
            pointers(*(c.ctypes.data for c in costs[:len(batch)])),
            pointers(*(c.ctypes.data for c in costs[len(batch):])), len(batch), len(w),
            w.ctypes.data, key, len(key) // 4, kappa, eps, m, self.edges.ctypes.data,
            self.n_edges, self.n_nodes, native._numpy_blas(), native._cpu_count() > 1,
            out.ctypes.data, ctypes.byref(step))
        if status == -3:
            raise InputError(f"non-finite theta or tilt at example {step.value}")
        _status(status)
        return out

    def argmin_shifted_many(self, theta_tildes, kappa, scenario: Scenario) -> np.ndarray:
        """First stages of the two-stage splits under c - kappa * theta_tilde,
        the minimizers of c.y + Q(y; xi) - kappa <theta_tilde|y>."""
        payload = scenario.noise_payload
        if not isinstance(payload, TwoStageCosts):
            raise InputError("spanning-tree scenarios need TwoStageCosts payloads")
        thetas = direction_rows(theta_tildes, self.n_edges, kappa)
        eff = payload.first_stage[None, :] - kappa * thetas
        y, _ = two_stage_splits(eff, payload.second_stage, self.edges, self.n_nodes)
        return y


class MstEvaluator:
    """True two-stage cost and anticipative optimum for policy evaluation."""

    def __init__(self, oracle: MstOracle):
        self.oracle = oracle
        self._anticipative_cache: dict[bytes, float] = {}

    def policy_cost(self, y: np.ndarray, scenario: Scenario) -> float:
        payload = scenario.noise_payload
        completion = second_stage_value(
            y, payload.second_stage, self.oracle.edges, self.oracle.n_nodes
        )
        return float(payload.first_stage @ y) + completion

    def anticipative_cost(self, scenario: Scenario) -> float:
        payload = scenario.noise_payload
        key = payload.first_stage.tobytes() + payload.second_stage.tobytes()
        cached = self._anticipative_cache.get(key)
        if cached is None:
            c, d = payload.first_stage, payload.second_stage
            y, z = two_stage_splits(c[None, :], d, self.oracle.edges, self.oracle.n_nodes)
            cached = self._anticipative_cache[key] = float(c @ y[0] + d @ z[0])
        return cached


# ---------------------------------------------------------------------------
# Exhaustive enumeration (independent references for small graphs)
# ---------------------------------------------------------------------------

def enumerate_forests(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """All acyclic edge subsets as the 0/1 rows of an (F, E) array, in
    increasing bitmask order (edge e is bit e); exponential, desk scale only."""
    if len(edges) > 16:
        raise InputError("forest enumeration is limited to 16 edges")
    subsets = (np.arange(1 << len(edges))[:, None] >> np.arange(len(edges))) & 1
    return subsets[[is_forest(y, edges, n_nodes) for y in subsets]].astype(float)


def enumerate_spanning_pairs(edges: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (y, z) with y + z a spanning tree, as two (P, E) 0/1 arrays: each
    spanning tree split into each of its sub-forests y and the rest z."""
    forests = enumerate_forests(edges, n_nodes)
    trees = forests[forests.sum(axis=1) == n_nodes - 1]
    # Forest f lies in tree t when none of its edges is outside t.
    t, f = np.nonzero((1.0 - trees) @ forests.T == 0)
    return forests[f], trees[t] - forests[f]
