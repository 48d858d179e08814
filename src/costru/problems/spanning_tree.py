"""Contextual two-stage minimum weight spanning tree on grid graphs.

First-stage decisions are forests; the second stage completes them into a
spanning tree at scenario-dependent edge costs.  The single-scenario
problem reduces to one minimum spanning tree under the per-edge minimum of
the (shifted) stage costs, because y + z must form a spanning tree and any
sub-forest of a tree is feasible as its first stage; stage attribution per
chosen edge goes to the cheaper stage, ties to stage one.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import tempfile
from dataclasses import dataclass
from importlib import resources
from itertools import combinations
from pathlib import Path

import numpy as np

from ..core import InputError, LinearOracle, Scenario


class InfeasibleError(RuntimeError):
    """The graph cannot be spanned (disconnected input)."""


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


def _kruskal_rows_py(keys: np.ndarray, edges: np.ndarray, n_nodes: int) -> list[list[int]]:
    """Greedy acyclic edge selection, one pass per row of the (m, E) ``keys``.

    Every spanning-tree oracle is this loop under its own keys: edges are
    taken in increasing key order, ties to the lower index, skipping cycles;
    an edge whose key is +inf (or NaN) is never taken, and a row stops at
    n_nodes - 1 edges.  Returns each row's chosen edges in selection order.
    The compiled kernel (``_kruskal.c``) follows the same rules; this loop
    and the ``_*_py`` oracle paths around it are its reference and the
    fallback when it cannot be built.
    """
    orders = np.argsort(keys, axis=1, kind="stable").tolist()
    takeable = (keys < np.inf).sum(axis=1).tolist()
    pairs = edges.tolist()
    limit = n_nodes - 1
    rows = []
    for order, count in zip(orders, takeable):
        parent = list(range(n_nodes))
        chosen = []
        for e in order[:count]:
            u, v = pairs[e]
            ru = _find(parent, u)
            rv = _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                chosen.append(e)
                if len(chosen) == limit:
                    break
        rows.append(chosen)
    return rows


def _build_kernel() -> Path:
    """Compile ``_kruskal.c`` with the local C compiler into this package's
    ``__pycache__``, named after a hash of the source, unless it is there.
    A new build deletes the libraries of other sources left there."""
    import subprocess  # imported on the first build only, to keep the package import fast

    source = resources.files(__package__).joinpath("_kruskal.c").read_bytes()
    cache = Path(__file__).with_name("__pycache__")
    target = cache / f"_kruskal-{hashlib.sha256(source).hexdigest()[:16]}.so"
    if not target.exists():
        cache.mkdir(exist_ok=True)
        fd, partial = tempfile.mkstemp(dir=cache, prefix="_kruskal-", suffix=".tmp")
        os.close(fd)
        try:
            subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-x", "c", "-", "-o", partial],
                           input=source, capture_output=True, check=True, timeout=120)
            os.chmod(partial, 0o755)  # mkstemp made it private to this user
            os.replace(partial, target)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
        for stale in cache.glob("_kruskal-*.so"):
            if stale != target:
                with contextlib.suppress(OSError):  # best effort; the new build stands
                    stale.unlink()
    return target


@functools.cache
def _compiled_kernel():
    """The library of ``_kruskal.c`` through ctypes, built and loaded on
    first use; None when that fails, and the ``_*_py`` paths run instead."""
    import subprocess

    try:
        lib = ctypes.CDLL(str(_build_kernel()))
    except (OSError, subprocess.SubprocessError):
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_int64
    for name, argtypes in (
        ("forest_rows", [ptr, ptr, size, size, size, ptr]),
        ("split_rows", [ptr, ptr, size, ptr, size, size, size, ptr]),
        ("completion_rows", [ptr, ptr, ptr, size, size, size, ptr]),
    ):
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int64
    return lib


_DISCONNECTED = "graph is disconnected"
_NO_COMPLETION = "graph is disconnected; no spanning completion"


def _raise_status(status: int, disconnected: str = _DISCONNECTED) -> None:
    """Raise what a negative status of the kernel (see ``_kruskal.c``) means."""
    if status == -1:
        raise MemoryError("no workspace for the Kruskal kernel")
    if status == -2:
        raise InputError("edge endpoints must lie in [0, n_nodes)")
    if status == -3:
        raise InputError("weights must be finite")
    if status == -4:
        raise InfeasibleError(disconnected)
    raise InputError("first-stage selection contains a cycle")


def _check_edges(edges: np.ndarray) -> None:
    """The one edge format, which the kernel reads in place."""
    if not (isinstance(edges, np.ndarray) and edges.dtype == np.int64 and edges.ndim == 2
            and edges.shape[1] == 2 and edges.flags.c_contiguous):
        raise InputError("edges must be a C-contiguous (E, 2) int64 array")


def _rows(values, edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """``values`` as a C-contiguous (m, E) float64 array for the kernel."""
    _check_edges(edges)
    rows = np.ascontiguousarray(values, dtype=np.float64)
    if n_nodes < 1:
        raise InputError("a graph needs at least one node")
    if rows.ndim != 2 or rows.shape[1] != len(edges):
        raise InputError("keys need one column per edge")
    return rows


def _picks_py(keys: np.ndarray, edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """``_kruskal_rows_py`` as an (m, n_nodes) int64 array: row r holds its
    chosen edges in selection order, then zeros, and its count in the last
    column."""
    out = np.zeros((keys.shape[0], n_nodes), dtype=np.int64)
    for row, chosen in zip(out, _kruskal_rows_py(keys, edges, n_nodes)):
        row[:len(chosen)] = chosen
        row[-1] = len(chosen)
    return out


def _indicators(picks: np.ndarray, n_edges: int) -> np.ndarray:
    """0/1 rows of the edges that each row of ``_picks_py`` chose."""
    chosen = np.arange(picks.shape[1] - 1) < picks[:, -1:]
    out = np.zeros((picks.shape[0], n_edges))
    out[np.nonzero(chosen)[0], picks[:, :-1][chosen]] = 1.0
    return out


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


def _max_weight_forests_py(w: np.ndarray, edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Reference and fallback of ``max_weight_forests``."""
    if not np.isfinite(w).all():
        raise InputError("weights must be finite")
    keys = np.where(w > 0.0, -w, np.inf)
    return _indicators(_picks_py(keys, edges, n_nodes), w.shape[1])


def max_weight_forests(weights: np.ndarray, edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Row-wise maximum-total-weight forests of an (m, E) weight array:
    greedy by decreasing weight, ties by index, skipping cycles and edges
    with weight <= 0."""
    w = _rows(weights, edges, n_nodes)
    kernel = _compiled_kernel()
    if kernel is None:
        return _max_weight_forests_py(w, edges, n_nodes)
    out = np.empty(w.shape)
    status = kernel.forest_rows(w.ctypes.data, edges.ctypes.data, w.shape[0], w.shape[1],
                                n_nodes, out.ctypes.data)
    if status < 0:
        _raise_status(status)
    return out


def _completions_py(
    y: np.ndarray, d: np.ndarray, edges: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reference and fallback of ``_completions``."""
    in_y = y > 0.5
    picks = _picks_py(np.where(in_y, -np.inf, d), edges, n_nodes)
    n_first = int(np.count_nonzero(in_y))
    chosen, counts = picks[:, :-1], picks[:, -1]
    taken = np.arange(n_nodes - 1) < counts[:, None]
    taken_y = np.zeros(chosen.shape, dtype=bool)
    taken_y[taken] = in_y[chosen[taken]]  # no padding index reaches in_y, even when E = 0
    if (taken_y.sum(axis=1) != n_first).any():
        raise InputError("first-stage selection contains a cycle")
    if (counts != n_nodes - 1).any():
        raise InfeasibleError(_NO_COMPLETION)
    rows = np.arange(d.shape[0])[:, None]
    completion = chosen[:, n_first:]
    z = np.zeros(d.shape)
    z[rows, completion] = 1.0
    return d[rows, completion], z


def _completions(
    y: np.ndarray, d: np.ndarray, edges: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Completions of the forest y, a float (E,) array, under each row of the
    (K, E) second-stage costs d: a C-contiguous (K, L) array of the costs of
    each row's completion edges in selection order, and their (K, E) 0/1
    rows."""
    kernel = _compiled_kernel()
    if kernel is None:
        return _completions_py(y, d, edges, n_nodes)
    k, n_edges = d.shape
    # One buffer: the (K, L) costs packed from its start, L = n_nodes - 1 -
    # n_first being known only after the call, and the (K, E) rows of z
    # after the K * (n_nodes - 1) entries that L can reach.
    out = np.empty(k * (n_nodes - 1 + n_edges))
    status = kernel.completion_rows(y.ctypes.data, d.ctypes.data, edges.ctypes.data, k,
                                    n_edges, n_nodes, out.ctypes.data)
    if status < 0:
        _raise_status(status, _NO_COMPLETION)
    width = max(n_nodes - 1 - status, 0)  # a y with n_nodes or more edges meets no row
    return out[:k * width].reshape(k, width), out[k * (n_nodes - 1):].reshape(k, n_edges)


def second_stage_value(
    y: np.ndarray, second_stage_costs: np.ndarray, edges: np.ndarray, n_nodes: int
) -> tuple[float | np.ndarray, np.ndarray]:
    """Minimum-cost completion of the forest y into a spanning tree.

    Kruskal with y's edges first, then the other edges in increasing
    second-stage cost.  Returns the completion cost and indicator; for a
    (K, E) stack of second-stage costs, a (K,) cost array and (K, E)
    indicators, row k being the single call on row k.
    """
    d = np.asarray(second_stage_costs, dtype=float)
    d_rows = _rows(d[None, :] if d.ndim == 1 else d, edges, n_nodes)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.shape != (len(edges),):
        raise InputError("y needs one entry per edge")
    costs, z = _completions(y, d_rows, edges, n_nodes)
    # The costs are C-contiguous, so each row is summed in selection order
    # with the pairwise order of a 1-D sum.
    values = costs.sum(axis=1)
    if d.ndim == 1:
        return float(values[0]), z[0]
    return values, z


def _two_stage_splits_py(
    eff: np.ndarray, d: np.ndarray, edges: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reference and fallback of ``two_stage_splits``."""
    picks = _picks_py(np.minimum(eff, d), edges, n_nodes)
    if (picks[:, -1] != n_nodes - 1).any():
        raise InfeasibleError(_DISCONNECTED)
    tree = _indicators(picks, eff.shape[1])
    y = tree * (eff <= d)
    return y, tree - y


def two_stage_splits(
    eff: np.ndarray, second: np.ndarray, edges: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (y, z) splits of an (m, E) array of effective first-stage
    costs against second-stage costs: one (E,) vector for every row, or an
    (m, E) array, row by row."""
    eff = _rows(eff, edges, n_nodes)
    d = np.ascontiguousarray(second, dtype=np.float64)
    if d.shape != eff.shape and d.shape != eff.shape[1:]:
        raise InputError("second-stage costs need shape (E,) or (m, E)")
    kernel = _compiled_kernel()
    if kernel is None:
        return _two_stage_splits_py(eff, d, edges, n_nodes)
    yz = np.empty((2, *eff.shape))  # y rows, then z rows: one buffer to pass
    status = kernel.split_rows(eff.ctypes.data, d.ctypes.data, d.shape[-1] * (d.ndim - 1),
                               edges.ctypes.data, eff.shape[0], eff.shape[1], n_nodes,
                               yz.ctypes.data)
    if status < 0:
        _raise_status(status)
    return yz[0], yz[1]


def two_stage_mst_split(
    eff_first: np.ndarray, second: np.ndarray, edges: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Joint minimizer of <eff_first|y> + <second|z> over spanning pairs.

    One Kruskal pass under the per-edge minimum of the two stage costs;
    each chosen edge is attributed to the cheaper stage (ties to stage one).
    """
    eff = np.asarray(eff_first, dtype=float)
    d = np.asarray(second, dtype=float)
    y, z = two_stage_splits(eff[None, :], d, edges, n_nodes)
    y, z = y[0], z[0]
    value = float(eff @ y + d @ z)
    return y, z, value


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
        expected = self.rows * (self.cols - 1) + (self.rows - 1) * self.cols
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

    def argmin_shifted_many(self, theta_tildes, kappa, scenario: Scenario) -> np.ndarray:
        """First stages of the two-stage splits under c - kappa * theta_tilde,
        the minimizers of c.y + Q(y; xi) - kappa <theta_tilde|y>."""
        payload = scenario.noise_payload
        if not isinstance(payload, TwoStageCosts):
            raise InputError("spanning-tree scenarios need TwoStageCosts payloads")
        eff = payload.first_stage[None, :] - kappa * np.asarray(theta_tildes, dtype=float)
        y, _ = two_stage_splits(eff, payload.second_stage, self.edges, self.n_nodes)
        return y


class MstEvaluator:
    """True two-stage cost and anticipative optimum for policy evaluation."""

    def __init__(self, oracle: MstOracle):
        self.oracle = oracle
        self._anticipative_cache: dict[bytes, float] = {}

    def policy_cost(self, y: np.ndarray, scenario: Scenario) -> float:
        payload = scenario.noise_payload
        completion, _ = second_stage_value(
            y, payload.second_stage, self.oracle.edges, self.oracle.n_nodes
        )
        return float(payload.first_stage @ y) + completion

    def anticipative_cost(self, scenario: Scenario) -> float:
        payload = scenario.noise_payload
        key = payload.first_stage.tobytes() + payload.second_stage.tobytes()
        cached = self._anticipative_cache.get(key)
        if cached is None:
            _, _, cached = two_stage_mst_split(
                payload.first_stage, payload.second_stage,
                self.oracle.edges, self.oracle.n_nodes,
            )
            self._anticipative_cache[key] = cached
        return cached


# ---------------------------------------------------------------------------
# Exhaustive enumeration (independent oracles for small graphs)
# ---------------------------------------------------------------------------

def enumerate_forests(edges: np.ndarray, n_nodes: int) -> list[np.ndarray]:
    """All 0/1 acyclic edge subsets; exponential, desk scale only."""
    n_edges = len(edges)
    if n_edges > 16:
        raise InputError("forest enumeration is limited to 16 edges")
    forests = []
    for mask in range(1 << n_edges):
        y = np.array([(mask >> e) & 1 for e in range(n_edges)], dtype=float)
        if is_forest(y, edges, n_nodes):
            forests.append(y)
    return forests


def brute_force_max_weight_forest_value(
    weights: np.ndarray, edges: np.ndarray, n_nodes: int
) -> float:
    w = np.asarray(weights, dtype=float)
    return max(float(w @ y) for y in enumerate_forests(edges, n_nodes))


def brute_force_two_stage_pair(
    eff_first: np.ndarray, second: np.ndarray, edges: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Min over all (y, z) with y + z a spanning tree; no reduction tricks."""
    eff = np.asarray(eff_first, dtype=float)
    d = np.asarray(second, dtype=float)
    n_edges = len(edges)
    best = (None, None, np.inf)
    for y in enumerate_forests(edges, n_nodes):
        free = [e for e in range(n_edges) if y[e] <= 0.5]
        need = n_nodes - 1 - int(y.sum())
        if need < 0 or need > len(free):
            continue
        for combo in combinations(free, need):
            z = np.zeros(n_edges)
            z[list(combo)] = 1.0
            if not is_forest(y + z, edges, n_nodes):
                continue
            value = float(eff @ y + d @ z)
            if value < best[2]:
                best = (y.copy(), z, value)
    return best

