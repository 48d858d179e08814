"""Python references of the compiled Kruskal kernel (``costru/_native.c``).

``kruskal_rows_py`` is the greedy rule whose edge set every kernel entry
chooses, and the ``*_py`` functions around it are the numpy glue that builds
each oracle's keys and reads its picks.  The property tests in
``test_problems.py`` compare every kernel entry with its reference byte for
byte, the exception type included.

The reference runs the plain rule on every row.  The forest entry does not
sort a row whose positive edges close no cycle: the rule takes them all, so
the entry selects them in index order rather than in key order, which
gives the same edge set.
"""

from __future__ import annotations

import numpy as np

from costru.core import InputError
from costru.problems.spanning_tree import (
    _DISCONNECTED,
    _NO_COMPLETION,
    InfeasibleError,
    _find,
)


def kruskal_rows_py(keys: np.ndarray, edges: np.ndarray, n_nodes: int) -> list[list[int]]:
    """Greedy acyclic edge selection, one pass per row of the (m, E) ``keys``.

    Every spanning-tree oracle is this loop under its own keys: edges are
    taken in increasing key order, ties to the lower index, skipping cycles;
    an edge whose key is +inf (or NaN) is never taken, and a row stops at
    n_nodes - 1 edges.  Returns each row's chosen edges in selection order.
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


def picks_py(keys: np.ndarray, edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """``kruskal_rows_py`` as an (m, n_nodes) int64 array: row r holds its
    chosen edges in selection order, then zeros, and its count in the last
    column."""
    out = np.zeros((keys.shape[0], n_nodes), dtype=np.int64)
    for row, chosen in zip(out, kruskal_rows_py(keys, edges, n_nodes)):
        row[:len(chosen)] = chosen
        row[-1] = len(chosen)
    return out


def indicators(picks: np.ndarray, n_edges: int) -> np.ndarray:
    """0/1 rows of the edges that each row of ``picks_py`` chose."""
    chosen = np.arange(picks.shape[1] - 1) < picks[:, -1:]
    out = np.zeros((picks.shape[0], n_edges))
    out[np.nonzero(chosen)[0], picks[:, :-1][chosen]] = 1.0
    return out


def max_weight_forests_py(w: np.ndarray, edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Reference of ``max_weight_forests``."""
    if not np.isfinite(w).all():
        raise InputError("weights must be finite")
    keys = np.where(w > 0.0, -w, np.inf)
    return indicators(picks_py(keys, edges, n_nodes), w.shape[1])


def completions_py(y: np.ndarray, d: np.ndarray, edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """The costs of the completions of the forest y under each row of d, in
    selection order, as a C-contiguous (K, n_nodes - 1 - |y|) array: y's own
    edges first, in index order, then the other edges under the keys d."""
    in_y = y > 0.5
    n_first = int(np.count_nonzero(in_y))
    if len(kruskal_rows_py(np.where(in_y, 0.0, np.inf)[None, :], edges, n_nodes)[0]) != n_first:
        raise InputError("first-stage selection contains a cycle")
    # y's edges moved to the front, where keys of -inf keep them in index
    # order ahead of every other edge, a -inf cost included.
    order = np.concatenate([np.flatnonzero(in_y), np.flatnonzero(~in_y)])
    picks = picks_py(np.where(in_y, -np.inf, d)[:, order], edges[order], n_nodes)
    if (picks[:, -1] != n_nodes - 1).any():
        raise InfeasibleError(_NO_COMPLETION)
    return np.take_along_axis(d, order[picks[:, n_first:-1]], axis=1)


def completion_sums_py(ys: np.ndarray, d: np.ndarray, edges: np.ndarray,
                       n_nodes: int) -> np.ndarray:
    """Reference of ``second_stage_values``: each forest's completion costs
    summed by numpy, row by row; the first failing forest raises."""
    return np.array([completions_py(y, d, edges, n_nodes).sum(axis=1) for y in ys]
                    ).reshape(len(ys), len(d))


def two_stage_splits_py(
    eff: np.ndarray, d: np.ndarray, edges: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reference of ``two_stage_splits``."""
    picks = picks_py(np.minimum(eff, d), edges, n_nodes)
    if (picks[:, -1] != n_nodes - 1).any():
        raise InfeasibleError(_DISCONNECTED)
    tree = indicators(picks, eff.shape[1])
    y = tree * (eff <= d)
    return y, tree - y
