"""Brute-force verification suites: oracle exactness and gradient fidelity."""

from __future__ import annotations

import numpy as np

from .core import CheckRow, make_rng, require_samples
from .problems.spanning_tree import (
    enumerate_forests,
    enumerate_spanning_pairs,
    grid_edges,
    max_weight_forests,
    two_stage_splits,
)
from .regularizers import (
    RegularizerKind,
    fy_loss_exact,
    perturbed_argmax_stats,
    perturbed_fy_gradient,
)
from .simplex_lab import random_binary_oracle, random_interior_product

# Small graphs with at most 8 edges (edges, n_nodes).
_SMALL_GRAPHS: list[tuple[np.ndarray, int]] = [
    (np.array(edges, dtype=np.int64), n_nodes) for edges, n_nodes in (
        (((0, 1), (1, 2), (0, 2)), 3),                       # triangle
        (((0, 1), (0, 2), (0, 3)), 4),                       # star
        (grid_edges(2, 2), 4),
        (((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), 4),  # K4
        (grid_edges(2, 3), 6),
        (((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)), 5),
    )
]


def enumeration_gap(priced: np.ndarray, members: np.ndarray, answers) -> float:
    """The worst shortfall of ``answers[r]``, the oracle's answer to problem
    r, where ``priced[r, j]`` is the objective (to maximize) of ``members[j]``:
    row r's best entry minus its answer's entry, or inf if no member has the
    answer's float64 bits.  Both entries come from one row, so rounding opens
    no gap."""
    index = {member.tobytes(): j for j, member in enumerate(np.asarray(members, dtype=float))}
    worst = 0.0
    for row, answer in zip(priced, np.asarray(answers, dtype=float), strict=True):
        j = index.get(answer.tobytes())
        worst = max(worst, np.inf if j is None else float(row.max() - row[j]))
    return worst


def run_oracle_suite(draws: int, seed: int = 0) -> list[CheckRow]:
    """Kruskal max-weight forests and two-stage anticipative solves against
    exhaustive enumeration on small graphs: each answer must be enumerated
    and priced at its row's optimum (``enumeration_gap`` 0.0)."""
    # The Kruskal draws are split over the graphs, each of which gets at
    # least one; the anticipative check solves max(1, draws // 5) instances
    # per grid.  Each graph is enumerated once.
    require_samples(len(_SMALL_GRAPHS), draws=draws)
    g = make_rng(seed, 61).generator()
    worst = 0.0
    for i, (edges, n_nodes) in enumerate(_SMALL_GRAPHS):
        per_graph = (draws + i) // len(_SMALL_GRAPHS)
        weights = g.normal(0.0, 2.0, size=(per_graph, len(edges)))
        forests = enumerate_forests(edges, n_nodes)
        answers = max_weight_forests(weights, edges, n_nodes)
        worst = max(worst, enumeration_gap(weights @ forests.T, forests, answers))
    rows = [CheckRow("oracles/kruskal-forest", seed, worst, 0.0, worst == 0.0)]

    g = make_rng(seed, 62).generator()
    worst = 0.0
    kappas = (0.0, 0.5, 1.0, 2.0)
    for edges, n_nodes in (_SMALL_GRAPHS[2], _SMALL_GRAPHS[4]):  # the 2x2 and 2x3 grids
        pairs = np.hstack(enumerate_spanning_pairs(edges, n_nodes))  # rows (y, z)
        effs, ds = [], []
        for i in range(max(1, draws // 5)):
            c = g.uniform(5.0, 10.0, size=len(edges))
            ds.append(g.uniform(2.0, 12.0, size=len(edges)))
            effs.append(c - kappas[i % len(kappas)] * g.standard_normal(len(edges)))
        answers = np.hstack(two_stage_splits(effs, ds, edges, n_nodes))
        # <eff|y> + <d|z> in one product, negated: the split minimizes it.
        worst = max(worst, enumeration_gap(-np.hstack([effs, ds]) @ pairs.T, pairs, answers))
    rows.append(CheckRow("oracles/two-stage-anticipative", seed, worst, 0.0, worst == 0.0))
    return rows


def run_gradient_suite(seed: int = 0) -> list[CheckRow]:
    """Finite-difference fidelity of exact and Monte-Carlo FY gradients, the
    latter on 100 000 draws."""
    rows: list[CheckRow] = []
    m_mc = 100_000

    # Exact negentropy FY gradient vs central differences, dim 6, step 1e-6.
    g = make_rng(seed, 71).generator()
    kind = RegularizerKind.negentropy()
    worst, h = 0.0, 1e-6
    for _ in range(10):
        s = g.standard_normal(6)
        target = random_interior_product(g, 1, 6)[0]
        _, grad = fy_loss_exact(s, target, kind)
        up, down = (np.array([fy_loss_exact(s + e, target, kind)[0] for e in steps])
                    for steps in (h * np.eye(6), -h * np.eye(6)))
        worst = max(worst, float(np.max(np.abs((up - down) / (2 * h) - grad))))
    rows.append(CheckRow("gradients/exact-fy-fd", seed, worst, 1e-6, worst <= 1e-6))

    # Monte-Carlo perturbed gradients at eps = 1 on six binary vertices in
    # R^4 vs common-random-number differences, step 1e-3.
    d, step = 4, 1e-3
    g = make_rng(seed, 72).generator()
    oracle = random_binary_oracle(g, d, 6)
    theta = g.standard_normal(d)
    target = oracle.matrix @ random_interior_product(g, 1, 6)[0]
    stream = make_rng(seed, 73)

    # One call prices theta and its 2d steps theta +- step e_k on one draw.
    shifts = step * np.eye(d)
    values, moments = perturbed_argmax_stats(
        oracle, np.vstack([theta, theta + shifts, theta - shifts]), 1.0, m_mc, stream)
    _, fy_grad = perturbed_fy_gradient(oracle, theta, target, 1.0, m_mc, stream)
    fd = (values[1:d + 1] - values[d + 1:]) / (2 * step)
    rel_moment = float(np.linalg.norm(fd - moments[0]) / np.linalg.norm(moments[0]))
    rel_fy = float(np.linalg.norm(fd - target - fy_grad) / max(np.linalg.norm(fy_grad), 1e-12))
    return rows + [
        CheckRow("gradients/perturbed-moment-fd", seed, rel_moment, 1e-3, rel_moment < 1e-3),
        CheckRow("gradients/perturbed-fy-fd", seed, rel_fy, 1e-3, rel_fy < 1e-3)]
