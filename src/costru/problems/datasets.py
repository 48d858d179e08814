"""Dataset generation and on-disk containers for the spanning-tree problem.

The generative model.  Per-edge feature rows are

    phi(x, e) = (1, u1, u2, u3, u4),   u_j i.i.d. uniform[0, 1],

with a constant intercept column first.  First-stage costs are uniform on
[cost_low, cost_high] and visible to the model through the second feature,
c_e = cost_low + (cost_high - cost_low) * u1.  Second-stage costs couple
the remaining features to a hidden linear map through a sigmoid,

    d_e(xi) = c_e * (r_lo + r_span * sigmoid(<a | u_{2:} - 1/2> + shift + b * zeta_e)),

with the hidden vector ``a`` drawn once per dataset and fresh standard
normal noise zeta per scenario and edge.  ``shift`` places the sigmoid's
break-even value (where d = c) at the median edge, so the two stages
genuinely compete: for half the (edge, scenario) pairs deferring is mildly
profitable, while the upper sigmoid tail makes deferring occasionally very
expensive.  The knob ``b`` controls how noisy the context signal is;
b = 0 makes second-stage costs deterministic given the context.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..core import Dataset, InputError, Scenario, make_rng, read_npz, require_positive
from .spanning_tree import GridInstance, grid_edge_count

_SPLIT_IDS = {"train": 1, "val": 2, "test": 3}
_HIDDEN_SCALE = 2.0


@dataclass(frozen=True)
class GenConfig:
    rows: int = 20
    cols: int = 20
    train_instances: int = 50
    val_instances: int = 50
    test_instances: int = 50
    scenarios_per_instance: int = 20
    feature_dim: int = 5
    cost_low: float = 5.0
    cost_high: float = 10.0
    noise_scale: float = 1.0
    noise_common: float = 0.6
    ratio_low: float = 0.5
    ratio_span: float = 6.0

    def __post_init__(self):
        if min(self.rows, self.cols) < 1:
            raise InputError("grid rows and cols must be >= 1")
        if min(self.train_instances, self.val_instances, self.test_instances) < 1:
            raise InputError("split sizes must be >= 1")
        if self.scenarios_per_instance < 1:
            raise InputError("scenarios_per_instance must be >= 1")
        for name in ("cost_low", "cost_high", "ratio_span"):
            require_positive(name, getattr(self, name))
        if self.cost_high < self.cost_low:
            raise InputError("need 0 < cost_low <= cost_high")
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise InputError(f"noise_scale must be a finite number >= 0, not {self.noise_scale!r}")
        if self.feature_dim < 3:
            raise InputError("feature_dim must be >= 3 (intercept, cost, signal)")
        if not 0.0 < self.ratio_low < 1.0 < self.ratio_low + self.ratio_span:
            raise InputError("stage-cost ratio range must straddle 1")
        if not (0.0 <= self.noise_common <= 1.0):
            raise InputError("noise_common must lie in [0, 1]")

    @property
    def signal_shift(self) -> float:
        """Centers the sigmoid where the stage-cost ratio crosses 1."""
        sigma_star = (1.0 - self.ratio_low) / self.ratio_span
        return float(np.log(sigma_star / (1.0 - sigma_star)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def hidden_vector(cfg: GenConfig, seed: int) -> np.ndarray:
    g = make_rng(seed, 0).generator()
    return _HIDDEN_SCALE * g.standard_normal(cfg.feature_dim - 2)


def context_signal(instance_features: np.ndarray, hidden: np.ndarray,
                   shift: float) -> np.ndarray:
    """The hidden per-edge signal driving the stage-cost ratio."""
    return (instance_features[:, 2:] - 0.5) @ hidden + shift


def _generate_instance(cfg: GenConfig, hidden: np.ndarray,
                       g: np.random.Generator) -> GridInstance:
    n_edges = grid_edge_count(cfg.rows, cfg.cols)
    features = np.ones((n_edges, cfg.feature_dim))
    features[:, 1:] = g.uniform(0.0, 1.0, size=(n_edges, cfg.feature_dim - 1))
    first_stage = cfg.cost_low + (cfg.cost_high - cfg.cost_low) * features[:, 1]
    signal = context_signal(features, hidden, cfg.signal_shift)
    # Per-scenario noise mixes a market-wide shock with idiosyncratic edge
    # noise; the marginal law of each zeta stays standard normal.
    rho = cfg.noise_common
    shock = g.standard_normal((cfg.scenarios_per_instance, 1))
    idio = g.standard_normal((cfg.scenarios_per_instance, n_edges))
    zeta = rho * shock + np.sqrt(1.0 - rho * rho) * idio
    factor = cfg.ratio_low + cfg.ratio_span * sigmoid(signal[None, :] + cfg.noise_scale * zeta)
    return GridInstance(
        rows=cfg.rows,
        cols=cfg.cols,
        first_stage_costs=first_stage,
        features=features,
        scenario_costs=first_stage[None, :] * factor,
    )


def dataset_from_instances(instances: list[GridInstance], split_tag: str) -> Dataset:
    scenarios: list[Scenario] = []
    for i, inst in enumerate(instances):
        for k in range(inst.n_scenarios):
            scenarios.append(inst.scenario(i, k))
    return Dataset(tuple(scenarios), split_tag)


def generate_mst_split(cfg: GenConfig, seed: int, split_tag: str) -> list[GridInstance]:
    count = {
        "train": cfg.train_instances,
        "val": cfg.val_instances,
        "test": cfg.test_instances,
    }[split_tag]
    hidden = hidden_vector(cfg, seed)
    base = make_rng(seed, _SPLIT_IDS[split_tag])
    return [
        _generate_instance(cfg, hidden, base.split(i).generator()) for i in range(count)
    ]


def generate_mst_dataset(
    cfg: GenConfig, seed: int
) -> dict[str, tuple[list[GridInstance], Dataset]]:
    out = {}
    for split in ("train", "val", "test"):
        instances = generate_mst_split(cfg, seed, split)
        out[split] = (instances, dataset_from_instances(instances, split))
    return out


# ---------------------------------------------------------------------------
# Containers (bit-exact round trip) and manifest
# ---------------------------------------------------------------------------

def save_split(path: str | Path, instances: list[GridInstance], split_tag: str) -> None:
    first = instances[0]
    np.savez(
        path,
        rows=np.int64(first.rows),
        cols=np.int64(first.cols),
        split_tag=np.bytes_(split_tag.encode()),
        first_stage=np.stack([inst.first_stage_costs for inst in instances]),
        features=np.stack([inst.features for inst in instances]),
        scenario_costs=np.stack([inst.scenario_costs for inst in instances]),
    )


# Each array of a split file: dtype kinds (i/u integer, f float, S bytes), ndim.
_SPLIT_ARRAYS = {"rows": ("iu", 0), "cols": ("iu", 0), "split_tag": ("S", 0),
                 "first_stage": ("iuf", 2), "features": ("iuf", 3),
                 "scenario_costs": ("iuf", 3)}


def load_split(path: str | Path) -> tuple[list[GridInstance], Dataset]:
    """Read a split written by ``save_split``; a malformed file raises
    ``InputError``."""
    arrays = read_npz(path, _SPLIT_ARRAYS)
    for key, (kinds, ndim) in _SPLIT_ARRAYS.items():
        arr = arrays.get(key)
        if arr is None or arr.ndim != ndim or arr.dtype.kind not in kinds:
            raise InputError(f"{path}: {key} must be a {ndim}-dimensional array of "
                             f"dtype kind {'/'.join(kinds)}")
    first_stage, features, scenario_costs = (
        arrays[key].astype(float, copy=False)
        for key in ("first_stage", "features", "scenario_costs"))
    if not first_stage.shape[0] == features.shape[0] == scenario_costs.shape[0]:
        raise InputError(f"{path}: first_stage, features and scenario_costs hold "
                         "different numbers of instances")
    instances = [
        GridInstance(
            rows=int(arrays["rows"]),
            cols=int(arrays["cols"]),
            first_stage_costs=first_stage[i],
            features=features[i],
            scenario_costs=scenario_costs[i],
        )
        for i in range(first_stage.shape[0])
    ]
    split_tag = bytes(arrays["split_tag"]).decode(errors="replace")
    return instances, dataset_from_instances(instances, split_tag)


def write_manifest(path: str | Path, cfg: GenConfig, seed: int) -> None:
    payload = {"generator": asdict(cfg), "seed": seed, "format": "npz-v1"}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
