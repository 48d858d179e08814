"""Command-line entry point.

Subcommands: generate, train, verify, sweep-epsilon, evaluate.
Exit codes: 0 ok, 1 verification failure, 2 usage/config error (a negative
seed, a learning rate, perturbation scale, kappa or sigma0 that is not a
finite positive number, an unreadable weights file, a config or split file
that cannot be parsed and a non-toy sweep-epsilon config included), 3 IO
error, 4 internal error (any other exception: a non-finite gradient, a
disconnected graph, an iterate on the simplex boundary, a native library
that the C compiler ``cc`` failed to build, that lacks numpy's random
library or that failed to load, or an array too large for memory).
Every command is deterministic given (config, seed); all CSVs carry a
comment line recording the config hash and seed, then a header row.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import json
import logging
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import baselines, experiments, simplex_lab, verification
from .core import CheckRow, InputError, read_npz
from .problems import datasets as ds
from .problems.spanning_tree import MstEvaluator, MstOracle
from .problems.toy import ToyEvaluator, ToyOracle, toy_dataset
from .regularizers import RegularizerKind
from .trainer import TrainConfig, evaluate_policy, train_primal_dual

log = logging.getLogger("costru")

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _dataclass_section(cls, skip: tuple[str, ...] = ()) -> tuple[dict, dict]:
    """(key -> type, key -> default) of a config section that mirrors ``cls``."""
    types = typing.get_type_hints(cls)
    keys = [f for f in dataclasses.fields(cls) if f.name not in skip]
    return ({f.name: types[f.name] for f in keys},
            {f.name: f.default for f in keys if f.default is not dataclasses.MISSING})


_GENERATE_TYPES, _GENERATE_DEFAULTS = _dataclass_section(ds.GenConfig)
_SAA_TYPES, _SAA_DEFAULTS = _dataclass_section(baselines.SaaConfig)
# [train] defaults depend on the problem kind (experiments.*_DEFAULTS).
_TRAIN_TYPES, _ = _dataclass_section(TrainConfig, skip=("seed",))

# Section -> key -> type.  Unknown sections or keys are rejected.
_SCHEMA: dict[str, dict[str, type]] = {
    "problem": {"kind": str},
    "run": {"seed": int},
    "generate": _GENERATE_TYPES,
    "train": _TRAIN_TYPES,
    "saa": _SAA_TYPES,
    "sweep": {"epsilons": str, "nb_seeds": int},
    "verify": {"instances": int, "probes": int, "trials": int, "iterations": int,
               "draws": int},
}

_DEFAULTS: dict[str, dict] = {
    "problem": {"kind": "mst"},
    "run": {"seed": 0},
    "generate": _GENERATE_DEFAULTS,
    "saa": _SAA_DEFAULTS,
    "sweep": {"epsilons": "1,2,2.5,3,4,5,10,150", "nb_seeds": 30},
    "verify": {"instances": 0, "probes": 1000, "trials": 1000, "iterations": 50,
               "draws": 500},
}


def _sweep_epsilons(cfg: dict[str, dict]) -> list[float]:
    """The comma-separated ``sweep.epsilons``: at least one, each finite and
    positive."""
    raw = cfg["sweep"]["epsilons"]
    try:
        epsilons = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad value for sweep.epsilons: {raw!r}") from exc
    if not epsilons or not all(np.isfinite(eps) and eps > 0 for eps in epsilons):
        raise InputError(f"sweep.epsilons must list finite positive values: {raw!r}")
    return epsilons


def load_config(path: str | None) -> dict[str, dict]:
    """Parse the flat key/value config file and fill in defaults."""
    parser = configparser.ConfigParser()
    try:
        if path is not None and not parser.read(path):
            raise InputError(f"config file not found: {path}")
        sections = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise InputError(f"cannot parse config file {path}: {exc}") from exc
    cfg: dict[str, dict] = {}
    for section, items in sections.items():
        if section not in _SCHEMA:
            raise InputError(f"unknown config section [{section}]")
        cfg[section] = {}
        for key, raw in items:
            if key not in _SCHEMA[section]:
                raise InputError(f"unknown key {key!r} in section [{section}]")
            typ = _SCHEMA[section][key]
            try:
                cfg[section][key] = typ(raw) if typ is not str else raw
            except ValueError as exc:
                raise InputError(f"bad value for {section}.{key}: {raw!r}") from exc
    for section, defaults in _DEFAULTS.items():
        merged = dict(defaults)
        merged.update(cfg.get(section, {}))
        cfg[section] = merged
    if cfg["run"]["seed"] < 0:
        raise InputError(f"run.seed must be >= 0, not {cfg['run']['seed']}")
    kind = cfg["problem"]["kind"]
    if kind not in ("toy", "mst"):
        raise InputError(f"problem.kind must be toy or mst, not {kind!r}")
    train_defaults = experiments.TOY_DEFAULTS if kind == "toy" else experiments.MST_DEFAULTS
    merged = dict(train_defaults)
    merged.update(cfg.get("train", {}))
    cfg["train"] = merged
    _sweep_epsilons(cfg)
    if cfg["sweep"]["nb_seeds"] < 1:
        raise InputError("sweep.nb_seeds must be >= 1")
    # A suite run on zero samples would pass without checking anything.
    for key in ("probes", "trials", "iterations", "draws"):
        if cfg["verify"][key] < 1:
            raise InputError(f"verify.{key} must be >= 1")
    if cfg["verify"]["instances"] < 0:
        raise InputError("verify.instances must be >= 0 (0 keeps each suite's default)")
    return cfg


def config_hash(cfg: dict[str, dict]) -> str:
    lines = sorted(
        f"{section}.{key}={cfg[section][key]}"
        for section in cfg
        for key in cfg[section]
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list], chash: str, seed: int) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={chash} seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _run_setup(args: argparse.Namespace) -> tuple[dict[str, dict], int, str]:
    """A command's config, its seed (``--seed``, else ``[run] seed``; a
    random stream has no negative seed) and the config hash."""
    cfg = load_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise InputError(f"--seed must be >= 0, not {args.seed}")
    seed = cfg["run"]["seed"] if args.seed is None else args.seed
    return cfg, seed, config_hash(cfg)


def _load_weights(path: str, width: int) -> np.ndarray:
    """The ``final_average`` array of an npz file, else its ``weights``: a
    finite 1-D array with one entry per feature."""
    arrays = read_npz(path, ("final_average", "weights"))
    if not arrays:
        raise InputError(f"{path} holds neither final_average nor weights")
    key, w = next(iter(arrays.items()))
    if w.shape != (width,) or w.dtype.kind not in "iuf" or not np.isfinite(w).all():
        raise InputError(f"the {key} in {path} must be {width} finite numbers, one per "
                         f"feature; it is a {w.dtype} array of shape {w.shape}")
    return w.astype(float)


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(**cfg["train"], seed=seed)


def _saa_config(cfg: dict) -> baselines.SaaConfig:
    return baselines.SaaConfig(**cfg["saa"])


def _load_mst_data(data_dir: Path):
    """The three splits; every split must lie on train's grid, the one the
    oracle is built for, and have train's feature width."""
    splits = {}
    for split in ("train", "val", "test"):
        path = data_dir / f"{split}.npz"
        if not path.exists():
            raise InputError(f"missing dataset file {path}")
        splits[split] = ds.load_split(path)
    train, train_data = splits["train"][0][0], splits["train"][1]
    for split, (instances, data) in splits.items():
        inst = instances[0]
        if (inst.rows, inst.cols) != (train.rows, train.cols):
            raise InputError(f"the {split} split is on a {inst.rows}x{inst.cols} grid, "
                             f"train on {train.rows}x{train.cols}")
        if data.feature_width != train_data.feature_width:
            raise InputError(f"the {split} split has feature width {data.feature_width}, "
                             f"train {train_data.feature_width}")
    return splits


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    cfg, seed, chash = _run_setup(args)
    out = Path(args.out)
    if cfg["problem"]["kind"] == "toy":
        out.mkdir(parents=True, exist_ok=True)
        manifest = {"problem": "toy", "seed": seed, "config_hash": chash}
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        log.info("toy problem is tabular; wrote manifest only")
        return EXIT_OK
    gen_cfg = ds.GenConfig(**cfg["generate"])
    out.mkdir(parents=True, exist_ok=True)
    for split in ("train", "val", "test"):
        instances = ds.generate_mst_split(gen_cfg, seed, split)
        ds.save_split(out / f"{split}.npz", instances, split)
    ds.write_manifest(out / "manifest.json", gen_cfg, seed)
    log.info("wrote dataset under %s", out)
    return EXIT_OK


def _train_toy(args, cfg, seed, chash, out: Path) -> int:
    if args.method not in ("primal-dual", "uncoordinated"):
        log.error("method %s is not defined for the toy problem", args.method)
        return EXIT_USAGE
    data = toy_dataset()
    oracle = ToyOracle()
    config = _train_config(cfg, seed)
    out.mkdir(parents=True, exist_ok=True)
    if args.method == "primal-dual":
        start = time.perf_counter()
        trajectory = train_primal_dual(data, oracle, config)
        log.info("toy primal-dual took %.0f ms", 1e3 * (time.perf_counter() - start))
        rows = [
            [t + 1, trajectory.per_iteration[t, 0], trajectory.running_average[t, 0]]
            for t in range(config.nb_iterations)
        ]
        write_csv(out / "trajectory.csv", ["iteration", "theta_current", "theta_avg"],
                  rows, chash, seed)
        np.savez(out / "weights.npz", per_iteration=trajectory.per_iteration,
                 running_average=trajectory.running_average,
                 final_average=trajectory.final_average)
    else:
        w = baselines.uncoordinated_imitation(data, oracle, config)
        cost, gap = evaluate_policy(w, data, oracle, ToyEvaluator())
        write_csv(out / "metrics.csv", ["mean_cost", "mean_gap"], [[cost, gap]],
                  chash, seed)
        np.savez(out / "weights.npz", weights=w, final_average=w)
    return EXIT_OK


def _train_mst(args, cfg, seed, chash, out: Path) -> int:
    splits = _load_mst_data(Path(args.data))
    train = splits["train"][0][0]
    oracle = MstOracle(train.rows, train.cols)
    config, saa = _train_config(cfg, seed), _saa_config(cfg)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    run = experiments.run_mst_method(
        args.method, *(splits[split][1] for split in ("train", "val", "test")), oracle,
        MstEvaluator(oracle), config, saa)
    log.info("%s training took %.0f ms", args.method,
             1e3 * (time.perf_counter() - start))
    write_csv(out / "metrics.csv", run.header, run.rows, chash, seed)
    for name, arrays in run.files.items():
        np.savez(out / name, **arrays)
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg, seed, chash = _run_setup(args)
    out = Path(args.out)
    if cfg["problem"]["kind"] == "toy":
        return _train_toy(args, cfg, seed, chash, out)
    if args.data is None:
        log.error("--data is required for the spanning-tree problem")
        return EXIT_USAGE
    return _train_mst(args, cfg, seed, chash, out)


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg, seed, chash = _run_setup(args)
    if cfg["problem"]["kind"] != "toy" and args.data is None:
        log.error("--data is required for the spanning-tree problem")
        return EXIT_USAGE
    if cfg["problem"]["kind"] == "toy":
        dataset, oracle, evaluator = toy_dataset(), ToyOracle(), ToyEvaluator()
    else:
        instances, dataset = ds.load_split(Path(args.data) / f"{args.split}.npz")
        oracle = MstOracle(instances[0].rows, instances[0].cols)
        evaluator = MstEvaluator(oracle)
    w = _load_weights(args.weights, dataset.feature_width)
    cost, gap = evaluate_policy(w, dataset, oracle, evaluator)
    write_csv(Path(args.out), ["split", "mean_cost", "mean_gap"],
              [[args.split, cost, gap]], chash, seed)
    return EXIT_OK


_SUITES = ("convergence", "mirror-descent", "five-point", "risk-bound",
           "jensen-gap", "conjugates", "oracles", "gradients")


def run_verify_suite(suite: str, cfg: dict, seed: int) -> list[CheckRow]:
    v = cfg["verify"]
    # instances = 0 keeps each suite's own instance count.
    sized = {"n_instances": v["instances"]} if v["instances"] > 0 else {}
    if suite == "convergence":
        return simplex_lab.run_convergence_suite(seed=seed, **sized)
    if suite == "mirror-descent":
        return simplex_lab.run_mirror_descent_suite(iters=v["iterations"], seed=seed)
    if suite == "five-point":
        return simplex_lab.run_five_point_suite(probes=v["probes"], seed=seed)
    if suite == "risk-bound":
        return simplex_lab.run_risk_bound_suite(seed=seed, **sized)
    if suite == "jensen-gap":
        return simplex_lab.run_jensen_gap_suite(trials=v["trials"], seed=seed)
    if suite == "conjugates":
        return simplex_lab.run_conjugate_suite(seed=seed, **sized)
    if suite == "oracles":
        return verification.run_oracle_suite(draws=v["draws"], seed=seed)
    if suite == "gradients":
        return verification.run_gradient_suite(seed=seed)
    raise InputError(f"unknown suite {suite!r}")


def _write_verify_trace(suite: str, cfg: dict, seed: int, out: Path, chash: str) -> None:
    """Per-iteration trace CSV next to the report for the iterative suites,
    on the suite's first instance."""
    iterations = cfg["verify"]["iterations"]
    if suite == "convergence":
        costs = simplex_lab.convergence_instance(seed)
        kind, kappa = RegularizerKind.negentropy(), simplex_lab.CONVERGENCE_KAPPA
        s0 = np.zeros(costs.shape[1])
        traj = simplex_lab.run_alternating_exact(costs[None], s0[None, :], kappa, kind,
                                                 iterations)
        # Iteration t decomposes at s_{t-1} into q_t, then coordinates; a
        # stack of one, so row 0 of each record.
        q_rows = np.stack([q[0] for q in traj.q_products])
        steps = zip([s0, *(s[0] for s in traj.scores)], q_rows, traj.values[:, 0],
                    simplex_lab.jensen_gap(q_rows, kind))
        rows = [[t, simplex_lab.surrogate_value(s, q, costs, kappa, kind), value, gap]
                for t, (s, q, value, gap) in enumerate(steps, start=1)]
        header = ["iteration", "surrogate_value", "partial_min_value", "jensen_gap"]
    elif suite == "mirror-descent":
        costs, s0 = simplex_lab.mirror_descent_instance(seed)
        deviations = simplex_lab.run_mirror_descent_comparison(
            costs, s0, simplex_lab.MIRROR_DESCENT_KAPPA, iterations,
            simplex_lab.MIRROR_DESCENT_ALPHA)
        rows = [[t, dev] for t, dev in enumerate(deviations, start=1)]
        header = ["iteration", "max_deviation"]
    else:
        return
    write_csv(out.with_name(out.stem + "_trace.csv"), header, rows, chash, seed)


def cmd_verify(args: argparse.Namespace) -> int:
    cfg, seed, chash = _run_setup(args)
    rows = run_verify_suite(args.suite, cfg, seed)
    out = Path(args.out) if args.out else Path(f"verify_{args.suite}.csv")
    write_csv(out, CheckRow.csv_header(), [r.csv_row() for r in rows], chash, seed)
    _write_verify_trace(args.suite, cfg, seed, out, chash)
    failed = [r for r in rows if not r.passed]
    for r in failed:
        log.error("FAIL %s: measured %.3g vs threshold %.3g", r.check, r.measured,
                  r.threshold)
    log.info("%s: %d checks, %d failures", args.suite, len(rows), len(failed))
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_sweep_epsilon(args: argparse.Namespace) -> int:
    cfg, seed, chash = _run_setup(args)
    if cfg["problem"]["kind"] != "toy":
        raise InputError("sweep-epsilon runs the toy problem; problem.kind is "
                         f"{cfg['problem']['kind']!r}, not 'toy'")
    overrides = {key: value for key, value in cfg["train"].items() if key != "epsilon"}
    results = experiments.run_toy_epsilon_sweep(
        _sweep_epsilons(cfg), cfg["sweep"]["nb_seeds"], base_seed=seed, **overrides)
    write_csv(Path(args.out), ["epsilon", "proportion_optimal"],
              [[eps, prop] for eps, prop in results], chash, seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costru",
        description="Contextual stochastic combinatorial optimization policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key/value config file")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("generate", help="write dataset containers and manifest")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one of the four methods")
    p.add_argument("method", choices=["primal-dual", "uncoordinated",
                                      "fully-coordinated", "median"])
    common(p)
    p.add_argument("--data", default=None, help="dataset directory")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate stored weights on a split")
    common(p)
    p.add_argument("--weights", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("verify", help="run a theorem/property check suite")
    p.add_argument("suite", choices=list(_SUITES))
    common(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep-epsilon", help="toy perturbation-scale sweep")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_epsilon)

    return parser


def _setup_logging() -> None:
    level = os.environ.get("COSTRU_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        log.error("%s", exc)
        print(f"costru: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        log.error("%s", exc)
        print(f"costru: io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        log.debug("internal error", exc_info=True)
        log.error("%s: %s", type(exc).__name__, exc)
        print(f"costru: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
