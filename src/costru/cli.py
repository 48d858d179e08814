"""Command-line entry point.

Subcommands: generate, train, verify, sweep-epsilon, evaluate.
Exit codes: 0 ok, 1 verification failure, 2 usage/config error (a negative
seed, a learning rate, perturbation scale, kappa or sigma0 that is not a
finite positive number, an unreadable weights file, and a config or split
file that cannot be parsed included), 3 IO error, 4 internal error (a
non-finite gradient, a disconnected graph, an iterate on the simplex
boundary, or a native library that the C compiler ``cc`` failed to build,
that lacks numpy's random library, or that failed to load).
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
from .native import NativeLibraryError
from .problems import datasets as ds
from .problems.spanning_tree import InfeasibleError, MstEvaluator, MstOracle
from .problems.toy import ToyEvaluator, ToyOracle, toy_dataset
from .regularizers import RegularizerKind
from .trainer import TrainConfig, evaluate_policy, train_primal_dual

log = logging.getLogger("costru")

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


def _dataclass_section(cls, skip: tuple[str, ...] = ()) -> tuple[dict, dict]:
    """(key -> type, key -> default) of a config section that mirrors ``cls``."""
    types = typing.get_type_hints(cls)
    keys = [f for f in dataclasses.fields(cls) if f.name not in skip]
    return ({f.name: types[f.name] for f in keys},
            {f.name: f.default for f in keys if f.default is not dataclasses.MISSING})


_GENERATE_TYPES, _GENERATE_DEFAULTS = _dataclass_section(ds.GenConfig)
_SAA_TYPES, _SAA_DEFAULTS = _dataclass_section(baselines.SaaConfig)
# [train] defaults depend on the problem kind (experiments.*_DEFAULTS).
_TRAIN_TYPES, _ = _dataclass_section(TrainConfig, skip=("seed", "unperturbed_targets"))

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
        raise ConfigError(f"bad value for sweep.epsilons: {raw!r}") from exc
    if not epsilons or not all(np.isfinite(eps) and eps > 0 for eps in epsilons):
        raise ConfigError(f"sweep.epsilons must list finite positive values: {raw!r}")
    return epsilons


def load_config(path: str | None) -> dict[str, dict]:
    """Parse the flat key/value config file and fill in defaults."""
    parser = configparser.ConfigParser()
    try:
        if path is not None and not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        sections = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    cfg: dict[str, dict] = {}
    for section, items in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        cfg[section] = {}
        for key, raw in items:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            typ = _SCHEMA[section][key]
            try:
                cfg[section][key] = typ(raw) if typ is not str else raw
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    for section, defaults in _DEFAULTS.items():
        merged = dict(defaults)
        merged.update(cfg.get(section, {}))
        cfg[section] = merged
    if cfg["run"]["seed"] < 0:
        raise ConfigError(f"run.seed must be >= 0, not {cfg['run']['seed']}")
    kind = cfg["problem"]["kind"]
    if kind not in ("toy", "mst"):
        raise ConfigError(f"problem.kind must be toy or mst, not {kind!r}")
    train_defaults = experiments.TOY_DEFAULTS if kind == "toy" else experiments.MST_DEFAULTS
    merged = dict(train_defaults)
    merged.update(cfg.get("train", {}))
    cfg["train"] = merged
    _sweep_epsilons(cfg)
    if cfg["sweep"]["nb_seeds"] < 1:
        raise ConfigError("sweep.nb_seeds must be >= 1")
    # A suite run on zero samples would pass without checking anything.
    for key in ("probes", "trials", "iterations", "draws"):
        if cfg["verify"][key] < 1:
            raise ConfigError(f"verify.{key} must be >= 1")
    if cfg["verify"]["instances"] < 0:
        raise ConfigError("verify.instances must be >= 0 (0 keeps each suite's default)")
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
        raise ConfigError(f"--seed must be >= 0, not {args.seed}")
    seed = cfg["run"]["seed"] if args.seed is None else args.seed
    return cfg, seed, config_hash(cfg)


def _load_weights(path: str, width: int) -> np.ndarray:
    """The ``final_average`` array of an npz file, else its ``weights``: a
    finite 1-D array with one entry per feature."""
    arrays = read_npz(path, ("final_average", "weights"))
    if not arrays:
        raise ConfigError(f"{path} holds neither final_average nor weights")
    key, w = next(iter(arrays.items()))
    if w.shape != (width,) or w.dtype.kind not in "iuf" or not np.isfinite(w).all():
        raise ConfigError(f"the {key} in {path} must be {width} finite numbers, one per "
                          f"feature; it is a {w.dtype} array of shape {w.shape}")
    return w.astype(float)


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(**cfg["train"], seed=seed)


def _saa_config(cfg: dict) -> baselines.SaaConfig:
    return baselines.SaaConfig(**cfg["saa"])


def _load_mst_data(data_dir: Path):
    """The three splits; every instance must lie on train's grid, the one
    the oracle is built for."""
    splits = {}
    for split in ("train", "val", "test"):
        path = data_dir / f"{split}.npz"
        if not path.exists():
            raise ConfigError(f"missing dataset file {path}")
        splits[split] = ds.load_split(path)
    train = splits["train"][0][0]
    for split, (instances, _) in splits.items():
        for inst in instances:
            if (inst.rows, inst.cols) != (train.rows, train.cols):
                raise InputError(f"the {split} split is on a {inst.rows}x{inst.cols} grid, "
                                 f"train on {train.rows}x{train.cols}")
    return splits


def _save_by_context(path: Path, solutions: dict[int, np.ndarray]) -> None:
    """One solution per context, in increasing context id."""
    ctx_ids = np.array(sorted(solutions), dtype=np.int64)
    np.savez(path, context_ids=ctx_ids, solutions=np.stack([solutions[c] for c in ctx_ids]))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    cfg, seed, chash = _run_setup(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg["problem"]["kind"] == "toy":
        manifest = {"problem": "toy", "seed": seed, "config_hash": chash}
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        log.info("toy problem is tabular; wrote manifest only")
        return EXIT_OK
    gen_cfg = ds.GenConfig(**cfg["generate"])
    for split in ("train", "val", "test"):
        instances = ds.generate_mst_split(gen_cfg, seed, split)
        ds.save_split(out / f"{split}.npz", instances, split)
    ds.write_manifest(out / "manifest.json", gen_cfg, seed)
    log.info("wrote dataset under %s", out)
    return EXIT_OK


def _train_toy(args, cfg, seed, chash, out: Path) -> int:
    data = toy_dataset()
    oracle = ToyOracle()
    config = _train_config(cfg, seed)
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
    elif args.method == "uncoordinated":
        w = baselines.uncoordinated_imitation(data, oracle, config)
        cost, gap = evaluate_policy(w, data, oracle, ToyEvaluator())
        write_csv(out / "metrics.csv", ["mean_cost", "mean_gap"], [[cost, gap]],
                  chash, seed)
        np.savez(out / "weights.npz", weights=w, final_average=w)
    else:
        log.error("method %s is not defined for the toy problem", args.method)
        return EXIT_USAGE
    return EXIT_OK


def _train_mst(args, cfg, seed, chash, out: Path) -> int:
    splits = _load_mst_data(Path(args.data))
    train_insts, train_data = splits["train"]
    _, val_data = splits["val"]
    _, test_data = splits["test"]
    oracle = MstOracle(train_insts[0].rows, train_insts[0].cols)
    evaluator = MstEvaluator(oracle)
    config = _train_config(cfg, seed)
    start = time.perf_counter()

    if args.method == "primal-dual":
        trajectory = train_primal_dual(train_data, oracle, config)
        columns = [experiments.gap_series(weights, data, oracle, evaluator)
                   for data in (val_data, test_data)
                   for weights in (trajectory.per_iteration, trajectory.running_average)]
        rows = [[t + 1, *(column[t] for column in columns)]
                for t in range(config.nb_iterations)]
        write_csv(out / "metrics.csv",
                  ["iteration", "val_gap_current_w", "val_gap_avg_w",
                   "test_gap_current_w", "test_gap_avg_w"], rows, chash, seed)
        np.savez(out / "weights.npz", per_iteration=trajectory.per_iteration,
                 running_average=trajectory.running_average,
                 final_average=trajectory.final_average)
    elif args.method in ("uncoordinated", "fully-coordinated"):
        if args.method == "uncoordinated":
            w = baselines.uncoordinated_imitation(train_data, oracle, config)
        else:
            targets = baselines.lagrangian_targets(train_data, oracle, _saa_config(cfg))
            _save_by_context(out / "targets.npz", targets)
            w = baselines.fully_coordinated_imitation(
                train_data, oracle, _saa_config(cfg), config, targets)
        val = evaluate_policy(w, val_data, oracle, evaluator)
        test = evaluate_policy(w, test_data, oracle, evaluator)
        write_csv(out / "metrics.csv",
                  ["val_mean_cost", "val_gap", "test_mean_cost", "test_gap"],
                  [[val[0], val[1], test[0], test[1]]], chash, seed)
        np.savez(out / "weights.npz", weights=w, final_average=w)
    elif args.method == "median":
        d_median = baselines.pooled_median_second_stage(train_data)
        rows = []
        for split_name, data in (("val", val_data), ("test", test_data)):
            sols = {ctx: baselines.median_policy_solution(group[0], d_median, oracle)
                    for ctx, group in data.by_context().items()}
            rows.append([split_name,
                         *baselines.evaluate_fixed_solutions(sols, data, evaluator)])
            _save_by_context(out / f"median_solutions_{split_name}.npz", sols)
        write_csv(out / "metrics.csv", ["split", "mean_cost", "mean_gap"], rows,
                  chash, seed)
    else:  # pragma: no cover - argparse restricts choices
        return EXIT_USAGE
    log.info("%s training took %.0f ms", args.method,
             1e3 * (time.perf_counter() - start))
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg, seed, chash = _run_setup(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
        return verification.run_oracle_suite(
            n_kruskal=v["draws"], n_anticipative=max(2, v["draws"] * 2 // 5), seed=seed)
    if suite == "gradients":
        return verification.run_gradient_suite(seed=seed)
    raise ConfigError(f"unknown suite {suite!r}")


def _write_verify_trace(suite: str, cfg: dict, seed: int, out: Path, chash: str) -> None:
    """Per-iteration trace CSV next to the report for the iterative suites,
    on the suite's first instance."""
    iterations = cfg["verify"]["iterations"]
    if suite == "convergence":
        costs = simplex_lab.convergence_instance(seed)
        kind = RegularizerKind.negentropy()
        config = simplex_lab.LabConfig(1.0, kind, max_iters=iterations)
        s0 = np.zeros(costs.n_vertices)
        traj = simplex_lab.run_alternating_exact([costs], config, s0[None, :])
        # Iteration t decomposes at s_{t-1} into q_t, then coordinates; a
        # stack of one, so row 0 of each record.
        steps = zip([s0, *(s[0] for s in traj.scores)], (q[0] for q in traj.q_products),
                    traj.values[:, 0])
        rows = [[t, simplex_lab.surrogate_value(s, q, costs, config.kappa, kind), value,
                 simplex_lab.jensen_gap(q, kind)]
                for t, (s, q, value) in enumerate(steps, start=1)]
        header = ["iteration", "surrogate_value", "partial_min_value", "jensen_gap"]
    elif suite == "mirror-descent":
        costs, s0 = simplex_lab.mirror_descent_instance(seed)
        config = simplex_lab.LabConfig(1.0, RegularizerKind.negentropy())
        deviations = simplex_lab.run_mirror_descent_comparison(costs, config, s0, iterations)
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
    except (ConfigError, InputError) as exc:
        log.error("%s", exc)
        print(f"costru: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        log.error("%s", exc)
        print(f"costru: io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FloatingPointError, InfeasibleError, simplex_lab.BoundaryError,
            NativeLibraryError) as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        print(f"costru: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
