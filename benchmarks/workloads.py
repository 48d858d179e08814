"""The four benchmark workloads: inputs from a seed, a timed body, output
checks and a digest of the numeric outputs.

Each workload is closed loop and single-threaded: one body call after the
other in this process.  ``setup`` builds the inputs (data generation,
oracle and evaluator construction); ``body`` is the timed part and reports
its own phase times; ``check`` runs after timing stops.  The bodies call
the package through module attributes (``trainer.train_primal_dual``, not
an imported name) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from costru import baselines, cli, experiments, trainer
from costru.problems import datasets, spanning_tree
from costru.problems.toy import ToyOracle, toy_dataset

from tracing import TracedEvaluator, TracedOracle, Tracer

# configs/mst.ini: [generate] is GenConfig's defaults, [train] and [saa] below.
GRID20_GEN = datasets.GenConfig()
GRID20_TRAIN = dict(nb_scenarios=10, nb_samples=20, nb_epochs=30, lr_init=1e-5,
                    epsilon=1e-4, kappa=1.0)
GRID20_SAA = baselines.SaaConfig(n_saa_scenarios=20, lagrangian_iters=50, sigma0=1.0)
# The cut: outer iterations and the train/val/test/SAA contexts actually used.
GRID20_ITERATIONS = 2
GRID20_CONTEXTS = dict(train=2, val=5, test=5, saa=1)
# Paper-scale counts (configs/mst.ini) for trainer.paper_scale_est_min.
PAPER_ITERATIONS = 50
PAPER_TRAIN_CONTEXTS = 50
PAPER_EVAL_SCENARIOS = 50 * 20   # val (and test) contexts x scenarios each

# configs/toy.ini: the epsilon sweep and its [train] section.
TOY_EPSILONS = (1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 10.0, 150.0)
TOY_SEEDS = 30
TOY_TRAIN = dict(nb_iterations=20, nb_scenarios=3, nb_samples=1000, nb_epochs=10,
                 lr_init=0.1, kappa=1.0)

VERIFY_SUITES = ("convergence", "mirror-descent", "five-point", "risk-bound",
                 "jensen-gap", "conjugates", "oracles", "gradients")

GAP_FLOOR = -1e-9
# Set-up is timed at least this many times per run; median reported.
SETUP_REPEATS = 5


class Phases:
    """Accumulated wall time per named phase of one body call."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start


@dataclass
class Checks:
    """Output checks: attempted and failed counts, and the first failures."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    setup: Callable[[int, Tracer | None], dict]
    body: Callable[[dict, Phases], dict]
    check: Callable[[dict, dict, Checks], None]


def digest(outputs: dict) -> str:
    """SHA-256 over the named float64 arrays in ``outputs["digest"]``."""
    h = hashlib.sha256()
    for name in sorted(outputs["digest"]):
        h.update(name.encode())
        h.update(np.ascontiguousarray(outputs["digest"][name], dtype=np.float64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Spanning tree: shared pieces
# ---------------------------------------------------------------------------

def _oracle_and_evaluator(rows: int, cols: int, tracer: Tracer | None):
    oracle = spanning_tree.MstOracle(rows, cols)
    evaluator = spanning_tree.MstEvaluator(oracle)
    if tracer is None:
        return oracle, evaluator
    return TracedOracle(oracle, tracer), TracedEvaluator(evaluator, tracer)


def _subset(instances, count: int, split: str):
    return datasets.dataset_from_instances(instances[:count], split)


def primal_dual_steps(data, config) -> int:
    """Decomposition scenarios plus coordination steps of one training run."""
    batch = sum(min(len(g), config.nb_scenarios) for g in data.by_context().values())
    return config.nb_iterations * batch * (1 + config.nb_epochs)


def _scenario_gap(cost: float, anticipative: float) -> float:
    denom = abs(anticipative)
    return (cost - anticipative) / denom if denom > 1e-9 else cost - anticipative


def _plain_oracle(inp: dict):
    """Untraced oracle and evaluator for the checks, which run after timing."""
    oracle = spanning_tree.MstOracle(*inp["grid"])
    return oracle, spanning_tree.MstEvaluator(oracle)


def _check_deployed(weights, data, plain, tag: str, checks: Checks) -> None:
    """Deployed argmax decisions are forests with finite, nonnegative gaps."""
    oracle, evaluator = plain
    for k, scenario in enumerate(data):
        y = oracle.argmax_linear(trainer.score_instance(weights, scenario))
        _check_decision(y, scenario, oracle, evaluator, f"{tag}/{k}", checks)


def _check_decision(y, scenario, oracle, evaluator, what: str, checks: Checks) -> None:
    forest = spanning_tree.is_forest(y, oracle.edges, oracle.n_nodes)
    checks.expect(forest, f"{what}: decision is not a forest")
    if forest:
        gap = _scenario_gap(evaluator.policy_cost(y, scenario),
                            evaluator.anticipative_cost(scenario))
        checks.expect(math.isfinite(gap) and gap >= GAP_FLOOR, f"{what}: gap {gap!r}")


def _check_saa_targets(targets: dict, data, saa: baselines.SaaConfig, plain,
                       checks: Checks) -> None:
    """Each SAA target is a forest no worse, on the SAA objective, than any of
    its scenarios' unshifted anticipative solutions."""
    oracle, _ = plain
    groups = data.by_context()
    for ctx, target in targets.items():
        checks.expect(spanning_tree.is_forest(target, oracle.edges, oracle.n_nodes),
                      f"saa/{ctx}: target is not a forest")
        chosen = groups[ctx][: saa.n_saa_scenarios]
        first = chosen[0].noise_payload.first_stage
        seconds = np.stack([s.noise_payload.second_stage for s in chosen])
        value = baselines.saa_objective(target, first, seconds, oracle)
        for k, scenario in enumerate(chosen):
            y = oracle.argmin_shifted(np.zeros(scenario.dim), 0.0, scenario)
            other = baselines.saa_objective(y, first, seconds, oracle)
            checks.expect(value <= other, f"saa/{ctx}/{k}: {value!r} > {other!r}")


def _saa_digest(targets: dict) -> np.ndarray:
    return np.stack([targets[c] for c in sorted(targets)])


# ---------------------------------------------------------------------------
# mst-small: one seed of the four-method small-grid comparison
# ---------------------------------------------------------------------------

def mst_small_setup(seed: int, tracer: Tracer | None) -> dict:
    gen = experiments.MST_BENCH_GEN
    splits = datasets.generate_mst_dataset(gen, seed=seed)
    oracle, evaluator = _oracle_and_evaluator(gen.rows, gen.cols, tracer)
    return dict(seed=seed, grid=(gen.rows, gen.cols), train=splits["train"][1],
                val=splits["val"][1], test=splits["test"][1], oracle=oracle,
                evaluator=evaluator)


def mst_small_body(inp: dict, phase: Phases) -> dict:
    """Mirrors one seed of ``experiments.run_mst_method_benchmark``."""
    seed, oracle, evaluator = inp["seed"], inp["oracle"], inp["evaluator"]
    train, val, test = inp["train"], inp["val"], inp["test"]
    saa = experiments.MST_BENCH_SAA

    d_median = baselines.pooled_median_second_stage(train)
    median_solutions = {
        ctx: baselines.median_policy_solution(group[0], d_median, oracle)
        for ctx, group in test.by_context().items()
    }
    with phase("eval"):
        median = baselines.evaluate_fixed_solutions(median_solutions, test, evaluator)[1]

    unc_config = experiments.mst_bench_imitation_config(seed)
    with phase("train"):
        w_unc = baselines.uncoordinated_imitation(train, oracle, unc_config)
    with phase("eval"):
        unc = trainer.evaluate_policy(w_unc, test, oracle, evaluator)[1]

    pd_config = experiments.mst_bench_primal_dual_config(seed)
    with phase("train"):
        trajectory = trainer.train_primal_dual(train, oracle, pd_config)
    with phase("eval"):
        pd = trainer.evaluate_policy(trajectory.final_average, test, oracle, evaluator)[1]
        val_current = np.array([
            trainer.evaluate_policy(w, val, oracle, evaluator)[1]
            for w in trajectory.per_iteration
        ])
        val_average = np.array([
            trainer.evaluate_policy(w, val, oracle, evaluator)[1]
            for w in trajectory.running_average
        ])

    with phase("saa"):
        targets = baselines.lagrangian_targets(train, oracle, saa)
    fc_config = experiments.mst_bench_imitation_config(seed, epsilon=0.5)
    with phase("train"):
        w_fc = baselines.fully_coordinated_imitation(train, oracle, saa, fc_config, targets)
    with phase("eval"):
        fc = trainer.evaluate_policy(w_fc, test, oracle, evaluator)[1]

    test_gaps = np.array([median, unc, pd, fc])
    return dict(
        test_gaps=test_gaps,
        test_gap=pd,
        weights={"uncoordinated": w_unc, "primal_dual": trajectory.final_average,
                 "fully_coordinated": w_fc},
        trajectory=trajectory,
        median_solutions=median_solutions,
        targets=targets,
        train_steps=(unc_config.nb_epochs * len(train)
                     + primal_dual_steps(train, pd_config)
                     + fc_config.nb_epochs * len(train)),
        digest={"test_gaps": test_gaps, "val_current": val_current,
                "val_average": val_average, "saa_targets": _saa_digest(targets)},
    )


def mst_small_check(inp: dict, out: dict, checks: Checks) -> None:
    test, val = inp["test"], inp["val"]
    plain = _plain_oracle(inp)
    for name, w in out["weights"].items():
        _check_deployed(w, test, plain, f"test/{name}", checks)
    for k, scenario in enumerate(test):
        _check_decision(out["median_solutions"][scenario.context_id], scenario, *plain,
                        f"test/median/{k}", checks)
    traj = out["trajectory"]
    for t in range(traj.per_iteration.shape[0]):
        _check_deployed(traj.per_iteration[t], val, plain, f"val/current/{t}", checks)
        _check_deployed(traj.running_average[t], val, plain, f"val/average/{t}", checks)
    _check_saa_targets(out["targets"], inp["train"], experiments.MST_BENCH_SAA, plain,
                       checks)


# ---------------------------------------------------------------------------
# mst-grid20: the paper-scale grid, training cut to a few iterations
# ---------------------------------------------------------------------------

def grid20_setup(seed: int, tracer: Tracer | None) -> dict:
    splits = datasets.generate_mst_dataset(GRID20_GEN, seed=seed)
    oracle, evaluator = _oracle_and_evaluator(GRID20_GEN.rows, GRID20_GEN.cols, tracer)
    n = GRID20_CONTEXTS
    return dict(
        seed=seed, grid=(GRID20_GEN.rows, GRID20_GEN.cols), oracle=oracle,
        evaluator=evaluator,
        train=_subset(splits["train"][0], n["train"], "train"),
        saa_train=_subset(splits["train"][0], n["saa"], "train"),
        val=_subset(splits["val"][0], n["val"], "val"),
        test=_subset(splits["test"][0], n["test"], "test"),
    )


def grid20_config(seed: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(nb_iterations=GRID20_ITERATIONS, seed=seed, **GRID20_TRAIN)


def grid20_body(inp: dict, phase: Phases) -> dict:
    oracle, evaluator = inp["oracle"], inp["evaluator"]
    config = grid20_config(inp["seed"])
    with phase("train"):
        trajectory = trainer.train_primal_dual(inp["train"], oracle, config)
    with phase("eval"):
        val_current = np.array([
            trainer.evaluate_policy(w, inp["val"], oracle, evaluator)[1]
            for w in trajectory.per_iteration
        ])
        val_average = np.array([
            trainer.evaluate_policy(w, inp["val"], oracle, evaluator)[1]
            for w in trajectory.running_average
        ])
        test_gap = trainer.evaluate_policy(trajectory.final_average, inp["test"],
                                           oracle, evaluator)[1]
    with phase("saa"):
        targets = baselines.lagrangian_targets(inp["saa_train"], oracle, GRID20_SAA)
    return dict(
        test_gap=test_gap,
        trajectory=trajectory,
        targets=targets,
        train_steps=primal_dual_steps(inp["train"], config),
        digest={"test_gap": np.array([test_gap]), "val_current": val_current,
                "val_average": val_average, "saa_targets": _saa_digest(targets)},
    )


def grid20_check(inp: dict, out: dict, checks: Checks) -> None:
    traj = out["trajectory"]
    plain = _plain_oracle(inp)
    _check_deployed(traj.final_average, inp["test"], plain, "test/primal_dual", checks)
    for t in range(traj.per_iteration.shape[0]):
        _check_deployed(traj.per_iteration[t], inp["val"], plain, f"val/current/{t}", checks)
        _check_deployed(traj.running_average[t], inp["val"], plain, f"val/average/{t}",
                        checks)
    _check_saa_targets(out["targets"], inp["saa_train"], GRID20_SAA, plain, checks)


def paper_scale_minutes(decomposition_s_per_scenario: float,
                        coordination_s_per_step: float,
                        eval_s_per_scenario: float) -> float:
    """One full configs/mst.ini primal-dual run plus its gap series.

    T outer iterations each decompose S = nb_scenarios x train contexts
    scenarios and take nb_epochs x S coordination steps; the gap series then
    evaluates current and averaged weights on val and test (4 N scenarios
    per iteration).
    """
    t = PAPER_ITERATIONS
    s = GRID20_TRAIN["nb_scenarios"] * PAPER_TRAIN_CONTEXTS
    steps = GRID20_TRAIN["nb_epochs"] * s
    evals = 4 * PAPER_EVAL_SCENARIOS
    seconds = t * (s * decomposition_s_per_scenario + steps * coordination_s_per_step
                   + evals * eval_s_per_scenario)
    return seconds / 60.0


# ---------------------------------------------------------------------------
# toy-sweep: the configs/toy.ini epsilon sweep
# ---------------------------------------------------------------------------

def toy_setup(seed: int, tracer: Tracer | None) -> dict:
    return dict(seed=seed, data=toy_dataset(), oracle=ToyOracle())


def toy_body(inp: dict, phase: Phases) -> dict:
    """Mirrors ``experiments.run_toy_epsilon_sweep`` and keeps every theta-bar."""
    data, oracle, base = inp["data"], inp["oracle"], inp["seed"]
    theta_bars = np.empty((len(TOY_EPSILONS), TOY_SEEDS))
    proportions = np.empty(len(TOY_EPSILONS))
    steps = 0
    for i, eps in enumerate(TOY_EPSILONS):
        optimal = 0
        for s in range(TOY_SEEDS):
            config = experiments.toy_train_config(eps, base + s, **TOY_TRAIN)
            with phase("train"):
                trajectory = trainer.train_primal_dual(data, oracle, config)
            theta_bar = float(trajectory.final_average[0])
            theta_bars[i, s] = theta_bar
            if oracle.argmax_linear(np.array([theta_bar]))[0] == 1.0:
                optimal += 1
            steps += primal_dual_steps(data, config)
        proportions[i] = optimal / TOY_SEEDS
    return dict(proportions=proportions, theta_bars=theta_bars, train_steps=steps,
                digest={"proportions": proportions, "theta_bars": theta_bars})


def toy_check(inp: dict, out: dict, checks: Checks) -> None:
    for (i, s), theta in np.ndenumerate(out["theta_bars"]):
        checks.expect(math.isfinite(theta), f"theta_bar[{i},{s}] = {theta!r}")
    for i, prop in enumerate(out["proportions"]):
        checks.expect(0.0 <= prop <= 1.0, f"proportion[{i}] = {prop!r}")


# ---------------------------------------------------------------------------
# lab-verify: the eight verify suites at their default settings
# ---------------------------------------------------------------------------

def lab_setup(seed: int, tracer: Tracer | None) -> dict:
    return dict(seed=seed, cfg=cli.load_config(None))


def lab_body(inp: dict, phase: Phases) -> dict:
    rows = {suite: cli.run_verify_suite(suite, inp["cfg"], inp["seed"])
            for suite in VERIFY_SUITES}
    flat = [r for suite in VERIFY_SUITES for r in rows[suite]]
    values = np.array([[r.seed, r.measured, r.threshold, float(r.passed)] for r in flat])
    names = np.frombuffer("\n".join(r.check for r in flat).encode(), dtype=np.uint8)
    return dict(rows=flat, train_steps=0,
                digest={"check_rows": values, "check_names": names})


def lab_check(inp: dict, out: dict, checks: Checks) -> None:
    for r in out["rows"]:
        checks.expect(bool(r.passed), f"{r.check} seed {r.seed}: {r.measured!r}")


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "mst-small",
            dict(grid="6x6", edges=60, train_contexts=20, val_contexts=10,
                 test_contexts=10, scenarios_per_context=10, pd_iterations=50),
            mst_small_setup, mst_small_body, mst_small_check),
        Workload(
            "mst-grid20",
            dict(grid="20x20", edges=760, iterations=GRID20_ITERATIONS,
                 **{f"{k}_contexts": v for k, v in GRID20_CONTEXTS.items()},
                 **GRID20_TRAIN, saa=vars(GRID20_SAA)),
            grid20_setup, grid20_body, grid20_check),
        Workload(
            "toy-sweep",
            dict(epsilons=list(TOY_EPSILONS), seeds=TOY_SEEDS, **TOY_TRAIN),
            toy_setup, toy_body, toy_check),
        Workload(
            "lab-verify",
            dict(suites=list(VERIFY_SUITES)),
            lab_setup, lab_body, lab_check),
    )
}


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def measure(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Repeat set-up plus body until the next body would overrun ``seconds``
    (at least once), then top set-up samples up to SETUP_REPEATS."""
    setups, walls, phases, digests = [], [], [], []
    began = time.perf_counter()
    while True:
        inputs, elapsed = _timed(workload.setup, seed, tracer)
        setups.append(elapsed)
        phase = Phases()
        body_start = time.perf_counter()
        outputs, elapsed = _timed(workload.body, inputs, phase)
        walls.append(elapsed)
        phases.append(phase.seconds)
        digests.append(digest(outputs))
        if tracer is not None or time.perf_counter() - began + elapsed > seconds:
            break
    while tracer is None and len(setups) < SETUP_REPEATS:
        setups.append(_timed(workload.setup, seed, None)[1])
    return dict(inputs=inputs, outputs=outputs, setups=setups, walls=walls,
                phases=phases, digests=digests, body_start=body_start)
