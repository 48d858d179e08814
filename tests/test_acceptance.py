"""Acceptance gate: every contract-level criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The spanning-tree benchmark (four
methods, five seeds) is shared between the ordering and smoothness checks
through a module-scoped fixture.
"""

import time

import numpy as np
import pytest
from scipy.stats import norm

from costru import cli
from costru.core import make_rng
from costru.experiments import run_mst_method_benchmark, run_toy_epsilon_sweep
from costru.problems.datasets import generate_mst_dataset
from costru.problems.spanning_tree import MstEvaluator, MstOracle
from costru.problems.toy import ToyOracle, toy_scenarios
from costru.regularizers import perturbed_decomposition_target
from costru.trainer import TrainConfig, evaluate_policy, train_primal_dual
from costru import baselines, experiments


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def verify_suite(name: str) -> list:
    """The rows of ``costru verify <name>`` at the default config, seed 0."""
    return cli.run_verify_suite(name, cli.load_config(None), 0)


@pytest.fixture(scope="module")
def mst_benchmark():
    start = time.perf_counter()
    result = run_mst_method_benchmark(range(5))
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_01_toy_epsilon_sweep():
    """Proportion of seeds reaching the stochastic optimum as the
    perturbation scale varies (30 seeds, tabular problem)."""
    start = time.perf_counter()
    epsilons = [1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 10.0, 150.0]
    results = dict(run_toy_epsilon_sweep(epsilons, nb_seeds=30, base_seed=0))
    elapsed = time.perf_counter() - start
    ok = (
        results[1.0] <= 0.1
        and results[4.0] == 1.0
        and results[5.0] == 1.0
        and results[10.0] == 1.0
        and 0.3 <= results[150.0] <= 0.7
        and results[2.0] <= 0.1  # still failing at the low end of the window
        and elapsed < 120.0
    )
    detail = (
        f"prop(1)={results[1.0]:.2f} prop(2)={results[2.0]:.2f} "
        f"prop(4)={results[4.0]:.2f} prop(5)={results[5.0]:.2f} "
        f"prop(10)={results[10.0]:.2f} prop(150)={results[150.0]:.2f} "
        f"rise within (2,4), elapsed {elapsed:.0f}s"
    )
    report("toy-epsilon-sweep", ok, detail)


def test_02_toy_decomposition_moments():
    """Monte-Carlo decomposition targets match the closed-form normal CDFs
    within three standard errors at m = 10^4."""
    oracle = ToyOracle()
    m = 10_000
    expected = [norm.cdf(4.0), norm.cdf(-1.0), norm.cdf(-2.0)]
    details = []
    ok = True
    for scenario, mu_true in zip(toy_scenarios(), expected):
        mu = perturbed_decomposition_target(
            oracle, np.zeros(1), scenario, 1.0, 1.0, m,
            make_rng(2025, scenario.noise_payload),
        )
        tol = 3.0 * np.sqrt(mu_true * (1.0 - mu_true) / m)
        err = abs(float(mu[0]) - mu_true)
        ok = ok and err <= tol
        details.append(f"|{float(mu[0]):.5f}-{mu_true:.5f}|<={tol:.1e}")
    report("toy-decomposition-moments", ok, " ".join(details))


def test_03_oracle_exactness():
    rows = verify_suite("oracles")
    ok = all(r.passed for r in rows) and all(r.measured == 0.0 for r in rows)
    detail = "; ".join(f"{r.check}: max|diff|={r.measured}" for r in rows)
    report("oracle-exactness", ok, detail)


def test_04_gradient_fidelity():
    rows = verify_suite("gradients")
    ok = all(r.passed for r in rows)
    detail = "; ".join(f"{r.check}={r.measured:.2e}(<= {r.threshold})" for r in rows)
    report("gradient-fidelity", ok, detail)


def test_05_alternating_convergence():
    start = time.perf_counter()
    rows = verify_suite("convergence")
    elapsed = time.perf_counter() - start
    mono = [r for r in rows if "monotone" in r.check]
    rate = [r for r in rows if "rate" in r.check]
    ok = all(r.passed for r in rows) and elapsed < 60.0
    detail = (
        f"20 instances; worst increase {max(r.measured for r in mono):.2e} (<=1e-12); "
        f"worst rate violation {max(r.measured for r in rate):.2e}; elapsed {elapsed:.0f}s"
    )
    report("alternating-convergence-rate", ok, detail)


def test_06_five_point_property():
    rows = verify_suite("five-point")
    ok = all(r.passed for r in rows)
    detail = "; ".join(f"{r.check}: worst violation {r.measured:.2e}" for r in rows)
    report("five-point-property", ok, detail)


def test_07_jensen_gap_convexity():
    rows = verify_suite("jensen-gap")
    ok = all(r.passed for r in rows)
    detail = "; ".join(f"{r.check}: max violation {r.measured:.2e}" for r in rows)
    report("jensen-gap-convexity", ok, detail)


def test_08_mirror_descent_equivalence():
    rows = verify_suite("mirror-descent")
    matched = next(r for r in rows if "matched" in r.check)
    control = next(r for r in rows if "control" in r.check)
    ok = matched.passed and control.passed
    detail = (f"matched deviation {matched.measured:.2e} (<1e-8); "
              f"doubled-step control {control.measured:.2e} (>1e-3)")
    report("mirror-descent-equivalence", ok, detail)


def test_09_risk_bound():
    rows = verify_suite("risk-bound")
    direct = [r for r in rows if "pair" not in r.check]
    pairs = [r for r in rows if "pair" in r.check]
    ok = all(r.passed for r in rows)
    detail = (
        f"{len(direct)} bound checks min slack {min(r.measured for r in direct):.3g}; "
        f"{len(pairs)} suboptimality pairs min slack {min(r.measured for r in pairs):.3g}"
    )
    report("risk-bound", ok, detail)


def test_10_mst_method_ordering(mst_benchmark):
    result, elapsed = mst_benchmark
    med = float(result.median_gaps.mean())
    unc = float(result.uncoordinated_gaps.mean())
    pd = float(result.primal_dual_gaps.mean())
    fc = float(result.fully_coordinated_gaps.mean())
    ok = (
        med - unc >= 0.02
        and unc - pd >= 0.005
        and abs(pd - fc) <= 0.015
        and elapsed < 900.0
    )
    detail = (
        f"mean test gaps: median {med:.4f}, uncoordinated {unc:.4f}, "
        f"primal-dual(avg w) {pd:.4f}, fully-coordinated {fc:.4f}; "
        f"margins: med-unc {100*(med-unc):+.2f}pts (>=2), "
        f"unc-pd {100*(unc-pd):+.2f}pts (>=0.5), |pd-fc| {100*abs(pd-fc):.2f}pts (<=1.5); "
        f"elapsed {elapsed:.0f}s (<900)"
    )
    report("mst-method-ordering", ok, detail)


def test_11_first_iteration_identity():
    """One outer iteration at kappa = 2^-40, where every decomposition target
    is the scenario's anticipative split, reproduces uncoordinated
    imitation."""
    splits = generate_mst_dataset(experiments.MST_BENCH_GEN, seed=0)
    _, train_data = splits["train"]
    _, val_data = splits["val"]
    oracle = MstOracle(experiments.MST_BENCH_GEN.rows, experiments.MST_BENCH_GEN.cols)
    evaluator = MstEvaluator(oracle)
    imit = experiments.mst_bench_imitation_config(0)
    pd1_config = TrainConfig(
        nb_iterations=1, nb_scenarios=imit.nb_scenarios, nb_samples=imit.nb_samples,
        nb_epochs=imit.nb_epochs, lr_init=imit.lr_init, epsilon=imit.epsilon,
        kappa=9.094947017729282e-13, seed=0,
    )
    trajectory = train_primal_dual(train_data, oracle, pd1_config)
    w_unc = baselines.uncoordinated_imitation(train_data, oracle, imit)
    gap_pd1 = evaluate_policy(trajectory.per_iteration[-1], val_data, oracle, evaluator)[1]
    gap_unc = evaluate_policy(w_unc, val_data, oracle, evaluator)[1]
    diff = abs(gap_pd1 - gap_unc)
    weight_diff = float(np.max(np.abs(trajectory.per_iteration[-1] - w_unc)))
    ok = diff <= 1e-9
    report("first-iteration-identity", ok,
           f"gap difference {diff:.2e} (weights differ by {weight_diff:.2e})")


def test_12_averaged_weights_smoothness(mst_benchmark):
    result, _ = mst_benchmark
    ratios = result.val_tv_ratios
    ok = bool(np.all(ratios <= 0.5))
    report("averaged-weights-smoothness", ok,
           "validation-gap TV ratios (averaged/current) per seed: "
           + " ".join(f"{r:.3f}" for r in ratios) + " (all <= 0.5)")


def test_13_csv_determinism(tmp_path):
    """Every command rerun with identical config and seed yields
    byte-identical CSVs."""
    toy_cfg = tmp_path / "toy.ini"
    toy_cfg.write_text(
        "[problem]\nkind = toy\n[run]\nseed = 7\n"
        "[train]\nnb_iterations = 3\nnb_samples = 100\nnb_epochs = 2\n"
        "[sweep]\nepsilons = 1,5\nnb_seeds = 2\n"
    )
    mst_cfg = tmp_path / "mst.ini"
    mst_cfg.write_text(
        "[problem]\nkind = mst\n[run]\nseed = 7\n"
        "[generate]\nrows = 3\ncols = 3\ntrain_instances = 2\nval_instances = 2\n"
        "test_instances = 2\nscenarios_per_instance = 3\n"
        "[train]\nnb_iterations = 2\nnb_scenarios = 2\nnb_samples = 5\n"
        "nb_epochs = 2\nlr_init = 0.01\nepsilon = 0.5\n"
        "[verify]\ntrials = 50\n"
    )
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", str(mst_cfg), "--out", str(data_dir)]) == 0

    produced = []
    for attempt in ("a", "b"):
        base = tmp_path / attempt
        outputs = []
        assert cli.main(["train", "primal-dual", "--config", str(mst_cfg),
                         "--data", str(data_dir), "--out", str(base / "pd")]) == 0
        outputs.append((base / "pd" / "metrics.csv").read_bytes())
        assert cli.main(["train", "median", "--config", str(mst_cfg),
                         "--data", str(data_dir), "--out", str(base / "med")]) == 0
        outputs.append((base / "med" / "metrics.csv").read_bytes())
        assert cli.main(["sweep-epsilon", "--config", str(toy_cfg),
                         "--out", str(base / "sweep.csv")]) == 0
        outputs.append((base / "sweep.csv").read_bytes())
        assert cli.main(["verify", "jensen-gap", "--config", str(mst_cfg),
                         "--out", str(base / "verify.csv")]) == 0
        outputs.append((base / "verify.csv").read_bytes())
        produced.append(outputs)

    matches = [a == b for a, b in zip(*produced)]
    ok = all(matches)
    report("csv-determinism", ok,
           f"{len(matches)} command CSVs byte-identical across reruns: {matches}")
