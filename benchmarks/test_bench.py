"""Tests of the benchmark itself (not collected by the package's test run).

    PYTHONPATH=src python -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from costru import cli, core, experiments, trainer  # noqa: E402
from costru.problems import datasets  # noqa: E402


def test_mst_small_gaps_equal_method_benchmark():
    seed = 1
    out = workloads.mst_small_body(workloads.mst_small_setup(seed, None),
                                   workloads.Phases())
    ref = experiments.run_mst_method_benchmark([seed])
    expected = [ref.median_gaps[0], ref.uncoordinated_gaps[0], ref.primal_dual_gaps[0],
                ref.fully_coordinated_gaps[0]]
    assert out["test_gaps"].tolist() == expected


def test_toy_body_equals_epsilon_sweep(monkeypatch):
    monkeypatch.setattr(workloads, "TOY_EPSILONS", (1.0, 150.0))
    monkeypatch.setattr(workloads, "TOY_SEEDS", 2)
    out = workloads.toy_body(workloads.toy_setup(5, None), workloads.Phases())
    sweep = experiments.run_toy_epsilon_sweep([1.0, 150.0], 2, base_seed=5,
                                              **workloads.TOY_TRAIN)
    assert out["proportions"].tolist() == [p for _, p in sweep]
    assert out["train_steps"] == 2 * 2 * 20 * 3 * (1 + 10)


def test_sizes_mirror_the_configs():
    mst = cli.load_config(str(ROOT / "configs" / "mst.ini"))
    assert datasets.GenConfig(**mst["generate"]) == workloads.GRID20_GEN
    assert {k: mst["train"][k] for k in workloads.GRID20_TRAIN} == workloads.GRID20_TRAIN
    assert vars(workloads.GRID20_SAA) == mst["saa"]
    assert mst["train"]["nb_iterations"] == workloads.PAPER_ITERATIONS
    assert mst["generate"]["train_instances"] == workloads.PAPER_TRAIN_CONTEXTS
    assert (mst["generate"]["val_instances"] * mst["generate"]["scenarios_per_instance"]
            == workloads.PAPER_EVAL_SCENARIOS)
    toy = cli.load_config(str(ROOT / "configs" / "toy.ini"))
    eps = tuple(float(e) for e in toy["sweep"]["epsilons"].split(","))
    assert eps == workloads.TOY_EPSILONS
    assert toy["sweep"]["nb_seeds"] == workloads.TOY_SEEDS
    assert {k: toy["train"][k] for k in workloads.TOY_TRAIN} == workloads.TOY_TRAIN


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        report.final_per_layer_names()


def test_self_time_subtracts_direct_children():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 3.0, 1.0, 4.0])
    assert tracing.self_times(parent, duration).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_percentile_needs_ten_samples_beyond():
    assert tracing.percentile(np.arange(999.0), 99)["value"] is None
    p99 = tracing.percentile(np.arange(1000.0), 99)
    assert p99["n"] == 1000 and p99["value"] == pytest.approx(989.01)


def test_traced_run_matches_untraced_and_restores_originals():
    data = workloads.toy_setup(0, None)["data"]
    config = trainer.TrainConfig(nb_iterations=2, nb_scenarios=3, nb_samples=50,
                                 nb_epochs=2, lr_init=0.1, epsilon=1.0)
    plain = trainer.train_primal_dual(data, workloads.ToyOracle(), config)
    originals = (trainer.train_primal_dual, trainer.adam_step,
                 core.RngStream.generator)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = trainer.train_primal_dual(data, workloads.ToyOracle(), config)
    assert np.array_equal(plain.per_iteration, traced.per_iteration)
    assert (trainer.train_primal_dual, trainer.adam_step,
            core.RngStream.generator) == originals
    summary = tracing.summarize(tracer.arrays(), tracer.counts)
    steps = summary["spans"]["trainer.coordination_pass"]["work"]
    assert steps == workloads.primal_dual_steps(data, config) - 2 * 3
    assert summary["spans"]["trainer.adam_step"]["calls"] == steps
    assert summary["counts"]["regularizers.normal_draws"] == 50 * (2 * 3 + steps)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "toy-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
