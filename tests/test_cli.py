"""Command-line interface: config validation, commands, determinism, exit codes."""

import csv
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from costru import cli, experiments, native, simplex_lab
from costru.baselines import SaaConfig
from costru.core import CheckRow, InputError, make_rng
from costru.problems.datasets import GenConfig
from costru.problems.spanning_tree import InfeasibleError
from costru.regularizers import RegularizerKind, prediction_rows
from costru.simplex_lab import BoundaryError
from costru.trainer import TrainConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TOY_CONFIG = """
[problem]
kind = toy

[run]
seed = 1

[train]
nb_iterations = 3
nb_samples = 100
nb_epochs = 2

[sweep]
epsilons = 1,5
nb_seeds = 2
"""

MST_CONFIG = """
[problem]
kind = mst

[run]
seed = 2

[generate]
rows = 3
cols = 3
train_instances = 3
val_instances = 2
test_instances = 2
scenarios_per_instance = 3

[train]
nb_iterations = 2
nb_scenarios = 2
nb_samples = 5
nb_epochs = 2
lr_init = 0.01
epsilon = 0.5

[saa]
lagrangian_iters = 4
"""


@pytest.fixture
def toy_config(tmp_path):
    path = tmp_path / "toy.ini"
    path.write_text(TOY_CONFIG)
    return str(path)


@pytest.fixture
def mst_config(tmp_path):
    path = tmp_path / "mst.ini"
    path.write_text(MST_CONFIG)
    return str(path)


@pytest.fixture
def mst_data(tmp_path, mst_config):
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "--config", mst_config, "--out", str(data_dir)]) == 0
    return str(data_dir)


# Files that are not npz archives, by test id.
NOT_NPZ = {
    "text": lambda path: path.write_text("not an archive"),
    "empty": lambda path: path.write_bytes(b""),
    "broken-zip": lambda path: path.write_bytes(b"PK\x03\x04 a broken zip"),
    "npy": lambda path: np.save(path.with_suffix(".npy"), np.zeros(5))
    or path.with_suffix(".npy").rename(path),
}


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    return list(csv.reader(lines[1:]))


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nwarp_factor = 9\n")
        with pytest.raises(InputError):
            cli.load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[teleport]\nx = 1\n")
        with pytest.raises(InputError):
            cli.load_config(str(path))

    def test_defaults_by_problem_kind(self, tmp_path):
        toy = tmp_path / "toy.ini"
        toy.write_text("[problem]\nkind = toy\n")
        cfg = cli.load_config(str(toy))
        assert cfg["train"]["nb_iterations"] == 20
        assert cfg["train"]["lr_init"] == 0.1
        mst = tmp_path / "mst.ini"
        mst.write_text("[problem]\nkind = mst\n")
        cfg = cli.load_config(str(mst))
        assert cfg["train"]["nb_iterations"] == 50
        assert cfg["train"]["nb_samples"] == 20
        assert cfg["generate"]["rows"] == 20
        assert cfg["generate"]["train_instances"] == 50

    @pytest.mark.parametrize("text", [
        b"seed = 1\n",
        b"[run]\nseed = 1\nseed = 2\n",
        b"[run]\nseed = 1\n[run]\nseed = 2\n",
        b"[problem]\nkind = 100%\n",
        b"[problem]\nkind = \xff\n",
    ], ids=["no-section-header", "duplicate-key", "duplicate-section", "bare-percent",
            "not-utf8"])
    def test_unparsable_config_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_bytes(text)
        with pytest.raises(InputError, match="cannot parse config file"):
            cli.load_config(str(path))
        assert cli.main(["verify", "oracles", "--config", str(path),
                         "--out", str(tmp_path / "report.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self):
        with pytest.raises(InputError):
            cli.load_config("/nonexistent/path.ini")

    def test_config_hash_stable(self, toy_config):
        cfg = cli.load_config(toy_config)
        assert cli.config_hash(cfg) == cli.config_hash(cli.load_config(toy_config))


class TestShippedConfigs:
    """The files under configs/ say what the code's defaults say."""

    def test_mst_small_is_the_method_benchmark(self):
        cfg = cli.load_config(str(CONFIGS / "mst-small.ini"))
        assert GenConfig(**cfg["generate"]) == experiments.MST_BENCH_GEN
        assert SaaConfig(**cfg["saa"]) == experiments.MST_BENCH_SAA
        for seed in (0, 7):
            assert (TrainConfig(**cfg["train"], seed=seed)
                    == experiments.mst_bench_primal_dual_config(seed))

    def test_mst_small_imitation_files_are_the_method_benchmark(self):
        small = cli.load_config(str(CONFIGS / "mst-small.ini"))
        unc = cli.load_config(str(CONFIGS / "mst-small-uncoordinated.ini"))
        fc = cli.load_config(str(CONFIGS / "mst-small-fully-coordinated.ini"))
        for cfg in (unc, fc):
            assert {k: cfg[k] for k in ("problem", "run", "generate")} == {
                k: small[k] for k in ("problem", "run", "generate")}
        assert SaaConfig(**fc["saa"]) == experiments.MST_BENCH_SAA
        for seed in (0, 7):
            assert (TrainConfig(**unc["train"], seed=seed)
                    == experiments.mst_bench_imitation_config(seed))
            assert (TrainConfig(**fc["train"], seed=seed)
                    == experiments.mst_bench_imitation_config(seed, epsilon=0.5))

    def test_no_coordination_ablation_is_mst_small_at_tiny_kappa(self):
        small = cli.load_config(str(CONFIGS / "mst-small.ini"))
        ablation = cli.load_config(str(CONFIGS / "mst-small-no-coordination.ini"))
        assert ablation["train"]["kappa"] == 2.0 ** -40
        ablation["train"]["kappa"] = small["train"]["kappa"]
        assert ablation == small

    def test_cli_gives_the_method_benchmark_gaps(self, tmp_path):
        """``costru train`` on the shipped mst-small files gives the four
        test gaps of ``run_mst_method_benchmark`` at seed 0, bit for bit."""
        data = tmp_path / "data"
        assert cli.main(["generate", "--config", str(CONFIGS / "mst-small.ini"),
                         "--seed", "0", "--out", str(data)]) == 0
        # method -> (config file, metrics column of its test gap in the last row)
        runs = {"median": ("mst-small.ini", "mean_gap"),
                "uncoordinated": ("mst-small-uncoordinated.ini", "test_gap"),
                "primal-dual": ("mst-small.ini", "test_gap_avg_w"),
                "fully-coordinated": ("mst-small-fully-coordinated.ini", "test_gap")}
        gaps = []
        for method, (config, column) in runs.items():
            out = tmp_path / method
            assert cli.main(["train", method, "--config", str(CONFIGS / config), "--seed",
                             "0", "--data", str(data), "--out", str(out)]) == 0
            header, *rows = read_rows(out / "metrics.csv")
            gaps.append(float(rows[-1][header.index(column)]))
        ref = experiments.run_mst_method_benchmark([0])
        assert gaps == [ref.median_gaps[0], ref.uncoordinated_gaps[0],
                        ref.primal_dual_gaps[0], ref.fully_coordinated_gaps[0]]

    def test_mst_is_the_grid_defaults(self):
        cfg = cli.load_config(str(CONFIGS / "mst.ini"))
        assert GenConfig(**cfg["generate"]) == GenConfig()
        assert cfg["train"] == experiments.MST_DEFAULTS
        assert SaaConfig(**cfg["saa"]) == SaaConfig()

    def test_toy_is_the_tabular_defaults(self):
        cfg = cli.load_config(str(CONFIGS / "toy.ini"))
        without_epsilon = {k: v for k, v in experiments.TOY_DEFAULTS.items() if k != "epsilon"}
        assert {k: v for k, v in cfg["train"].items() if k != "epsilon"} == without_epsilon
        assert cfg["sweep"] == cli.load_config(None)["sweep"]


class TestGenerate:
    def test_writes_all_splits_and_manifest(self, tmp_path, mst_config):
        out = tmp_path / "ds"
        assert cli.main(["generate", "--config", mst_config, "--out", str(out)]) == 0
        for name in ("train.npz", "val.npz", "test.npz", "manifest.json"):
            assert (out / name).exists()

    def test_toy_generate_manifest_only(self, tmp_path, toy_config):
        out = tmp_path / "toy-ds"
        assert cli.main(["generate", "--config", toy_config, "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert list(out.glob("*.npz")) == []

    def test_rerun_identical_arrays(self, tmp_path, mst_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["generate", "--config", mst_config, "--out", str(out1)])
        cli.main(["generate", "--config", mst_config, "--out", str(out2)])
        with np.load(out1 / "train.npz") as a, np.load(out2 / "train.npz") as b:
            for key in a.files:
                np.testing.assert_array_equal(a[key], b[key])
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    @pytest.mark.parametrize("key", ["rows", "cols"])
    def test_empty_grid_exits_two(self, tmp_path, mst_config, key):
        """The config is checked before the output directory is made."""
        cfg = tmp_path / "empty.ini"
        cfg.write_text(Path(mst_config).read_text().replace(f"{key} = 3", f"{key} = 0"))
        out = tmp_path / "ds"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_finite_noise_scale_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "nan.ini"
        cfg.write_text("[generate]\nrows = 2\ncols = 2\nnoise_scale = nan\n")
        assert cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 2
        assert "noise_scale must be a finite number" in capsys.readouterr().err


class TestTrain:
    def test_toy_primal_dual_trajectory(self, tmp_path, toy_config):
        out = tmp_path / "run"
        assert cli.main(["train", "primal-dual", "--config", toy_config,
                         "--out", str(out)]) == 0
        rows = read_rows(out / "trajectory.csv")
        assert rows[0] == ["iteration", "theta_current", "theta_avg"]
        assert len(rows) == 1 + 3  # header + nb_iterations
        assert (out / "weights.npz").exists()

    # A run that exits 2 has made no run directory: the method, the config
    # and the splits are checked first.
    def test_toy_rejects_median(self, tmp_path, toy_config):
        out = tmp_path / "x"
        assert cli.main(["train", "median", "--config", toy_config, "--out", str(out)]) == 2
        assert not out.exists()

    def test_mst_requires_data(self, tmp_path, mst_config):
        out = tmp_path / "x"
        assert cli.main(["train", "primal-dual", "--config", mst_config,
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_mst_missing_data_directory_exits_two(self, tmp_path, mst_config):
        out = tmp_path / "x"
        assert cli.main(["train", "primal-dual", "--config", mst_config,
                         "--data", str(tmp_path / "nodata"), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("method", ["primal-dual", "uncoordinated",
                                        "fully-coordinated", "median"])
    def test_mst_methods_run(self, tmp_path, mst_config, mst_data, method):
        out = tmp_path / f"run-{method}"
        assert cli.main(["train", method, "--config", mst_config,
                         "--data", mst_data, "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        if method == "median":
            assert (out / "median_solutions_val.npz").exists()
        else:
            assert (out / "weights.npz").exists()
        if method == "fully-coordinated":
            assert (out / "targets.npz").exists()

    def test_splits_on_another_grid_exit_two_before_training(
            self, tmp_path, monkeypatch, capsys, mst_config, mst_data):
        other = tmp_path / "other.ini"
        other.write_text(MST_CONFIG.replace("rows = 3", "rows = 2"))
        other_data = tmp_path / "other-data"
        assert cli.main(["generate", "--config", str(other), "--out", str(other_data)]) == 0
        (other_data / "val.npz").replace(Path(mst_data) / "val.npz")
        trained = []
        monkeypatch.setattr(experiments, "train_primal_dual",
                            lambda *args: trained.append(args))
        assert cli.main(["train", "primal-dual", "--config", mst_config,
                         "--data", mst_data, "--out", str(tmp_path / "run")]) == 2
        assert trained == []
        assert "val split is on a 2x3 grid, train on 3x3" in capsys.readouterr().err

    def test_splits_of_another_feature_width_exit_two_before_training(
            self, tmp_path, monkeypatch, capsys, mst_config, mst_data):
        other = tmp_path / "other.ini"
        other.write_text(MST_CONFIG.replace("[generate]\n", "[generate]\nfeature_dim = 6\n"))
        other_data = tmp_path / "other-data"
        assert cli.main(["generate", "--config", str(other), "--out", str(other_data)]) == 0
        (other_data / "val.npz").replace(Path(mst_data) / "val.npz")
        trained = []
        monkeypatch.setattr(experiments, "train_primal_dual",
                            lambda *args: trained.append(args))
        assert cli.main(["train", "primal-dual", "--config", mst_config,
                         "--data", mst_data, "--out", str(tmp_path / "run")]) == 2
        assert trained == []
        assert "val split has feature width 6, train 5" in capsys.readouterr().err

    @pytest.mark.parametrize("write", NOT_NPZ.values(), ids=NOT_NPZ)
    def test_split_that_is_not_npz_exits_two(self, tmp_path, capsys, mst_config, mst_data,
                                            write):
        write(Path(mst_data) / "val.npz")
        assert cli.main(["train", "uncoordinated", "--config", mst_config,
                         "--data", mst_data, "--out", str(tmp_path / "run")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("lr_init", "nan"), ("epsilon", "inf"),
                                            ("kappa", "-inf")])
    def test_non_finite_train_value_exits_two(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(TOY_CONFIG.replace("[train]\n", f"[train]\n{key} = {value}\n"))
        out = tmp_path / "run"
        assert cli.main(["train", "primal-dual", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{key} must be a finite positive number" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_non_finite_sigma0_exits_two(self, tmp_path, capsys, mst_data):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MST_CONFIG.replace("[saa]\n", "[saa]\nsigma0 = nan\n"))
        assert cli.main(["train", "fully-coordinated", "--config", str(cfg), "--data", mst_data,
                         "--out", str(tmp_path / "run")]) == 2
        assert "sigma0 must be a finite positive number" in capsys.readouterr().err

    def test_missing_numpy_blas_trains_on_the_generic_path(self, tmp_path, monkeypatch,
                                                          request, mst_config, mst_data):
        """Without numpy's BLAS entries there is no coordination pass:
        training exits 0 with the files of a fused run, byte for byte."""
        fused = tmp_path / "fused"
        assert cli.main(["train", "primal-dual", "--config", mst_config, "--data", mst_data,
                         "--out", str(fused)]) == 0
        monkeypatch.setattr(native, "_BLAS", ("no_such_dgemv", "scipy_cblas_ddot64_"))
        request.addfinalizer(native._numpy_blas.cache_clear)
        native._numpy_blas.cache_clear()
        generic = tmp_path / "generic"
        assert cli.main(["train", "primal-dual", "--config", mst_config, "--data", mst_data,
                         "--out", str(generic)]) == 0
        files = sorted(p.name for p in fused.iterdir())
        assert files == sorted(p.name for p in generic.iterdir()) and "weights.npz" in files
        for name in files:
            assert (fused / name).read_bytes() == (generic / name).read_bytes(), name

    def test_rerun_byte_identical_csv(self, tmp_path, mst_config, mst_data):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli.main(["train", "uncoordinated", "--config", mst_config,
                             "--data", mst_data, "--out", str(out)]) == 0
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]


class TestEvaluate:
    def test_evaluate_stored_weights(self, tmp_path, mst_config, mst_data):
        run = tmp_path / "run"
        cli.main(["train", "uncoordinated", "--config", mst_config,
                  "--data", mst_data, "--out", str(run)])
        out_csv = tmp_path / "eval.csv"
        assert cli.main(["evaluate", "--config", mst_config,
                         "--weights", str(run / "weights.npz"),
                         "--data", mst_data, "--split", "test",
                         "--out", str(out_csv)]) == 0
        rows = read_rows(out_csv)
        assert rows[0] == ["split", "mean_cost", "mean_gap"]
        assert rows[1][0] == "test"

    def test_nan_costs_exit_two(self, tmp_path, mst_config, mst_data):
        with np.load(Path(mst_data) / "test.npz") as split:
            arrays = dict(split)
        arrays["scenario_costs"][0, 0, 0] = np.nan
        bad = tmp_path / "bad"
        bad.mkdir()
        np.savez(bad / "test.npz", **arrays)
        weights = tmp_path / "weights.npz"
        np.savez(weights, weights=np.zeros(arrays["features"].shape[-1]))
        assert cli.main(["evaluate", "--config", mst_config, "--weights", str(weights),
                         "--data", str(bad), "--split", "test",
                         "--out", str(tmp_path / "eval.csv")]) == 2

    @pytest.mark.parametrize("defect", [
        lambda a: a.pop("features"),
        lambda a: a.update(first_stage=a["first_stage"][:1]),
        lambda a: a.update(features=a["features"][:1]),
        lambda a: a.update(scenario_costs=a["scenario_costs"].astype(str)),
    ], ids=["no-features", "fewer-first-stages", "fewer-features", "string-costs"])
    def test_malformed_split_exits_two(self, tmp_path, mst_config, mst_data, defect):
        """A split file is validated when it is read."""
        with np.load(Path(mst_data) / "test.npz") as split:
            arrays = dict(split)
        defect(arrays)
        bad = tmp_path / "bad"
        bad.mkdir()
        np.savez(bad / "test.npz", **arrays)
        weights = tmp_path / "weights.npz"
        np.savez(weights, weights=np.zeros(5))
        assert cli.main(["evaluate", "--config", mst_config, "--weights", str(weights),
                         "--data", str(bad), "--split", "test",
                         "--out", str(tmp_path / "eval.csv")]) == 2

    @pytest.mark.parametrize("write", NOT_NPZ.values(), ids=NOT_NPZ)
    def test_split_that_is_not_npz_exits_two(self, tmp_path, capsys, mst_config, mst_data,
                                            write):
        write(Path(mst_data) / "test.npz")
        weights = tmp_path / "weights.npz"
        np.savez(weights, weights=np.zeros(5))
        out = tmp_path / "eval.csv"
        assert cli.main(["evaluate", "--config", mst_config, "--weights", str(weights),
                         "--data", mst_data, "--split", "test", "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_mst_requires_data(self, tmp_path):
        weights = tmp_path / "weights.npz"
        np.savez(weights, weights=np.zeros(5))
        assert cli.main(["evaluate", "--weights", str(weights),
                         "--out", str(tmp_path / "eval.csv")]) == 2

    def test_weights_file_without_weights_exits_two(self, tmp_path, mst_config, mst_data):
        weights = tmp_path / "weights.npz"
        np.savez(weights, per_iteration=np.zeros((2, 5)))
        assert cli.main(["evaluate", "--config", mst_config, "--weights", str(weights),
                         "--data", mst_data, "--out", str(tmp_path / "eval.csv")]) == 2

    @pytest.mark.parametrize("write", [
        *(lambda path, p, w=w: w(path) for w in NOT_NPZ.values()),
        lambda path, p: np.savez(path, weights=np.zeros((1, p))),
        lambda path, p: np.savez(path, weights=np.zeros(p + 1)),
        lambda path, p: np.savez(path, weights=np.full(p, np.nan)),
        lambda path, p: np.savez(path, final_average=np.array(["1"] * p), weights=np.zeros(p)),
    ], ids=[*NOT_NPZ, "2-d", "too-wide", "nan", "strings"])
    def test_unusable_weights_exit_two(self, tmp_path, mst_config, mst_data, capsys, write):
        """The weights file is validated before any policy is evaluated."""
        with np.load(Path(mst_data) / "test.npz") as split:
            width = split["features"].shape[-1]
        weights = tmp_path / "weights.npz"
        write(weights, width)
        out = tmp_path / "eval.csv"
        assert cli.main(["evaluate", "--config", mst_config, "--weights", str(weights),
                         "--data", mst_data, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_jensen_gap_suite_passes(self, tmp_path, toy_config):
        cfg = tmp_path / "v.ini"
        cfg.write_text("[verify]\ntrials = 50\n")
        out = tmp_path / "report.csv"
        assert cli.main(["verify", "jensen-gap", "--config", str(cfg),
                         "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == CheckRow.csv_header()
        assert all(row[-1] == "1" for row in rows[1:])

    def test_oracles_suite_small(self, tmp_path):
        cfg = tmp_path / "v.ini"
        cfg.write_text("[verify]\ndraws = 30\n")
        out = tmp_path / "report.csv"
        assert cli.main(["verify", "oracles", "--config", str(cfg),
                         "--out", str(out)]) == 0

    def test_failure_exits_one(self, tmp_path, monkeypatch):
        failing = [CheckRow("synthetic", 0, 1.0, 0.5, False)]
        monkeypatch.setattr(cli, "run_verify_suite", lambda *a, **k: failing)
        out = tmp_path / "report.csv"
        assert cli.main(["verify", "jensen-gap", "--out", str(out)]) == 1

    @pytest.mark.parametrize("error", [FloatingPointError("non-finite gradient"),
                                       InfeasibleError("graph is disconnected"),
                                       BoundaryError("iterate left the simplex"),
                                       MemoryError("cannot allocate 14.9 GiB"),
                                       RuntimeError("unexpected")],
                             ids=lambda exc: type(exc).__name__)
    def test_internal_error_exits_four(self, tmp_path, monkeypatch, capsys, caplog, error):
        """Any exception outside exits 2 and 3 exits 4, never 1 (a failed
        check); the traceback goes to the debug log."""
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "run_verify_suite", fail)
        caplog.set_level("DEBUG", logger="costru")
        assert cli.main(["verify", "jensen-gap", "--out", str(tmp_path / "r.csv")]) == 4
        assert f"internal error: {type(error).__name__}" in capsys.readouterr().err
        assert any(record.exc_info and record.exc_info[1] is error for record in caplog.records)

    @pytest.mark.parametrize("suite, key, value", [
        ("five-point", "probes", 0), ("jensen-gap", "trials", 0),
        ("mirror-descent", "iterations", 0), ("oracles", "draws", 0),
        ("oracles", "draws", 3), ("conjugates", "instances", -1)])
    def test_zero_counts_exit_two(self, tmp_path, suite, key, value):
        """A suite must not run, and pass, on zero samples.  The oracle suite
        splits its draws over six graphs, so it needs at least six."""
        cfg = tmp_path / "v.ini"
        cfg.write_text(f"[verify]\n{key} = {value}\n")
        out = tmp_path / "report.csv"
        assert cli.main(["verify", suite, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_convergence_trace_rows(self, tmp_path):
        """The trace rows equal the alternating loop written out in full:
        decompose at s_{t-1}, record surrogate, partial minimum and Jensen
        gap at q_t, then coordinate."""
        cfg = tmp_path / "v.ini"
        cfg.write_text("[verify]\ninstances = 1\niterations = 40\n")
        out = tmp_path / "report.csv"
        assert cli.main(["verify", "convergence", "--seed", "3", "--config", str(cfg),
                         "--out", str(out)]) == 0
        kind = RegularizerKind.negentropy()
        costs = simplex_lab.random_cost_table(make_rng(3, 7).generator(), 5, 6)
        s = np.zeros(6)
        expected = []
        for t in range(1, 41):
            q = prediction_rows(s[None, :] - costs / 1.0, kind)
            expected.append([str(t)] + [format(v, ".17g") for v in (
                simplex_lab.surrogate_value(s, q, costs, 1.0, kind),
                simplex_lab.partial_min_surrogate(q, costs, 1.0, kind),
                simplex_lab.jensen_gap(q[None], kind)[0])])
            s = simplex_lab.exact_coordination(q, kind, strict=False)
        rows = read_rows(tmp_path / "report_trace.csv")
        assert rows[0] == ["iteration", "surrogate_value", "partial_min_value", "jensen_gap"]
        assert rows[1:] == expected

    def test_trace_reads_the_suite_constants(self, tmp_path, monkeypatch):
        """The traces run at the suites' own kappa and alpha: moved to 2.0
        and 0.25, the convergence trace's partial minimum is the alternating
        scheme's at kappa = 2 and the mirror-descent trace the comparison's
        at kappa = 2, alpha = 0.25."""
        monkeypatch.setattr(simplex_lab, "CONVERGENCE_KAPPA", 2.0)
        monkeypatch.setattr(simplex_lab, "MIRROR_DESCENT_KAPPA", 2.0)
        monkeypatch.setattr(simplex_lab, "MIRROR_DESCENT_ALPHA", 0.25)
        for suite in ("convergence", "mirror-descent"):
            cli.main(["verify", suite, "--seed", "3", "--out", str(tmp_path / f"{suite}.csv")])
        kind = RegularizerKind.negentropy()
        costs = simplex_lab.convergence_instance(3)
        traj = simplex_lab.run_alternating_exact(costs[None], np.zeros((1, 6)), 2.0, kind, 50)
        rows = read_rows(tmp_path / "convergence_trace.csv")
        assert [float(r[2]) for r in rows[1:]] == traj.values[:, 0].tolist()
        costs, s0 = simplex_lab.mirror_descent_instance(3)
        deviations = simplex_lab.run_mirror_descent_comparison(costs, s0, 2.0, 50, 0.25)
        rows = read_rows(tmp_path / "mirror-descent_trace.csv")
        assert [float(r[1]) for r in rows[1:]] == deviations.tolist()

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        """numpy's seed sequences take no negative seed; neither does the CLI,
        from the command line or from the config."""
        out = tmp_path / "report.csv"
        assert cli.main(["verify", "conjugates", "--seed", "-1", "--out", str(out)]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        cfg = tmp_path / "v.ini"
        cfg.write_text("[run]\nseed = -3\n")
        assert cli.main(["verify", "conjugates", "--config", str(cfg), "--out", str(out)]) == 2
        assert "run.seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_native_build_exits_four(self, tmp_path, monkeypatch, capsys, request):
        """A compiler that fails: exit 4, with a message that names cc and
        ends with the compiler's standard error."""
        compiler = tmp_path / "bin" / "cc"
        compiler.parent.mkdir()
        compiler.write_text("#!/bin/sh\necho 'kernel.c:1: error: no registers' >&2\nexit 1\n")
        compiler.chmod(0o755)
        monkeypatch.setenv("PATH", str(compiler.parent))
        # Build into an empty cache, and load the real library after the test.
        monkeypatch.setattr(native, "__file__", str(tmp_path / "costru" / "native.py"))
        (tmp_path / "costru").mkdir()
        request.addfinalizer(native._compiled_kernel.cache_clear)
        native._compiled_kernel.cache_clear()
        out = tmp_path / "report.csv"
        assert cli.main(["verify", "oracles", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "internal error: NativeLibraryError" in err
        assert "C compiler cc" in err
        assert err.rstrip().endswith("kernel.c:1: error: no registers")
        assert not out.exists()

    def test_generate_and_exact_lab_need_no_library(self, tmp_path, mst_config, monkeypatch,
                                                    request):
        """numpy seeds and draws all that ``generate`` and the exact lab
        draw: with the build failing they exit 0 and write the files that
        they write with the library loaded, byte for byte."""
        def run(out):
            assert cli.main(["generate", "--config", mst_config, "--out", str(out / "data")]) == 0
            assert cli.main(["verify", "convergence", "--out", str(out / "report.csv")]) == 0
            return {path.relative_to(out): path.read_bytes()
                    for path in sorted(out.rglob("*")) if path.is_file()}

        native._compiled_kernel()
        expected = run(tmp_path / "loaded")

        def build():
            raise FileNotFoundError("No such file or directory: 'cc'")

        request.addfinalizer(native._compiled_kernel.cache_clear)
        monkeypatch.setattr(native, "_build_kernel", build)
        native._compiled_kernel.cache_clear()
        assert run(tmp_path / "unbuilt") == expected
        with pytest.raises(native.NativeLibraryError):
            native._compiled_kernel()

    def test_io_failure_exits_three(self, tmp_path):
        cfg = tmp_path / "v.ini"
        cfg.write_text("[verify]\ntrials = 5\n")
        target = tmp_path / "no" / "such" / "dir" / "report.csv"
        assert cli.main(["verify", "jensen-gap", "--config", str(cfg),
                         "--out", str(target)]) == 3


class TestSweepEpsilon:
    def test_small_sweep(self, tmp_path, toy_config):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep-epsilon", "--config", toy_config,
                         "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == ["epsilon", "proportion_optimal"]
        assert len(rows) == 3  # header + 2 epsilon values

    @pytest.mark.parametrize("epsilons", ["1,abc", ","])
    def test_bad_epsilons_exit_two(self, tmp_path, toy_config, epsilons):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(Path(toy_config).read_text().replace("epsilons = 1,5",
                                                            f"epsilons = {epsilons}"))
        assert cli.main(["sweep-epsilon", "--config", str(cfg),
                         "--out", str(tmp_path / "sweep.csv")]) == 2

    def test_zero_seeds_exits_two(self, tmp_path, toy_config):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(Path(toy_config).read_text().replace("nb_seeds = 2", "nb_seeds = 0"))
        assert cli.main(["sweep-epsilon", "--config", str(cfg),
                         "--out", str(tmp_path / "sweep.csv")]) == 2

    def test_mst_config_exits_two(self, tmp_path, mst_config, capsys):
        """The sweep is of the toy problem; an MST config used to run it with
        the grid's [train] values and exit 0."""
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep-epsilon", "--config", mst_config, "--out", str(out)]) == 2
        assert "problem.kind" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_deterministic(self, tmp_path, toy_config):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["sweep-epsilon", "--config", toy_config, "--out", str(a)])
        cli.main(["sweep-epsilon", "--config", toy_config, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "costru.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout

    def test_import_leaves_numpy_random_and_the_library_unloaded(self):
        """Importing the CLI neither imports numpy.random nor builds or loads
        the native library; each waits for its first use."""
        probe = "\n".join([
            "import ctypes, subprocess, sys",
            "def refuse(*args, **kwargs):",
            "    raise AssertionError('built or loaded at import')",
            "ctypes.CDLL = subprocess.run = refuse",
            "import costru.cli",
            "from costru import native",
            "info = native._compiled_kernel.cache_info()",
            "print('numpy.random' in sys.modules, info.hits + info.misses)",
        ])
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "0"]
