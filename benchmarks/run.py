"""costru benchmark: one workload per invocation, closed loop, one thread.

    python3 benchmarks/run.py --workload mst-small --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics (tracing off), with ``--trace 1`` the per-layer
metrics of a second, traced pass over the same inputs.  The lines before
it print every metric by name with its unit, and the full record (the
environment, the output digest, every per-layer metric with its sample
counts) goes to ``.bench_runs/`` together with the raw spans.

Exit codes: 0 when the run completed (the outputs may still have failed
their checks, see ``correct``), 2 when the package or an argument is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_runs"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("mst-small", "mst-grid20", "toy-sweep", "lab-verify")
# Package imports are timed this many times per run; median reported.
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import costru.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(workload, seed: int) -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return dict(python=platform.python_version(), numpy=numpy.__version__,
                scipy=scipy_version, nproc=os.cpu_count(), commit=git_commit(),
                workload=workload.name, seed=seed, sizes=workload.sizes,
                blas_threads=os.environ.get("OPENBLAS_NUM_THREADS"))


def end_to_end(workload, run: dict, imports: list[float], rss_mb: float) -> dict:
    """Every end-to-end metric of the design, by name: value and unit, or
    the reason it does not apply to this workload."""
    med = statistics.median
    phase = {name: med(p[name] for p in run["phases"]) for name in run["phases"][0]}
    train = phase.get("train")
    steps = run["outputs"]["train_steps"]
    metrics = {
        "setup_s": (med(imports) + med(run["setups"]), "s"),
        "wall_s": (med(run["walls"]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    na = f"{workload.name} has no such phase"
    metrics["train_s"] = (train, "s") if train is not None else (None, na)
    metrics["train_steps_per_s"] = ((steps / train, "1/s") if train else (None, na))
    for name in ("eval", "saa"):
        value = phase.get(name)
        metrics[f"{name}_s"] = (value, "s") if value is not None else (None, na)
    gap = run["outputs"].get("test_gap")
    metrics["test_gap"] = (gap, "ratio") if gap is not None else (None, na)
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring window; body calls repeat while they fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "costru" / "__init__.py").is_file():
        print(f"benchmark: no costru package under {SRC}", file=sys.stderr)
        return 2
    # Single-threaded BLAS; must precede the first numpy import.
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))

    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    import report
    from workloads import WORKLOADS, Checks, measure

    workload = WORKLOADS[args.workload]
    run = measure(workload, args.seed, args.seconds)
    rss_mb = peak_rss_mb()
    checks = Checks()
    workload.check(run["inputs"], run["outputs"], checks)
    for k, d in enumerate(run["digests"][1:], start=1):
        checks.expect(d == run["digests"][0], f"repetition {k} changed the outputs")
    metrics = end_to_end(workload, run, imports, rss_mb)
    record = dict(env=environment(workload, args.seed), digest=run["digests"][0],
                  import_s=imports, setup_s=run["setups"], wall_s=run["walls"],
                  phases=run["phases"])

    if args.trace:
        traced = report.traced_pass(workload, args.seed, metrics, checks,
                                    run["digests"][0], run["outputs"]["train_steps"])
        record["per_layer"] = traced["detail"]
        result_metrics = traced["final"]
        spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}-spans.npz"
    else:
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                          if k in report.END_TO_END}
    # The traced pass adds checks of its own.
    metrics["failed_frac"] = (checks.failed / max(checks.attempted, 1), "frac")
    record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["checks"] = dict(attempted=checks.attempted, failed=checks.failed,
                            failures=checks.failures)

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=float) + "\n")
    if args.trace:
        traced["tracer"].write(spans_path)

    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    print(f"digest {record['digest']}")
    report.print_metrics(metrics, record.get("per_layer"))
    for failure in checks.failures:
        print(f"check failed: {failure}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
