"""Span recording for the traced benchmark run.

Spans are recorded only from this directory, around calls into the public
functions of each costru module:

- a delegating oracle and a delegating evaluator wrap the spanning-tree
  ``MstOracle`` / ``MstEvaluator`` that the workload hands to the package;
- module-attribute wrappers replace public functions in the namespaces that
  look them up at call time.  They are installed only inside
  ``installed(tracer)`` and the originals are restored on exit, so the
  untraced run executes the package exactly as shipped.

Every span carries a name, start, end, parent and a work amount (rows,
scenarios or iterations, depending on the span).  Spans live in flat
arrays while the run executes and are written out once at the end.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from typing import Callable

import numpy as np

from costru import baselines, core, experiments, regularizers, simplex_lab
from costru import trainer, verification
from costru.core import LinearOracle
from costru.problems import datasets, spanning_tree

LAYERS = ("spanning_tree", "regularizers", "core", "trainer", "baselines",
          "datasets", "simplex_lab", "verification")


class Tracer:
    """In-memory span store; single-threaded, spans nest by call order."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.counts: dict[str, float] = {}
        self._stack = [-1]

    def begin(self, name: str, work: float = 1.0) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def _spanned(tracer: Tracer, name: str, fn: Callable,
             work: Callable | None = None) -> Callable:
    """Wrap ``fn`` in a span; ``work(args, kwargs, result)`` sets its amount."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if work is not None:
            tracer.work[idx] = work(args, kwargs, result)
        return result

    return wrapped


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


class TracedOracle(LinearOracle):
    """Delegates to a spanning-tree oracle and records one span per call."""

    def __init__(self, inner: spanning_tree.MstOracle, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr):
        # edges, n_nodes, rows, cols: read by baselines and the evaluator.
        return getattr(self._inner, attr)

    def _call(self, name: str, rows: float, fn, *args):
        idx = self._tracer.begin(name, rows)
        try:
            return fn(*args)
        finally:
            self._tracer.finish(idx)

    def argmax_linear(self, theta):
        return self._call("spanning_tree.argmax_linear", 1.0,
                          self._inner.argmax_linear, theta)

    def argmax_linear_many(self, thetas):
        return self._call("spanning_tree.argmax_many", float(len(thetas)),
                          self._inner.argmax_linear_many, thetas)

    def argmin_shifted(self, theta_tilde, kappa, scenario):
        return self._call("spanning_tree.argmin_shifted", 1.0,
                          self._inner.argmin_shifted, theta_tilde, kappa, scenario)

    def argmin_shifted_many(self, theta_tildes, kappa, scenario):
        return self._call("spanning_tree.argmin_shifted_many", float(len(theta_tildes)),
                          self._inner.argmin_shifted_many, theta_tildes, kappa, scenario)


class TracedEvaluator:
    """Delegates to ``MstEvaluator``; spans anticipative-cost calls and counts
    repeated keys (the evaluator's cache hits) independently of its cache."""

    def __init__(self, inner: spanning_tree.MstEvaluator, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._seen: set[bytes] = set()

    def policy_cost(self, y, scenario):
        return self._inner.policy_cost(y, scenario)

    def anticipative_cost(self, scenario):
        payload = scenario.noise_payload
        key = payload.first_stage.tobytes() + payload.second_stage.tobytes()
        if key in self._seen:
            self._tracer.count("spanning_tree.anticipative_cost.repeats")
        else:
            self._seen.add(key)
        idx = self._tracer.begin("spanning_tree.anticipative_cost")
        try:
            return self._inner.anticipative_cost(scenario)
        finally:
            self._tracer.finish(idx)


def _draws(args, kwargs, pos_theta: int, pos_m: int) -> float:
    theta = _arg(args, kwargs, pos_theta, "theta")
    return float(_arg(args, kwargs, pos_m, "m") * np.shape(theta)[0])


def _wrapper_table(tracer: Tracer):
    """(original, span name, work function, namespaces that look it up)."""
    t = tracer

    def fy_work(args, kwargs, _result):
        draws = _draws(args, kwargs, 1, 4)
        t.count("regularizers.normal_draws", draws)
        return 1.0

    def target_work(args, kwargs, _result):
        draws = _draws(args, kwargs, 1, 5)
        t.count("regularizers.normal_draws", draws)
        return 1.0

    def batch_len(args, kwargs, _result):
        return float(len(_arg(args, kwargs, 1, "batch")))

    def coordination_steps(args, kwargs, _result):
        config = _arg(args, kwargs, 4, "config")
        return float(config.nb_epochs * len(_arg(args, kwargs, 1, "batch")))

    def data_len(args, kwargs, _result):
        return float(len(_arg(args, kwargs, 1, "data")))

    def generated_scenarios(_args, _kwargs, result):
        return float(sum(len(split[1]) for split in result.values()))

    def iterations(_args, _kwargs, result):
        return float(len(result.values))

    sl, vf = simplex_lab, verification
    return [
        (core.RngStream.generator, "core.rng_generator", None, [core.RngStream]),
        (regularizers.perturbed_fy_gradient, "regularizers.perturbed_fy_gradient",
         fy_work, [regularizers, trainer, verification]),
        (regularizers.perturbed_decomposition_target,
         "regularizers.perturbed_decomposition_target", target_work,
         [regularizers, trainer]),
        (spanning_tree.second_stage_value, "spanning_tree.second_stage_value", None,
         [spanning_tree, baselines]),
        (trainer.train_primal_dual, "trainer.train_primal_dual", None,
         [trainer, experiments]),
        (trainer.decomposition_pass, "trainer.decomposition_pass", batch_len, [trainer]),
        (trainer.coordination_pass, "trainer.coordination_pass", coordination_steps,
         [trainer, baselines]),
        (trainer.adam_step, "trainer.adam_step", None, [trainer]),
        (trainer.evaluate_policy, "trainer.evaluate_policy", data_len,
         [trainer, experiments]),
        (baselines.lagrangian_targets, "baselines.lagrangian_targets", None, [baselines]),
        (baselines.lagrangian_saa_solution, "baselines.lagrangian_saa_solution", None,
         [baselines]),
        (baselines.saa_objective, "baselines.saa_objective", None, [baselines]),
        (baselines.imitation_fit, "baselines.imitation_fit", None, [baselines]),
        (baselines.evaluate_fixed_solutions, "baselines.evaluate_fixed_solutions", None,
         [baselines]),
        (datasets.generate_mst_dataset, "datasets.generate_mst_dataset",
         generated_scenarios, [datasets]),
        (sl.run_alternating_exact, "simplex_lab.run_alternating_exact", iterations, [sl]),
        (sl.run_convergence_suite, "simplex_lab.convergence", None, [sl]),
        (sl.run_five_point_suite, "simplex_lab.five_point", None, [sl]),
        (sl.run_jensen_gap_suite, "simplex_lab.jensen_gap", None, [sl]),
        (sl.run_mirror_descent_suite, "simplex_lab.mirror_descent", None, [sl]),
        (sl.run_risk_bound_suite, "simplex_lab.risk_bound", None, [sl]),
        (sl.run_conjugate_suite, "simplex_lab.conjugates", None, [sl]),
        (vf.run_oracle_suite, "verification.oracles", None, [vf]),
        (vf.run_gradient_suite, "verification.gradients", None, [vf]),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Install the module-attribute wrappers; restore the originals on exit."""
    saved = []
    try:
        for original, name, work, namespaces in _wrapper_table(tracer):
            wrapper = _spanned(tracer, name, original, work)
            attr = original.__name__
            for ns in namespaces:
                if ns.__dict__.get(attr) is not original:
                    raise RuntimeError(f"{ns.__name__}.{attr} is not the traced function")
                saved.append((ns, attr, original))
                setattr(ns, attr, wrapper)
        yield tracer
    finally:
        for ns, attr, original in reversed(saved):
            setattr(ns, attr, original)


# ---------------------------------------------------------------------------
# Summaries derived from the spans
# ---------------------------------------------------------------------------

def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Spans of one thread nest, so direct children never overlap and their
    durations add up to the covered part of the parent's interval.
    """
    has_parent = parent >= 0
    child_total = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=len(duration))
    return duration - child_total


def percentile(samples: np.ndarray, q: float) -> dict:
    """Percentile q (in %) with its sample count, or the reason it is absent:
    at least ten samples must lie beyond it."""
    n = int(samples.size)
    beyond = int(np.floor(n * (100.0 - q) / 100.0))
    if beyond < 10:
        return {"value": None, "n": n,
                "absent": f"{n} samples leave {beyond} beyond p{q:g}; 10 needed"}
    return {"value": float(np.percentile(samples, q)), "n": n}


def summarize(arrays: dict[str, np.ndarray], counts: dict[str, float],
              keep: np.ndarray | None = None) -> dict:
    """Per-span-name calls, work, inclusive and self seconds, per-layer self
    seconds, and the per-call duration samples (seconds) for percentiles,
    over the spans selected by ``keep`` (all by default).

    Inclusive seconds add up every span of a name; no traced function calls
    itself, so no interval is counted twice.
    """
    name_id = arrays["name_id"]
    if keep is None:
        keep = np.ones(name_id.shape, dtype=bool)
    duration = arrays["end"] - arrays["start"]
    own = self_times(arrays["parent"], duration)
    spans = {}
    for nid, name in enumerate(arrays["names"]):
        mask = keep & (name_id == nid)
        spans[str(name)] = {
            "calls": int(mask.sum()),
            "work": float(arrays["work"][mask].sum()),
            "s": float(duration[mask].sum()),
            "self_s": float(own[mask].sum()),
            "durations": duration[mask],
            "work_per_call": arrays["work"][mask],
        }
    layers = {layer: 0.0 for layer in LAYERS}
    for name, entry in spans.items():
        layers[name.split(".")[0]] += entry["self_s"]
    return {"spans": spans, "layers": layers, "counts": dict(counts)}
