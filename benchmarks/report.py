"""Metric definitions and the traced pass.

End-to-end metrics come from the untraced run.  The traced pass repeats
one set-up and body under the tracing wrappers and derives the per-layer
metrics from its spans.  The final JSON line carries the metrics that
BENCHMARK.json names: the end-to-end ones that every workload has, and
per-layer counts and shares of the traced wall time, which read 0 where a
workload does not reach a layer.  The full per-layer set, in
seconds and percentiles with sample counts, goes to the run record and
standard output, with the reason for each absent value.
"""

from __future__ import annotations

import numpy as np

from tracing import LAYERS, Tracer, installed, percentile, summarize
from workloads import measure, paper_scale_minutes

# End-to-end metrics in the final line: the ones every workload has.
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")

# Span -> per-layer fields.  calls: count; a work label (rows, scenarios,
# steps, iterations): summed work; s / self_s: inclusive / self seconds;
# us, ms, us_per_row: p50 and p99 of per-call time; s_p50: median call.
SPAN_FIELDS = {
    "spanning_tree.argmax_many": ("calls", "rows", "self_s", "us_per_row"),
    "spanning_tree.argmin_shifted_many": ("calls", "rows", "self_s", "us_per_row"),
    "spanning_tree.argmin_shifted": ("calls", "self_s", "us"),
    "spanning_tree.argmax_linear": ("calls", "self_s", "us"),
    "spanning_tree.second_stage_value": ("calls", "self_s", "us"),
    "spanning_tree.anticipative_cost": ("calls",),
    "regularizers.perturbed_fy_gradient": ("calls", "self_s", "us"),
    "regularizers.perturbed_decomposition_target": ("calls", "self_s"),
    "core.rng_generator": ("calls", "self_s"),
    "trainer.train_primal_dual": ("calls", "s"),
    "trainer.decomposition_pass": ("calls", "s", "self_s", "scenarios"),
    "trainer.coordination_pass": ("calls", "s", "self_s", "steps"),
    "trainer.adam_step": ("calls", "self_s"),
    "trainer.evaluate_policy": ("calls", "s", "self_s", "scenarios", "ms"),
    "baselines.lagrangian_targets": ("s",),
    "baselines.lagrangian_saa_solution": ("calls", "s_p50", "self_s"),
    "baselines.saa_objective": ("calls", "self_s"),
    "baselines.imitation_fit": ("calls", "s"),
    "baselines.evaluate_fixed_solutions": ("s",),
    "datasets.generate_mst_dataset": ("s",),
    "simplex_lab.convergence": ("s",),
    "simplex_lab.five_point": ("s",),
    "simplex_lab.jensen_gap": ("s",),
    "simplex_lab.mirror_descent": ("s",),
    "simplex_lab.risk_bound": ("s",),
    "simplex_lab.conjugates": ("s",),
    "simplex_lab.run_alternating_exact": ("calls", "iterations"),
    "verification.oracles": ("s",),
    "verification.gradients": ("s",),
}
WORK_LABELS = ("rows", "scenarios", "steps", "iterations")
PERCENTILES = {"us": 1e6, "ms": 1e3, "us_per_row": 1e6}

# Per-layer metrics in the final line (BENCHMARK.json "per_layer").
FINAL_COUNTS = (
    "spanning_tree.argmax_many.calls", "spanning_tree.argmax_many.rows",
    "spanning_tree.argmin_shifted_many.calls", "spanning_tree.argmin_shifted_many.rows",
    "spanning_tree.argmin_shifted.calls", "spanning_tree.argmax_linear.calls",
    "spanning_tree.second_stage_value.calls", "spanning_tree.anticipative_cost.calls",
    "regularizers.perturbed_fy_gradient.calls",
    "regularizers.perturbed_decomposition_target.calls", "regularizers.normal_draws",
    "core.rng_generator.calls", "trainer.decomposition_pass.scenarios",
    "trainer.coordination_pass.steps", "trainer.adam_step.calls",
    "trainer.evaluate_policy.calls", "trainer.evaluate_policy.scenarios",
    "baselines.lagrangian_saa_solution.calls", "baselines.saa_objective.calls",
    "baselines.imitation_fit.calls", "datasets.scenarios",
    "simplex_lab.run_alternating_exact.calls",
    "simplex_lab.run_alternating_exact.iterations",
)
FINAL_SELF_FRACS = (
    "spanning_tree.argmax_many", "spanning_tree.argmin_shifted_many",
    "spanning_tree.argmin_shifted", "spanning_tree.argmax_linear",
    "spanning_tree.second_stage_value", "regularizers.perturbed_fy_gradient",
    "regularizers.perturbed_decomposition_target", "core.rng_generator",
    "trainer.decomposition_pass", "trainer.coordination_pass", "trainer.adam_step",
    "trainer.evaluate_policy", "baselines.lagrangian_saa_solution",
    "baselines.saa_objective",
)
BODY_LAYERS = tuple(layer for layer in LAYERS if layer != "datasets")
FINAL_RATIOS = (
    "spanning_tree.anticipative_cost.hit_ratio",
    *(f"{span}.self_frac" for span in FINAL_SELF_FRACS),
    *(f"layer.{layer}.self_frac" for layer in BODY_LAYERS),
    "phase.train_frac", "phase.eval_frac", "phase.saa_frac",
    "trace.overhead_frac", "trace.self_sum_frac",
)


def final_per_layer_names() -> list[tuple[str, str]]:
    return [(n, "count") for n in FINAL_COUNTS] + [(n, "frac") for n in FINAL_RATIOS]


def _entry(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def per_layer_detail(summary: dict, traced_wall: float, untraced_wall: float,
                     workload_name: str) -> dict:
    """Every per-layer metric of the design, by name."""
    spans = summary["spans"]
    empty = {"calls": 0, "work": 0.0, "s": 0.0, "self_s": 0.0,
             "durations": np.empty(0), "work_per_call": np.empty(0)}
    out = {}
    for span, fields in SPAN_FIELDS.items():
        e = spans.get(span, empty)
        for f in fields:
            if f == "calls":
                out[f"{span}.calls"] = _entry(e["calls"], "count")
            elif f in WORK_LABELS:
                out[f"{span}.{f}"] = _entry(e["work"], "count")
            elif f in ("s", "self_s"):
                out[f"{span}.{f}"] = _entry(e[f], "s")
            elif f == "s_p50":
                out[f"{span}.s_p50"] = _entry(unit="s", **percentile(e["durations"], 50))
            else:
                samples = e["durations"] * PERCENTILES[f]
                if f == "us_per_row":
                    samples = samples / np.maximum(e["work_per_call"], 1.0)
                unit = "us" if f != "ms" else "ms"
                for q in (50, 99):
                    out[f"{span}.{f}_p{q}"] = _entry(unit=unit, **percentile(samples, q))

    counts = summary["counts"]
    ant = spans.get("spanning_tree.anticipative_cost", empty)
    repeats = counts.get("spanning_tree.anticipative_cost.repeats", 0.0)
    out["spanning_tree.anticipative_cost.hit_ratio"] = (
        _entry(repeats / ant["calls"], "frac") if ant["calls"]
        else _entry(0.0, "frac", absent="no anticipative-cost calls"))
    out["regularizers.normal_draws"] = _entry(counts.get("regularizers.normal_draws", 0.0),
                                              "count")
    out["datasets.scenarios"] = _entry(
        spans.get("datasets.generate_mst_dataset", empty)["work"], "count")

    alt = spans.get("simplex_lab.run_alternating_exact", empty)
    out["simplex_lab.run_alternating_exact.us_per_iter"] = (
        _entry(1e6 * alt["s"] / alt["work"], "us") if alt["work"]
        else _entry(None, "us", absent="no alternating iterations"))

    dec = spans.get("trainer.decomposition_pass", empty)
    coord = spans.get("trainer.coordination_pass", empty)
    ev = spans.get("trainer.evaluate_policy", empty)
    if workload_name == "mst-grid20":
        out["trainer.paper_scale_est_min"] = _entry(paper_scale_minutes(
            dec["s"] / dec["work"], coord["s"] / coord["work"], ev["s"] / ev["work"]), "min")
    else:
        out["trainer.paper_scale_est_min"] = _entry(
            None, "min", absent="derived from the 20x20 grid of mst-grid20 only")

    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = _entry(summary["layers"][layer], "s")
    out["trace.wall_s"] = _entry(traced_wall, "s")
    out["trace.self_sum_s"] = _entry(summary["body_self_s"], "s")
    out["trace.self_sum_frac"] = _entry(summary["body_self_s"] / traced_wall, "frac")
    out["trace.overhead_frac"] = _entry((traced_wall - untraced_wall) / untraced_wall,
                                        "frac")
    return out


def traced_pass(workload, seed: int, e2e: dict, checks, untraced_digest: str,
                expected_steps: int) -> dict:
    """One traced set-up and body; per-layer detail and final-line metrics."""
    tracer = Tracer()
    with installed(tracer):
        run = measure(workload, seed, 0.0, tracer)
    traced_wall = run["walls"][0]
    checks.expect(run["digests"][0] == untraced_digest, "tracing changed the outputs")

    # Set-up runs before the body: keep only its data-generation spans.
    arrays = tracer.arrays()
    setup_ids = [i for i, n in enumerate(arrays["names"]) if n.startswith("datasets.")]
    keep = (arrays["start"] >= run["body_start"]) | np.isin(arrays["name_id"], setup_ids)
    summary = summarize(arrays, tracer.counts, keep)
    summary["body_self_s"] = sum(summary["layers"][layer] for layer in BODY_LAYERS)
    spans = summary["spans"]
    traced_steps = sum(spans.get(name, {"work": 0.0})["work"]
                       for name in ("trainer.decomposition_pass", "trainer.coordination_pass"))
    checks.expect(traced_steps == expected_steps,
                  f"traced training steps {traced_steps} != {expected_steps}")
    checks.expect(summary["body_self_s"] <= traced_wall,
                  "span self times exceed the traced wall time")

    untraced_wall = e2e["wall_s"][0]
    detail = per_layer_detail(summary, traced_wall, untraced_wall, workload.name)
    final = {name: detail[name] for name in FINAL_COUNTS}
    final = {k: {"value": v["value"], "unit": v["unit"]} for k, v in final.items()}
    for span in FINAL_SELF_FRACS:
        self_s = spans[span]["self_s"] if span in spans else 0.0
        final[f"{span}.self_frac"] = _entry(self_s / traced_wall, "frac")
    for layer in BODY_LAYERS:
        final[f"layer.{layer}.self_frac"] = _entry(summary["layers"][layer] / traced_wall,
                                                   "frac")
    for name in ("train", "eval", "saa"):
        value = e2e[f"{name}_s"][0] or 0.0
        final[f"phase.{name}_frac"] = _entry(value / untraced_wall, "frac")
    for name in ("spanning_tree.anticipative_cost.hit_ratio", "trace.overhead_frac",
                 "trace.self_sum_frac"):
        final[name] = _entry(detail[name]["value"], "frac")
    final = {name: final[name] for name, _ in final_per_layer_names()}
    return dict(detail=detail, final=final, tracer=tracer)


def print_metrics(e2e: dict, detail: dict | None) -> None:
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value!r} {unit}" if value is not None else f"{name} = n/a ({unit})")
    for name, entry in (detail or {}).items():
        extra = f" (n={entry['n']})" if "n" in entry else ""
        if entry["value"] is None:
            reason = entry["absent"]
            print(f"{name} = absent: {reason}")
        else:
            print(f"{name} = {entry['value']!r} {entry['unit']}{extra}")
