"""The package surface that the benchmark's tracer wraps by name.

``benchmarks/tracing.py`` replaces public functions in the package's module
namespaces and wraps the oracle and evaluator; it raises if a name it wraps
has moved.  The benchmark's own tests are not part of this suite, so this
test keeps the traced evaluation path working on a tiny grid.
"""

from pathlib import Path

import numpy as np

from costru import baselines, trainer
from costru.problems.datasets import GenConfig, generate_mst_dataset
from costru.problems.spanning_tree import MstEvaluator, MstOracle

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_traced_evaluation_keeps_gaps_and_restores_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    cfg = GenConfig(rows=2, cols=3, train_instances=2, val_instances=1,
                    test_instances=3, scenarios_per_instance=3)
    splits = generate_mst_dataset(cfg, seed=8)
    _, train = splits["train"]
    _, test = splits["test"]
    oracle = MstOracle(2, 3)
    weights = np.array([0.5, -1.0, 0.25, 2.0, -0.5])
    d_median = baselines.pooled_median_second_stage(train)
    median = {ctx: baselines.median_policy_solution(group[0], d_median, oracle)
              for ctx, group in test.by_context().items()}

    def gaps(oracle, evaluator):
        return (trainer.evaluate_policy(weights, test, oracle, evaluator),
                baselines.evaluate_fixed_solutions(median, test, evaluator))

    expected = gaps(oracle, MstEvaluator(oracle))
    wrapped = [(ns, original.__name__, original)
               for original, _, _, namespaces in tracing._wrapper_table(tracing.Tracer())
               for ns in namespaces]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = gaps(tracing.TracedOracle(oracle, tracer),
                      tracing.TracedEvaluator(MstEvaluator(oracle), tracer))
    assert traced == expected
    calls = {name: tracer.name_id.tolist().count(i) for i, name in enumerate(tracer.names)}
    assert calls["trainer.evaluate_policy"] == 1
    assert calls["baselines.evaluate_fixed_solutions"] == 1
    assert calls["spanning_tree.argmax_many"] == 1
    assert all(getattr(ns, attr) is original for ns, attr, original in wrapped)
