"""The package surface that the benchmark's tracer wraps by name.

``benchmarks/tracing.py`` replaces public functions in the package's module
namespaces and wraps the oracle and evaluator; it raises if a name it wraps
has moved.  The benchmark's own tests are not part of this suite, so these
tests keep the traced training, evaluation and lab paths working at a tiny
size.
"""

from pathlib import Path

import numpy as np

from costru import baselines, cli, simplex_lab, trainer
from costru.problems.datasets import GenConfig, generate_mst_dataset
from costru.problems.spanning_tree import MstEvaluator, MstOracle
from costru.problems.toy import ToyOracle, toy_dataset

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def originals(tracing):
    """(namespace, attribute, original) for every function the tracer wraps."""
    return [(ns, original.__name__, original)
            for original, _, _, namespaces in tracing._wrapper_table(tracing.Tracer())
            for ns in namespaces]


def span_calls(tracer) -> dict[str, int]:
    return {name: tracer.name_id.tolist().count(i) for i, name in enumerate(tracer.names)}


def test_traced_training_keeps_weights_and_restores_originals(monkeypatch):
    """Primal-dual training through the traced oracle and wrappers takes the
    same steps and gives the same iterates, bit for bit."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    cfg = GenConfig(rows=2, cols=3, train_instances=2, val_instances=1,
                    test_instances=1, scenarios_per_instance=3)
    _, train = generate_mst_dataset(cfg, seed=8)["train"]
    oracle = MstOracle(2, 3)
    config = trainer.TrainConfig(nb_iterations=2, nb_scenarios=2, nb_samples=5, nb_epochs=2,
                                 lr_init=0.1, epsilon=0.5, seed=3)
    expected = trainer.train_primal_dual(train, oracle, config)
    wrapped = originals(tracing)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = trainer.train_primal_dual(train, tracing.TracedOracle(oracle, tracer), config)
    assert traced.per_iteration.tobytes() == expected.per_iteration.tobytes()
    assert traced.running_average.tobytes() == expected.running_average.tobytes()
    calls = span_calls(tracer)
    assert calls["trainer.train_primal_dual"] == 1
    assert calls["trainer.coordination_pass"] == 2
    # The spanning-tree oracle's fused passes take every Adam step and
    # compute every decomposition target natively.
    assert calls.get("trainer.adam_step", 0) == 0
    assert calls.get("regularizers.perturbed_decomposition_target", 0) == 0
    assert all(getattr(ns, attr) is original for ns, attr, original in wrapped)


def test_traced_generic_training_spans_the_regularizers(monkeypatch):
    """An oracle without fused passes, the toy one, goes through the traced
    ``perturbed_decomposition_target`` and ``adam_step`` wrappers."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    config = trainer.TrainConfig(nb_iterations=2, nb_scenarios=2, nb_samples=5, nb_epochs=2,
                                 lr_init=0.1, epsilon=0.5, seed=3)
    expected = trainer.train_primal_dual(toy_dataset(), ToyOracle(), config)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = trainer.train_primal_dual(toy_dataset(), ToyOracle(), config)
    assert traced.per_iteration.tobytes() == expected.per_iteration.tobytes()
    calls = span_calls(tracer)
    assert calls["regularizers.perturbed_decomposition_target"] == 2 * 2
    assert calls["trainer.adam_step"] == 2 * 2 * 2


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
    wrapped = originals(tracing)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = gaps(tracing.TracedOracle(oracle, tracer),
                      tracing.TracedEvaluator(MstEvaluator(oracle), tracer))
    assert traced == expected
    calls = span_calls(tracer)
    assert calls["trainer.evaluate_policy"] == 1
    assert calls["baselines.evaluate_fixed_solutions"] == 1
    assert calls["spanning_tree.argmax_many"] == 1
    assert all(getattr(ns, attr) is original for ns, attr, original in wrapped)


def test_traced_lab_keeps_rows(monkeypatch):
    """The tracer wraps the lab suites and ``run_alternating_exact`` by name
    and reads the trajectory's ``values`` as the span's work."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    cfg = cli.load_config(None)

    def rows():
        return (cli.run_verify_suite("mirror-descent", cfg, 2),
                simplex_lab.run_convergence_suite(n_instances=2, seed=4))

    expected = rows()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = rows()
    assert traced == expected
    spans = [tracer.names[i] for i in tracer.name_id]
    assert spans.count("simplex_lab.mirror_descent") == 1
    assert spans.count("simplex_lab.convergence") == 1
    # One lockstep call for both instances; its work counts iterations.
    assert spans.count("simplex_lab.run_alternating_exact") == 1
    alternating = tracer.names.index("simplex_lab.run_alternating_exact")
    assert [w for i, w in zip(tracer.name_id, tracer.work) if i == alternating] == [10_000.0]
