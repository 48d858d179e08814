"""Primal-dual trainer: scoring, Adam, passes, full loop, evaluation."""

import itertools
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import norm

from costru import native, trainer
from costru.core import InputError, LinearOracle, RngStream, Scenario, make_rng
from costru.problems.datasets import GenConfig, generate_mst_dataset, generate_mst_split
from costru.problems.spanning_tree import MstOracle, TwoStageCosts
from costru.problems.toy import ToyEvaluator, ToyOracle, toy_dataset, toy_scenarios
from costru.regularizers import perturbed_argmax_stats, perturbed_fy_gradient
from costru.trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    coordination_pass,
    decomposition_pass,
    evaluate_policy,
    score_instance,
    subsample_batch,
    train_primal_dual,
)


def toy_config(**overrides) -> TrainConfig:
    params = dict(nb_iterations=3, nb_scenarios=3, nb_samples=200, nb_epochs=4,
                  lr_init=0.1, epsilon=1.0, kappa=1.0, seed=0)
    params.update(overrides)
    return TrainConfig(**params)


class TestScoreInstance:
    def test_zero_weights(self):
        np.testing.assert_array_equal(
            score_instance(np.zeros(1), toy_scenarios()[0]), np.zeros(1)
        )

    def test_constant_feature(self):
        theta = score_instance(np.array([2.5]), toy_scenarios()[0])
        np.testing.assert_allclose(theta, np.array([2.5]))

    def test_matches_matrix_product(self):
        g = make_rng(61, 0).generator()
        feats = g.uniform(0, 1, (7, 4))
        from costru.core import Scenario

        scenario = Scenario(0, feats, None)
        w = g.standard_normal(4)
        np.testing.assert_allclose(score_instance(w, scenario), feats @ w, atol=1e-14)

    def test_width_mismatch(self):
        with pytest.raises(InputError):
            score_instance(np.zeros(3), toy_scenarios()[0])


def adam_steps(weights, gradients, lr) -> AdamState:
    """A fresh Adam state on ``weights`` after one step per gradient."""
    adam = AdamState(np.asarray(weights, dtype=float))
    for g in gradients:
        adam.gradient[:] = g
        adam_step(adam, lr)
    return adam


class TestAdamStep:
    def test_first_step_magnitude(self):
        g = np.array([5.0, -2.0, 0.5])
        w = adam_steps(np.zeros(3), [g], lr=0.1).weights
        for k in range(3):
            assert 0.1 * (1 - 1e-6) <= abs(w[k]) <= 0.1
            assert np.sign(w[k]) == -np.sign(g[k])

    def test_zero_gradient_noop(self):
        state = adam_steps(np.array([1.0, -1.0]), [np.zeros(2)], lr=0.1)
        np.testing.assert_array_equal(state.weights, np.array([1.0, -1.0]))
        assert state.step_count == 1

    def test_scalar_trace_oracle(self):
        """Two steps against an independent scalar recomputation."""
        b1, b2, eps = AdamState.beta1, AdamState.beta2, AdamState.eps_adam
        lr = 0.05
        grads = [0.7, 0.7]
        m = v = 0.0
        w_ref = 0.3
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w_ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

        adam = adam_steps(np.array([0.3]), [np.array([g]) for g in grads], lr)
        assert adam.step_count == 2
        assert adam.weights[0] == pytest.approx(w_ref, abs=1e-15)
        assert adam.second_moment[0] > 0

    def test_equals_numpy_expressions_bit_for_bit(self):
        """The in-place native step is the numpy update it replaced, bit for
        bit, over many steps on wide-ranging gradients."""
        b1, b2, eps = AdamState.beta1, AdamState.beta2, AdamState.eps_adam
        g = make_rng(62, 0).generator()
        grads = g.standard_normal((200, 7)) * 10.0 ** g.integers(-8, 8, (200, 7))
        w, m, v = g.standard_normal(7), np.zeros(7), np.zeros(7)
        adam = AdamState(w)
        for t, grad in enumerate(grads, start=1):
            m = b1 * m + (1.0 - b1) * grad
            v = b2 * v + (1.0 - b2) * grad * grad
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            w = w - 0.03 * m_hat / (np.sqrt(v_hat) + eps)
            adam.gradient[:] = grad
            adam_step(adam, 0.03)
        assert adam.weights.tobytes() == w.tobytes()
        assert adam.first_moment.tobytes() == m.tobytes()
        assert adam.second_moment.tobytes() == v.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_changes_nothing(self, bad):
        adam = adam_steps(np.array([0.5, -0.5]), [np.array([1.0, 2.0])], lr=0.1)
        state = lambda: [adam.weights.copy(), adam.first_moment.copy(),  # noqa: E731
                         adam.second_moment.copy(), adam.step_count]
        before = state()
        adam.gradient[:] = [0.3, bad]
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            adam_step(adam, 0.1)
        for got, expected in zip(state(), before, strict=True):
            np.testing.assert_array_equal(got, expected)


class TestDecompositionPass:
    def test_toy_closed_forms(self):
        oracle = ToyOracle()
        config = toy_config(nb_samples=4000)
        targets = decomposition_pass(np.zeros(1), toy_scenarios(), oracle, config,
                                     make_rng(0).split(1, 1))
        expected = [norm.cdf(4.0), norm.cdf(-1.0), norm.cdf(-2.0)]
        for mu, mu_true in zip(targets, expected):
            sigma = max(np.sqrt(mu_true * (1 - mu_true) / 4000), 1e-4)
            assert abs(mu[0] - mu_true) < 4 * sigma

    def test_unperturbed_targets_are_anticipative(self):
        oracle = ToyOracle()
        config = toy_config(unperturbed_targets=True)
        targets = decomposition_pass(np.zeros(1), toy_scenarios(), oracle, config,
                                     make_rng(0).split(1, 1))
        # anticipative optima per state: y = (1, 0, 0)
        np.testing.assert_array_equal(np.concatenate(targets), np.array([1.0, 0.0, 0.0]))

    def test_duplicate_scenarios_use_per_slot_streams(self):
        oracle = ToyOracle()
        scenario = toy_scenarios()[1]
        config = toy_config(nb_samples=500)
        targets = decomposition_pass(np.zeros(1), [scenario, scenario], oracle, config,
                                     make_rng(0).split(1, 1))
        assert targets[0][0] != targets[1][0]  # distinct draws per slot
        assert abs(targets[0][0] - targets[1][0]) < 0.1  # same expectation


class TestCoordinationPass:
    def test_fixed_point_leaves_weights_unchanged(self):
        oracle = ToyOracle()
        scenario = toy_scenarios()[0]
        w = np.array([0.2])
        config = toy_config(nb_epochs=1, nb_samples=300)
        rng = make_rng(0).split(1, 2)
        theta = score_instance(w, scenario)
        # the target equals the moment computed from the exact same draws
        _, mu = perturbed_argmax_stats(oracle, theta, config.epsilon,
                                       config.nb_samples, rng.split(0, 0))
        out = coordination_pass(w, [scenario], [mu], oracle, config, rng)
        np.testing.assert_array_equal(out, w)

    def test_gradient_sign_pushes_toward_target(self):
        oracle = ToyOracle()
        scenario = toy_scenarios()[0]
        config = toy_config(nb_epochs=1, nb_samples=2000)
        rng = make_rng(5).split(1, 2)
        # target above the current moment Phi(theta/eps) -> theta must rise
        w_up = coordination_pass(np.zeros(1), [scenario], [np.array([0.9])], oracle,
                                 config, rng)
        assert w_up[0] > 0
        w_down = coordination_pass(np.zeros(1), [scenario], [np.array([0.1])], oracle,
                                   config, rng)
        assert w_down[0] < 0

    def test_two_epochs_equal_manual_adam_chain(self):
        oracle = ToyOracle()
        scenario = toy_scenarios()[1]
        target = np.array([0.4])
        config = toy_config(nb_epochs=2, nb_samples=100)
        rng = make_rng(7).split(1, 2)
        out = coordination_pass(np.zeros(1), [scenario], [target], oracle, config, rng)

        np.testing.assert_array_equal(out, manual_adam_chain(oracle, [scenario], [target],
                                                             config, rng))

    def test_two_epochs_equal_manual_adam_chain_on_spanning_trees(self):
        """The fused native step on a 3x3 grid: the same chain of numpy
        draws, forests, means and Adam updates, bit for bit."""
        oracle, batch, targets = mst_batch()
        config = toy_config(nb_epochs=2, nb_samples=7, lr_init=0.2, epsilon=0.5)
        rng = make_rng(8).split(1, 2)
        out = coordination_pass(np.full(4, 0.1), batch, targets, oracle, config, rng)
        expected = manual_adam_chain(oracle, batch, targets, config, rng, np.full(4, 0.1))
        assert out.tobytes() == expected.tobytes()

    def test_fused_step_equals_generic_path(self):
        """An oracle without the fused entry, its calls forwarded to the
        spanning-tree oracle, gives the same weights bit for bit."""
        oracle, batch, targets = mst_batch()
        config = toy_config(nb_epochs=3, nb_samples=10, lr_init=0.05, epsilon=1.0)
        rng = make_rng(9).split(1, 2)
        fused = coordination_pass(np.zeros(4), batch, targets, oracle, config, rng)
        generic = coordination_pass(np.zeros(4), batch, targets, GenericOracle(oracle),
                                    config, rng)
        assert np.array_equal(fused, generic)

    @pytest.mark.parametrize("rows, cols, p", [
        (1, 2, 1), (1, 2, 5), (3, 3, 1), (3, 3, 2), (3, 3, 5), (6, 6, 2), (6, 6, 5),
    ])
    @pytest.mark.parametrize("n_contexts", [1, 3])
    @pytest.mark.parametrize("root", [make_rng(9).split(1, 2),
                                      RngStream(2 ** 96, 2 ** 64 - 1, (2 ** 40, 2 ** 32, 7))],
                             ids=["narrow", "wide"])
    def test_fused_pass_keeps_numpy_products_and_streams(self, rows, cols, p, n_contexts,
                                                         root):
        """The fused pass equals the generic path and the manual chain bit
        for bit through each of numpy's matmul dispatches: E = 1 and p = 1
        (ddot, or numpy's own loop), several contexts' feature matrices, and
        seed and key words wider than 32 bits."""
        oracle, batch, targets = random_batch(rows, cols, p, n_contexts)
        config = toy_config(nb_epochs=2, nb_samples=4, lr_init=0.1, epsilon=0.5)
        w0 = np.linspace(-0.3, 0.3, p)
        fused = coordination_pass(w0, batch, targets, oracle, config, root)
        generic = coordination_pass(w0, batch, targets, GenericOracle(oracle), config, root)
        assert fused.tobytes() == generic.tobytes()
        expected = manual_adam_chain(oracle, batch, targets, config, root, w0)
        assert fused.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("defect, message", [
        (lambda mu: mu[:-1], "dimensions differ"),
        (lambda mu: np.where(mu > 0.5, np.nan, mu), "non-finite"),
    ], ids=["short", "nan"])
    def test_targets_checked_before_any_step(self, monkeypatch, defect, message):
        oracle, batch, targets = mst_batch()
        targets[-1] = defect(targets[-1])
        monkeypatch.setattr(trainer, "adam_step", lambda *args: pytest.fail("stepped"))
        monkeypatch.setattr(MstOracle, "perturbed_adam_pass",
                            lambda *args: pytest.fail("stepped"))
        with pytest.raises(InputError, match=message):
            coordination_pass(np.zeros(4), batch, targets, oracle, toy_config(), make_rng(1))

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "generic"])
    def test_non_finite_gradient_names_its_step(self, fused):
        """Features of 1e308 overflow the gradient of example 1 on its
        first step, whatever the draws; both paths say where."""
        oracle, batch, targets = random_batch(3, 3, 2, 3, per_context=1)
        batch[1] = Scenario(1, np.full((oracle.n_edges, 2), 1e308), None)
        targets[1] = np.full(oracle.n_edges, -1.0)
        with pytest.raises(FloatingPointError,
                           match=r"^non-finite gradient at epoch 0, example 1$"):
            with np.errstate(over="ignore"):
                coordination_pass(np.zeros(2), batch, targets,
                                  oracle if fused else GenericOracle(oracle),
                                  toy_config(nb_epochs=2), make_rng(1))

    def test_fused_failure_names_epoch_and_example(self, monkeypatch):
        """The fused pass names the epoch and example of the step index at
        which the kernel reports a non-finite gradient: step 7 of three
        examples is epoch 2, example 1."""
        class Kernel:
            def perturbed_adam_pass(self, *args):
                args[-1]._obj.value = 7
                return -6

        oracle, batch, targets = mst_batch()
        monkeypatch.setattr(native, "_compiled_kernel", Kernel)
        with pytest.raises(FloatingPointError,
                           match=r"^non-finite gradient at epoch 2, example 1$"):
            coordination_pass(np.zeros(4), batch, targets, oracle, toy_config(), make_rng(1))

    def test_fused_pass_continues_the_step_count(self):
        """A pass on a state that has taken steps corrects its bias from the
        state's step count, as adam_step does, bit for bit."""
        oracle, batch, targets = random_batch(3, 3, 2, 1)
        features, mu = batch[0].features, targets[0]
        rng = make_rng(12).split(3)
        states = []
        for fused in (True, False):
            adam = AdamState(np.array([0.2, -0.1]))
            for _ in range(5):
                adam.gradient[:] = [0.3, -0.7]
                adam_step(adam, 0.1)
            if fused:
                oracle.perturbed_adam_pass(adam, [features], [mu], 0.5, 3, 2, 0.1, rng)
            else:
                for epoch in range(2):
                    _, g = perturbed_fy_gradient(oracle, features @ adam.weights, mu, 0.5, 3,
                                                 rng.split(epoch, 0))
                    adam.gradient[:] = features.T @ g
                    adam_step(adam, 0.1)
            states.append([adam.step_count, adam.weights.tobytes(),
                           adam.first_moment.tobytes(), adam.second_moment.tobytes()])
        assert states[0] == states[1]

    def test_non_finite_tilt_raises(self):
        oracle, batch, targets = random_batch(3, 3, 2, 1)
        batch[0] = Scenario(0, np.where(batch[0].features > 0.5, np.inf, 0.0), None)
        with pytest.raises(InputError, match="weights must be finite"):
            coordination_pass(np.ones(2), batch, targets, oracle, toy_config(), make_rng(1))


class GenericOracle(LinearOracle):
    """Forwards the two batched methods only, so that the trainer takes the
    path of an oracle without a fused entry."""

    def __init__(self, inner):
        self.inner = inner

    def argmax_linear_many(self, thetas):
        return self.inner.argmax_linear_many(thetas)

    def argmin_shifted_many(self, theta_tildes, kappa, scenario):
        return self.inner.argmin_shifted_many(theta_tildes, kappa, scenario)


def mst_batch():
    """A 3x3 grid oracle, three scenarios of one instance with four
    features, and a target moment per scenario."""
    cfg = GenConfig(rows=3, cols=3, train_instances=1, val_instances=1, test_instances=1,
                    scenarios_per_instance=3, feature_dim=4)
    inst = generate_mst_split(cfg, 0, "train")[0]
    g = make_rng(63, 0).generator()
    batch = [inst.scenario(0, k) for k in range(3)]
    return MstOracle(3, 3), batch, [g.uniform(0.0, 1.0, inst.n_edges) for _ in batch]


def random_batch(rows, cols, p, n_contexts, per_context=2):
    """A rows x cols grid oracle and a batch of per_context scenarios for
    each of n_contexts feature matrices of p features in [-1, 1], some of
    them 0, with a target moment per scenario."""
    oracle = MstOracle(rows, cols)
    g = make_rng(64, 0).generator()
    batch, targets = [], []
    for ctx in range(n_contexts):
        features = g.uniform(-1.0, 1.0, (oracle.n_edges, p))
        features[g.uniform(size=features.shape) < 0.2] = 0.0
        for _ in range(per_context):
            batch.append(Scenario(ctx, features, None))
            targets.append(g.uniform(0.0, 1.0, oracle.n_edges))
    return oracle, batch, targets


def manual_adam_chain(oracle, batch, targets, config, rng, w0=None):
    """coordination_pass written out with numpy draws, the oracle's batched
    argmax and numpy's Adam: per epoch and slot, the forests of the tilts
    of that slot's stream, their mean minus the target, chained through the
    features, then one bias-corrected Adam step."""
    b1, b2, eps = AdamState.beta1, AdamState.beta2, AdamState.eps_adam
    w = np.zeros(batch[0].feature_width) if w0 is None else w0.copy()
    m, v, t = np.zeros_like(w), np.zeros_like(w), 0
    for epoch in range(config.nb_epochs):
        for slot, (scenario, mu) in enumerate(zip(batch, targets)):
            theta = score_instance(w, scenario)
            z = rng.split(epoch, slot).generator().standard_normal(
                (config.nb_samples, len(theta)))
            ys = oracle.argmax_linear_many(theta[None, :] + config.epsilon * z)
            g = scenario.features.T @ (ys.mean(axis=0) - mu)
            t += 1
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            w = w - config.lr_init * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    return w


def split_batch(rows, cols, p, n_contexts, per_context=2):
    """``random_batch`` with a two-stage cost payload per scenario: first
    stage costs in [0, 2] shared by a context, second stage in [0.5, 2.5]."""
    oracle, batch, targets = random_batch(rows, cols, p, n_contexts, per_context)
    g = make_rng(65, 0).generator()
    first = {ctx: g.uniform(0.0, 2.0, oracle.n_edges) for ctx in range(n_contexts)}
    batch = [Scenario(s.context_id, s.features,
                      TwoStageCosts(first[s.context_id], g.uniform(0.5, 2.5, oracle.n_edges)))
             for s in batch]
    return oracle, batch, targets


_ROOTS = [make_rng(9).split(1, 2), RngStream(2 ** 96, 2 ** 64 - 1, (2 ** 40, 2 ** 32, 7))]


def _threads() -> int:
    return len(os.listdir("/proc/self/task"))


def _with_cpus(monkeypatch, cpus: int) -> None:
    """Make the passes see ``cpus`` usable CPUs: with one they draw inline,
    with more on their helper thread."""
    monkeypatch.setattr(native, "_cpu_count", lambda: cpus)


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads through /proc/self/task")


class TestHelperThread:
    """The fused passes draw each step's normals on a helper thread when
    more than one CPU is usable, and inline otherwise, to the same bits."""

    @pytest.mark.parametrize("rows, cols", [(1, 2), (3, 3), (6, 6)])
    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize("m", [1, 3, 20])
    @pytest.mark.parametrize("root", _ROOTS, ids=["narrow", "wide"])
    def test_threaded_equals_inline(self, monkeypatch, rows, cols, p, m, root):
        oracle, batch, targets = split_batch(rows, cols, p, 3)
        config = toy_config(nb_epochs=3, nb_samples=m, lr_init=0.1, epsilon=0.5)
        w0 = np.linspace(-0.3, 0.3, p)
        runs = []
        for cpus in (2, 1):
            _with_cpus(monkeypatch, cpus)
            moments = decomposition_pass(w0, batch, oracle, config, root.split(1))
            weights = coordination_pass(w0, batch, targets, oracle, config, root.split(2))
            runs.append((np.stack(moments).tobytes(), weights.tobytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("rows, cols", [(1, 2), (3, 3), (6, 6)])
    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize("root", _ROOTS, ids=["narrow", "wide"])
    def test_fused_decomposition_equals_generic(self, rows, cols, p, root):
        """The one-call decomposition equals ``perturbed_decomposition_target``
        per slot, through each of numpy's matmul dispatches."""
        oracle, batch, _ = split_batch(rows, cols, p, 3)
        config = toy_config(nb_samples=7, epsilon=0.5, kappa=1.5)
        w0 = np.linspace(-0.3, 0.3, p)
        fused = decomposition_pass(w0, batch, oracle, config, root)
        generic = decomposition_pass(w0, batch, GenericOracle(oracle), config, root)
        assert np.stack(fused).tobytes() == np.stack(generic).tobytes()

    @needs_proc
    @pytest.mark.parametrize("cpus, helpers", [(2, 1), (1, 0)], ids=["two-cpus", "one-cpu"])
    def test_one_helper_at_most_joined_on_return(self, monkeypatch, cpus, helpers):
        """While a long pass runs on a Python thread, the process has one
        more thread with two CPUs and none more with one; none is left."""
        _with_cpus(monkeypatch, cpus)
        oracle, batch, targets = split_batch(6, 6, 2, 2)
        config = toy_config(nb_epochs=400, nb_samples=20)
        before = _threads()

        def run():
            coordination_pass(np.zeros(2), batch, targets, oracle, config, make_rng(3))
            return _threads()

        seen = []
        with ThreadPoolExecutor(max_workers=1) as pool:
            done = pool.submit(run)
            deadline = time.monotonic() + 60
            while not done.done() and time.monotonic() < deadline:
                seen.append(_threads())
                time.sleep(1e-3)
            assert done.result(timeout=1) == before + 1
        assert max(seen) == before + 1 + helpers

    @needs_proc
    @pytest.mark.parametrize("cpus", [2, 1])
    def test_late_non_finite_tilt_stops_at_its_step(self, monkeypatch, cpus):
        """A tilt that is not finite at example 17 of 20, past the helper's
        ring, stops the coordination pass after 17 steps and the
        decomposition pass at example 17 in both modes."""
        _with_cpus(monkeypatch, cpus)
        oracle, batch, targets = split_batch(3, 3, 2, 10)
        bad = batch[17]
        batch[17] = Scenario(bad.context_id, np.where(bad.features > 0.0, np.inf, 0.0),
                             bad.noise_payload)
        before = _threads()
        adam = AdamState(np.ones(2))
        with pytest.raises(InputError, match="weights must be finite"):
            oracle.perturbed_adam_pass(adam, [s.features for s in batch], targets, 0.5, 5, 3,
                                       0.1, make_rng(4))
        assert adam.step_count == 17
        with pytest.raises(InputError, match=r"^non-finite theta or tilt at example 17$"):
            decomposition_pass(np.ones(2), batch, oracle, toy_config(nb_samples=5),
                               make_rng(4))
        assert _threads() == before

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_overflowing_tilt_raises_as_generic(self, monkeypatch, cpus):
        """A finite theta, the largest double, whose tilts overflow at
        example 17 raises InputError in the fused decomposition, as in the
        generic path; no other example's tilt overflows at eps = 2**1000."""
        _with_cpus(monkeypatch, cpus)
        oracle, batch, _ = split_batch(3, 3, 1, 10)
        bad = batch[17]
        batch[17] = Scenario(bad.context_id, np.full((oracle.n_edges, 1), np.finfo(float).max),
                             bad.noise_payload)
        config = toy_config(nb_samples=5, epsilon=2.0 ** 1000)
        with np.errstate(over="ignore"):
            with pytest.raises(InputError, match=r"^non-finite theta or tilt at example 17$"):
                decomposition_pass(np.ones(1), batch, oracle, config, make_rng(4))
            with pytest.raises(InputError, match="theta contains non-finite entries"):
                decomposition_pass(np.ones(1), batch, GenericOracle(oracle), config, make_rng(4))

    @needs_proc
    @pytest.mark.parametrize("cpus", [2, 1])
    def test_non_finite_gradient_stops_at_its_step(self, monkeypatch, cpus):
        _with_cpus(monkeypatch, cpus)
        oracle, batch, targets = random_batch(3, 3, 2, 10)
        batch[13] = Scenario(6, np.full((oracle.n_edges, 2), 1e308), None)
        targets[13] = np.full(oracle.n_edges, -1.0)
        before = _threads()
        adam = AdamState(np.zeros(2))
        with pytest.raises(FloatingPointError,
                           match=r"^non-finite gradient at epoch 0, example 13$"):
            with np.errstate(over="ignore"):
                oracle.perturbed_adam_pass(adam, [s.features for s in batch], targets, 0.5, 5,
                                           3, 0.1, make_rng(4))
        assert adam.step_count == 13
        assert _threads() == before

    def test_python_threads_match_sequential(self, monkeypatch):
        """Four Python threads, each running passes with its own helper,
        give the sequential results."""
        _with_cpus(monkeypatch, 2)
        oracle, batch, targets = split_batch(6, 6, 3, 3)
        config = toy_config(nb_epochs=4, nb_samples=10)

        def run(k):
            root = make_rng(21).split(k)
            moments = decomposition_pass(np.full(3, 0.1), batch, oracle, config, root.split(1))
            weights = coordination_pass(np.full(3, 0.1), batch, targets, oracle, config,
                                        root.split(2))
            return np.stack(moments).tobytes(), weights.tobytes()

        expected = [run(k) for k in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(run, range(16), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected


class TestTrainPrimalDual:
    def test_iterates_are_distinct_arrays(self):
        """Every recorded iterate is its own array: no pass writes into the
        weights an earlier pass returned."""
        cfg = GenConfig(rows=3, cols=3, train_instances=2, val_instances=1, test_instances=1,
                        scenarios_per_instance=2, feature_dim=3)
        data = generate_mst_dataset(cfg, 0)["train"][1]
        config = toy_config(nb_iterations=3, nb_scenarios=2, nb_samples=5, nb_epochs=2)
        history = []
        passes = trainer.coordination_pass

        def recording_pass(*args):
            history.append(passes(*args))
            return history[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainer, "coordination_pass", recording_pass)
            traj = train_primal_dual(data, MstOracle(3, 3), config)
        assert len({id(w) for w in history}) == 3
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(history, 2))
        np.testing.assert_array_equal(traj.per_iteration, np.array(history))
        assert not np.array_equal(history[0], history[-1])

    def test_determinism(self):
        data = toy_dataset()
        oracle = ToyOracle()
        t1 = train_primal_dual(data, oracle, toy_config(seed=3))
        t2 = train_primal_dual(data, oracle, toy_config(seed=3))
        np.testing.assert_array_equal(t1.per_iteration, t2.per_iteration)
        np.testing.assert_array_equal(t1.running_average, t2.running_average)

    def test_seed_changes_trajectory(self):
        data = toy_dataset()
        oracle = ToyOracle()
        t1 = train_primal_dual(data, oracle, toy_config(seed=3))
        t2 = train_primal_dual(data, oracle, toy_config(seed=4))
        assert not np.array_equal(t1.per_iteration, t2.per_iteration)

    def test_running_average_consistency(self):
        data = toy_dataset()
        traj = train_primal_dual(data, ToyOracle(), toy_config(nb_iterations=5))
        for t in range(5):
            np.testing.assert_allclose(
                traj.running_average[t], traj.per_iteration[: t + 1].mean(axis=0),
                atol=1e-12,
            )

    def test_subsample_batch_budget(self):
        data = toy_dataset()
        batch = subsample_batch(data, 2, make_rng(0).split(1, 0))
        assert len(batch) == 2
        full = subsample_batch(data, 10, make_rng(0).split(1, 0))
        assert len(full) == 3


def coordination_objective(weights, batch, targets, oracle, config, rng) -> float:
    """Frozen-draw coordination objective: the shifted FY loss averaged over
    the batch, each slot on its own sub-stream of ``rng``."""
    total = 0.0
    for slot, (scenario, mu) in enumerate(zip(batch, targets)):
        loss, _ = perturbed_fy_gradient(oracle, score_instance(weights, scenario), mu,
                                        config.epsilon, config.nb_samples, rng.split(slot))
        total += loss
    return total / len(batch)


class TestFrozenDrawDescent:
    def test_running_average_of_objective_decreases(self):
        """On frozen common draws the coordination objective's running
        average over epochs is nonincreasing (10-example smoke test)."""
        oracle = ToyOracle()
        scenarios = toy_scenarios()
        batch = [scenarios[i % 3] for i in range(10)]
        g = make_rng(71, 0).generator()
        targets = [np.array([g.uniform(0.05, 0.95)]) for _ in range(10)]
        eval_stream = make_rng(71, 9)
        values = []
        for k in range(1, 9):
            config = toy_config(nb_epochs=k, nb_samples=400, lr_init=0.05)
            w = coordination_pass(np.zeros(1), batch, targets, oracle, config,
                                  make_rng(71).split(1, 2))
            values.append(coordination_objective(w, batch, targets, oracle, config,
                                                 eval_stream))
        cummean = np.cumsum(values) / np.arange(1, len(values) + 1)
        assert np.all(np.diff(cummean) <= 1e-9)


class TestEvaluatePolicy:
    def test_toy_positive_theta(self):
        cost, gap = evaluate_policy(np.array([1.0]), toy_dataset(), ToyOracle(),
                                    ToyEvaluator())
        assert cost == pytest.approx(0.0)
        assert gap >= 0

    def test_toy_negative_theta(self):
        cost, _ = evaluate_policy(np.array([-1.0]), toy_dataset(), ToyOracle(),
                                  ToyEvaluator())
        assert cost == pytest.approx(1 / 3)

    def test_gap_nonnegative_for_any_policy(self):
        g = make_rng(72, 0).generator()
        for _ in range(20):
            _, gap = evaluate_policy(g.standard_normal(1), toy_dataset(), ToyOracle(),
                                     ToyEvaluator())
            assert gap >= -1e-12

    def test_anticipative_self_gap_zero(self):
        """A per-scenario evaluator applied to its own optimum has zero gap."""
        from costru.problems.datasets import GenConfig, generate_mst_split
        from costru.problems.spanning_tree import MstEvaluator, MstOracle

        cfg = GenConfig(rows=3, cols=3, train_instances=1, val_instances=1,
                        test_instances=1, scenarios_per_instance=2)
        inst = generate_mst_split(cfg, 0, "train")[0]
        oracle = MstOracle(3, 3)
        evaluator = MstEvaluator(oracle)
        for k in range(2):
            scenario = inst.scenario(0, k)
            y = oracle.argmin_shifted(np.zeros(oracle.n_edges), 0.0, scenario)
            cost = evaluator.policy_cost(y, scenario)
            assert cost == pytest.approx(evaluator.anticipative_cost(scenario), abs=1e-9)


class TestConfigValidation:
    def test_counts(self):
        with pytest.raises(InputError):
            toy_config(nb_iterations=0)

    def test_positives(self):
        with pytest.raises(InputError):
            toy_config(lr_init=0.0)
        with pytest.raises(InputError):
            toy_config(epsilon=-1.0)

    @pytest.mark.parametrize("field", ["lr_init", "epsilon", "kappa"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_by_name(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be a finite positive number"):
            toy_config(**{field: value})
