"""Primal-dual trainer: scoring, Adam, passes, full loop, evaluation."""

import itertools

import numpy as np
import pytest
from scipy.stats import norm

from costru import trainer
from costru.core import InputError, LinearOracle, make_rng
from costru.problems.datasets import GenConfig, generate_mst_dataset, generate_mst_split
from costru.problems.spanning_tree import MstOracle
from costru.problems.toy import ToyEvaluator, ToyOracle, toy_dataset, toy_scenarios
from costru.regularizers import perturbed_fy_gradient, perturbed_maximizer_moment
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
        mu = perturbed_maximizer_moment(oracle, theta, config.epsilon,
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

    @pytest.mark.parametrize("defect, message", [
        (lambda mu: mu[:-1], "dimensions differ"),
        (lambda mu: np.where(mu > 0.5, np.nan, mu), "non-finite"),
    ], ids=["short", "nan"])
    def test_targets_checked_before_any_step(self, monkeypatch, defect, message):
        oracle, batch, targets = mst_batch()
        targets[-1] = defect(targets[-1])
        monkeypatch.setattr(trainer, "adam_step", lambda *args: pytest.fail("stepped"))
        with pytest.raises(InputError, match=message):
            coordination_pass(np.zeros(4), batch, targets, oracle, toy_config(), make_rng(1))


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
