"""Exact simplex laboratory: surrogate, updates, and theorem certificates."""

import numpy as np
import pytest
from scipy.special import rel_entr

import lab_reference as reference
from costru.core import InputError, make_rng
from costru.problems.toy import TOY_COSTS
from costru.regularizers import RegularizerKind, conjugate_rows, prediction_rows, value_rows
from costru import verification
from costru.simplex_lab import (
    INTERIOR_CLAMP,
    PRICING_BLOCK,
    BoundaryError,
    ExplicitOracle,
    check_jensen_gap_convexity,
    convergence_instance,
    exact_coordination,
    five_point_check,
    jensen_gap,
    omega_c_conjugate_check,
    partial_min_surrogate,
    partial_surrogate_terms,
    perturbation_conjugate_check,
    random_binary_oracle,
    random_cost_table,
    random_interior_product,
    risk_bound_check,
    risk_suboptimality_pair_slack,
    run_alternating_exact,
    run_conjugate_suite,
    run_convergence_suite,
    run_five_point_suite,
    run_jensen_gap_suite,
    run_mirror_descent_comparison,
    run_mirror_descent_suite,
    run_risk_bound_suite,
    surrogate_value,
)
from costru.verification import run_oracle_suite

NEG = RegularizerKind.negentropy()
L2 = RegularizerKind.squared_l2()


def softmax(s):
    return prediction_rows(np.asarray(s, dtype=float)[None, :], NEG)[0]


def decompose(s, gamma, kappa):
    """The lab's decomposition of one scenario: the prediction at s - gamma/kappa."""
    return softmax(np.asarray(s, dtype=float) - np.asarray(gamma, dtype=float) / kappa)


class TestSurrogateValue:
    def test_equality_at_dual_pairs(self):
        g = make_rng(31, 0).generator()
        s = g.standard_normal(5)
        q = prediction_rows(np.tile(s, (3, 1)), NEG)
        costs = random_cost_table(g, 3, 5)
        cost_part = float(np.einsum("ij,ij->", costs, q)) / 3
        assert surrogate_value(s, q, costs, 1.0, NEG) == pytest.approx(cost_part, abs=1e-12)

    def test_one_common_score_vector_only(self):
        q = np.full((3, 5), 0.2)
        with pytest.raises(InputError, match="inconsistent"):
            surrogate_value(np.zeros((3, 5)), q, np.zeros((3, 5)), 1.0, NEG)

    def test_kl_only_term(self):
        costs = np.zeros((1, 2))
        value = surrogate_value(np.zeros(2), np.array([[1.0, 0.0]]), costs, 1.0, NEG)
        assert value == pytest.approx(np.log(2))

    def test_dominates_expected_cost(self):
        g = make_rng(32, 0).generator()
        for _ in range(1000):
            s = g.standard_normal(4)
            q = random_interior_product(g, 2, 4)
            costs = random_cost_table(g, 2, 4)
            cost_part = float(np.einsum("ij,ij->", costs, q)) / 2
            assert surrogate_value(s, q, costs, 0.7, NEG) >= cost_part - 1e-12


class TestExactDecomposition:
    def test_zero_costs(self):
        s = make_rng(33, 0).generator().standard_normal(4)
        np.testing.assert_allclose(
            decompose(s, np.zeros(4), 1.0), softmax(s),
            atol=1e-15,
        )

    def test_toy_first_scenario(self):
        gamma = TOY_COSTS.T[0]  # costs of (y=0, y=1), first state
        q = decompose(np.zeros(2), gamma, 1.0)
        expected = np.array([np.exp(-4) / (1 + np.exp(-4)), 1 / (1 + np.exp(-4))])
        np.testing.assert_allclose(q, expected, atol=1e-12)
        assert q[1] == pytest.approx(0.9820, abs=1e-4)

    def test_large_kappa_ignores_costs(self):
        s = make_rng(34, 0).generator().standard_normal(4)
        gamma = make_rng(34, 1).generator().standard_normal(4)
        q = decompose(s, gamma, 1e12)
        np.testing.assert_allclose(q, softmax(s), atol=1e-10)


class TestExactCoordination:
    def test_uniform_rows_give_zero_scores(self):
        q = np.full((3, 4), 0.25)
        np.testing.assert_allclose(exact_coordination(q, NEG), np.zeros(4), atol=1e-15)

    def test_inverts_softmax(self):
        q_bar = np.array([1 / 6, 2 / 6, 3 / 6])
        s = exact_coordination(np.stack([q_bar, q_bar]), NEG)
        assert s.sum() == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(softmax(s), q_bar, atol=1e-12)

    def test_round_trip_on_identical_scenarios(self):
        g = make_rng(35, 0).generator()
        q_row = random_interior_product(g, 1, 5)[0]
        q = np.stack([q_row] * 4)
        s = exact_coordination(q, NEG)
        back = decompose(s, np.zeros(5), 1.0)
        np.testing.assert_allclose(back, q_row, atol=1e-12)

    def test_boundary_error_reports_vertex(self):
        q = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(BoundaryError) as err:
            exact_coordination(q, NEG)
        assert err.value.vertex in (1, 2)

    def test_squared_l2_coordination(self):
        g = make_rng(36, 0).generator()
        q = random_interior_product(g, 3, 4)
        s = exact_coordination(q, L2)
        np.testing.assert_allclose(prediction_rows(s[None, :], L2)[0], q.mean(axis=0),
                                   atol=1e-12)


class TestPartialMinAndJensen:
    def test_single_scenario_collapse(self):
        g = make_rng(37, 0).generator()
        q = random_interior_product(g, 1, 5)
        costs = random_cost_table(g, 1, 5)
        expected = float(costs[0] @ q[0])
        value = partial_min_surrogate(q, costs, 1.3, NEG)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_identical_rows_have_zero_gap(self):
        g = make_rng(38, 0).generator()
        row = random_interior_product(g, 1, 5)[0]
        q = np.stack([row] * 4)
        costs = random_cost_table(g, 4, 5)
        cost_part = float(np.einsum("ij,ij->", costs, q)) / 4
        value = partial_min_surrogate(q, costs, 2.0, NEG)
        assert value == pytest.approx(cost_part, abs=1e-12)
        assert jensen_gap(q[None], NEG)[0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_surrogate_at_coordination(self):
        g = make_rng(39, 0).generator()
        q = random_interior_product(g, 4, 5)
        costs = random_cost_table(g, 4, 5)
        s = exact_coordination(q, NEG)
        assert partial_min_surrogate(q, costs, 1.0, NEG) == pytest.approx(
            surrogate_value(s, q, costs, 1.0, NEG), abs=1e-10
        )

    def test_jensen_gap_examples(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert jensen_gap(q[None], L2)[0] == pytest.approx(0.25)
        assert jensen_gap(q[None], NEG)[0] == pytest.approx(np.log(2))

    def test_lemma_decomposition_identity(self):
        """Partial minimizer = expected cost + kappa * Jensen gap, exactly."""
        g = make_rng(40, 0).generator()
        for kappa in (0.5, 1.0, 3.0):
            q = random_interior_product(g, 5, 6)
            costs = random_cost_table(g, 5, 6)
            cost_part = float(np.einsum("ij,ij->", costs, q)) / 5
            lhs = partial_min_surrogate(q, costs, kappa, NEG)
            rhs = cost_part + kappa * jensen_gap(q[None], NEG)[0]
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestJensenGapConvexity:
    @pytest.mark.parametrize("kind", [NEG, L2])
    def test_no_violations(self, kind):
        assert check_jensen_gap_convexity(kind, 1000, make_rng(41, 0)) <= 1e-10

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        """A probe of zero trials would pass with a violation of -inf."""
        with pytest.raises(InputError, match="at least one trial"):
            check_jensen_gap_convexity(NEG, trials, make_rng(41, 0))
        with pytest.raises(InputError, match="at least one trial"):
            run_jensen_gap_suite(trials=trials)

    def test_endpoints_equality(self):
        g = make_rng(42, 0).generator()
        qa = random_interior_product(g, 3, 4)
        qb = random_interior_product(g, 3, 4)
        for t in (0.0, 1.0):
            combo = t * qa + (1 - t) * qb
            lhs = jensen_gap(combo[None], NEG)[0]
            rhs = t * jensen_gap(qa[None], NEG)[0] + (1 - t) * jensen_gap(qb[None], NEG)[0]
            assert lhs == pytest.approx(rhs, abs=1e-14)


class TestAlternatingScheme:
    def test_single_scenario_is_entropic_descent(self):
        """With one scenario the Jensen gap vanishes and the partial-min
        value is the plain expected cost; the iterates follow the closed
        form q_{t+1} proportional to q_t * exp(-gamma / kappa), descending
        toward the cheapest point."""
        g = make_rng(43, 0).generator()
        costs = random_cost_table(g, 1, 5)
        s0 = g.standard_normal(5)
        kappa = 1.0
        traj = run_alternating_exact(costs[None], s0[None, :], kappa, NEG, 6)
        q1 = softmax(s0 - costs[0] / kappa)
        np.testing.assert_allclose(traj.q_products[0][0, 0], q1, atol=1e-12)
        q = q1
        for t in range(1, 6):
            q = softmax(np.log(q) - costs[0] / kappa)
            np.testing.assert_allclose(traj.q_products[t][0, 0], q, atol=1e-12)
            assert traj.values[t, 0] == pytest.approx(float(costs[0] @ q), abs=1e-12)
        assert np.all(np.diff(traj.values[:, 0]) <= 1e-12)

    def test_identical_scenarios_stay_synchronized(self):
        """Identical cost rows keep every per-scenario distribution equal,
        so the Jensen gap stays zero along the whole trajectory."""
        g = make_rng(44, 0).generator()
        gamma = g.standard_normal(4)
        costs = np.stack([gamma] * 3)
        traj = run_alternating_exact(costs[None], np.zeros((1, 4)), 1.0, NEG, 6)
        for t in range(6):
            q = traj.q_products[t][0]
            for i in (1, 2):
                np.testing.assert_allclose(q[i], q[0], atol=1e-14)
            assert jensen_gap(q[None], NEG)[0] == pytest.approx(0.0, abs=1e-13)

    def test_monotone_descent(self):
        g = make_rng(45, 0).generator()
        costs = random_cost_table(g, 5, 6)
        traj = run_alternating_exact(costs[None], np.zeros((1, 6)), 1.0, NEG, 300,
                                     record_iterates=False)
        assert traj.values.shape == (300, 1) and traj.q_products == []
        assert np.max(np.diff(traj.values, axis=0)) <= 1e-12

    def test_squared_l2_descent(self):
        g = make_rng(46, 0).generator()
        costs = random_cost_table(g, 4, 5, scale=0.05)
        traj = run_alternating_exact(costs[None], np.zeros((1, 5)), 1.0, L2, 100)
        assert np.max(np.diff(traj.values, axis=0)) <= 1e-12


def alternating_reference(costs, kappa, iters):
    """One instance's alternating loop written out in full: decompose,
    mean, clamp, log, centre, partial minimum.  Returns the values, the
    first and final iterates and the (iteration, vertex) of every clamp."""
    n, k = costs.shape
    s = np.zeros(k)
    values, clamps, first_q = [], [], None
    for t in range(1, iters + 1):
        q = prediction_rows(s[None, :] - costs / kappa, NEG)
        first_q = q if first_q is None else first_q
        q_bar = q.mean(axis=0)
        if q_bar.min() < INTERIOR_CLAMP:
            clamps.append((t, int(np.argmin(q_bar))))
        s = np.log(np.maximum(q_bar, INTERIOR_CLAMP))
        s = s - s.mean()
        cost_part = float(np.einsum("ij,ij->", costs, q)) / n
        bar_value = float(value_rows(q_bar[None, :], NEG)[0])
        values.append(cost_part + (kappa / n) * (float(value_rows(q, NEG).sum()) - n * bar_value))
    return np.array(values), first_q, q, clamps


class TestLockstep:
    """A stack of instances advances in lockstep, each row bit for bit its
    own single-instance run; instance seed 21 reaches the clamp."""

    SEEDS = (20, 21, 22)

    def test_rows_equal_the_per_instance_loop(self):
        tables = [convergence_instance(seed) for seed in self.SEEDS]
        traj = run_alternating_exact(np.stack(tables), np.zeros((3, 6)), 1.0, NEG, 500,
                                     record_iterates=False)
        assert traj.values.shape == (500, 3) and traj.first_q.shape == (3, 5, 6)
        clamped = []
        for b, costs in enumerate(tables):
            values, first_q, final_q, clamps = alternating_reference(costs, 1.0, 500)
            assert np.array_equal(traj.values[:, b], values)
            assert np.array_equal(traj.first_q[b], first_q)
            assert np.array_equal(traj.final_q[b], final_q)
            clamped.append(bool(clamps))
        assert clamped == [False, True, False]

    def test_vanished_mean_names_the_instance(self):
        """A mean that underflows to zero is not clamped: the error names
        the instance, the vertex and the iteration."""
        tables = np.stack([convergence_instance(seed) for seed in self.SEEDS[:2]])
        tables[1, :, 4] = 1e4  # exp(-1e4) is 0.0 in every scenario
        with pytest.raises(BoundaryError, match="instance 1") as err:
            run_alternating_exact(tables, np.zeros((2, 6)), 1.0, NEG, 500)
        assert (err.value.instance, err.value.vertex, err.value.iteration) == (1, 4, 1)

    def test_mismatched_shapes_rejected(self):
        g = make_rng(49, 0).generator()
        tables = [random_cost_table(g, 5, 6), random_cost_table(g, 4, 6)]
        with pytest.raises(InputError, match="\\(B, N, K\\)"):
            run_alternating_exact(tables[0], np.zeros((5, 6)), 1.0, NEG, 10)
        with pytest.raises(InputError, match="one score row per instance"):
            run_alternating_exact(tables[0][None], np.zeros(6), 1.0, NEG, 10)


class TestBatchedLoops:
    """The alternating scheme prices its surrogate in blocks of iterations
    and the Jensen-gap and five-point checks run all their trials as one
    stack; each equals its one-step-at-a-time loop in ``lab_reference``
    bit for bit."""

    @staticmethod
    def assert_same_trajectory(traj, ref):
        assert np.array_equal(traj.values, ref.values)
        assert np.array_equal(traj.first_q, ref.first_q)
        assert np.array_equal(traj.final_q, ref.final_q)
        assert len(traj.q_products) == len(ref.q_products) == len(traj.scores)
        for got, want in zip(traj.q_products + traj.scores, ref.q_products + ref.scores):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind,scale", [(NEG, 1.0), (L2, 0.05)])
    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("max_iters", [1, PRICING_BLOCK - 1, PRICING_BLOCK,
                                           PRICING_BLOCK + 1, 3 * PRICING_BLOCK + 5])
    def test_alternating_equals_the_per_iteration_loop(self, kind, scale, b, max_iters):
        g = make_rng(60, b).generator()
        gamma = np.stack([random_cost_table(g, 5, 6, scale) for _ in range(b)])
        s0 = 0.1 * g.standard_normal((b, 6))
        args = (gamma, s0, 1.5, kind, max_iters)
        self.assert_same_trajectory(run_alternating_exact(*args),
                                    reference.run_alternating_py(*args))

    @pytest.mark.parametrize("kind,scale", [(NEG, 1.0), (L2, 0.05)])
    @pytest.mark.parametrize("b", [1, 20])
    @pytest.mark.parametrize("n", [1, 5, 8, 9])
    @pytest.mark.parametrize("k", [2, 7, 8, 9, 17, 130])
    def test_atoms_major_sums_keep_the_row_order(self, kind, scale, b, n, k):
        """The loop sums over atoms and scenarios off the last axis, in
        numpy's row order: left to right below 8 terms, in eight partial
        sums from 8, in halves above 128."""
        g = make_rng(62, k).generator()
        gamma = scale * g.standard_normal((b, n, k))
        args = (gamma, 0.1 * g.standard_normal((b, k)), 1.5, kind, PRICING_BLOCK + 3)
        self.assert_same_trajectory(run_alternating_exact(*args),
                                    reference.run_alternating_py(*args))

    @pytest.mark.parametrize("kind,scale", [(NEG, 1.0), (L2, 0.05)])
    @pytest.mark.parametrize("b", [1, 3])
    def test_returned_arrays_are_fresh(self, kind, scale, b):
        """No returned array is a view (of a buffer of the loop) or shares
        memory with another."""
        g = make_rng(63, b).generator()
        gamma = np.stack([random_cost_table(g, 5, 6, scale) for _ in range(b)])
        traj = run_alternating_exact(gamma, np.zeros((b, 6)), 1.0, kind, PRICING_BLOCK + 3)
        arrays = [traj.values, traj.first_q, traj.final_q, *traj.q_products, *traj.scores]
        assert all(a.base is None and a.flags.c_contiguous for a in arrays)
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, other) for other in arrays[i + 1:])

    def test_boundary_instance_clamps_inside_blocks(self):
        """Instance seed 21 clamps in 1 632 of its first 2 000 iterations,
        at every position of a block."""
        gamma = convergence_instance(21)[None]
        args = (gamma, np.zeros((1, 6)), 1.0, NEG, 2_000)
        _, _, _, clamps = alternating_reference(gamma[0], 1.0, 2_000)
        assert len(clamps) == 1_632
        assert {t % PRICING_BLOCK for t, _ in clamps} == set(range(PRICING_BLOCK))
        self.assert_same_trajectory(run_alternating_exact(*args, record_iterates=False),
                                    reference.run_alternating_py(*args, record_iterates=False))

    def test_mean_vanishing_after_the_first_block_names_the_iteration(self):
        """Instance 1 starts its cheapest vertex 0 at score -700.  Its
        dearest vertex 4, 50 above the others, hovers at the clamp until
        vertex 0, 58 below it, takes over; then vertex 4's mean underflows
        to zero."""
        tables = np.stack([convergence_instance(20), convergence_instance(21)])
        tables[1] = [0.0, 8.0, 8.0, 8.0, 58.0, 8.0]
        s0 = np.zeros((2, 6))
        s0[1, 0] = -700.0
        with pytest.raises(BoundaryError, match="instance 1") as err:
            run_alternating_exact(tables, s0, 1.0, NEG, 500)
        with pytest.raises(BoundaryError) as ref_err:
            reference.run_alternating_py(tables, s0, 1.0, NEG, 500)
        assert (err.value.instance, err.value.vertex) == (1, 4)
        assert err.value.iteration == ref_err.value.iteration > PRICING_BLOCK

    @pytest.mark.parametrize("kind", [NEG, L2])
    @pytest.mark.parametrize("seed", range(4))
    def test_jensen_gap_check_equals_the_per_trial_loop(self, kind, seed):
        assert check_jensen_gap_convexity(kind, 1000, make_rng(seed, 21)) == (
            reference.check_jensen_gap_convexity_py(kind, 1000, make_rng(seed, 21)))

    @pytest.mark.parametrize("kind,scale,score_scale", [(NEG, 1.0, 1.0), (L2, 0.05, 0.02)])
    @pytest.mark.parametrize("seed", range(4))
    def test_five_point_check_equals_the_per_probe_loop(self, kind, scale, score_scale, seed):
        costs = random_cost_table(make_rng(seed, 11).generator(), 4, 5, scale)
        args = (costs, 1.0, kind, 1000)
        assert five_point_check(*args, make_rng(seed, 12), score_scale) == (
            reference.five_point_check_py(*args, make_rng(seed, 12), score_scale))

    def test_jensen_gap_of_a_stack_is_one_per_entry(self):
        g = make_rng(61, 0).generator()
        stack = np.stack([random_interior_product(g, 4, 5) for _ in range(3)])
        gaps = jensen_gap(stack, NEG)
        assert gaps.shape == (3,)
        assert gaps.tolist() == [reference.jensen_gap_py(q, NEG) for q in stack]
        with pytest.raises(InputError, match="sums to"):
            jensen_gap(np.concatenate([stack, 2.0 * stack[:1]]), NEG)
        with pytest.raises(InputError, match="product distribution"):
            jensen_gap(stack[0, 0], NEG)
        with pytest.raises(InputError, match="product distribution"):
            jensen_gap(stack[0], NEG)


class TestRateCertificate:
    """The ``convergence/rate`` row checks values[t] - values[T] <= C/(t - 1)
    for t = 2..200, C being kappa times the mean KL divergence of the
    final iterate from the first (mirror descent started at q_1)."""

    def test_instance_seed_21(self):
        """The boundary instance seed 21 exceeds C at t = 1, where no bound
        holds, and meets C/(t - 1) from t = 2 on."""
        costs = convergence_instance(21)
        traj = run_alternating_exact(costs[None], np.zeros((1, 6)), 1.0, NEG, 10_000,
                                     record_iterates=False)
        values, first_q, final_q = traj.values[:, 0], traj.first_q[0], traj.final_q[0]
        s0 = np.zeros(6)
        c = (surrogate_value(s0, final_q, costs, 1.0, NEG)
             - surrogate_value(s0, first_q, costs, 1.0, NEG))
        assert c == pytest.approx(rel_entr(final_q, first_q).sum(axis=1).mean(), abs=1e-12)
        assert (c, values[0] - values[-1]) == pytest.approx((0.43673, 0.45408), abs=1e-5)
        bound = values[1:200] - values[-1] - c / np.arange(1, 200)
        _, rate = run_convergence_suite(n_instances=1, seed=21)
        assert (rate.check, rate.seed, rate.passed) == ("convergence/rate", 21, True)
        assert rate.measured == np.max(bound) < 0.0


class TestFivePoint:
    @pytest.mark.parametrize("probes", [0, -1])
    def test_no_probes_rejected(self, probes):
        """A check of zero probes would pass with a slack of -inf."""
        costs = random_cost_table(make_rng(48, 0).generator(), 4, 5)
        with pytest.raises(InputError, match="at least one probe"):
            five_point_check(costs, 1.0, NEG, probes, make_rng(48, 1))
        with pytest.raises(InputError, match="at least one probe"):
            run_five_point_suite(probes=probes)

    def test_self_probe_is_tight(self):
        g = make_rng(47, 0).generator()
        costs = random_cost_table(g, 4, 5)
        s0 = g.standard_normal(5)
        q1 = prediction_rows(s0[None, :] - costs, NEG)
        slack = reference.five_point_slack_py(s0, q1, costs, 1.0, NEG)
        assert slack == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("kind,scale,score_scale", [(NEG, 1.0, 1.0), (L2, 0.05, 0.02)])
    def test_no_violations(self, kind, scale, score_scale):
        g = make_rng(48, 0).generator()
        costs = random_cost_table(g, 4, 5, scale=scale)
        violation = five_point_check(costs, 1.0, kind, 1000, make_rng(48, 1),
                                     score_scale=score_scale)
        assert violation <= 1e-9


class TestMirrorDescent:
    def test_matched_iterates(self):
        g = make_rng(49, 0).generator()
        costs = random_cost_table(g, 3, 4)
        s0 = g.standard_normal(4)
        deviations = run_mirror_descent_comparison(costs, s0, 1.0, 50, alpha=0.5)
        assert deviations.shape == (50,)
        assert deviations.max() < 1e-8

    def test_small_alpha_freezes_iterates(self):
        g = make_rng(50, 0).generator()
        costs = random_cost_table(g, 3, 4)
        assert run_mirror_descent_comparison(costs, np.zeros(4), 1.0, 30,
                                             alpha=1e-6).max() < 1e-10
        # Both paths start at the same iterate; with the step doubled they
        # part only as far as the frozen iterates move.
        drift = run_mirror_descent_comparison(costs, np.zeros(4), 1.0, 30, alpha=1e-6,
                                              eta=2.0 * 3 * 1e-6 / 1.0).max()
        assert drift < 1e-4

    def test_mismatched_step_breaks_correspondence(self):
        g = make_rng(51, 0).generator()
        costs = random_cost_table(g, 3, 4)
        deviations = run_mirror_descent_comparison(
            costs, np.zeros(4), 1.0, 50, alpha=0.5, eta=2.0 * 3 * 0.5 / 1.0
        )
        assert deviations.max() > 1e-3

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, np.nan])
    def test_damping_outside_unit_interval_rejected(self, alpha):
        costs = random_cost_table(make_rng(52, 0).generator(), 3, 4)
        with pytest.raises(InputError, match="alpha must lie in"):
            run_mirror_descent_comparison(costs, np.zeros(4), 1.0, 5, alpha=alpha)


class TestRiskBound:
    def test_zero_costs(self):
        """Zero costs make the risk, the partial surrogate and the bound all
        zero, so the slack is exactly zero."""
        matrix = random_binary_oracle(make_rng(52, 0).generator(), 3, 4).matrix
        costs = np.zeros((3, 4))
        theta = np.array([0.3, -0.2, 0.5])
        risks, partials = partial_surrogate_terms(matrix.T @ theta, costs, 1.0, NEG)
        np.testing.assert_allclose(risks, 0.0, atol=1e-15)
        np.testing.assert_allclose(partials, 0.0, atol=1e-15)
        assert risk_bound_check((risks, partials), costs, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_large_kappa_limit(self):
        g = make_rng(53, 0).generator()
        matrix = random_binary_oracle(g, 3, 4).matrix
        costs = random_cost_table(g, 3, 4)
        theta = g.standard_normal(3)
        gaps = []
        for kappa in (1.0, 10.0, 100.0):
            risks, partials = partial_surrogate_terms(matrix.T @ theta, costs, kappa, NEG)
            gaps.append(abs(partials.mean() - risks.mean()))
            assert risk_bound_check((risks, partials), costs, kappa) >= -1e-12
        assert gaps[2] < gaps[1] < gaps[0]

    def test_random_instances_hold(self):
        g = make_rng(54, 0).generator()
        for _ in range(30):
            matrix = random_binary_oracle(g, 4, 6).matrix
            costs = random_cost_table(g, 3, 6)
            theta = g.standard_normal(4)
            for kappa in (0.5, 1.0, 5.0):
                terms = partial_surrogate_terms(matrix.T @ theta, costs, kappa, NEG)
                assert risk_bound_check(terms, costs, kappa) >= -1e-12

    @pytest.mark.parametrize("kappa, L", [(0.0, 1.0), (np.nan, 1.0), (1.0, 0.0), (1.0, np.inf)])
    def test_scales_must_be_finite_and_positive(self, kappa, L):
        """A zero kappa or L used to end in a bare ZeroDivisionError, and a
        NaN one in NaN slacks reported as failed checks."""
        costs, s = np.ones((3, 4)), np.zeros(4)
        terms = partial_surrogate_terms(s, costs, 1.0, NEG)
        calls = [lambda: risk_bound_check(terms, costs, kappa, L),
                 lambda: risk_suboptimality_pair_slack(terms, terms, costs, kappa, L)]
        if kappa != 1.0:
            calls.append(lambda: partial_surrogate_terms(s, costs, kappa, NEG))
        for call in calls:
            with pytest.raises(InputError, match="must be a finite positive number"):
                call()


class TestConjugateCheck:
    def test_zero_theta_log_cardinality(self):
        matrix = random_binary_oracle(make_rng(55, 0).generator(), 3, 6).matrix
        assert omega_c_conjugate_check(np.zeros(3), matrix) <= 1e-12
        lse = conjugate_rows((matrix.T @ np.zeros(3))[None, :], NEG)[0]
        assert lse == pytest.approx(np.log(6))

    def test_line_closed_form(self):
        matrix = ExplicitOracle(np.array([[0.0], [1.0]])).matrix
        for t in (-3.0, -0.5, 0.0, 1.2, 4.0):
            lse = conjugate_rows((matrix.T @ np.array([t]))[None, :], NEG)[0]
            assert lse == pytest.approx(np.log1p(np.exp(t)), abs=1e-12)

    def test_random_equality(self):
        g = make_rng(56, 0).generator()
        matrix = random_binary_oracle(g, 3, 8).matrix
        for _ in range(20):
            assert omega_c_conjugate_check(g.standard_normal(3), matrix) <= 1e-12

    def test_perturbation_per_draw(self):
        g = make_rng(57, 0).generator()
        matrix = random_binary_oracle(g, 3, 8).matrix
        worst = perturbation_conjugate_check(g.standard_normal(3), matrix, 0.5, 128,
                                             make_rng(57, 1))
        assert worst <= 1e-12

    def test_perturbation_bad_scale_rejected(self):
        """A non-finite scale or theta would make every difference NaN,
        which the running maximum skips: the check would report 0."""
        matrix = random_binary_oracle(make_rng(57, 0).generator(), 3, 8).matrix
        for epsilon in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InputError, match="epsilon"):
                perturbation_conjugate_check(np.zeros(3), matrix, epsilon, 10, make_rng(57, 1))
        with pytest.raises(InputError, match="theta"):
            perturbation_conjugate_check(np.array([0.0, np.nan, 0.0]), matrix, 0.5, 10,
                                         make_rng(57, 1))
        with pytest.raises(InputError, match="vertex matrix"):
            perturbation_conjugate_check(np.zeros(3), np.where(matrix > 0, np.nan, matrix),
                                         0.5, 10, make_rng(57, 1))

    def test_perturbation_no_draws_rejected(self):
        """Zero draws would report a worst difference of 0 and pass."""
        matrix = random_binary_oracle(make_rng(57, 0).generator(), 3, 8).matrix
        with pytest.raises(InputError, match="n_draws"):
            perturbation_conjugate_check(np.zeros(3), matrix, 1.0, 0, make_rng(57, 1))


def _lab_runs(kappa: float, max_iters: int = 5) -> list:
    """The three lab functions that read kappa, on small instances."""
    costs = random_cost_table(make_rng(58, 0).generator(), 3, 4)
    return [lambda: run_alternating_exact(costs[None], np.zeros((1, 4)), kappa, NEG, max_iters),
            lambda: five_point_check(costs, kappa, NEG, 5, make_rng(58, 1)),
            lambda: run_mirror_descent_comparison(costs, np.zeros(4), kappa, 5)]


class TestPolytopeValidation:
    @pytest.mark.parametrize("kappa", [-1.0, 0.0, np.nan, np.inf])
    def test_kappa_must_be_finite_and_positive(self, kappa):
        """A NaN or infinite kappa used to run and report NaN values."""
        for run in _lab_runs(kappa):
            with pytest.raises(InputError, match="kappa must be a finite positive number"):
                run()

    def test_alternating_needs_an_iteration(self):
        with pytest.raises(InputError, match="max_iters must be >= 1"):
            _lab_runs(1.0, max_iters=0)[0]()

    @pytest.mark.parametrize("vertices", [
        np.array([[0.0, 1.0], [np.nan, 0.0]]), np.array([[0.0, np.inf]]),
        np.zeros(3), np.zeros((2, 2, 2))], ids=["nan", "inf", "1-D", "3-D"])
    def test_vertices_must_be_finite_and_two_dimensional(self, vertices):
        with pytest.raises(InputError, match="vertices"):
            ExplicitOracle(vertices)

    def test_oracle_matrix_is_the_vertex_columns(self):
        vertices = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        matrix = ExplicitOracle(vertices).matrix
        assert matrix.flags.c_contiguous and not matrix.flags.writeable
        np.testing.assert_array_equal(matrix, vertices.T)

    @pytest.mark.parametrize("costs", [np.array([[0.0, np.nan]]), np.zeros(2)],
                             ids=["nan", "1-D"])
    def test_cost_table_must_be_finite_and_two_dimensional(self, costs):
        with pytest.raises(InputError, match="cost table"):
            five_point_check(costs, 1.0, NEG, 5, make_rng(58, 1))


class TestSuiteSampleCounts:
    @pytest.mark.parametrize("suite, counts", [
        (run_convergence_suite, dict(n_instances=0)),
        (run_risk_bound_suite, dict(n_instances=0)),
        (run_conjugate_suite, dict(n_instances=0)),
        (run_mirror_descent_suite, dict(iters=0)),
        (run_oracle_suite, dict(draws=0)),
        (run_oracle_suite, dict(draws=5)),
    ], ids=["convergence-instances", "risk-bound-instances", "conjugates-instances",
            "mirror-descent-iters", "oracles-draws-0", "oracles-draws-5"])
    def test_no_samples_rejected(self, suite, counts):
        """A suite called with a count that leaves a check without samples
        refuses to run."""
        with pytest.raises(InputError):
            suite(**counts)

    @pytest.mark.parametrize("count", [6, 13, 29])
    def test_oracle_suite_runs_exactly_its_draws(self, monkeypatch, count):
        """The Kruskal draws are split over the six graphs, none dropped."""
        real = verification.max_weight_forests
        rows_by_graph = []

        def counted(draws, edges, n_nodes):
            rows_by_graph.extend([id(edges)] * len(draws))
            return real(draws, edges, n_nodes)

        monkeypatch.setattr(verification, "max_weight_forests", counted)
        rows = run_oracle_suite(draws=count)
        assert len(rows_by_graph) == count
        assert len(set(rows_by_graph)) == 6  # every graph is drawn
        assert rows[0].check == "oracles/kruskal-forest" and rows[0].passed


def _drop_last_edge(rows: np.ndarray) -> np.ndarray:
    """Each 0/1 row with its highest-index chosen edge removed."""
    rows = rows.copy()
    for row in rows:
        row[np.flatnonzero(row)[-1:]] = 0.0
    return rows


class TestOracleSuiteNegativeControls:
    """The suite fails a kernel whose answer is not in the enumerated set
    (inf) or is a member that is not optimal (a positive gap)."""

    @staticmethod
    def run(monkeypatch, forests=None, split=None) -> list:
        if forests is not None:
            real = verification.max_weight_forests
            monkeypatch.setattr(verification, "max_weight_forests",
                                lambda w, edges, n: forests(real(w, edges, n)))
        if split is not None:
            real_split = verification.two_stage_splits
            monkeypatch.setattr(verification, "two_stage_splits",
                                lambda *args: split(*real_split(*args)))
        return run_oracle_suite(draws=60)

    def test_forest_with_a_cycle_measures_inf(self, monkeypatch):
        forest, split = self.run(monkeypatch, forests=np.ones_like)
        assert forest.measured == np.inf and not forest.passed
        assert split.passed

    def test_forest_missing_an_edge_measures_a_positive_gap(self, monkeypatch):
        forest, split = self.run(monkeypatch, forests=_drop_last_edge)
        assert 0.0 < forest.measured < np.inf and not forest.passed
        assert split.passed

    def test_split_with_a_cycle_measures_inf(self, monkeypatch):
        forest, split = self.run(
            monkeypatch, split=lambda y, z: (np.ones_like(y), np.zeros_like(z)))
        assert split.measured == np.inf and not split.passed
        assert forest.passed

    def test_split_with_swapped_stages_measures_a_positive_gap(self, monkeypatch):
        """(z, y) is a member, the same tree with every edge in its dearer
        stage."""
        forest, split = self.run(monkeypatch, split=lambda y, z: (z, y))
        assert 0.0 < split.measured < np.inf and not split.passed
        assert forest.passed
