"""Exact simplex laboratory: surrogate, updates, and theorem certificates."""

import itertools

import numpy as np
import pytest

from costru.core import InputError, make_rng
from costru.problems.spanning_tree import enumerate_forests
from costru.problems.toy import toy_cost_table
from costru.regularizers import RegularizerKind, conjugate_rows, prediction_rows
from costru.simplex_lab import (
    BoundaryError,
    CostTable,
    ExplicitPolytope,
    LabConfig,
    check_jensen_gap_convexity,
    exact_coordination,
    exact_decomposition,
    five_point_check,
    is_exposed_vertex,
    jensen_gap,
    nearest_point_in_hull_sq,
    omega_c_conjugate_check,
    partial_min_surrogate,
    random_binary_polytope,
    random_cost_table,
    random_interior_product,
    risk_bound_check,
    run_alternating_exact,
    run_five_point_suite,
    run_jensen_gap_suite,
    run_mirror_descent_comparison,
    surrogate_value,
)

NEG = RegularizerKind.negentropy()
L2 = RegularizerKind.squared_l2()


def softmax(s):
    return prediction_rows(np.asarray(s, dtype=float)[None, :], NEG)[0]


class TestSurrogateValue:
    def test_equality_at_dual_pairs(self):
        g = make_rng(31, 0).generator()
        s = g.standard_normal((3, 5))
        q = prediction_rows(s, NEG)
        costs = random_cost_table(g, 3, 5)
        cost_part = float(np.einsum("ij,ij->", costs.gamma, q)) / 3
        assert surrogate_value(s, q, costs, 1.0, NEG) == pytest.approx(cost_part, abs=1e-12)

    def test_kl_only_term(self):
        costs = CostTable(np.zeros((1, 2)))
        value = surrogate_value(np.zeros(2), np.array([[1.0, 0.0]]), costs, 1.0, NEG)
        assert value == pytest.approx(np.log(2))

    def test_dominates_expected_cost(self):
        g = make_rng(32, 0).generator()
        for _ in range(1000):
            s = g.standard_normal(4)
            q = random_interior_product(g, 2, 4)
            costs = random_cost_table(g, 2, 4)
            cost_part = float(np.einsum("ij,ij->", costs.gamma, q)) / 2
            assert surrogate_value(s, q, costs, 0.7, NEG) >= cost_part - 1e-12


class TestExactDecomposition:
    def test_zero_costs(self):
        s = make_rng(33, 0).generator().standard_normal(4)
        np.testing.assert_allclose(
            exact_decomposition(s, np.zeros(4), 1.0, NEG), softmax(s),
            atol=1e-15,
        )

    def test_toy_first_scenario(self):
        gamma = toy_cost_table().gamma[0]  # costs of (y=0, y=1) under the first state
        q = exact_decomposition(np.zeros(2), gamma, 1.0, NEG)
        expected = np.array([np.exp(-4) / (1 + np.exp(-4)), 1 / (1 + np.exp(-4))])
        np.testing.assert_allclose(q, expected, atol=1e-12)
        assert q[1] == pytest.approx(0.9820, abs=1e-4)

    def test_large_kappa_ignores_costs(self):
        s = make_rng(34, 0).generator().standard_normal(4)
        gamma = make_rng(34, 1).generator().standard_normal(4)
        q = exact_decomposition(s, gamma, 1e12, NEG)
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
        back = exact_decomposition(s, np.zeros(5), 1.0, NEG)
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
        expected = float(costs.gamma[0] @ q[0])
        assert partial_min_surrogate(q, costs, 1.3, NEG) == pytest.approx(expected, abs=1e-12)

    def test_identical_rows_have_zero_gap(self):
        g = make_rng(38, 0).generator()
        row = random_interior_product(g, 1, 5)[0]
        q = np.stack([row] * 4)
        costs = random_cost_table(g, 4, 5)
        cost_part = float(np.einsum("ij,ij->", costs.gamma, q)) / 4
        assert partial_min_surrogate(q, costs, 2.0, NEG) == pytest.approx(cost_part, abs=1e-12)
        assert jensen_gap(q, NEG) == pytest.approx(0.0, abs=1e-14)

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
        assert jensen_gap(q, L2) == pytest.approx(0.25)
        assert jensen_gap(q, NEG) == pytest.approx(np.log(2))

    def test_lemma_decomposition_identity(self):
        """Partial minimizer = expected cost + kappa * Jensen gap, exactly."""
        g = make_rng(40, 0).generator()
        for kappa in (0.5, 1.0, 3.0):
            q = random_interior_product(g, 5, 6)
            costs = random_cost_table(g, 5, 6)
            cost_part = float(np.einsum("ij,ij->", costs.gamma, q)) / 5
            lhs = partial_min_surrogate(q, costs, kappa, NEG)
            rhs = cost_part + kappa * jensen_gap(q, NEG)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestJensenGapConvexity:
    @pytest.mark.parametrize("kind", [NEG, L2])
    def test_no_violations(self, kind):
        report = check_jensen_gap_convexity(kind, 1000, make_rng(41, 0))
        assert report.violations == 0

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
            lhs = jensen_gap(combo, NEG)
            rhs = t * jensen_gap(qa, NEG) + (1 - t) * jensen_gap(qb, NEG)
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
        traj = run_alternating_exact(costs, LabConfig(kappa, NEG, max_iters=6), s0)
        q1 = softmax(s0 - costs.gamma[0] / kappa)
        np.testing.assert_allclose(traj.q_products[0][0], q1, atol=1e-12)
        q = q1
        for t in range(1, 6):
            q = softmax(np.log(q) - costs.gamma[0] / kappa)
            np.testing.assert_allclose(traj.q_products[t][0], q, atol=1e-12)
            assert traj.values[t] == pytest.approx(float(costs.gamma[0] @ q), abs=1e-12)
        assert np.all(np.diff(traj.values) <= 1e-12)

    def test_identical_scenarios_stay_synchronized(self):
        """Identical cost rows keep every per-scenario distribution equal,
        so the Jensen gap stays zero along the whole trajectory."""
        g = make_rng(44, 0).generator()
        gamma = g.standard_normal(4)
        costs = CostTable(np.stack([gamma] * 3))
        traj = run_alternating_exact(costs, LabConfig(1.0, NEG, max_iters=6), np.zeros(4))
        for t in range(6):
            for i in (1, 2):
                np.testing.assert_allclose(traj.q_products[t][i], traj.q_products[t][0],
                                           atol=1e-14)
            assert jensen_gap(traj.q_products[t], NEG) == pytest.approx(0.0, abs=1e-13)

    def test_monotone_descent(self):
        g = make_rng(45, 0).generator()
        costs = random_cost_table(g, 5, 6)
        traj = run_alternating_exact(costs, LabConfig(1.0, NEG, max_iters=300),
                                     np.zeros(6), record_iterates=False)
        assert np.max(np.diff(traj.values)) <= 1e-12

    def test_squared_l2_descent(self):
        g = make_rng(46, 0).generator()
        costs = random_cost_table(g, 4, 5, scale=0.05)
        traj = run_alternating_exact(costs, LabConfig(1.0, L2, max_iters=100), np.zeros(5))
        assert np.max(np.diff(traj.values)) <= 1e-12


class TestFivePoint:
    @pytest.mark.parametrize("probes", [0, -1])
    def test_no_probes_rejected(self, probes):
        """A check of zero probes would pass with a slack of -inf."""
        costs = random_cost_table(make_rng(48, 0).generator(), 4, 5)
        with pytest.raises(InputError, match="at least one probe"):
            five_point_check(costs, LabConfig(1.0, NEG), probes, make_rng(48, 1))
        with pytest.raises(InputError, match="at least one probe"):
            run_five_point_suite(probes=probes)

    def test_self_probe_is_tight(self):
        g = make_rng(47, 0).generator()
        costs = random_cost_table(g, 4, 5)
        s0 = g.standard_normal(5)
        from costru.simplex_lab import _five_point_slack

        q1 = prediction_rows(s0[None, :] - costs.gamma, NEG)
        slack = _five_point_slack(s0, q1, costs, 1.0, NEG)
        assert slack == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("kind,scale,score_scale", [(NEG, 1.0, 1.0), (L2, 0.05, 0.02)])
    def test_no_violations(self, kind, scale, score_scale):
        g = make_rng(48, 0).generator()
        costs = random_cost_table(g, 4, 5, scale=scale)
        report = five_point_check(costs, LabConfig(1.0, kind), 1000, make_rng(48, 1),
                                  score_scale=score_scale)
        assert report.violations == 0


class TestMirrorDescent:
    def test_matched_iterates(self):
        g = make_rng(49, 0).generator()
        costs = random_cost_table(g, 3, 4)
        config = LabConfig(1.0, NEG, damping_alpha=0.5)
        s0 = g.standard_normal(4)
        dev, _ = run_mirror_descent_comparison(costs, config, s0, 50)
        assert dev < 1e-8

    def test_small_alpha_freezes_iterates(self):
        g = make_rng(50, 0).generator()
        costs = random_cost_table(g, 3, 4)
        config = LabConfig(1.0, NEG, damping_alpha=1e-6)
        dev, comparison = run_mirror_descent_comparison(costs, config, np.zeros(4), 30)
        assert dev < 1e-10
        drift = np.max(np.abs(comparison.primal_alternating[-1]
                              - comparison.primal_alternating[0]))
        assert drift < 1e-4

    def test_mismatched_step_breaks_correspondence(self):
        g = make_rng(51, 0).generator()
        costs = random_cost_table(g, 3, 4)
        config = LabConfig(1.0, NEG, damping_alpha=0.5)
        dev, _ = run_mirror_descent_comparison(
            costs, config, np.zeros(4), 50, eta=2.0 * 3 * 0.5 / 1.0
        )
        assert dev > 1e-3


class TestRiskBound:
    def test_zero_costs(self):
        poly = random_binary_polytope(make_rng(52, 0).generator(), 3, 4)
        costs = CostTable(np.zeros((3, 4)))
        report = risk_bound_check(np.array([0.3, -0.2, 0.5]), poly, costs, 1.0, NEG)
        assert report.risk == pytest.approx(0.0, abs=1e-15)
        assert report.partial_surrogate == pytest.approx(0.0, abs=1e-15)

    def test_large_kappa_limit(self):
        g = make_rng(53, 0).generator()
        poly = random_binary_polytope(g, 3, 4)
        costs = random_cost_table(g, 3, 4)
        theta = g.standard_normal(3)
        gaps = []
        for kappa in (1.0, 10.0, 100.0):
            report = risk_bound_check(theta, poly, costs, kappa, NEG)
            gaps.append(abs(report.partial_surrogate - report.risk))
            assert report.ok
        assert gaps[2] < gaps[1] < gaps[0]

    def test_random_instances_hold(self):
        g = make_rng(54, 0).generator()
        for _ in range(30):
            poly = random_binary_polytope(g, 4, 6)
            costs = random_cost_table(g, 3, 6)
            theta = g.standard_normal(4)
            for kappa in (0.5, 1.0, 5.0):
                assert risk_bound_check(theta, poly, costs, kappa, NEG).ok


class TestConjugateCheck:
    def test_zero_theta_log_cardinality(self):
        poly = random_binary_polytope(make_rng(55, 0).generator(), 3, 6)
        report = omega_c_conjugate_check(np.zeros(3), poly, NEG)
        assert report.ok
        lse = conjugate_rows(poly.lift_scores(np.zeros(3))[None, :], NEG)[0]
        assert lse == pytest.approx(np.log(6))

    def test_line_closed_form(self):
        poly = ExplicitPolytope.from_vertices(np.array([[0.0], [1.0]]))
        for t in (-3.0, -0.5, 0.0, 1.2, 4.0):
            lse = conjugate_rows(poly.lift_scores(np.array([t]))[None, :], NEG)[0]
            assert lse == pytest.approx(np.log1p(np.exp(t)), abs=1e-12)

    def test_random_equality(self):
        g = make_rng(56, 0).generator()
        poly = random_binary_polytope(g, 3, 8)
        for _ in range(20):
            assert omega_c_conjugate_check(g.standard_normal(3), poly, NEG).ok

    def test_perturbation_per_draw(self):
        g = make_rng(57, 0).generator()
        poly = random_binary_polytope(g, 3, 8)
        kind = RegularizerKind.sparse_perturbation(0.5, 128)
        report = omega_c_conjugate_check(g.standard_normal(3), poly, kind,
                                         rng=make_rng(57, 1))
        assert report.ok


class TestPolytopeValidation:
    def test_duplicate_vertices_rejected(self):
        with pytest.raises(InputError):
            ExplicitPolytope.from_vertices(np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_interior_point_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.25, 0.25]])
        with pytest.raises(InputError):
            ExplicitPolytope.from_vertices(verts)

    def test_lab_config_validation(self):
        with pytest.raises(InputError):
            LabConfig(-1.0, NEG)
        with pytest.raises(InputError):
            LabConfig(1.0, NEG, damping_alpha=1.5)


class TestExposedVertex:
    def test_affinely_independent_points(self):
        assert is_exposed_vertex(np.array([1.0, 0.0]),
                                 [np.array([0.0, 1.0]), np.array([0.0, 0.0])])

    def test_exact_midpoint_is_inside(self):
        assert not is_exposed_vertex(np.array([0.5, 0.5]),
                                     [np.array([1.0, 0.0]), np.array([0.0, 1.0])])

    def test_triangle_forest_vertex_vs_weight_grid(self):
        """Cross-check the hull solver against a brute-force weight grid."""
        triangle = (np.array([(0, 1), (1, 2), (0, 2)], dtype=np.int64), 3)
        forests = enumerate_forests(*triangle)
        candidate = np.array([1.0, 1.0, 0.0])
        others = np.stack([f for f in forests if not np.array_equal(f, candidate)])
        assert len(others) == 6

        # Enumerate simplex weights with resolution 1/12 and find the
        # closest convex combination the grid can build.
        k = others.shape[0]
        resolution = 12
        best = np.inf
        for cuts in itertools.combinations(range(resolution + k - 1), k - 1):
            parts = np.diff((-1,) + cuts + (resolution + k - 1,)) - 1
            weights = np.asarray(parts, dtype=float) / resolution
            dist = np.sum((candidate - weights @ others) ** 2)
            best = min(best, dist)
        assert best > 1e-3  # grid confirms the point is far from the hull
        assert is_exposed_vertex(candidate, others)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            is_exposed_vertex(np.array([1.0, 0.0]), [np.array([1.0, 0.0, 0.0])])

    def test_empty_others(self):
        assert is_exposed_vertex(np.array([1.0]), [])

    def test_hull_distance_zero_for_member(self):
        others = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert nearest_point_in_hull_sq(np.array([0.25, 0.25]), others) < 1e-12
