"""Regularizers, Fenchel-Young losses, and the Monte-Carlo perturbation maps."""

import itertools
import tracemalloc

import lab_reference as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from costru import regularizers
from costru.core import InputError, RngStream, Scenario, make_rng
from costru.problems.spanning_tree import MstOracle, TwoStageCosts
from costru.problems.toy import ToyOracle, toy_scenarios
from costru.regularizers import (
    RegularizerKind,
    conjugate_rows,
    fy_loss_exact,
    perturbed_argmax_stats,
    perturbed_decomposition_target,
    perturbed_fy_gradient,
    prediction_rows,
    validate_distribution,
    value_rows,
)
from costru.simplex_lab import ExplicitOracle, random_binary_oracle
from costru.trainer import AdamState
from costru.verification import run_gradient_suite

NEG = RegularizerKind.negentropy()
L2 = RegularizerKind.squared_l2()


def row(v):
    return np.asarray(v, dtype=float)[None, :]


def softmax(s):
    return prediction_rows(row(s), NEG)[0]


def sparsemax(s):
    return prediction_rows(row(s), L2)[0]


def negentropy(q):
    return float(value_rows(row(q), NEG)[0])


def logsumexp(s):
    return float(conjugate_rows(row(s), NEG)[0])


def line_oracle():
    """Oracle over the one-dimensional set Y = {0, 1}."""
    return ExplicitOracle(np.array([[0.0], [1.0]]))


def point_oracle():
    """Degenerate single-point set Y = {0}."""
    return ExplicitOracle(np.array([[0.0]]))


# Saturating, tied and zero entries next to ordinary ones.
_ENTRIES = st.one_of(
    st.sampled_from([-1000.0, 1000.0, 0.0, 1.0, -1.0]),
    st.floats(-50.0, 50.0, allow_nan=False),
)


@st.composite
def score_stacks(draw):
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 10))
    rows = st.lists(_ENTRIES, min_size=k, max_size=k)
    return np.array(draw(st.lists(rows, min_size=n, max_size=n)))


class TestRowMaps:
    """A stack of rows maps to exactly the bits of each row mapped alone."""

    @pytest.mark.parametrize("kind", [NEG, L2])
    @given(scores=score_stacks())
    @settings(max_examples=150, deadline=None)
    def test_stack_equals_each_row(self, kind, scores):
        pred = prediction_rows(scores, kind)
        conj = conjugate_rows(scores, kind)
        # predictions carry zero-probability entries (sparsemax, saturation);
        # |scores| adds ties and exact zeros to the value map's input.
        for q_stack in (pred, np.abs(scores)):
            values = value_rows(q_stack, kind)
            for i, q in enumerate(q_stack):
                assert value_rows(row(q), kind).tobytes() == values[i:i + 1].tobytes()
        for i, s in enumerate(scores):
            assert prediction_rows(row(s), kind).tobytes() == pred[i:i + 1].tobytes()
            assert conjugate_rows(row(s), kind).tobytes() == conj[i:i + 1].tobytes()


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3))

    def test_log_weights(self):
        q = softmax(np.log(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(q, np.array([1, 2, 3]) / 6, atol=1e-15)

    def test_overflow_safe_saturation(self):
        q = softmax(np.array([1000.0, 0.0]))
        assert q[0] == pytest.approx(1.0, abs=1e-300)
        assert q[1] < 1e-300

    @given(st.floats(-50, 50), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, alpha, seed):
        s = make_rng(seed, 0).generator().standard_normal(5)
        np.testing.assert_allclose(
            softmax(s + alpha), softmax(s), atol=1e-12
        )


class TestNegentropy:
    def test_uniform(self):
        assert negentropy(np.full(2, 0.5)) == pytest.approx(-np.log(2))

    def test_dirac_zero_log_zero(self):
        assert negentropy(np.array([1.0, 0.0])) == 0.0

    def test_direct_evaluation(self):
        q = np.array([0.25, 0.75])
        expected = 0.25 * np.log(0.25) + 0.75 * np.log(0.75)
        assert negentropy(q) == pytest.approx(expected, abs=1e-12)


class TestLogSumExp:
    def test_two_zeros(self):
        assert logsumexp(np.zeros(2)) == pytest.approx(np.log(2))

    def test_shift_property(self):
        a = 3.7
        assert logsumexp(np.full(3, a)) == pytest.approx(a + np.log(3))

    def test_against_simplex_grid_search(self):
        """Conjugate of the negentropy via a dense grid over the simplex."""
        s = make_rng(17, 0).generator().standard_normal(5)
        resolution = 67  # about 1e6 grid points in dimension 5
        k = 5
        # Every composition of the resolution into k parts, as the k - 1 cut
        # positions among resolution + k - 1 slots: one row per grid point.
        n_slots = resolution + k - 1
        cuts = np.fromiter(itertools.chain.from_iterable(
            itertools.combinations(range(n_slots), k - 1)), dtype=np.int16)
        cuts = cuts.reshape(-1, k - 1)
        bounds = np.column_stack([np.full(len(cuts), -1, np.int16), cuts,
                                  np.full(len(cuts), n_slots, np.int16)])
        parts = np.diff(bounds, axis=1) - 1
        # q log q of each possible coordinate j / resolution, 0 at q = 0.
        grid = np.arange(1, resolution + 1) / resolution
        entropy = np.concatenate([[0.0], grid * np.log(grid)])
        values = parts @ s / resolution - entropy[parts].sum(axis=1)
        assert logsumexp(s) == pytest.approx(values.max(), abs=1e-4)


class TestExactFyLoss:
    def test_fenchel_equality_case(self):
        s = make_rng(21, 0).generator().standard_normal(6)
        value, grad = fy_loss_exact(s, softmax(s), NEG)
        assert abs(value) < 1e-12
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_kl_log2(self):
        value, _ = fy_loss_exact(np.zeros(2), np.array([1.0, 0.0]), NEG)
        assert value == pytest.approx(np.log(2))

    @pytest.mark.parametrize("kind", [NEG, L2])
    def test_gradient_finite_differences(self, kind):
        g = make_rng(22, 0).generator()
        s = g.standard_normal(6)
        target = g.dirichlet(np.ones(6)) * 0.98 + 0.02 / 6
        _, grad = fy_loss_exact(s, target, kind)
        h = 1e-6
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            up, _ = fy_loss_exact(s + e, target, kind)
            down, _ = fy_loss_exact(s - e, target, kind)
            assert abs((up - down) / (2 * h) - grad[k]) < 1e-6

    @pytest.mark.parametrize("kind", [NEG, L2])
    def test_nonnegativity_and_zero_iff_prediction(self, kind):
        g = make_rng(23, 0).generator()
        for trial in range(200):
            dim = int(g.integers(2, 9))
            s = g.standard_normal(dim)
            target = g.dirichlet(np.ones(dim))
            value, _ = fy_loss_exact(s, target, kind)
            assert value >= -1e-10
            # forward direction: at the prediction the loss vanishes
            pred = prediction_rows(row(s), kind)[0]
            v0, _ = fy_loss_exact(s, pred, kind)
            assert abs(v0) < 1e-10
            # reverse direction: zero loss forces target == prediction
            if value < 1e-10:
                np.testing.assert_allclose(target, pred, atol=1e-6)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(Exception):
            fy_loss_exact(np.zeros(2), np.array([0.7, 0.7]), NEG)


class TestSparsemax:
    def test_is_distribution(self):
        g = make_rng(24, 0).generator()
        for _ in range(100):
            p = sparsemax(g.standard_normal(5))
            validate_distribution(p)

    def test_squared_l2_value(self):
        assert value_rows(row([0.5, 0.5]), L2)[0] == pytest.approx(0.25)


class TestPerturbedMaxValue:
    def test_degenerate_single_point(self):
        value = perturbed_argmax_stats(point_oracle(), np.array([3.0]), 1.0, 64, make_rng(1, 1))[0]
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_half_normal_mean(self):
        m = 40000
        value = perturbed_argmax_stats(line_oracle(), np.array([0.0]), 1.0, m, make_rng(2, 1))[0]
        target = 1.0 / np.sqrt(2 * np.pi)
        sigma = 0.6 / np.sqrt(m)  # conservative bound on the estimator sd
        assert abs(value - target) < 3 * sigma

    def test_monotone_in_theta_with_common_draws(self):
        rng = make_rng(3, 1)
        lo = perturbed_argmax_stats(line_oracle(), np.array([0.1]), 1.0, 500, rng)[0]
        hi = perturbed_argmax_stats(line_oracle(), np.array([0.4]), 1.0, 500, rng)[0]
        assert hi >= lo


class TestPerturbedMoment:
    def test_probability_half(self):
        m = 40000
        mu = perturbed_argmax_stats(line_oracle(), np.array([0.0]), 1.0, m, make_rng(4, 1))[1]
        assert abs(mu[0] - 0.5) < 3 * 0.5 / np.sqrt(m)

    def test_vanishing_perturbation_recovers_argmax(self):
        mu = perturbed_argmax_stats(line_oracle(), np.array([2.0]), 1e-6, 200, make_rng(5, 1))[1]
        np.testing.assert_array_equal(mu, np.array([1.0]))

    def test_in_hull(self):
        g = make_rng(6, 0).generator()
        verts = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
        oracle = ExplicitOracle(verts)
        mu = perturbed_argmax_stats(oracle, g.standard_normal(3), 0.5, 256, make_rng(6, 1))[1]
        # The eight vertices span the cube [0, 1]^3, which is their hull.
        assert np.all((mu >= 0.0) & (mu <= 1.0))


class TestPerturbedFyGradient:
    def test_fixed_point_zero_gradient(self):
        rng = make_rng(7, 1)
        theta = np.array([0.3])
        mu = perturbed_argmax_stats(line_oracle(), theta, 1.0, 300, rng)[1]
        _, grad = perturbed_fy_gradient(line_oracle(), theta, mu, 1.0, 300, rng)
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_target_one_gradient(self):
        m = 40000
        _, grad = perturbed_fy_gradient(
            line_oracle(), np.array([0.0]), np.array([1.0]), 1.0, m, make_rng(8, 1)
        )
        assert abs(grad[0] + 0.5) < 3 * 0.5 / np.sqrt(m)

    def test_gradient_matches_loss_differences(self):
        """Central differences of the shifted loss with common draws."""
        g = make_rng(9, 0).generator()
        verts = np.array(list(itertools.product([0.0, 1.0], repeat=4)))
        oracle = ExplicitOracle(verts)
        theta = g.standard_normal(4)
        target = oracle.matrix @ g.dirichlet(np.ones(len(verts)))
        rng = make_rng(9, 1)
        m = 100000
        _, grad = perturbed_fy_gradient(oracle, theta, target, 1.0, m, rng)
        h = 1e-3
        fd = np.empty(4)
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            up, _ = perturbed_fy_gradient(oracle, theta + e, target, 1.0, m, rng)
            down, _ = perturbed_fy_gradient(oracle, theta - e, target, 1.0, m, rng)
            fd[k] = (up - down) / (2 * h)
        assert np.linalg.norm(fd - grad) / np.linalg.norm(grad) < 1e-3


class TestPerturbedDecompositionTarget:
    def test_toy_closed_forms(self):
        """Normal-CDF expressions for the tabular scenario targets."""
        oracle = ToyOracle()
        scenarios = toy_scenarios()
        m = 10000
        expected = [norm.cdf(4.0), norm.cdf(-1.0), norm.cdf(-2.0)]
        for scenario, mu_true in zip(scenarios, expected):
            mu = perturbed_decomposition_target(
                oracle, np.zeros(1), scenario, 1.0, 1.0, m,
                make_rng(10, scenario.noise_payload),
            )
            sigma = np.sqrt(mu_true * (1 - mu_true) / m)
            assert abs(mu[0] - mu_true) < 3 * max(sigma, 1e-6)

    def test_large_kappa_approaches_maximizer_moment(self):
        oracle = ToyOracle()
        scenario = toy_scenarios()[0]
        rng = make_rng(11, 1)
        theta = np.array([0.4])
        mu = perturbed_decomposition_target(oracle, theta, scenario, 1e9, 1.0, 400, rng)
        moment = perturbed_argmax_stats(oracle, theta, 1.0, 400, rng)[1]
        np.testing.assert_allclose(mu, moment, atol=1e-12)


def oracle_twins(problem: str, d: int, g):
    """An oracle of dimension d and its all-draws-at-once twin: the 2x3
    grid (d = 7) or the toy (d = 1), each its own twin, or an explicit set
    of real-valued vertices, whose sums, unlike those of 0/1 vertices, round
    differently in another order, and its ``np.argmax`` twin."""
    if problem == "mst":
        oracle = MstOracle(2, 3)
        return oracle, oracle
    if problem == "toy":
        return ToyOracle(), ToyOracle()
    vertices = g.standard_normal((6, d))
    return ExplicitOracle(vertices), reference.ArgmaxOracle(vertices)


class TestStackedStats:
    """A stack of directions is priced on one draw, in row blocks, to the
    bits of pricing each direction on all its draws at once."""

    @pytest.mark.parametrize("m", [1, 2, 4095, 4096, 4097, 8193, 100_000])
    @pytest.mark.parametrize("problem, d", [("explicit", 1), ("explicit", 2), ("explicit", 4),
                                            ("explicit", 60), ("mst", 7), ("toy", 1)])
    def test_stack_equals_rows_and_reference(self, problem, d, m):
        """At d = 60 on OpenBLAS's Haswell core, an ``ExplicitOracle``
        product on a tail block can round otherwise than the same rows of
        one product on all the draws (m = 8 193 among these sizes), so the
        oracle breaks the estimator's block contract there; the explicit
        d = 60 cases pass on that core only because no maximizer flips on
        their draws.  ``test_gradient_suite_products_ignore_blocks`` pins
        the shape on which lab-verify's digest rests."""
        g = make_rng(40 + d, 0).generator()
        oracle, twin = oracle_twins(problem, d, g)
        thetas = g.standard_normal((3, d))
        rng = make_rng(m, d)
        values, moments = perturbed_argmax_stats(oracle, thetas, 0.7, m, rng)
        assert values.shape == (3,) and moments.shape == (3, d)
        for i, theta in enumerate(thetas):
            for value, moment in (perturbed_argmax_stats(oracle, theta, 0.7, m, rng),
                                  reference.perturbed_argmax_stats(twin, theta, 0.7, m, rng)):
                assert isinstance(value, float)
                assert np.float64(value).tobytes() == values[i].tobytes()
                assert moment.tobytes() == moments[i].tobytes()

    @pytest.mark.parametrize("m", [4097, 8193, 100_000])
    @pytest.mark.parametrize("seed", [0, 2])
    def test_gradient_suite_products_ignore_blocks(self, seed, m):
        """At the gradient suite's shape (six binary vertices in R^4, its
        oracle and directions), the scores of each block of draws that the
        estimator prices equal the same rows of one product on all of them,
        bit for bit: the estimator's block contract, on which lab-verify's
        digest rests, holds for this oracle there.  CI reruns it on
        OpenBLAS's Haswell and Sandybridge cores."""
        blocks = []

        class Recording(ExplicitOracle):
            def argmax_linear_many(self, thetas):
                blocks.append(thetas.copy())
                return super().argmax_linear_many(thetas)

        g = make_rng(seed, 72).generator()
        oracle = Recording(random_binary_oracle(g, 4, 6).matrix.T)
        theta = g.standard_normal(4)
        thetas = np.vstack([theta, theta + 1e-3 * np.eye(4), theta - 1e-3 * np.eye(4)])
        perturbed_argmax_stats(oracle, thetas, 1.0, m, make_rng(seed, 73))
        per_direction = -(-(m - 1) // regularizers._DRAW_BLOCK)
        assert len(blocks) == len(thetas) * per_direction
        for i in range(len(thetas)):
            own = blocks[i * per_direction:(i + 1) * per_direction]
            whole = oracle._scores(np.vstack(own))
            assert np.vstack([oracle._scores(b) for b in own]).tobytes() == whole.tobytes()

    def test_stack_draws_once(self, monkeypatch):
        calls = []
        draw = RngStream.standard_normal
        monkeypatch.setattr(RngStream, "standard_normal",
                            lambda self, shape: calls.append(shape) or draw(self, shape))
        perturbed_argmax_stats(line_oracle(), np.zeros((5, 1)), 1.0, 10, make_rng(1))
        assert calls == [(10, 1)]

    @pytest.mark.parametrize("m", [1, 2, 4095, 4096, 4097, 8193, 8194, 100_000])
    def test_no_block_holds_one_row_of_many(self, m):
        """OpenBLAS prices a one-row matrix product on another path, which
        can round otherwise; the blocks start at multiples of the block size."""
        sizes = []

        class Recording(ExplicitOracle):
            def argmax_linear_many(self, thetas):
                sizes.append(len(thetas))
                return super().argmax_linear_many(thetas)

        perturbed_argmax_stats(Recording(np.eye(2)), np.zeros(2), 1.0, m, make_rng(1))
        block = regularizers._DRAW_BLOCK
        assert sum(sizes) == m and all(size == block for size in sizes[:-1])
        assert 1 < sizes[-1] <= block + 1 or m == 1

    def test_gradient_suite_memory_peak(self):
        """The suite's traced allocations peak at 4.62 MB (of 2^20 bytes) on
        one draw in row blocks, 3.05 MB of it the (100 000, 4) normals,
        against 8.40 MB when each of its ten estimator calls held the tilts,
        scores and maximizers of all its draws at once."""
        run_gradient_suite(0)  # builds the native kernel, warms numpy's caches
        tracemalloc.start()
        try:
            run_gradient_suite(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2 ** 20


class TestExplicitOracleScan:
    """The scan over the vertices answers as np.argmax of each row."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_equals_argmax(self, n_vertices, d, seed):
        g = np.random.default_rng(seed)
        # Small integer entries tie often; 1e308 entries overflow to inf, and
        # to NaN (inf - inf) on OpenBLAS cores without fused multiply-add.
        vertices = g.integers(-2, 3, (n_vertices, d)).astype(float)
        thetas = g.choice([-1e308, -1.0, 0.0, 1.0, 1e308, 0.5], size=(40, d))
        with np.errstate(over="ignore", invalid="ignore"):
            got = ExplicitOracle(vertices).argmax_linear_many(thetas)
            expected = reference.ArgmaxOracle(vertices).argmax_linear_many(thetas)
        assert got.tobytes() == expected.tobytes()

    def test_first_nan_wins(self):
        """Finite directions can overflow to inf - inf; a row with a NaN
        score answers its first NaN, as np.argmax does."""
        scores = np.array([[1.0, np.nan, 2.0, np.nan], [np.nan, 3.0, 3.0, 1.0],
                           [0.0, 2.0, 2.0, np.nan], [1.0, 1.0, 0.0, 0.0]])

        class Scored(ExplicitOracle):
            def _scores(self, thetas, kappa=0.0):
                return scores

        answers = Scored(np.eye(4)).argmax_linear_many(np.zeros((4, 4)))
        np.testing.assert_array_equal(answers @ np.arange(4), [1, 0, 3, 0])
        np.testing.assert_array_equal(np.argmax(scores, axis=1), [1, 0, 3, 0])

    def test_needs_a_vertex(self):
        with pytest.raises(InputError, match="vertices must form"):
            ExplicitOracle(np.empty((0, 3)))


def toy_or_mst(problem: str):
    """An oracle and one of its scenarios: the toy, or a 2x3 grid."""
    if problem == "toy":
        return ToyOracle(), toy_scenarios()[0]
    oracle = MstOracle(2, 3)
    ones = np.ones(oracle.n_edges)
    return oracle, Scenario(0, np.zeros((oracle.n_edges, 1)), TwoStageCosts(ones, ones))


class TestPerturbationArguments:
    """One rule for every perturbed estimator: eps is a finite positive
    number and at least one normal is drawn."""

    @pytest.mark.parametrize("m", [0, -1])
    @pytest.mark.parametrize("problem", ["toy", "mst"])
    def test_decomposition_target_needs_a_draw(self, problem, m):
        oracle, scenario = toy_or_mst(problem)
        with pytest.raises(InputError, match="m must be >= 1"):
            perturbed_decomposition_target(oracle, np.zeros(scenario.dim), scenario, 1.0,
                                           0.5, m, make_rng(1))

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        """The fused spanning-tree pass and the numpy estimators agree."""
        oracle, scenario = toy_or_mst("mst")
        theta = np.zeros(oracle.n_edges)
        calls = [lambda: oracle.perturbed_adam_pass(AdamState(np.zeros(1)), [theta[:, None]],
                                                    [theta], eps, 4, 1, 0.1, make_rng(1)),
                 lambda: perturbed_argmax_stats(oracle, theta, eps, 4, make_rng(1)),
                 lambda: perturbed_decomposition_target(oracle, theta, scenario, 1.0, eps, 4,
                                                        make_rng(1))]
        for call in calls:
            with pytest.raises(InputError, match="eps must be a finite positive number"):
                call()

    @pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("problem", ["toy", "mst"])
    def test_decomposition_kappa_must_be_finite_and_positive(self, problem, kappa):
        """A NaN kappa used to return [0.] on the toy and to raise
        InfeasibleError on the grid; an infinite one returned moments."""
        oracle, scenario = toy_or_mst(problem)
        with pytest.raises(InputError, match="kappa must be a finite positive number"):
            perturbed_decomposition_target(oracle, np.zeros(scenario.dim), scenario, kappa,
                                           0.5, 4, make_rng(1))

    def test_theta_must_be_one_dimensional(self):
        """A 0-d theta used to end in a bare IndexError.  Only
        perturbed_argmax_stats takes an (n, d) stack as well."""
        oracle, scenario = toy_or_mst("toy")
        theta, stack = np.float64(0.5), np.full((1, 1), 0.5)
        calls = [lambda: perturbed_argmax_stats(oracle, theta, 1.0, 4, make_rng(1)),
                 lambda: perturbed_argmax_stats(oracle, stack[None], 1.0, 4, make_rng(1)),
                 lambda: perturbed_fy_gradient(oracle, theta, theta, 1.0, 4, make_rng(1)),
                 lambda: perturbed_fy_gradient(oracle, stack, stack, 1.0, 4, make_rng(1)),
                 lambda: perturbed_decomposition_target(oracle, theta, scenario, 1.0, 1.0, 4,
                                                        make_rng(1)),
                 lambda: perturbed_decomposition_target(oracle, stack, scenario, 1.0, 1.0, 4,
                                                        make_rng(1))]
        for call in calls:
            with pytest.raises(InputError, match="theta must be a one-dimensional array"):
                call()


class TestConjugateAndAffineIdentities:
    def test_negentropy_conjugate_identity(self):
        """Moment-space log-partition equals lifted log-sum-exp."""
        g = make_rng(12, 0).generator()
        verts = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
        matrix = ExplicitOracle(verts).matrix
        for _ in range(20):
            theta = g.standard_normal(3)
            lse = logsumexp(matrix.T @ theta)
            direct = np.log(np.sum(np.exp(verts @ theta)))
            assert abs(lse - direct) < 1e-12

    def test_perturbation_per_draw_identity(self):
        """Moment-space and distribution-space perturbed maxima coincide
        draw by draw when the draws are shared."""
        g = make_rng(13, 0).generator()
        verts = np.eye(4)  # distribution-polytope geometry, V-perp = span(1)
        matrix = ExplicitOracle(verts).matrix
        theta = g.standard_normal(4)
        eps = 0.7
        z = make_rng(13, 1).generator().standard_normal((128, 4))
        s = matrix.T @ theta
        for zj in z:
            moment_side = np.max((theta + eps * zj) @ matrix)
            dist_side = np.max(s + eps * (matrix.T @ zj))
            assert abs(moment_side - dist_side) < 1e-12

    def test_affine_over_orthogonal_complement(self):
        """Adding a vector orthogonal to the vertex differences shifts the
        perturbed max affinely and leaves the moment unchanged."""
        verts = np.eye(3)
        oracle = ExplicitOracle(verts)
        g = make_rng(14, 0).generator()
        theta = g.standard_normal(3)
        alpha = 0.83
        rng = make_rng(14, 1)
        v0, m0 = perturbed_argmax_stats(oracle, theta, 0.5, 200, rng)
        v1, m1 = perturbed_argmax_stats(oracle, theta + alpha, 0.5, 200, rng)
        # every vertex has coordinate sum 1, so <alpha 1 | y0> = alpha
        assert abs(v1 - (v0 + alpha)) < 1e-12
        np.testing.assert_allclose(m0, m1, atol=1e-12)


class TestRegularizerKindValidation:
    def test_bad_tag(self):
        with pytest.raises(Exception):
            RegularizerKind("huber")

    def test_perturbation_is_not_a_kind(self):
        """The sparse perturbation has no exact map, so it is no kind."""
        with pytest.raises(InputError):
            RegularizerKind("sparse_perturbation")
