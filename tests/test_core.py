"""Domain types, oracle soundness, and randomness plumbing."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costru import native
from costru.core import Dataset, InputError, RngStream, Scenario, make_rng
from costru.problems.spanning_tree import MstOracle, TwoStageCosts, enumerate_forests, grid_edges
from costru.problems.toy import ToyOracle, toy_scenarios
from costru.regularizers import RegularizerKind, prediction_rows
from costru.simplex_lab import ExplicitOracle


def sparsemax(v):
    """Sparsemax of one vector: the Euclidean projection onto the simplex."""
    return prediction_rows(np.asarray(v, dtype=float)[None, :], RegularizerKind.squared_l2())[0]


class TestProjectToSimplex:
    def test_projection_is_distribution(self):
        g = make_rng(3, 0).generator()
        for _ in range(50):
            p = sparsemax(g.standard_normal(6))
            assert np.all(p >= 0)
            assert np.isclose(p.sum(), 1.0, atol=1e-12)

    def test_interior_point_fixed(self):
        q = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(sparsemax(q), q, atol=1e-12)


class TestRngStream:
    def test_determinism(self):
        a = make_rng(42, 0).generator().standard_normal(100)
        b = make_rng(42, 0).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_stream_separation(self):
        a = make_rng(42, 0).generator().standard_normal(100)
        b = make_rng(42, 1).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_split_separation(self):
        root = make_rng(7, 0)
        a = root.split(1).generator().standard_normal(10)
        b = root.split(2).generator().standard_normal(10)
        c = root.split(1, 2).generator().standard_normal(10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_clt_mean(self):
        draws = make_rng(42, 0).generator().standard_normal(10 ** 6)
        assert abs(draws.mean()) < 4e-3  # 4 / sqrt(n)


# Seed and spawn-key words: 0, small values, and any value up to 2**32 - 1.
_WORDS = st.one_of(st.sampled_from([0, 1, 2 ** 32 - 1]), st.integers(0, 9),
                   st.integers(0, 2 ** 32 - 1))
# Wider ints, which numpy splits into two or three words: the edges of each
# word count, and any value up to 2**96.
_WIDE = st.one_of(_WORDS, st.integers(0, 2 ** 96),
                  st.sampled_from([2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 96 - 1, 2 ** 96]))


def _numpy_stream(seed, stream_id, path):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream_id, *path)))


def _assert_numpy_words(seed, stream_id, path):
    """The library seeds PCG64 as numpy does: its standard normals, which
    ``normal_fill`` draws with numpy's own sampler, are numpy's."""
    stream = RngStream(seed, stream_id, tuple(path))
    expected = _numpy_stream(seed, stream_id, path).standard_normal((3, 5))
    assert stream.standard_normal((3, 5)).tobytes() == expected.tobytes()


@pytest.fixture
def no_library(monkeypatch, request):
    """Make the native library fail to build; it is loaded again after the test."""
    def build():
        raise FileNotFoundError("No such file or directory: 'cc'")

    request.addfinalizer(native._compiled_kernel.cache_clear)
    monkeypatch.setattr(native, "_build_kernel", build)
    native._compiled_kernel.cache_clear()


class TestNativeSeedState:
    """The library seeds a stream's PCG64 as numpy's SeedSequence does, bit
    for bit, for any non-negative seed and key."""

    @settings(max_examples=300, deadline=None)
    @given(_WORDS, _WORDS, st.lists(_WORDS, max_size=6))
    def test_words_and_draws_equal_numpy(self, seed, stream_id, path):
        _assert_numpy_words(seed, stream_id, path)

    @settings(max_examples=300, deadline=None)
    @given(_WIDE, _WIDE, st.lists(_WIDE, max_size=6))
    @example(2 ** 96 + 1, 2 ** 64, [2 ** 95, 0]).via("four, three and three words")
    def test_wide_words_equal_numpy(self, seed, stream_id, path):
        """Ints of more than 32 bits, which numpy splits into words and whose
        seed words fill numpy's pool of four or run past it."""
        _assert_numpy_words(seed, stream_id, path)

    @pytest.mark.parametrize("seed, stream_id, path", [
        (2 ** 32, 0, ()), (1, 2 ** 32, ()), (1, 0, (3, 2 ** 40)), (2 ** 64 + 5, 7, (1, 2)),
    ])
    def test_wide_words_fall_back_to_numpy(self, seed, stream_id, path):
        """A two-word seed, stream id and path entry and a three-word seed:
        these once fell back to numpy's SeedSequence, and the library's
        seeding of them must still be numpy's."""
        _assert_numpy_words(seed, stream_id, path)

    @pytest.mark.parametrize("seed, path", [(-1, ()), (1, (-2,)), (1.5, ())])
    def test_invalid_words_raise_as_numpy_does(self, seed, path):
        with pytest.raises((ValueError, TypeError)) as numpy_error:
            _numpy_stream(seed, 0, path)
        with pytest.raises(numpy_error.type):
            RngStream(seed, 0, path).generator()
        with pytest.raises(numpy_error.type):
            RngStream(seed, 0, path).standard_normal(3)

    def test_failed_build_raises(self, no_library):
        """Without the library numpy still seeds the stream, but there are no
        library draws: the error names cc."""
        stream = RngStream(3, 1, (4,))
        expected = _numpy_stream(3, 1, (4,)).standard_normal(5)
        assert stream.generator().standard_normal(5).tobytes() == expected.tobytes()
        with pytest.raises(native.NativeLibraryError, match="C compiler cc") as error:
            stream.standard_normal(5)
        assert isinstance(error.value.__cause__, FileNotFoundError)

    def test_concurrent_calls_match_sequential(self):
        streams = [make_rng(5, 1).split(t, slot) for t in range(8) for slot in range(16)]
        draw = lambda s: s.standard_normal(40)  # noqa: E731
        expected = [s.generator().standard_normal(40) for s in streams]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(draw, streams, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for g, e in zip(got, expected, strict=True):
            assert g.tobytes() == e.tobytes()


class TestNativeDraws:
    """The library's PCG64 stream, seeded from a stream's entropy words, is
    numpy's bit for bit: its raw words and its standard normals.  The
    library runs the fast path of numpy's ziggurat inline and hands every
    other word to numpy's own sampler, which tests the wedge (accepting or
    rejecting) or draws the tail; the normals are still numpy's, and the
    inlined path must pass its first-use check, or every draw is numpy's
    slower fill."""

    def test_fast_path_is_inlined(self):
        key = make_rng(0).entropy()
        out = np.empty(3)
        assert native._compiled_kernel().normal_fill(key, len(key) // 4, out.size,
                                                      out.ctypes.data) == 1
        assert out.tobytes() == make_rng(0).generator().standard_normal(3).tobytes()

    @pytest.mark.parametrize("stream", [make_rng(0), make_rng(3, 1).split(2),
                                        make_rng(2 ** 40, 7).split(1, 9),
                                        make_rng(17, 2).split(0, 0, 5)],
                             ids=["plain", "split", "wide-seed", "deep-path"])
    def test_million_normals_equal_numpy(self, stream):
        """10**6 draws: some 7 000 leave the fast path for numpy's wedge
        test or tail, rejections included, on the words handed back."""
        got = stream.standard_normal(10 ** 6)
        assert np.abs(got).max() > 3.6541528853610088
        assert got.tobytes() == stream.generator().standard_normal(10 ** 6).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_WIDE, _WIDE, st.lists(_WIDE, max_size=4), st.integers(0, 10 ** 5))
    @example(2 ** 96, 2 ** 64 - 1, [3, 2 ** 40], 10 ** 5).via("wide words, 10**5 draws")
    def test_normals_equal_numpy(self, seed, stream_id, path, n):
        stream = RngStream(seed, stream_id, tuple(path))
        expected = stream.generator().standard_normal(n)
        assert stream.standard_normal(n).tobytes() == expected.tobytes()

    def test_normals_reach_the_ziggurat_tail(self):
        """10**5 draws pass numpy's outermost layer, |z| > 3.6541528853610088,
        which the sampler draws by rejection with log1p; they still agree."""
        stream = make_rng(11, 3).split(5)
        got = stream.standard_normal(10 ** 5)
        assert np.abs(got).max() > 3.6541528853610088
        assert got.tobytes() == stream.generator().standard_normal(10 ** 5).tobytes()


class TestContainers:
    def test_scenario_validation(self):
        with pytest.raises(InputError):
            Scenario(0, np.zeros(3), None)  # features must be 2-D

    def test_dataset_validation(self):
        with pytest.raises(InputError):
            Dataset((), "train")
        s = toy_scenarios()[0]
        with pytest.raises(InputError):
            Dataset((s,), "weird-split")

    def test_by_context_groups(self):
        scenarios = toy_scenarios()
        data = Dataset(tuple(scenarios), "train")
        assert list(data.by_context()) == [0]
        assert len(data.by_context()[0]) == 3


class TestOracleSoundness:
    """argmax_linear must attain the best value over every enumerable y."""

    def test_toy_oracle(self):
        oracle = ToyOracle()
        g = make_rng(11, 0).generator()
        for theta in g.standard_normal((1000, 1)):
            y = oracle.argmax_linear(theta)
            assert theta[0] * y[0] >= max(0.0, theta[0]) - 1e-12

    def test_explicit_oracle(self):
        g = make_rng(12, 0).generator()
        verts = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
        oracle = ExplicitOracle(verts)
        for theta in g.standard_normal((1000, 3)):
            y = oracle.argmax_linear(theta)
            assert theta @ y >= (verts @ theta).max() - 1e-12

    def test_mst_oracle(self):
        oracle = MstOracle(2, 3)
        forests = enumerate_forests(grid_edges(2, 3), 6)
        g = make_rng(13, 0).generator()
        for theta in g.standard_normal((200, oracle.n_edges)):
            y = oracle.argmax_linear(theta)
            best = max(float(theta @ f) for f in forests)
            assert float(theta @ y) >= best - 1e-12


def _cube_oracle() -> ExplicitOracle:
    verts = np.array(list(itertools.product([0.0, 1.0], repeat=2)))
    return ExplicitOracle(verts)


class TestBatchedOracleInputs:
    """The batched entries check what their single-row forms derive from."""

    @pytest.mark.parametrize("payload", [-1, 3, 2.5, None], ids=str)
    def test_toy_payload_outside_range_rejected(self, payload):
        scenario = Scenario(0, np.ones((1, 1)), payload)
        with pytest.raises(InputError, match="toy scenario index"):
            ToyOracle().argmin_shifted_many(np.zeros((2, 1)), 1.0, scenario)
        with pytest.raises(InputError, match="toy scenario index"):
            ToyOracle().argmin_shifted(np.zeros(1), 1.0, scenario)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_explicit_non_finite_scores_rejected(self, bad):
        oracle = _cube_oracle()
        thetas = np.zeros((3, 2))
        thetas[1, 0] = bad
        scenario = Scenario(0, np.ones((2, 1)), np.zeros(4))
        with pytest.raises(InputError, match="theta contains non-finite"):
            oracle.argmax_linear_many(thetas)
        with pytest.raises(InputError, match="theta contains non-finite"):
            oracle.argmin_shifted_many(thetas, 1.0, scenario)
        with pytest.raises(InputError, match="non-finite"):
            oracle.argmin_shifted_many(np.zeros((1, 2)), 1.0,
                                       Scenario(0, np.ones((2, 1)), np.full(4, bad)))

    def test_explicit_payload_of_another_length_rejected(self):
        scenario = Scenario(0, np.ones((2, 1)), np.zeros(3))
        with pytest.raises(InputError, match="one entry per vertex"):
            _cube_oracle().argmin_shifted_many(np.zeros((1, 2)), 1.0, scenario)

    @pytest.mark.parametrize("bad", ["theta-nan", "theta-inf", "kappa-nan", "kappa-inf"])
    @pytest.mark.parametrize("oracle, scenario", [
        (ToyOracle(), Scenario(0, np.ones((1, 1)), 0)),
        (_cube_oracle(), Scenario(0, np.ones((2, 1)), np.zeros(4))),
        (MstOracle(2, 3), Scenario(0, np.ones((7, 1)), TwoStageCosts(np.ones(7), np.ones(7)))),
    ], ids=["toy", "explicit", "mst"])
    def test_non_finite_directions_and_kappa_rejected(self, oracle, scenario, bad):
        """One rule for every oracle: finite directions and a finite kappa,
        0 included.  A NaN once gave y = 0 (toy), vertex 0 (explicit) or
        "graph is disconnected" (spanning tree)."""
        thetas, kappa = np.zeros((3, scenario.dim)), 1.0
        value = np.nan if bad.endswith("nan") else np.inf
        if bad.startswith("theta"):
            thetas[1, 0] = value
            with pytest.raises(InputError):
                oracle.argmax_linear_many(thetas)
        else:
            kappa = value
        zero_kappa = oracle.argmin_shifted_many(np.zeros_like(thetas), 0.0, scenario)
        assert zero_kappa.shape == thetas.shape
        with pytest.raises(InputError, match="non-finite|kappa must be finite"):
            oracle.argmin_shifted_many(thetas, kappa, scenario)
        with pytest.raises(InputError, match="non-finite|kappa must be finite"):
            oracle.argmin_shifted(thetas[1], kappa, scenario)

    @pytest.mark.parametrize("oracle, d", [(ToyOracle(), 1), (_cube_oracle(), 2),
                                           (MstOracle(2, 3), 7)], ids=["toy", "explicit", "mst"])
    def test_directions_of_another_shape_rejected(self, oracle, d):
        with pytest.raises(InputError):
            oracle.argmax_linear_many(np.zeros((2, d + 1)))
        with pytest.raises(InputError, match="one-dimensional"):
            oracle.argmax_linear(np.zeros((1, d)))
