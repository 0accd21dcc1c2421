import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from l0rcd import (
    BlockPartition,
    L0Problem,
    LeastSquaresObjective,
    LogisticL2Objective,
    build_example_instance,
    finite_difference_error,
    load_labels_csv,
    load_matrix_csv,
    load_vector_csv,
    restricted_minimize,
)
from l0rcd import objectives
from l0rcd.cli import ExperimentConfig, build_problem, generate_least_squares
from l0rcd.objectives import _gelsd, _gesv, _log1pexp, _sigmoid


def random_ls(m, n, seed):
    rng = np.random.default_rng(seed)
    return LeastSquaresObjective(
        rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m)
    )


def random_logistic(m, n, seed, nu=0.3):
    rng = np.random.default_rng(seed)
    return LogisticL2Objective(
        rng.uniform(-1, 1, (m, n)), (rng.random(m) < 0.5).astype(float), nu
    )


class TestLeastSquares:
    def test_eval_identity_matrix(self):
        """Residual at b is zero; at the origin it is b itself."""
        f = LeastSquaresObjective(np.eye(2), np.array([1.0, 1.0]))
        assert f.eval(np.array([1.0, 1.0])) == pytest.approx(0.0)
        assert f.eval(np.zeros(2)) == pytest.approx(1.0)

    def test_block_grad_matches_full(self):
        f = LeastSquaresObjective(np.eye(2), np.array([1.0, 1.0]))
        cache = f.make_cache(np.zeros(2))
        g0 = f.block_grad(np.zeros(2), slice(0, 1), cache)
        np.testing.assert_allclose(g0, [-1.0])

    def test_single_column_gradient(self):
        f = LeastSquaresObjective(np.array([[1.0], [2.0]]), np.zeros(2))
        x = np.array([1.0])
        np.testing.assert_allclose(f.full_grad(x), [5.0])
        assert f.eval(x) == pytest.approx(2.5)

    def test_column_lipschitz(self):
        f = LeastSquaresObjective(np.array([[1.0], [2.0]]), np.zeros(2))
        np.testing.assert_allclose(f.column_lipschitz(), [5.0])

    def test_spectral_lipschitz_identity(self):
        f = LeastSquaresObjective(np.eye(3), np.zeros(3))
        assert f.spectral_lipschitz() == pytest.approx(1.0)

    def test_block_lipschitz_spectral_norm(self):
        f = LeastSquaresObjective(np.eye(4), np.zeros(4))
        np.testing.assert_allclose(f.block_lipschitz((2, 2)), [1.0, 1.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LeastSquaresObjective(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            LeastSquaresObjective(np.zeros(4), np.zeros(4))

    def test_nonfinite_rejected(self):
        f = LeastSquaresObjective(np.eye(2), np.zeros(2))
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            f.eval(np.array([1e200, 0.0]))


class TestLogistic:
    def test_eval_at_origin(self):
        """With all-zero labels, x = 0 gives the mean of log(2)."""
        f = LogisticL2Objective(np.ones((4, 2)), np.zeros(4), nu=0.1)
        assert f.eval(np.zeros(2)) == pytest.approx(np.log(2.0))

    def test_grad_at_origin(self):
        rng = np.random.default_rng(11)
        data = rng.uniform(-1, 1, (6, 3))
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        f = LogisticL2Objective(data, y, nu=0.2)
        expected = data.T @ (0.5 - y) / 6.0
        np.testing.assert_allclose(f.full_grad(np.zeros(3)), expected)

    def test_overflow_safe(self):
        # predictors of +-2000 must not produce inf/nan
        data = np.array([[1.0], [-1.0]])
        f = LogisticL2Objective(data, np.array([1.0, 0.0]), nu=1e-3)
        v = f.eval(np.array([2000.0]))
        assert np.isfinite(v)
        assert np.isfinite(f.full_grad(np.array([2000.0]))).all()

    def test_column_lipschitz_formula(self):
        data = np.array([[1.0, 2.0], [3.0, 0.0]])
        f = LogisticL2Objective(data, np.zeros(2), nu=0.5)
        np.testing.assert_allclose(
            f.column_lipschitz(), [10.0 / 8.0 + 0.5, 4.0 / 8.0 + 0.5]
        )

    def test_curvature_floor_is_nu(self):
        """nu bounds f'' along every coordinate from below, at any point and h."""
        f = random_logistic(12, 5, 3, nu=0.02)
        np.testing.assert_array_equal(f.coord_curvature_floor(), np.full(5, 0.02))
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = 30.0 * rng.standard_normal(5)
            j = int(rng.integers(5))
            c = f.coord_curvature_shifted(x, j, float(rng.standard_normal()), f.make_cache(x))
            assert c >= f.coord_curvature_floor()[j]

    @pytest.mark.parametrize("scale", [1e-150, 1e-20, 1.0, 1e20, 1e150])
    def test_curvature_is_the_squared_column_formula(self, scale):
        """The curvature query, which reads squared entries built once, has the
        bits of the formula that squares data[:, j] on every call."""
        rng = np.random.default_rng(5)
        f = LogisticL2Objective(
            scale * rng.uniform(-1, 1, (9, 6)), (rng.random(9) < 0.5).astype(float), nu=0.1
        )
        for _ in range(40):
            x = rng.standard_normal(6) / scale
            cache = f.make_cache(x)
            j, h = int(rng.integers(6)), float(rng.choice([0.0, rng.standard_normal() / scale]))
            s = _sigmoid(f._shifted(j, h, cache))
            want = float((s * (1.0 - s)) @ (f.data[:, j] ** 2)) / f.m + f.nu
            got = f.coord_grad_curvature_shifted(x, j, h, cache)[1]
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_label_validation(self):
        with pytest.raises(ValueError):
            LogisticL2Objective(np.ones((2, 1)), np.array([0.0, 2.0]), nu=0.1)

    def test_nu_validation(self):
        with pytest.raises(ValueError):
            LogisticL2Objective(np.ones((2, 1)), np.zeros(2), nu=0.0)


def _h0_queries(n):
    """Every query of the oracle surface that reads the cache as it stands (h = 0,
    also h = -0.0), as functions (oracle, x, cache) -> result."""
    queries = [
        lambda f, x, c: f.value_from_cache(x, c),
        lambda f, x, c: f.block_grad(x, slice(0, n), c),
        lambda f, x, c: f.block_grad(x, slice(1, 3), c),
    ]
    for j in range(n):
        for h in (0.0, -0.0):
            queries += [
                lambda f, x, c, j=j, h=h: f.coord_grad_shifted(x, j, h, c),
                lambda f, x, c, j=j, h=h: f.coord_curvature_shifted(x, j, h, c),
                lambda f, x, c, j=j, h=h: f.coord_grad_curvature_shifted(x, j, h, c),
                lambda f, x, c, j=j, h=h: f.value_shifted(x, j, h, c),
            ]
    return queries


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


class TestLogisticMemo:
    """The logistic oracle keeps the sigmoid and loss of the last predictors it
    saw; no query may tell. A fresh oracle per query is the reference."""

    @staticmethod
    def fresh(f):
        return LogisticL2Objective(f.data, f.y, f.nu)

    def test_cache_edited_in_place_without_update_cache(self):
        f = random_logistic(15, 6, 21)
        rng = np.random.default_rng(22)
        x, z = rng.standard_normal(6), 3.0 * rng.standard_normal(6)
        before, after = f.make_cache(x), f.make_cache(z)
        cache = before.copy()
        for query in _h0_queries(6):
            cache[:] = before
            f.value_from_cache(x, cache)  # the memo now holds the predictors at x
            cache[:] = after
            assert _bits(query(f, z, cache)) == _bits(query(self.fresh(f), z, cache))

    def test_two_caches_queried_alternately(self):
        f = random_logistic(15, 6, 23)
        rng = np.random.default_rng(24)
        points = [rng.standard_normal(6), rng.standard_normal(6)]
        caches = [f.make_cache(x) for x in points]
        for query in _h0_queries(6):
            for _ in range(2):
                for x, cache in zip(points, caches):
                    assert _bits(query(f, x, cache)) == _bits(query(self.fresh(f), x, cache))

    def test_one_exp_per_predictor_state(self, monkeypatch):
        """The queries at one cache state share one exp; a shifted query at
        h != 0 makes its own and leaves the memo in place."""
        f = random_logistic(15, 6, 25)
        x = np.random.default_rng(26).standard_normal(6)
        cache = f.make_cache(x)
        calls = []
        original = objectives._exp_neg_abs

        def counted(t):
            calls.append(len(t))
            return original(t)

        monkeypatch.setattr(objectives, "_exp_neg_abs", counted)
        for query in _h0_queries(6):
            query(f, x, cache)
        assert calls == [15]
        f.coord_grad_curvature_shifted(x, 2, 0.5, cache)
        f.value_shifted(x, 2, -x[2], cache)
        for query in _h0_queries(6):
            query(f, x, cache)
        assert calls == [15, 15, 15]


def two_branch_sigmoid(t):
    """Overflow-safe sigmoid as two masked branches: the reference for ``_sigmoid``."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


# zeros of both signs, infinities, nan, subnormals and |t| >= 710, where exp overflows
_SIGMOID_SPECIALS = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
    709.0, 710.0, -710.0, 745.0, -745.0, 746.0, -746.0, 750.0, -750.0, 1e308, -1e308,
]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    t=strategies.lists(
        strategies.one_of(
            strategies.floats(),
            strategies.floats(-800.0, 800.0),
            strategies.sampled_from(_SIGMOID_SPECIALS),
        ),
        max_size=50,
    )
)
@example(t=[])
@example(t=[-0.0])
@example(t=_SIGMOID_SPECIALS + np.geomspace(1e-3, 750.0, 30).tolist())
def test_sigmoid_matches_two_branch_formula(t):
    """One exp per entry gives the two-branch bits; a nan stays nan (its sign bit may not)."""
    got = _sigmoid(t)  # a list: array-likes are accepted
    want = two_branch_sigmoid(t)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def curvature_along(oracle, j, t):
    """f'' along coordinate j at the predictors t, from sigma'(z) = e/(1 + e)^2
    summed by math.fsum: the oracle's s (1 - s) rounds to 0 past |t| = 37."""
    e = np.exp(-np.abs(t))
    terms = oracle.data[:, j] ** 2 * (e / (1.0 + e) ** 2)
    return math.fsum(terms.tolist()) / oracle.m + oracle.nu


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    seed=strategies.integers(0, 2**32 - 1),
    m=strategies.integers(1, 12),
    zeros=strategies.sampled_from([0.0, 0.4, 1.0]),
    scale=strategies.sampled_from([1.0, 60.0]),
    nu=strategies.sampled_from([1e-17, 1e-9, 0.3]),
    radius=strategies.one_of(
        strategies.sampled_from([0.0, 5e-324, 1e-12, 1e6, 1e300, math.inf]),
        strategies.floats(0.0, 10.0),
    ),
)
@example(seed=0, m=4, zeros=1.0, scale=1.0, nu=1e-17, radius=math.inf)
@example(seed=0, m=4, zeros=0.0, scale=60.0, nu=1e-17, radius=0.0)
def test_curvature_floor_near_is_below_f2_on_the_interval(seed, m, zeros, scale, nu, radius):
    """``coord_curvature_floor_near`` is a float at or below f'' at points of
    [h - radius, h + radius] (within the rounding of the two sums), f'' itself
    at radius 0, nu where radius is inf, and raises no RuntimeWarning: data
    with zero entries and columns, saturated predictors, nu down to 1e-17."""
    rng = np.random.default_rng(seed)
    n = 3
    data = rng.uniform(-1, 1, (m, n)) * scale * (rng.random((m, n)) >= zeros)
    oracle = LogisticL2Objective(data, (rng.random(m) < 0.5).astype(float), nu)
    x = rng.standard_normal(n)
    cache = oracle.make_cache(x)
    j = int(rng.integers(n))
    h = float(rng.standard_normal())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floor = oracle.coord_curvature_floor_near(x, j, h, radius, cache)
    assert type(floor) is float
    assert nu <= floor
    if radius == math.inf:
        assert floor == nu
    t = cache + data[:, j] * h
    for u in min(radius, 1e6) * np.linspace(-1.0, 1.0, 9):
        assert floor <= curvature_along(oracle, j, t + data[:, j] * u) * (1.0 + 1e-12)
    if radius == 0.0:
        assert floor >= curvature_along(oracle, j, t) * (1.0 - 1e-12)


@pytest.mark.parametrize("make", [lambda s: random_ls(8, 5, s), lambda s: random_logistic(8, 5, s)])
class TestOracleContract:
    """Properties every smooth oracle must satisfy, checked on random points."""

    def test_finite_difference_gradient(self, make):
        oracle = make(0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(oracle.dim)
            err, _ = finite_difference_error(oracle, x)
            assert err <= 1e-5

    def test_block_grad_matches_full_grad(self, make):
        oracle = make(2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(oracle.dim)
        cache = oracle.make_cache(x)
        g = oracle.full_grad(x)
        for start in range(0, oracle.dim, 2):
            sl = slice(start, min(start + 2, oracle.dim))
            np.testing.assert_allclose(
                oracle.block_grad(x, sl, cache), g[sl], atol=1e-12
            )

    def test_value_from_cache(self, make):
        oracle = make(4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(oracle.dim)
        cache = oracle.make_cache(x)
        assert oracle.value_from_cache(x, cache) == pytest.approx(
            oracle.eval(x), rel=1e-12
        )

    def test_shifted_evaluations(self, make):
        """value/grad/curvature at x + h e_j agree with fresh evaluations."""
        oracle = make(6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(oracle.dim)
        cache = oracle.make_cache(x)
        for _ in range(20):
            j = int(rng.integers(oracle.dim))
            h = float(rng.standard_normal())
            shifted = x.copy()
            shifted[j] += h
            assert oracle.value_shifted(x, j, h, cache) == pytest.approx(
                oracle.eval(shifted), rel=1e-10, abs=1e-12
            )
            assert oracle.coord_grad_shifted(x, j, h, cache) == pytest.approx(
                float(oracle.full_grad(shifted)[j]), rel=1e-9, abs=1e-10
            )
            # curvature via centered difference of the coordinate gradient
            eps = 1e-6
            fd = (
                oracle.coord_grad_shifted(x, j, h + eps, cache)
                - oracle.coord_grad_shifted(x, j, h - eps, cache)
            ) / (2 * eps)
            assert oracle.coord_curvature_shifted(x, j, h, cache) == pytest.approx(
                fd, rel=1e-4, abs=1e-6
            )

    @pytest.mark.parametrize("scale", [1.0, 60.0], ids=["moderate", "predictors_past_40"])
    def test_fused_query_is_the_two_single_queries(self, make, scale):
        """(g', g'') from one query equal the two single queries bit for bit,
        at h = 0, at h = -x_j and at a random h; at scale 60 the predictors
        reach |t| > 40, where the sigmoid saturates."""
        oracle = make(14)
        rng = np.random.default_rng(15)
        big = 0
        for _ in range(40):
            x = scale * rng.standard_normal(oracle.dim) * (rng.random(oracle.dim) < 0.7)
            cache = oracle.make_cache(x)
            big += bool(np.any(np.abs(cache) > 40.0))
            j = int(rng.integers(oracle.dim))
            for h in (0.0, -x[j], scale * float(rng.standard_normal())):
                g, c = oracle.coord_grad_curvature_shifted(x, j, h, cache)
                assert np.float64(g).tobytes() == np.float64(
                    oracle.coord_grad_shifted(x, j, h, cache)
                ).tobytes()
                assert np.float64(c).tobytes() == np.float64(
                    oracle.coord_curvature_shifted(x, j, h, cache)
                ).tobytes()
        assert (big > 0) == (scale > 1.0)

    def test_cache_coherence_after_many_updates(self, make):
        """1000 incremental block updates drift less than 1e-8 from a rebuild."""
        oracle = make(8)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(oracle.dim)
        cache = oracle.make_cache(x)
        for _ in range(1000):
            start = int(rng.integers(oracle.dim))
            sl = slice(start, min(start + 2, oracle.dim))
            new = rng.standard_normal(sl.stop - sl.start) * (rng.random() < 0.7)
            cache = oracle.update_cache(cache, sl, new - x[sl])
            x[sl] = new
        fresh = oracle.make_cache(x)
        drift = np.max(np.abs(cache - fresh)) / (1.0 + np.max(np.abs(fresh)))
        assert drift <= 1e-8

    def test_coordinate_update_is_the_one_column_slice_update(self, make):
        """update_cache(cache, j, d) has the bits of update_cache(cache, j:j+1, [d])."""
        oracle = make(14)
        rng = np.random.default_rng(15)
        for scale in (1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150):
            for _ in range(50):
                cache = oracle.make_cache(scale * rng.standard_normal(oracle.dim))
                j = int(rng.integers(oracle.dim))
                d = scale * float(rng.standard_normal())
                by_coordinate = oracle.update_cache(cache.copy(), j, d)
                by_slice = oracle.update_cache(cache.copy(), slice(j, j + 1), np.array([d]))
                assert by_coordinate.tobytes() == by_slice.tobytes()

    def test_update_cache_noop_when_unchanged(self, make):
        oracle = make(10)
        x = np.ones(oracle.dim)
        cache = oracle.make_cache(x)
        before = cache.copy()
        oracle.update_cache(cache, slice(0, 2), np.zeros(2))
        np.testing.assert_array_equal(cache, before)

    def test_blockwise_lipschitz_bound(self, make):
        """Sampled gradient differences never exceed the advertised constants."""
        oracle = make(12)
        rng = np.random.default_rng(13)
        L = oracle.column_lipschitz()
        for _ in range(300):
            x = rng.standard_normal(oracle.dim)
            j = int(rng.integers(oracle.dim))
            h = float(rng.standard_normal())
            if h == 0.0:
                continue
            shifted = x.copy()
            shifted[j] += h
            diff = abs(oracle.full_grad(shifted)[j] - oracle.full_grad(x)[j])
            assert diff <= L[j] * abs(h) * (1 + 1e-9) + 1e-12


def _parent_eval_and_grad(oracle, x):
    """The one-point formulas of eval and full_grad as plain 1-D products."""
    if isinstance(oracle, LeastSquaresObjective):
        r = oracle.A @ x - oracle.b
        return 0.5 * float(r @ r), oracle.A.T @ r
    t = oracle.data @ x
    loss = float((_log1pexp(t) - oracle.y * t).sum()) / oracle.m
    g = oracle.data.T @ (_sigmoid(t) - oracle.y) / oracle.m + oracle.nu * x
    return loss + 0.5 * oracle.nu * float(x @ x), g


@pytest.mark.parametrize("make", [random_ls, random_logistic])
@pytest.mark.parametrize(
    "m, n", [(8, 16), (5, 12), (50, 40), (200, 9), (3, 1), (6, 12), (200, 500), (1000, 30)]
)
def test_stacked_rows_match_one_point_calls(make, m, n):
    """eval and full_grad of a stack give, row by row, the bits of the one-point
    call, and those are the bits of the plain 1-D products and of the f value
    that the per-iteration kernels give from a fresh cache."""
    oracle = make(m, n, m + n)
    rng = np.random.default_rng(n)
    Z = rng.standard_normal((300, n)) * (rng.random((300, n)) < 0.5)
    Z[0] = 0.0
    f, G = oracle.eval(Z), oracle.full_grad(Z)
    assert f.shape == (300,) and G.shape == (300, n)
    for z, f_row, g_row in zip(Z, f, G):
        f_one, g_one = oracle.eval(z), oracle.full_grad(z)
        assert type(f_one) is float
        assert f_row == f_one
        assert g_row.tobytes() == g_one.tobytes()
        f_plain, g_plain = _parent_eval_and_grad(oracle, z)
        assert f_one == f_plain
        assert g_one.tobytes() == g_plain.tobytes()
        assert oracle.value_from_cache(z, oracle.make_cache(z)) == f_one


def test_stacked_eval_rejects_a_nonfinite_row():
    f = LeastSquaresObjective(np.eye(2), np.zeros(2))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        f.eval(np.array([[1.0, 0.0], [1e200, 0.0]]))


def _matmul_ls(f):
    """LeastSquaresObjective's per-iteration kernels as they were written with
    ``@`` and fresh column slices: the bit references of the ``.dot`` forms."""
    A, b, col_sq = f.A, f.b, f._col_sq

    def grad_shifted(x, j, h, cache):
        return float(A[:, j] @ cache) + col_sq[j] * h

    def value_shifted(x, j, h, cache):
        r = cache + A[:, j] * h
        return 0.5 * float(r @ r)

    return {
        "make_cache": lambda x: A @ x - b,
        "value_from_cache": lambda x, cache: 0.5 * float(cache @ cache),
        "block_grad": lambda x, sl, cache: A[:, sl].T @ cache,
        "update_cache": lambda cache, sl, d: cache + (
            A[:, sl] @ d if isinstance(sl, slice) else A[:, sl] * d
        ),
        "coord_grad_shifted": grad_shifted,
        "coord_grad_curvature_shifted": lambda x, j, h, cache: (
            grad_shifted(x, j, h, cache), float(col_sq[j])
        ),
        "value_shifted": value_shifted,
    }


def _matmul_logistic(f):
    """The same references for LogisticL2Objective, from a fresh sigmoid."""
    data, y, m, nu, data_sq = f.data, f.y, f.m, f.nu, f._data_sq

    def loss(t):
        return float((_log1pexp(t) - y * t).sum()) / m

    def shifted(j, h, cache):
        return cache if h == 0.0 else cache + data[:, j] * h

    def grad_curvature(x, j, h, cache):
        s = _sigmoid(shifted(j, h, cache))
        grad = float(data[:, j] @ (s - y)) / m + nu * (x[j] + h)
        return grad, float((s * (1.0 - s)) @ data_sq[:, j]) / m + nu

    def value_shifted(x, j, h, cache):
        sq = float(x @ x) - x[j] ** 2 + (x[j] + h) ** 2
        return loss(shifted(j, h, cache)) + 0.5 * nu * sq

    return {
        "make_cache": lambda x: data @ x,
        "value_from_cache": lambda x, cache: loss(cache) + 0.5 * nu * float(x @ x),
        "block_grad": lambda x, sl, cache: (
            data[:, sl].T @ (_sigmoid(cache) - y) / m + nu * x[sl]
        ),
        "update_cache": lambda cache, sl, d: cache + (
            data[:, sl] @ d if isinstance(sl, slice) else data[:, sl] * d
        ),
        "coord_grad_shifted": lambda x, j, h, cache: grad_curvature(x, j, h, cache)[0],
        "coord_grad_curvature_shifted": grad_curvature,
        "value_shifted": value_shifted,
    }


KERNEL_SHAPES = [(6, 12), (50, 40), (200, 500), (1000, 30)]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("m, n", KERNEL_SHAPES)
@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_dot_kernels_have_the_bits_of_matmul(kind, m, n, scale):
    """Every per-iteration kernel gives the bits of its ``@`` formula: cache,
    f value, block gradients (whole point, blocks, one column), both cache
    updates, and the shifted queries at h = 0 and h != 0."""
    rng = np.random.default_rng(m * n)
    matrix = scale * rng.uniform(-1, 1, (m, n))
    if kind == "least_squares":
        f = LeastSquaresObjective(matrix, scale * rng.uniform(-1, 1, m))
        ref = _matmul_ls(f)
    else:
        f = LogisticL2Objective(matrix, (rng.random(m) < 0.5).astype(float), 0.3)
        ref = _matmul_logistic(f)
    blocks = [slice(0, n), slice(0, 1), slice(n // 3, n // 3 + 4), slice(n - 2, n)]
    coords = sorted({0, n - 1, *rng.integers(n, size=4).tolist()})
    for _ in range(5):
        x = scale * rng.standard_normal(n) * (rng.random(n) < 0.6)
        cache = f.make_cache(x)
        assert _bits(cache) == _bits(ref["make_cache"](x))
        assert _bits(f.value_from_cache(x, cache)) == _bits(ref["value_from_cache"](x, cache))
        for sl in blocks:
            assert _bits(f.block_grad(x, sl, cache)) == _bits(ref["block_grad"](x, sl, cache))
            d = scale * rng.standard_normal(sl.stop - sl.start)
            expect = ref["update_cache"](cache, sl, d)
            assert _bits(f.update_cache(cache.copy(), sl, d)) == _bits(expect)
        for j in coords:
            for h in (0.0, scale * float(rng.standard_normal()), -float(x[j])):
                for name in ("coord_grad_shifted", "coord_grad_curvature_shifted", "value_shifted"):
                    got = getattr(f, name)(x, j, h, cache)
                    assert _bits(got) == _bits(ref[name](x, j, h, cache)), (name, j, h)
            d = scale * float(rng.standard_normal())
            expect = ref["update_cache"](cache, j, d)
            assert _bits(f.update_cache(cache.copy(), j, d)) == _bits(expect)


@pytest.mark.parametrize("make", [random_ls, random_logistic])
def test_column_lists_are_views_built_on_first_use(make):
    """The per-coordinate column lists hold views of the matrix, not copies, and
    the column constants as Python floats; none is built before a query."""
    f = make(9, 7, 3)
    matrix = f.A if make is random_ls else f.data
    assert "_cols" not in vars(f)
    f.coord_grad_shifted(np.zeros(7), 2, 0.0, f.make_cache(np.zeros(7)))
    assert len(f._cols) == 7
    for j, col in enumerate(f._cols):
        assert np.shares_memory(col, matrix) and col.base is not None
        assert _bits(col) == _bits(matrix[:, j])
    if make is random_ls:
        assert all(type(c) is float for c in f._col_sq_list)
        assert f._col_sq_list == f._col_sq.tolist()
    else:
        for j, col in enumerate(f._sq_cols):
            assert np.shares_memory(col, f._data_sq)
            assert _bits(col) == _bits(f._data_sq[:, j])


def _support_stacks(n):
    """Every nonempty support of range(n), as one (k, s) stack of sorted rows per size s."""
    return [np.array(list(combinations(range(n), s))) for s in range(1, n + 1)]


def _rank_deficient_5x6():
    # column 4 repeats column 1 and column 5 is zero; supports reach |I| = 6 > m = 5
    rng = np.random.default_rng(11)
    A = rng.uniform(-1.0, 1.0, (5, 6))
    A[:, 4] = A[:, 1]
    A[:, 5] = 0.0
    return LeastSquaresObjective(A, rng.uniform(-1.0, 1.0, 5))


def _rank_deficient(sub):
    return bool(np.linalg.matrix_rank(sub) < min(sub.shape))


# Each least-squares stack with its number of rank-deficient supports: on the
# 5x6 matrix, those with the zero column or with both copies of column 1.
_LEAST_SQUARES_STACKS = pytest.mark.parametrize(
    "make,deficient_count",
    [
        (lambda: build_example_instance().smooth, 0),
        (lambda: generate_least_squares(8, 11, 3)[0], 0),
        (_rank_deficient_5x6, 40),
    ],
    ids=["example_4x7", "generated_8x11", "rank_deficient_5x6"],
)


class TestRestrictedMinimizeStack:
    @_LEAST_SQUARES_STACKS
    def test_least_squares_rows_agree_with_lstsq(self, make, deficient_count):
        """Each row of a stacked solve is within 1e-10, relative in the max norm,
        of np.linalg.lstsq on that support, and zero off it; a rank-deficient
        support goes to gelsd and keeps lstsq's bits."""
        oracle = make()
        n = oracle.dim
        deficient = 0
        for cols in _support_stacks(n):
            Z = oracle.restricted_minimize(cols)
            assert Z.shape == (len(cols), n)
            for z, idx in zip(Z, cols.tolist()):
                sub = oracle.A[:, idx]
                sol = np.linalg.lstsq(sub, oracle.b, rcond=1e-10)[0]
                if _rank_deficient(sub):
                    deficient += 1
                    assert z[idx].tobytes() == sol.tobytes()
                else:
                    assert np.abs(z[idx] - sol).max() <= 1e-10 * np.abs(sol).max()
                assert not np.delete(z, idx).any()
        assert deficient == deficient_count

    @_LEAST_SQUARES_STACKS
    def test_least_squares_stack_equals_row_by_row(self, make, deficient_count, monkeypatch):
        """Each row of a stacked solve has the bits of the one-row call, and only
        the rank-deficient rows reach gelsd, in the stack and alone."""
        oracle = make()
        gelsd_rows = []

        def counted(a, *args, **kwargs):
            gelsd_rows.append(len(a))
            return _gelsd(a, *args, **kwargs)

        monkeypatch.setattr(objectives, "_gelsd", counted)
        stacked = 0
        for cols in _support_stacks(oracle.dim):
            deficient = [_rank_deficient(oracle.A[:, idx]) for idx in cols.tolist()]
            gelsd_rows.clear()
            Z = oracle.restricted_minimize(cols)
            assert sum(gelsd_rows) == sum(deficient)
            stacked += sum(gelsd_rows)
            for z, row, is_deficient in zip(Z, cols, deficient):
                gelsd_rows.clear()
                assert z.tobytes() == oracle.restricted_minimize(row[None]).tobytes()
                assert gelsd_rows == [1] * is_deficient
        assert stacked == deficient_count

    def test_gram_matrix_built_on_first_restricted_solve(self):
        """Building a problem and running its oracle queries make no A^T A; the
        first restricted solve does."""
        prob = build_problem(ExperimentConfig(m=8, n=11, instance_seed=3, lam=0.3))
        oracle = prob.smooth
        x = np.linspace(-1.0, 1.0, 11)
        oracle.eval(x)
        oracle.full_grad(x)
        oracle.coord_grad_shifted(x, 2, 0.5, oracle.make_cache(x))
        oracle.spectral_lipschitz()
        assert "_gram" not in vars(oracle)
        oracle.restricted_minimize(np.array([[0, 3]]))
        assert "_gram" in vars(oracle)

    def test_logistic_stack_equals_row_by_row(self):
        oracle = random_logistic(12, 6, 7)
        for cols in _support_stacks(6):
            Z = oracle.restricted_minimize(cols)
            for z, row in zip(Z, cols):
                assert z.tobytes() == oracle.restricted_minimize(row[None]).tobytes()

    def test_singular_newton_system_in_a_stack_names_its_support(self):
        # columns 0 and 1 are equal, so with nu below the rounding of H the
        # Newton system of {0, 1} is exactly singular while {0, 2} and {1, 2} are not
        rng = np.random.default_rng(0)
        data = rng.uniform(-1.0, 1.0, (5, 3))
        data[:, 1] = data[:, 0]
        oracle = LogisticL2Objective(data, (rng.random(5) < 0.5).astype(float), 1e-300)
        assert oracle.restricted_minimize(np.array([[0, 2], [1, 2]])).shape == (2, 3)
        with pytest.raises(np.linalg.LinAlgError, match=r"on support \[0, 1\] is singular"):
            oracle.restricted_minimize(np.array([[0, 2], [0, 1], [1, 2]]))

    def test_svd_failure_raises_numpy_error(self):
        """A NaN in the matrix makes gelsd fail; the stacked call raises the
        LinAlgError that np.linalg.lstsq raises, with its message."""
        A = np.arange(12.0).reshape(3, 4)
        A[1, 2] = np.nan
        oracle = LeastSquaresObjective(A, np.ones(3))
        message = "SVD did not converge in Linear Least Squares"
        with pytest.raises(np.linalg.LinAlgError, match=message):
            np.linalg.lstsq(A[:, [1, 2]], oracle.b, rcond=1e-10)
        with pytest.raises(np.linalg.LinAlgError, match=message):
            oracle.restricted_minimize(np.array([[0, 1], [1, 2]]))
        prob = L0Problem(oracle, BlockPartition.scalar(np.ones(4), np.ones(4), 4.0))
        with pytest.raises(np.linalg.LinAlgError, match=message):
            restricted_minimize(prob, {2})

    def test_gelsd_binding_signature(self):
        """The private gufunc behind np.linalg.lstsq keeps the layout the stacked
        solve relies on."""
        assert _gelsd.signature == "(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)"
        assert "ddd->ddid" in _gelsd.types

    def test_gesv_binding_fills_a_singular_row_with_nan(self):
        """The private gufunc behind np.linalg.solve solves each row of a stack on
        its own and marks a singular row with NaN instead of raising."""
        assert _gesv.signature == "(m,m),(m)->(m)"
        assert "dd->d" in _gesv.types
        stack = np.array([[[2.0, 0.0], [0.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]]])
        with np.errstate(invalid="ignore"):
            out = _gesv(stack, np.array([[2.0, 2.0], [1.0, 1.0]]), signature="dd->d")
        assert out[0].tolist() == [1.0, 0.5]
        assert np.isnan(out[1]).all()


class TestLoaders:
    def test_matrix_roundtrip(self, tmp_path):
        A = np.array([[1.5, -2.0], [0.25, 3.0], [0.0, 1.0]])
        path = tmp_path / "A.csv"
        np.savetxt(path, A, delimiter=",")
        np.testing.assert_allclose(load_matrix_csv(path), A)

    def test_single_row_matrix(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text("1.0,2.0,3.0\n")
        assert load_matrix_csv(path).shape == (1, 3)

    def test_vector_roundtrip(self, tmp_path):
        b = np.array([0.5, -1.0, 2.0])
        path = tmp_path / "b.csv"
        np.savetxt(path, b, delimiter=",")
        np.testing.assert_allclose(load_vector_csv(path), b)

    def test_labels_validated(self, tmp_path):
        path = tmp_path / "y.csv"
        np.savetxt(path, np.array([0.0, 1.0, 0.5]), delimiter=",")
        with pytest.raises(ValueError):
            load_labels_csv(path)
