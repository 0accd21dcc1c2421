import itertools
import math

import numpy as np
import pytest

from l0rcd import (
    ApproxSpec,
    LeastSquaresObjective,
    LogisticL2Objective,
    resolve,
    separable_from_factor,
    threshold_e,
    threshold_q,
)
from l0rcd.approx import M_EQ_LIPSCHITZ_FACTOR, _solve_1d
from l0rcd.core import BlockPartition

from test_objectives import random_logistic


def brute_force_threshold_q(x_i, grad_i, M_i, lambda_i):
    """Reference thresholding: enumerate all keep/zero patterns of the block.

    Minimizes the separable quadratic model plus the component-count penalty
    over every subset of coordinates kept at the gradient-step candidate,
    preferring sparser patterns on ties.
    """
    x_i = np.asarray(x_i, dtype=float)
    t = x_i - np.asarray(grad_i, dtype=float) / M_i
    n_i = x_i.size
    best = None
    for pattern in itertools.product([0, 1], repeat=n_i):
        y = np.where(pattern, t, 0.0)
        model = float(
            grad_i @ (y - x_i) + 0.5 * M_i * np.sum((y - x_i) ** 2)
        ) + lambda_i * int(np.count_nonzero(y))
        nnz = int(np.count_nonzero(y))
        key = (model, nnz)
        if best is None or key < best[0]:
            best = (key, y)
    return best[1]


class TestDeltaQ:
    """The quadratic progress value Delta = (M/2) t^2, read off threshold_q's decision."""

    def test_hand_value(self):
        # f = 1/2 (x-3)^2 at x=0: grad -3, M=2 -> candidate 1.5, Delta 2.25
        below = np.nextafter(2.25, 0.0)
        np.testing.assert_array_equal(threshold_q(np.zeros(1), [-3.0], 2.0, below), [1.5])
        np.testing.assert_array_equal(threshold_q(np.zeros(1), [-3.0], 2.0, 2.25), [0.0])

    def test_zero_candidate(self):
        # candidate lands exactly at zero -> no forfeited progress
        np.testing.assert_array_equal(threshold_q([1.0], [2.0], 2.0, 5e-324), [0.0])

    def test_nonnegative(self):
        # Delta >= 0: a penalty below zero keeps every candidate
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, g = rng.standard_normal(3), rng.standard_normal(3)
            np.testing.assert_array_equal(threshold_q(x, g, 1.7, -1e-300), x - g / 1.7)


class TestThresholdQ:
    def test_keep_branch(self):
        np.testing.assert_allclose(threshold_q([0.0], [-3.0], 2.0, 1.0), [1.5])

    def test_zero_branch(self):
        np.testing.assert_allclose(threshold_q([0.0], [-3.0], 2.0, 3.0), [0.0])

    def test_tie_resolves_to_zero(self):
        np.testing.assert_allclose(threshold_q([0.0], [-3.0], 2.0, 2.25), [0.0])

    def test_zero_lambda_is_plain_step(self):
        rng = np.random.default_rng(1)
        x, g = rng.standard_normal(4), rng.standard_normal(4)
        np.testing.assert_allclose(threshold_q(x, g, 2.0, 0.0), x - g / 2.0)

    def test_matches_pattern_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n_i = int(rng.integers(1, 5))
            x = rng.standard_normal(n_i) * (rng.random(n_i) < 0.7)
            g = rng.standard_normal(n_i) * 2
            M = float(rng.uniform(0.5, 3.0))
            lam = float(rng.uniform(0.0, 1.5))
            got = threshold_q(x, g, M, lam)
            ref = brute_force_threshold_q(x, g, M, lam)
            np.testing.assert_array_equal(got, ref)

    def test_zeros_are_exact(self):
        out = threshold_q([0.2], [0.1], 1.0, 5.0)
        assert out[0] == 0.0

    def test_per_coordinate_lambda(self):
        """A penalty per coordinate acts as one scalar call per coordinate."""
        rng = np.random.default_rng(20)
        for _ in range(100):
            x, g = rng.standard_normal(4), rng.standard_normal(4)
            M = rng.uniform(0.5, 3.0, 4)
            lam = rng.uniform(0.0, 1.5, 4) * (rng.random(4) < 0.7)
            expect = [threshold_q(x[j : j + 1], g[j : j + 1], M[j], lam[j])[0] for j in range(4)]
            np.testing.assert_array_equal(threshold_q(x, g, M, lam), expect)

    def test_zero_lambda_keeps_zero_step_sign(self):
        # Delta = 0 there, yet a lambda = 0 coordinate takes the plain step
        out = threshold_q([-0.0, -0.0], [0.0, 0.0], 1.0, [0.0, 1.0])
        assert np.signbit(out[0]) and out[1] == 0.0 and not np.signbit(out[1])

    def test_magnitude_bound(self):
        """Survivors satisfy |t_j|^2 >= 2 lambda / M."""
        rng = np.random.default_rng(3)
        for _ in range(500):
            M = float(rng.uniform(0.5, 3.0))
            lam = float(rng.uniform(0.1, 2.0))
            out = threshold_q(rng.standard_normal(3), rng.standard_normal(3), M, lam)
            nz = out[out != 0.0]
            assert np.all(nz**2 >= 2.0 * lam / M - 1e-12)


class TestThresholdDiagQ:
    """threshold_q with one curvature per coordinate (the diagonal model)."""

    def test_hand_values(self):
        # curvature 4: candidate 0.75, Delta 1.125
        np.testing.assert_allclose(threshold_q([0.0], [-3.0], [4.0], 1.0), [0.75])
        np.testing.assert_allclose(threshold_q([0.0], [-3.0], [4.0], 1.2), [0.0])

    def test_reduces_to_scalar_curvature(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x, g = rng.standard_normal(3), rng.standard_normal(3)
            M = float(rng.uniform(0.5, 2.0))
            lam = float(rng.uniform(0.0, 1.0))
            np.testing.assert_array_equal(
                threshold_q(x, g, np.full(3, M), lam), threshold_q(x, g, M, lam)
            )


def single_column_ls():
    # f = 1/2 (x - 2)^2
    return LeastSquaresObjective(np.array([[1.0]]), np.array([2.0]))


class GradCallLog:
    """Forwards to an oracle and records the h of every query that returns g':
    ``coord_grad_shifted`` and ``coord_grad_curvature_shifted``."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.hs = []

    def __getattr__(self, name):
        return getattr(self.oracle, name)

    def coord_grad_shifted(self, x, j, h, cache):
        self.hs.append(h)
        return self.oracle.coord_grad_shifted(x, j, h, cache)

    def coord_grad_curvature_shifted(self, x, j, h, cache):
        self.hs.append(h)
        return self.oracle.coord_grad_curvature_shifted(x, j, h, cache)


class ConstantSlope:
    """An oracle whose coordinate derivative is 1 everywhere: no root to bracket."""

    dim = 1

    def coord_grad_shifted(self, x, j, h, cache):
        return 1.0

    def coord_curvature_shifted(self, x, j, h, cache):
        return 0.0

    def coord_grad_curvature_shifted(self, x, j, h, cache):
        return 1.0, 0.0


def exact_inner_min(oracle, x, j, beta, cache):
    """(h*, g(h*)) for g(h) = f(x + h e_j) + (beta/2) h^2, h* from safeguarded Newton."""
    h = _solve_1d(oracle, x, j, beta, cache)
    return h, oracle.value_shifted(x, j, h, cache) + 0.5 * beta * h * h


class TestExactInnerMin:
    def test_closed_form_value(self):
        f = single_column_ls()
        h, v = exact_inner_min(f, np.zeros(1), 0, 1e-4, f.make_cache(np.zeros(1)))
        assert h == pytest.approx(2.0 / 1.0001, rel=1e-12)
        assert v == pytest.approx(0.5 * (h - 2.0) ** 2 + 0.5e-4 * h * h, rel=1e-12)

    def test_stationary_start(self):
        f = single_column_ls()
        x = np.array([2.0])
        h, _ = exact_inner_min(f, x, 0, 0.5, f.make_cache(x))
        assert h == 0.0

    def test_newton_matches_closed_form(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(-1, 1, (6, 4))
        f = LeastSquaresObjective(A, rng.uniform(-1, 1, 6))
        col_sq = f.coord_curvature()
        for _ in range(50):
            x = rng.standard_normal(4)
            j = int(rng.integers(4))
            beta = float(rng.uniform(1e-4, 1.0))
            cache = f.make_cache(x)
            h_newton, v_newton = exact_inner_min(f, x, j, beta, cache)
            # the restriction is quadratic: h* = -A_j^T r / (||A_j||^2 + beta)
            h_closed = -float(A[:, j] @ cache) / (col_sq[j] + beta)
            v_closed = f.value_shifted(x, j, h_closed, cache) + 0.5 * beta * h_closed**2
            assert h_newton == pytest.approx(h_closed, rel=1e-8, abs=1e-10)
            assert v_newton == pytest.approx(v_closed, rel=1e-10, abs=1e-12)

    def test_logistic_first_order_optimality(self):
        oracle = random_logistic(10, 5, seed=6)
        rng = np.random.default_rng(7)
        for _ in range(30):
            x = rng.standard_normal(5) * 3
            j = int(rng.integers(5))
            beta = float(rng.uniform(1e-4, 1.0))
            cache = oracle.make_cache(x)
            h, _ = exact_inner_min(oracle, x, j, beta, cache)
            resid = oracle.coord_grad_shifted(x, j, h, cache) + beta * h
            assert abs(resid) <= 1e-8 * (1 + abs(oracle.coord_grad_shifted(x, j, 0.0, cache)))

    def test_newton_evaluates_each_point_once_on_the_root_side(self):
        """g' is taken once per point, and never where it has the sign of g'(0).

        g' is increasing, so the root lies on the side of 0 opposite to the
        sign of g'(0); the bracket and the Newton iterates stay there.
        """
        oracle = random_logistic(10, 5, seed=6)
        rng = np.random.default_rng(9)
        grown = 0
        for _ in range(40):
            x = rng.standard_normal(5) * 3
            j = int(rng.integers(5))
            beta = float(rng.uniform(1e-4, 1.0))
            cache = oracle.make_cache(x)
            log = GradCallLog(oracle)
            exact_inner_min(log, x, j, beta, cache)
            g0 = oracle.coord_grad_shifted(x, j, 0.0, cache)
            assert log.hs[0] == 0.0
            assert len(set(log.hs)) == len(log.hs)
            assert all(h * g0 < 0.0 for h in log.hs[1:])
            grown += any(abs(h) == 2.0 for h in log.hs)
        assert grown > 0  # some solves had to grow the bracket

    def test_unbracketable_root_raises(self):
        # the root of 1 + beta h lies at -1e308, past the last finite doubling 2^1023
        with pytest.raises(RuntimeError, match="could not bracket.*negative side.*2\\^1023"):
            exact_inner_min(ConstantSlope(), np.zeros(1), 0, 1e-308, np.zeros(1))

    def test_root_beyond_2_to_the_200_is_bracketed(self):
        """At x_0 = 1e61 the root lies near h = -1e61, past 2^200 doublings of 1."""
        oracle = random_logistic(10, 5, seed=6)
        x = np.array([1e61, 0.0, 1.0, 0.0, -2.0])
        cache = oracle.make_cache(x)
        h, _ = exact_inner_min(oracle, x, 0, 1e-4, cache)
        assert h < -2.0**200
        g0 = oracle.coord_grad_shifted(x, 0, 0.0, cache)
        resid = oracle.coord_grad_shifted(x, 0, h, cache) + 1e-4 * h
        assert abs(resid) <= 1e-10 * (1 + abs(g0))

    def test_newton_iteration_limit_raises(self):
        oracle = random_logistic(10, 5, seed=6)
        x = np.array([3.0, -2.0, 1.0, 0.5, -4.0])
        with pytest.raises(RuntimeError, match="did not converge in 1 iterations"):
            _solve_1d(oracle, x, 0, 0.01, oracle.make_cache(x), max_iters=1)

    def test_logistic_beats_grid(self):
        oracle = random_logistic(8, 3, seed=8)
        x = np.array([1.0, -2.0, 0.5])
        cache = oracle.make_cache(x)
        h, v = exact_inner_min(oracle, x, 1, 0.01, cache)
        grid = np.linspace(h - 2.0, h + 2.0, 4001)
        vals = [
            oracle.value_shifted(x, 1, float(g), cache) + 0.005 * g * g for g in grid
        ]
        assert v <= min(vals) + 1e-9

    def test_beta_validation(self):
        f = single_column_ls()
        for beta in (0.0, -1.0):
            with pytest.raises(ValueError, match="beta must be positive"):
                threshold_e(f, np.zeros(1), 0, beta, 0.1, f.make_cache(np.zeros(1)))


def exact_progress(oracle, x, j, beta, cache):
    """(h*, Delta) of the exact model at coordinate j, as threshold_e defines them."""
    h, keep = exact_inner_min(oracle, x, j, beta, cache)
    zero = oracle.value_shifted(x, j, -x[j], cache) + 0.5 * beta * x[j] ** 2
    return h, zero - keep


class TestDeltaE:
    """The exact progress value, read off threshold_e's decision."""

    def test_hand_value(self):
        # zeroing forfeits 2/(1+beta) of model decrease at x=0
        f = single_column_ls()
        delta = 2.0 / 1.0001
        cache = f.make_cache(np.zeros(1))
        assert threshold_e(f, np.zeros(1), 0, 1e-4, delta * (1 - 1e-9), cache) != 0.0
        assert threshold_e(f, np.zeros(1), 0, 1e-4, delta * (1 + 1e-9), cache) == 0.0

    def test_generic_route_matches_fast_path(self):
        """On least squares, threshold_e (Newton, Delta as a difference of
        two f values) and the exact spec's closed-form step through
        the resolved model's map agree bit for bit away from the boundary Delta = lambda."""
        rng = np.random.default_rng(9)
        A = rng.uniform(-1, 1, (5, 3))
        f = LeastSquaresObjective(A, rng.uniform(-1, 1, 5))
        compared = 0
        for _ in range(200):
            x = rng.standard_normal(3) * (rng.random(3) < 0.7)
            beta = rng.uniform(1e-4, 1.0, 3)
            lam = rng.uniform(0.0, 1.0, 3) * (rng.random(3) < 0.8)
            lam[rng.integers(3)] = rng.uniform(0.05, 1.0)  # a partition needs one
            p = BlockPartition.scalar(lam, f.column_lipschitz())
            tmap = resolve(ApproxSpec("ue", beta), f, p).map
            cache = f.make_cache(x)
            for j in range(3):
                _, delta = exact_progress(f, x, j, beta[j], cache)
                if abs(delta - lam[j]) <= 1e-9:
                    continue
                compared += 1
                sl = slice(j, j + 1)
                assert (
                    tmap(x, sl, f.block_grad(x, sl, cache), cache).tobytes()
                    == np.array([threshold_e(f, x, j, beta[j], lam[j], cache)]).tobytes()
                )
        assert compared > 500

    def test_nonnegative(self):
        # Delta >= -1e-12: a penalty of -1e-12 keeps the inner minimizer
        oracle = random_logistic(8, 4, seed=10)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal(4) * (rng.random(4) < 0.6)
            j = int(rng.integers(4))
            cache = oracle.make_cache(x)
            h, _ = exact_inner_min(oracle, x, j, 0.05, cache)
            assert threshold_e(oracle, x, j, 0.05, -1e-12, cache) == x[j] + h

    def test_least_squares_coincides_with_quadratic_model(self):
        """For least squares the 1-D restriction is exactly quadratic with
        curvature ||A_j||^2, so the exact model at beta equals the separable
        quadratic model at M = ||A_j||^2 + beta, progress values included."""
        rng = np.random.default_rng(12)
        A = rng.uniform(-1, 1, (6, 4))
        f = LeastSquaresObjective(A, rng.uniform(-1, 1, 6))
        col_sq = f.column_lipschitz()
        for _ in range(100):
            x = rng.standard_normal(4) * (rng.random(4) < 0.6)
            j = int(rng.integers(4))
            beta = float(rng.uniform(1e-4, 1.0))
            lam = float(rng.uniform(0.0, 1.0))
            cache = f.make_cache(x)
            grad_j = f.coord_grad_shifted(x, j, 0.0, cache)
            M = col_sq[j] + beta
            t = x[j] - grad_j / M
            _, delta = exact_progress(f, x, j, beta, cache)
            assert delta == pytest.approx(0.5 * M * t * t, rel=1e-10, abs=1e-12)
            assert threshold_e(f, x, j, beta, lam, cache) == pytest.approx(
                float(threshold_q(x[j : j + 1], [grad_j], M, lam)[0]),
                rel=1e-10,
                abs=1e-12,
            )


class TestThresholdE:
    def test_keep_branch(self):
        f = single_column_ls()
        cache = f.make_cache(np.zeros(1))
        assert threshold_e(f, np.zeros(1), 0, 1e-4, 1.0, cache) == pytest.approx(
            2.0 / 1.0001, rel=1e-12
        )

    def test_zero_branch(self):
        f = single_column_ls()
        assert threshold_e(f, np.zeros(1), 0, 1e-4, 3.0, f.make_cache(np.zeros(1))) == 0.0

    def test_zero_lambda_is_proximal_step(self):
        f = single_column_ls()
        x = np.array([0.5])
        cache = f.make_cache(x)
        h, _ = exact_inner_min(f, x, 0, 0.2, cache)
        assert threshold_e(f, x, 0, 0.2, 0.0, cache) == pytest.approx(0.5 + h)

    def test_two_candidate_oracle(self):
        """Output always matches the better of {inner minimizer, exact zero}
        under model value + penalty, ties to zero."""
        oracle = random_logistic(9, 4, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(100):
            x = rng.standard_normal(4) * (rng.random(4) < 0.6)
            j = int(rng.integers(4))
            beta = float(rng.uniform(1e-3, 0.5))
            lam = float(rng.uniform(0.0, 0.7))
            cache = oracle.make_cache(x)
            h, keep_val = exact_inner_min(oracle, x, j, beta, cache)
            zero_val = (
                oracle.value_shifted(x, j, -x[j], cache) + 0.5 * beta * x[j] ** 2
            )
            keep_pen = lam if x[j] + h != 0.0 else 0.0
            expect = x[j] + h if keep_val + keep_pen < zero_val else 0.0
            assert threshold_e(oracle, x, j, beta, lam, cache) == pytest.approx(
                expect, abs=1e-12
            )

    def test_huge_beta_on_logistic_warns_nothing(self):
        """beta = 1e300 at x_j = 2.0: beta x_j^2 overflows to inf on Python
        floats, with no RuntimeWarning (the suite makes one an error), and
        the shifted queries answer in Python floats."""
        oracle = random_logistic(9, 4, seed=21)
        x = np.array([2.0, 0.5, -1.0, 0.0])
        cache = oracle.make_cache(x)
        assert threshold_e(oracle, x, 0, 1e300, 0.1, cache) == 2.0
        for h in (0.0, 0.5, -2.0):
            answers = [
                oracle.coord_grad_shifted(x, 0, h, cache),
                oracle.coord_curvature_shifted(x, 0, h, cache),
                *oracle.coord_grad_curvature_shifted(x, 0, h, cache),
                oracle.value_shifted(x, 0, h, cache),
            ]
            assert all(type(v) is float for v in answers), answers


def threshold_e_reference(oracle, x, j, beta, lam, cache):
    """The exact map without curvature bounds: Newton, both values, ties to zero."""
    h = _solve_1d(oracle, x, j, beta, cache)
    keep = oracle.value_shifted(x, j, h, cache) + 0.5 * beta * h * h
    zero = oracle.value_shifted(x, j, -x[j], cache) + 0.5 * beta * x[j] * x[j]
    return float(x[j] + h) if zero - keep > lam else 0.0


def progress_bounds(oracle, x, j, beta, lo, hi, cache):
    """d^2/(2 lo) and d^2/(2 hi) with d = g'(-x_j): the bounds on Delta."""
    d = oracle.coord_grad_shifted(x, j, -x[j], cache) - beta * x[j]
    return 0.5 * d * d / lo, 0.5 * d * d / hi


def local_bound(oracle, x, j, beta, lo, cache):
    """d^2/(2 (c + beta)), c the curvature floor within |d|/lo of -x_j: the local bound on Delta."""
    d = oracle.coord_grad_shifted(x, j, -x[j], cache) - beta * x[j]
    c = oracle.coord_curvature_floor_near(x, j, -x[j], abs(d) / lo, cache)
    return 0.5 * d * d / (c + beta)


SHIFTED_QUERIES = ("coord_grad_shifted", "coord_curvature_shifted", "coord_grad_curvature_shifted")


class QueryLog:
    """Forwards to an oracle and counts the calls of each shifted query."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.calls = dict.fromkeys(
            SHIFTED_QUERIES + ("value_shifted", "coord_curvature_floor_near"), 0
        )

    def __getattr__(self, name):
        method = getattr(self.oracle, name)
        if name not in self.calls:
            return method

        def counted(*args):
            self.calls[name] += 1
            return method(*args)

        return counted

    def shifted(self):
        return sum(self.calls[q] for q in SHIFTED_QUERIES)


class WithoutFloor:
    """Forwards to an oracle but hides its optional ``coord_curvature_floor``."""

    def __init__(self, oracle):
        self.oracle = oracle

    def __getattr__(self, name):
        if name == "coord_curvature_floor":
            raise AttributeError(name)
        return getattr(self.oracle, name)


class TestCertifiedThresholdE:
    """threshold_e decides from the curvature bounds where they decide, with the
    bits of the map that always computes Delta."""

    def test_certified_map_keeps_the_bits(self):
        rng = np.random.default_rng(31)
        fired = {"null": 0, "near": 0, "keep": 0, "neither": 0}
        x_j_zero = 0
        draws = 2100
        for draw in range(draws):
            m, n = int(rng.integers(4, 25)), int(rng.integers(2, 7))
            data = rng.uniform(-1, 1, (m, n))
            beta = float(10.0 ** rng.uniform(-4, 0))
            if draw % 3:
                nu = float(10.0 ** rng.uniform(-3, 0))
                oracle = LogisticL2Objective(data, (rng.random(m) < 0.5).astype(float), nu)
                p = BlockPartition.scalar(np.full(n, 0.1), oracle.column_lipschitz())
                model = resolve(ApproxSpec("ue", np.full(p.num_blocks, beta)), oracle, p)
                lo, hi = model.lo, model.hi
                near = oracle.coord_curvature_floor_near
            else:
                # g'' is the constant ||A_j||^2 + beta: both bounds are tight, so
                # Delta is exactly d^2/(2 lo) and only the margin separates the two
                oracle = LeastSquaresObjective(data, rng.uniform(-1, 1, m))
                lo = hi = oracle.coord_curvature() + beta
                near = None
            x = rng.standard_normal(n) * (rng.random(n) < 0.5) * 10.0 ** rng.uniform(-1, 1)
            j = int(rng.integers(n))
            x_j_zero += x[j] == 0.0
            cache = oracle.make_cache(x)
            b_lo, b_hi = progress_bounds(oracle, x, j, beta, lo[j], hi[j], cache)
            lams = [0.0]
            lams += [b * f for b in (b_lo, b_hi) for f in (1.0 - 1e-12, 1.0 + 1e-12)]
            lams += [b_hi * 10.0 ** rng.uniform(-3, 0), b_lo * 10.0 ** rng.uniform(0, 3)]
            b_near = b_lo
            if near is not None:
                b_near = local_bound(oracle, x, j, beta, lo[j], cache)
                lams += [b_near * (1.0 - 1e-12), b_near * (1.0 + 1e-12)]
            for lam in lams:
                out = threshold_e(oracle, x, j, beta, lam, cache, lo[j], hi[j], near)
                ref = threshold_e_reference(oracle, x, j, beta, lam, cache)
                assert np.float64(out).tobytes() == np.float64(ref).tobytes(), (draw, lam)
                if b_lo <= lam * (1.0 - 1e-9):
                    fired["null"] += 1
                elif b_hi > lam * (1.0 + 1e-9):
                    fired["keep"] += 1
                elif b_near <= lam * (1.0 - 1e-9):
                    fired["near"] += 1
                else:
                    fired["neither"] += 1
        assert min(fired.values()) >= 100, fired
        assert 100 <= x_j_zero <= draws - 100

    def test_null_certified_step_makes_one_query(self):
        oracle = random_logistic(12, 5, seed=33)
        p = BlockPartition.scalar(np.full(5, 0.1), oracle.column_lipschitz())
        model = resolve(ApproxSpec("ue", np.full(p.num_blocks, 0.01)), oracle, p)
        lo, hi = model.lo, model.hi
        x = np.array([0.0, 0.7, 0.0, -1.2, 0.3])
        cache = oracle.make_cache(x)
        for j in range(5):
            b_lo, _ = progress_bounds(oracle, x, j, 0.01, lo[j], hi[j], cache)
            log = QueryLog(oracle)
            assert threshold_e(log, x, j, 0.01, 2.0 * b_lo, cache, lo[j], hi[j]) == 0.0
            assert log.shifted() == 1
            assert log.calls["value_shifted"] == 0

    def test_keep_certified_step_makes_no_value_query(self):
        """Two value queries only where no bound decides: lambda between the
        local bound and d^2/(2 hi), above which the local floor proves null."""
        oracle = random_logistic(12, 5, seed=34)
        p = BlockPartition.scalar(np.full(5, 0.1), oracle.column_lipschitz())
        model = resolve(ApproxSpec("ue", np.full(p.num_blocks, 0.01)), oracle, p)
        lo, hi = model.lo, model.hi
        x = np.array([0.0, 0.7, 0.0, -1.2, 0.3])
        cache = oracle.make_cache(x)
        for j in range(5):
            b_lo, b_hi = progress_bounds(oracle, x, j, 0.01, lo[j], hi[j], cache)
            b_near = local_bound(oracle, x, j, 0.01, lo[j], cache)
            assert b_hi * (1.0 + 1e-6) < b_near < b_lo * (1.0 - 1e-6)
            for lam, values in ((0.5 * b_hi, 0), ((b_near * b_hi) ** 0.5, 2)):
                log = QueryLog(oracle)
                out = threshold_e(
                    log, x, j, 0.01, lam, cache, lo[j], hi[j], log.coord_curvature_floor_near
                )
                assert log.calls["value_shifted"] == values
                ref = threshold_e_reference(oracle, x, j, 0.01, lam, cache)
                assert np.float64(out).tobytes() == np.float64(ref).tobytes()
                assert out != 0.0 or values == 2  # a keep-certified step keeps

    @pytest.mark.parametrize("j", [0, 3], ids=["x_j=0", "x_j=-1.2"])
    def test_near_certified_null_step_makes_no_newton_point(self, j):
        """Where the local floor proves the step null and the global floor does
        not, the step makes the one query for d, one floor query, no Newton
        point and no value query."""
        oracle = random_logistic(12, 5, seed=33)
        p = BlockPartition.scalar(np.full(5, 0.1), oracle.column_lipschitz())
        model = resolve(ApproxSpec("ue", np.full(p.num_blocks, 0.01)), oracle, p)
        lo, hi = model.lo, model.hi
        x = np.array([0.0, 0.7, 0.0, -1.2, 0.3])
        cache = oracle.make_cache(x)
        b_lo, _ = progress_bounds(oracle, x, j, 0.01, lo[j], hi[j], cache)
        b_near = local_bound(oracle, x, j, 0.01, lo[j], cache)
        assert b_near < b_lo * (1.0 - 1e-6)
        lam = (b_near * b_lo) ** 0.5
        log = QueryLog(oracle)
        asked = []

        def near(x, j, h, radius, cache):
            asked.append((h, radius))
            return log.coord_curvature_floor_near(x, j, h, radius, cache)

        out = threshold_e(log, x, j, 0.01, lam, cache, lo[j], hi[j], near)
        assert np.float64(out).tobytes() == np.float64(0.0).tobytes()
        assert threshold_e_reference(oracle, x, j, 0.01, lam, cache) == 0.0
        assert log.shifted() == 1
        assert log.calls["coord_curvature_floor_near"] == 1
        assert log.calls["value_shifted"] == 0
        # the floor is asked about the interval of radius |d|/lo around -x_j,
        # which holds the inner minimizer h*
        d = oracle.coord_grad_shifted(x, j, -x[j], cache) - 0.01 * x[j]
        assert asked == [(-x[j], abs(d) / lo[j])]
        assert abs(_solve_1d(oracle, x, j, 0.01, cache) + x[j]) <= abs(d) / lo[j]

    def test_resolve_passes_the_floor_near_to_the_map(self):
        """The resolved model's float threshold takes the oracle's local floor."""
        oracle = random_logistic(12, 5, seed=33)
        x = np.array([0.0, 0.7, 0.0, -1.2, 0.3])
        cache = oracle.make_cache(x)
        lo = 0.01 + oracle.nu  # Model.lo: beta plus the curvature floor nu
        b_lo = progress_bounds(oracle, x, 0, 0.01, lo, math.inf, cache)[0]
        lam = (local_bound(oracle, x, 0, 0.01, lo, cache) * b_lo) ** 0.5
        p = BlockPartition.scalar(np.full(5, lam), oracle.column_lipschitz())
        log = QueryLog(oracle)
        model = resolve(ApproxSpec("ue", np.full(p.num_blocks, 0.01)), log, p)
        assert model.lo[0] == lo
        assert model.threshold(x, 0, 0.0, cache) == 0.0
        assert log.calls["coord_curvature_floor_near"] == 1
        assert log.shifted() == 1 and log.calls["value_shifted"] == 0

    def test_bounds_from_the_oracle_and_the_partition(self):
        oracle = random_logistic(12, 3, seed=35, nu=0.05)
        p = BlockPartition.scalar(np.full(3, 0.1), oracle.column_lipschitz())
        spec = ApproxSpec("ue", [0.01, 0.02, 0.03])
        model = resolve(spec, oracle, p)
        assert model.curvature is None
        np.testing.assert_array_equal(model.lo, np.array(spec.params) + 0.05)
        np.testing.assert_array_equal(model.hi, spec.curvature_bound(p))
        # no curvature floor: f is convex, so beta alone bounds g'' from below
        np.testing.assert_array_equal(resolve(spec, WithoutFloor(oracle), p).lo, spec.params)


class TestUpperModelOrdering:
    def test_exact_model_below_quadratic(self):
        """u_e(y) <= u_q(y) pointwise whenever beta <= M - L_j."""
        oracle = random_logistic(10, 4, seed=15)
        L = oracle.column_lipschitz()
        rng = np.random.default_rng(16)
        for _ in range(200):
            x = rng.standard_normal(4)
            j = int(rng.integers(4))
            M = L[j] * float(rng.uniform(1.1, 2.0))
            beta = float(rng.uniform(1e-4, M - L[j]))
            h = float(rng.standard_normal())
            cache = oracle.make_cache(x)
            u_e = oracle.value_shifted(x, j, h, cache) + 0.5 * beta * h * h
            g = oracle.coord_grad_shifted(x, j, 0.0, cache)
            u_q = oracle.eval(x) + g * h + 0.5 * M * h * h
            assert u_e <= u_q + 1e-10

    def test_quadratic_model_dominates_f(self):
        oracle = random_logistic(10, 4, seed=17)
        L = oracle.column_lipschitz()
        rng = np.random.default_rng(18)
        for _ in range(200):
            x = rng.standard_normal(4)
            j = int(rng.integers(4))
            h = float(rng.standard_normal())
            shifted = x.copy()
            shifted[j] += h
            g = float(oracle.full_grad(x)[j])
            u_q = oracle.eval(x) + g * h + 0.5 * L[j] * h * h
            assert oracle.eval(shifted) <= u_q + 1e-10


class TestApproxSpec:
    def test_kind_param_pairing(self):
        with pytest.raises(ValueError):
            ApproxSpec(kind="mystery", params=(1.0,))
        with pytest.raises(ValueError):
            ApproxSpec("uq", [0.0])
        with pytest.raises(ValueError):
            ApproxSpec("uQ", [1.0, 0.0])

    def test_nonpositive_parameters_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ApproxSpec("uq", [0.0, 1.0])
        with pytest.raises(ValueError):
            ApproxSpec("ue", [-1.0, 1.0])

    def test_non_finite_parameters_rejected(self):
        """NaN passes a bare v <= 0 test, and a NaN M made a uq run zero every coordinate."""
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ApproxSpec("uq", [bad, 1.0])
            with pytest.raises(ValueError):
                ApproxSpec("uQ", [1.0, bad])
            with pytest.raises(ValueError):
                ApproxSpec("ue", [bad])

    def test_mu_and_curvature(self):
        p = BlockPartition.scalar([1.0, 1.0], [2.0, 3.0])
        uq = ApproxSpec("uq", [4.0, 5.0])
        np.testing.assert_allclose(uq.mu(p), [2.0, 2.0])
        np.testing.assert_allclose(uq.curvature_bound(p), [4.0, 5.0])
        ue = ApproxSpec("ue", [0.5, 0.25])
        np.testing.assert_allclose(ue.mu(p), [0.5, 0.25])
        np.testing.assert_allclose(ue.curvature_bound(p), [2.5, 3.25])

    def test_diag_mu_uses_min_curvature(self):
        p = BlockPartition(block_sizes=(2,), lam=(1.0,), lipschitz=(2.0,))
        spec = ApproxSpec("uQ", [3.0, 6.0])
        np.testing.assert_allclose(spec.mu(p), [1.0])
        np.testing.assert_allclose(spec.curvature_bound(p), [6.0])

    def test_diag_mu_and_curvature_are_per_block_min_and_max(self):
        sizes = (3, 3, 2, 4)
        L = (1.0, 0.5, 2.0, 0.25)
        p = BlockPartition(block_sizes=sizes, lam=(1.0,) * 4, lipschitz=L)
        H = np.random.default_rng(8).uniform(3.0, 9.0, size=12)
        spec = ApproxSpec("uQ", H)
        blocks = [H[p.block_slice(i)] for i in range(4)]
        np.testing.assert_array_equal(spec.mu(p), [min(b) - l for b, l in zip(blocks, L)])
        np.testing.assert_array_equal(spec.curvature_bound(p), [max(b) for b in blocks])

    def test_validate_for_solver(self):
        p = BlockPartition.scalar([1.0, 1.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            ApproxSpec("uq", [2.0, 3.0]).validate_for_solver(p)
        with pytest.raises(ValueError):
            ApproxSpec("uq", [4.0]).validate_for_solver(p)
        multi = BlockPartition(block_sizes=(2,), lam=(1.0,), lipschitz=(1.0,))
        with pytest.raises(ValueError):
            ApproxSpec("ue", [0.1]).validate_for_solver(multi)
        ApproxSpec("ue", [0.1, 0.1]).validate_for_solver(p)

    @pytest.mark.parametrize("kind", ["uq", "uQ", "ue"])
    @pytest.mark.parametrize("make", [LeastSquaresObjective, LogisticL2Objective])
    def test_model_constants_have_the_spec_bits(self, kind, make):
        """``resolve`` gives the model the spec's mu (as Python floats) and
        curvature bound, bit for bit, on scalar blocks and on blocks 3,1,2,4."""
        rng = np.random.default_rng(9)
        A = rng.uniform(-1, 1, (7, 10))
        oracle = (
            LeastSquaresObjective(A, rng.uniform(-1, 1, 7)) if make is LeastSquaresObjective
            else LogisticL2Objective(A, (rng.random(7) < 0.5).astype(float), 0.2)
        )
        for sizes in [(1,) * 10, (3, 1, 2, 4)]:
            if kind == "ue" and len(sizes) != 10:
                continue
            L = tuple(oracle.block_lipschitz(sizes))
            p = BlockPartition(block_sizes=sizes, lam=(0.1,) * len(sizes), lipschitz=L)
            if kind == "uq":
                spec = separable_from_factor(p, 1.7)
            elif kind == "uQ":
                spec = ApproxSpec("uQ", np.repeat(L, sizes) * rng.uniform(1.2, 3.0, 10))
            else:
                spec = ApproxSpec("ue", rng.uniform(1e-3, 1.0, 10))
            model = resolve(spec, oracle, p)
            assert all(type(m) is float for m in model.mu)
            assert np.array(model.mu).tobytes() == spec.mu(p).tobytes()
            assert model.curvature_bound.tobytes() == spec.curvature_bound(p).tobytes()

    def test_model_check_is_the_spec_check(self):
        """``Model.validate_for_solver`` raises the spec's strict-curvature error."""
        p = BlockPartition.scalar([1.0, 1.0], [2.0, 3.0])
        oracle = LeastSquaresObjective(np.eye(2), np.zeros(2))
        weak = ApproxSpec("uq", [2.0, 4.0])
        with pytest.raises(ValueError) as from_spec:
            weak.validate_for_solver(p)
        with pytest.raises(ValueError) as from_model:
            resolve(weak, oracle, p).validate_for_solver()
        assert str(from_model.value) == str(from_spec.value)
        resolve(ApproxSpec("uq", [2.5, 4.0]), oracle, p).validate_for_solver()

    def test_lipschitz_mode_is_strict(self):
        p = BlockPartition.scalar([1.0], [2.0])
        spec = separable_from_factor(p, M_EQ_LIPSCHITZ_FACTOR)
        spec.validate_for_solver(p)
        assert spec.params[0] > 2.0
        assert spec.params[0] == pytest.approx(2.0, rel=1e-5)

    def test_factor_helper(self):
        p = BlockPartition.scalar([1.0, 1.0], [2.0, 4.0])
        np.testing.assert_allclose(separable_from_factor(p, 1.5).params, [3.0, 6.0])

    def test_labels(self):
        assert ApproxSpec("uq", [1.0]).kind == "uq"
        assert ApproxSpec("uQ", [1.0]).kind == "uQ"
        assert ApproxSpec("ue", [1.0]).kind == "ue"


class TestThresholdMap:
    """``Model.map``, the thresholding map of a resolved model."""

    def test_dispatch_matches_direct_calls(self):
        rng = np.random.default_rng(19)
        A = rng.uniform(-1, 1, (6, 4))
        oracle = LeastSquaresObjective(A, rng.uniform(-1, 1, 6))
        p = BlockPartition.scalar(
            np.full(4, 0.3), oracle.column_lipschitz(), oracle.spectral_lipschitz()
        )
        x = rng.standard_normal(4)
        cache = oracle.make_cache(x)
        uq = separable_from_factor(p, 1.5)
        tmap = resolve(uq, oracle, p).map
        for i in range(4):
            sl = p.block_slice(i)
            grad = oracle.block_grad(x, sl, cache)
            np.testing.assert_array_equal(
                tmap(x, sl, grad, cache), threshold_q(x[sl], grad, uq.params[i], p.lam[i])
            )
        tmap = resolve(ApproxSpec("ue", np.full(p.num_blocks, 0.01)), oracle, p).map
        for i in range(4):
            sl = p.block_slice(i)
            np.testing.assert_array_equal(
                tmap(x, sl, oracle.block_grad(x, sl, cache), cache),
                np.array([threshold_e(oracle, x, i, 0.01, p.lam[i], cache)]),
            )
        # A stack of rows on a partition with lambda = 0 coordinates, with
        # -0.0 entries and an exact tie Delta = lambda at [0, 0]: t = 0.5,
        # curvature 2 (also for ue: ||e_0||^2 + beta) and lambda = 0.25.
        eye = LeastSquaresObjective(np.eye(4), np.ones(4))
        p0 = BlockPartition.scalar([0.25, 0.0, 0.3, 0.0], eye.column_lipschitz())
        X = np.array([[0.5, -0.0, 1.5, -0.0], [-0.0, 0.25, -1.0, 2.0]])
        G = np.array([[0.0, 0.0, -1.0, -0.0], [1.0, -0.0, 0.5, 0.0]])
        for spec, M in (
            (ApproxSpec("uq", [2.0] * 4), np.full(4, 2.0)),
            (ApproxSpec("uQ", [2.0, 3.0, 4.0, 5.0]), [2.0, 3.0, 4.0, 5.0]),
            (ApproxSpec("ue", np.full(p0.num_blocks, 1.0)), eye.coord_curvature() + 1.0),
        ):
            out = resolve(spec, eye, p0).map(X, slice(0, 4), G, None)
            assert out.tobytes() == threshold_q(X, G, M, p0.coord_lambda()).tobytes(), spec.kind
            assert out[0, 0] == 0.0 and np.signbit(out[0, 1]), spec.kind

    def test_dispatch_on_logistic_exact_is_newton(self):
        oracle = random_logistic(9, 4, seed=21)
        p = BlockPartition.scalar(np.full(4, 0.05), oracle.column_lipschitz())
        x = np.random.default_rng(22).standard_normal(4)
        cache = oracle.make_cache(x)
        tmap = resolve(ApproxSpec("ue", np.full(p.num_blocks, 0.01)), oracle, p).map
        for i in range(4):
            sl = p.block_slice(i)
            assert tmap(x, sl, oracle.block_grad(x, sl, cache), cache).tobytes() == (
                np.array([threshold_e(oracle, x, i, 0.01, p.lam[i], cache)]).tobytes()
            )

    def test_block_dispatch_diag(self):
        oracle = LeastSquaresObjective(np.eye(4), np.ones(4))
        p = BlockPartition(
            block_sizes=(2, 2), lam=(0.2, 0.2), lipschitz=(1.0, 1.0)
        )
        spec = ApproxSpec("uQ", [1.5, 2.0, 2.5, 3.0])
        x = np.array([0.5, -0.5, 0.25, 0.0])
        cache = oracle.make_cache(x)
        grad = oracle.block_grad(x, slice(2, 4), cache)
        got = resolve(spec, oracle, p).map(x, slice(2, 4), grad, cache)
        np.testing.assert_array_equal(
            got, threshold_q(x[2:4], grad, [2.5, 3.0], 0.2)
        )
        # a stack of rows, block by block, on a partition with a lambda = 0 block
        p0 = BlockPartition(block_sizes=(2, 2), lam=(0.25, 0.0), lipschitz=(1.0, 1.0))
        X = np.array([[0.5, -0.0, 0.25, -0.0], [-0.0, 1.0, -0.5, 2.0]])
        G = np.array([[-0.75, 0.0, 1.0, 0.0], [0.5, -0.0, -0.0, 3.0]])
        for spec, M in ((ApproxSpec("uq", [2.0, 3.0]), [2.0, 2.0, 3.0, 3.0]), (spec, spec.params)):
            model = resolve(spec, oracle, p0)
            for i, sl in enumerate((slice(0, 2), slice(2, 4))):
                assert model.map(X, sl, G[:, sl], None).tobytes() == (
                    threshold_q(X[:, sl], G[:, sl], M[sl], p0.lam[i]).tobytes()
                ), spec.kind

    @pytest.mark.parametrize("objective", ["least_squares", "logistic"])
    @pytest.mark.parametrize("sizes", [(1,) * 12, (3, 3, 2, 4)], ids=["scalar", "blocks_3_3_2_4"])
    def test_whole_point_matches_block_by_block(self, objective, sizes):
        """The map of the whole point is the map of each block, bit for bit.

        Both are given the same gradient: a block gradient and the slice of
        the whole gradient may round differently.
        """
        rng = np.random.default_rng(24)
        n = sum(sizes)
        if objective == "least_squares":
            oracle = LeastSquaresObjective(rng.uniform(-1, 1, (8, n)), rng.uniform(-1, 1, 8))
        else:
            oracle = random_logistic(10, n, seed=25)
        lam = rng.uniform(0.05, 0.5, len(sizes))
        lam[1] = 0.0  # a penalty-free block takes the plain gradient step
        L = np.asarray(oracle.block_lipschitz(sizes))
        p = BlockPartition(block_sizes=sizes, lam=tuple(lam), lipschitz=tuple(L))
        specs = [
            separable_from_factor(p, 1.5),
            ApproxSpec("uQ", np.repeat(L, sizes) * rng.uniform(1.2, 3.0, n)),
        ]
        if len(sizes) == n:
            specs.append(ApproxSpec("ue", np.full(p.num_blocks, 1e-3)))
        whole = slice(0, n)
        for spec in specs:
            tmap = resolve(spec, oracle, p).map
            for _ in range(20):
                x = rng.standard_normal(n) * (rng.random(n) < 0.6)
                cache = oracle.make_cache(x)
                g = oracle.block_grad(x, whole, cache)
                out = tmap(x, whole, g, cache)
                for i in range(p.num_blocks):
                    sl = p.block_slice(i)
                    assert out[sl].tobytes() == tmap(x, sl, g[sl], cache).tobytes(), spec.kind

    def test_writes_nothing(self):
        oracle = random_logistic(9, 4, seed=26)
        p = BlockPartition.scalar(np.full(4, 0.05), oracle.column_lipschitz())
        x = np.random.default_rng(27).standard_normal(4)
        cache = oracle.make_cache(x)
        before = (x.tobytes(), cache.tobytes())
        for spec in (separable_from_factor(p, 1.5), ApproxSpec("ue", np.full(p.num_blocks, 0.01))):
            resolve(spec, oracle, p).map(x, slice(0, 4), oracle.full_grad(x), cache)
        assert (x.tobytes(), cache.tobytes()) == before


class TestModelCurvature:
    """The curvature ``resolve`` finds for a model, None where the exact model has none."""

    def test_quadratic_kinds_use_their_own(self):
        p = BlockPartition(block_sizes=(2, 1), lam=(0.1, 0.1), lipschitz=(1.0, 1.0))
        oracle = LeastSquaresObjective(np.eye(3), np.ones(3))
        uq = ApproxSpec("uq", [2.0, 3.0])
        np.testing.assert_array_equal(resolve(uq, oracle, p).curvature, [2.0, 2.0, 3.0])
        uQ = ApproxSpec("uQ", [2.0, 4.0, 3.0])
        np.testing.assert_array_equal(resolve(uQ, oracle, p).curvature, [2.0, 4.0, 3.0])

    def test_exact_on_least_squares_is_column_norm_plus_beta(self):
        A = np.array([[1.0, 2.0], [3.0, 0.5]])
        oracle = LeastSquaresObjective(A, np.ones(2))
        p = BlockPartition.scalar([0.1, 0.1], oracle.column_lipschitz())
        spec = ApproxSpec("ue", [0.25, 0.5])
        np.testing.assert_array_equal(resolve(spec, oracle, p).curvature, [10.25, 4.75])

    def test_exact_without_fixed_curvature_is_none(self):
        oracle = random_logistic(6, 2, seed=23)
        p = BlockPartition.scalar([0.1, 0.1], oracle.column_lipschitz())
        assert resolve(ApproxSpec("ue", [0.1, 0.1]), oracle, p).curvature is None


class TestProvesInside:
    """The inclusions of classes the models prove, on one partition."""

    def test_quadratic_classes_nest_by_curvature(self):
        p = BlockPartition(block_sizes=(2, 1), lam=(0.1, 0.1), lipschitz=(1.0, 1.0))
        oracle = LeastSquaresObjective(np.eye(3), np.ones(3))
        uq = resolve(ApproxSpec("uq", [2.0, 3.0]), oracle, p)  # curvature 2, 2, 3
        same = resolve(ApproxSpec("uQ", [2.0, 2.0, 3.0]), oracle, p)
        above = resolve(ApproxSpec("uQ", [2.0, 4.0, 3.0]), oracle, p)
        mixed = resolve(ApproxSpec("uQ", [1.5, 4.0, 3.0]), oracle, p)
        assert uq.proves_inside(same) and same.proves_inside(uq)
        assert uq.proves_inside(above) and not above.proves_inside(uq)
        assert not uq.proves_inside(mixed) and not mixed.proves_inside(uq)

    @pytest.mark.parametrize("objective", ["ls", "logistic"])
    def test_exact_class_lies_below_a_quadratic_one_at_L_plus_beta(self, objective):
        """ue[beta] lies in uq[M] where M_j >= L_j + beta_j, on either objective;
        no class is proved to lie in an exact one."""
        if objective == "ls":
            oracle = LeastSquaresObjective(np.array([[1.0, 2.0], [3.0, 0.5]]), np.ones(2))
        else:
            oracle = random_logistic(6, 2, seed=23)
        p = BlockPartition.scalar([0.1, 0.1], oracle.column_lipschitz())
        L = np.asarray(p.lipschitz)
        ue = resolve(ApproxSpec("ue", [0.25, 0.5]), oracle, p)
        at_bound = resolve(ApproxSpec("uq", L + [0.25, 0.5]), oracle, p)
        at_L = resolve(ApproxSpec("uq", L), oracle, p)
        np.testing.assert_array_equal(ue.curvature_bound, L + [0.25, 0.5])
        assert ue.proves_inside(at_bound)
        assert ue.proves_inside(resolve(ApproxSpec("uQ", 2.0 * (L + 0.5)), oracle, p))
        assert not ue.proves_inside(at_L)
        assert not ue.proves_inside(resolve(ApproxSpec("uq", L + [0.25, 0.25]), oracle, p))
        for inner in (at_L, at_bound, ue, resolve(ApproxSpec("ue", [1.0, 1.0]), oracle, p)):
            assert not inner.proves_inside(ue)
