import itertools

import numpy as np
import pytest

from l0rcd import (
    ApproxSpec,
    LeastSquaresObjective,
    exact_inner_min,
    exact_uniform,
    separable_from_factor,
    threshold_e,
    threshold_map,
    threshold_q,
)
from l0rcd.approx import M_EQ_LIPSCHITZ_FACTOR, _solve_1d, model_curvature
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
    """Forwards to an oracle and records the h of every ``coord_grad_shifted`` call."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.hs = []

    def __getattr__(self, name):
        return getattr(self.oracle, name)

    def coord_grad_shifted(self, x, j, h, cache):
        self.hs.append(h)
        return self.oracle.coord_grad_shifted(x, j, h, cache)


class ConstantSlope:
    """An oracle whose coordinate derivative is 1 everywhere: no root to bracket."""

    dim = 1

    def coord_grad_shifted(self, x, j, h, cache):
        return 1.0

    def coord_curvature_shifted(self, x, j, h, cache):
        return 0.0


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
        with pytest.raises(ValueError):
            exact_inner_min(single_column_ls(), np.zeros(1), 0, 0.0, np.zeros(1))


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
        threshold_map agree bit for bit away from the boundary Delta = lambda."""
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
            tmap = threshold_map(ApproxSpec("ue", beta), f, p)
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

    def test_lipschitz_mode_is_strict(self):
        p = BlockPartition.scalar([1.0], [2.0])
        spec = separable_from_factor(p, M_EQ_LIPSCHITZ_FACTOR)
        spec.validate_for_solver(p)
        assert spec.params[0] > 2.0
        assert spec.params[0] == pytest.approx(2.0, rel=1e-5)

    def test_factor_helper(self):
        p = BlockPartition.scalar([1.0, 1.0], [2.0, 4.0])
        np.testing.assert_allclose(separable_from_factor(p, 1.5).params, [3.0, 6.0])

    def test_exact_uniform_helper(self):
        p = BlockPartition.scalar([1.0, 1.0], [2.0, 4.0])
        np.testing.assert_allclose(exact_uniform(p, 0.3).params, [0.3, 0.3])

    def test_labels(self):
        assert ApproxSpec("uq", [1.0]).kind == "uq"
        assert ApproxSpec("uQ", [1.0]).kind == "uQ"
        assert ApproxSpec("ue", [1.0]).kind == "ue"


class TestThresholdMap:
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
        tmap = threshold_map(uq, oracle, p)
        for i in range(4):
            sl = p.block_slice(i)
            grad = oracle.block_grad(x, sl, cache)
            np.testing.assert_array_equal(
                tmap(x, sl, grad, cache), threshold_q(x[sl], grad, uq.params[i], p.lam[i])
            )
        tmap = threshold_map(exact_uniform(p, 0.01), oracle, p)
        for i in range(4):
            sl = p.block_slice(i)
            np.testing.assert_array_equal(
                tmap(x, sl, oracle.block_grad(x, sl, cache), cache),
                np.array([threshold_e(oracle, x, i, 0.01, p.lam[i], cache)]),
            )

    def test_dispatch_on_logistic_exact_is_newton(self):
        oracle = random_logistic(9, 4, seed=21)
        p = BlockPartition.scalar(np.full(4, 0.05), oracle.column_lipschitz())
        x = np.random.default_rng(22).standard_normal(4)
        cache = oracle.make_cache(x)
        tmap = threshold_map(exact_uniform(p, 0.01), oracle, p)
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
        got = threshold_map(spec, oracle, p)(x, slice(2, 4), grad, cache)
        np.testing.assert_array_equal(
            got, threshold_q(x[2:4], grad, [2.5, 3.0], 0.2)
        )

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
            specs.append(exact_uniform(p, 1e-3))
        whole = slice(0, n)
        for spec in specs:
            tmap = threshold_map(spec, oracle, p)
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
        for spec in (separable_from_factor(p, 1.5), exact_uniform(p, 0.01)):
            threshold_map(spec, oracle, p)(x, slice(0, 4), oracle.full_grad(x), cache)
        assert (x.tobytes(), cache.tobytes()) == before


class TestModelCurvature:
    def test_quadratic_kinds_use_their_own(self):
        p = BlockPartition(block_sizes=(2, 1), lam=(0.1, 0.1), lipschitz=(1.0, 1.0))
        oracle = LeastSquaresObjective(np.eye(3), np.ones(3))
        uq = ApproxSpec("uq", [2.0, 3.0])
        np.testing.assert_array_equal(model_curvature(uq, oracle, p), [2.0, 2.0, 3.0])
        uQ = ApproxSpec("uQ", [2.0, 4.0, 3.0])
        np.testing.assert_array_equal(model_curvature(uQ, oracle, p), [2.0, 4.0, 3.0])

    def test_exact_on_least_squares_is_column_norm_plus_beta(self):
        A = np.array([[1.0, 2.0], [3.0, 0.5]])
        oracle = LeastSquaresObjective(A, np.ones(2))
        p = BlockPartition.scalar([0.1, 0.1], oracle.column_lipschitz())
        spec = ApproxSpec("ue", [0.25, 0.5])
        np.testing.assert_array_equal(model_curvature(spec, oracle, p), [10.25, 4.75])

    def test_exact_without_fixed_curvature_is_none(self):
        oracle = random_logistic(6, 2, seed=23)
        p = BlockPartition.scalar([0.1, 0.1], oracle.column_lipschitz())
        assert model_curvature(ApproxSpec("ue", [0.1, 0.1]), oracle, p) is None
