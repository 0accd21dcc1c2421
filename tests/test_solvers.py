import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from l0rcd import (
    ApproxSpec,
    BlockPartition,
    InvariantViolation,
    IterateState,
    L0Problem,
    LeastSquaresObjective,
    SolverConfig,
    SolverTrace,
    delta_lower_bound,
    estimate_linear_rate,
    exact_uniform,
    l0_norm,
    objective_F,
    run_ihta,
    run_rcd_iht,
    separable_from_factor,
    threshold_map,
    threshold_q,
)
from l0rcd.approx import M_EQ_LIPSCHITZ_FACTOR
from l0rcd.solvers import (
    _block_step,
    _check_descent,
    _coordinate_step,
    _scalar_step,
    draw_block,
    make_rng,
    trace_rows,
)

from conftest import random_logistic_problem, random_ls_problem, toy_problem


def lipschitz_mode(partition):
    """The "M equal to L_i" solver mode, nudged up to keep M_i > L_i."""
    return separable_from_factor(partition, M_EQ_LIPSCHITZ_FACTOR)


def toy_state(problem, x):
    return IterateState.from_point(problem, np.asarray(x, dtype=float))


def checked_step(problem, spec):
    """The step a run takes, ``step(state, i)``, followed by the run's descent check."""
    step = _coordinate_step(problem, spec)
    mu = spec.mu(problem.partition)

    def checked(state, i):
        F_old = state.objective()
        norm = step(state, i)
        _check_descent(F_old, state.objective(), mu[i], norm, i)

    return checked


class TestStep:
    def test_toy_block_zeroed(self, toy):
        """At (2, 0.5) the second coordinate's progress 0.125 < 0.5: zero it."""
        st = toy_state(toy, [2.0, 0.5])
        checked_step(toy, lipschitz_mode(toy.partition))(st, 1)
        np.testing.assert_array_equal(st.x, [2.0, 0.0])
        assert st.support == 0b01
        assert st.objective() == pytest.approx(0.625)

    def test_toy_block_kept(self, toy):
        # first coordinate's progress is about 2 > 0.5: keep it
        st = toy_state(toy, [2.0, 0.5])
        checked_step(toy, lipschitz_mode(toy.partition))(st, 0)
        np.testing.assert_allclose(st.x, [2.0, 0.5])

    def test_strong_point_is_fixed(self, toy):
        step = checked_step(toy, lipschitz_mode(toy.partition))
        for i in range(2):
            st = toy_state(toy, [2.0, 0.0])
            step(st, i)
            np.testing.assert_array_equal(st.x, [2.0, 0.0])

    @pytest.mark.parametrize(
        "sizes", [None, (2, 3), (3, 1, 4, 2) * 8], ids=["scalar", "blocks_2_3", "blocks_n80"]
    )
    def test_state_stays_consistent(self, sizes):
        prob = random_ls_problem(8, sum(sizes) if sizes else 5, seed=40)
        if sizes is not None:
            # the first block carries no penalty: its coordinates are always in I(x)
            partition = BlockPartition(
                block_sizes=sizes,
                lam=(0.0,) + (0.3,) * (len(sizes) - 1),
                lipschitz=tuple(prob.smooth.block_lipschitz(sizes)),
                global_lipschitz=prob.partition.global_lipschitz,
            )
            prob = L0Problem(prob.smooth, partition)
        p = prob.partition
        step = checked_step(prob, separable_from_factor(p, 1.5))
        rng = np.random.default_rng(41)
        st = toy_state(prob, rng.standard_normal(p.n))
        for _ in range(300):
            i = int(rng.integers(p.num_blocks))
            step(st, i)
            in_support = (st.x != 0.0) | (p.coord_lambda() == 0.0)
            assert st.support == sum(1 << j for j in np.flatnonzero(in_support).tolist())
            assert st.penalty == l0_norm(st.x, p)
            assert st.f_value == pytest.approx(prob.smooth.eval(st.x), rel=1e-9)

    def test_null_step_leaves_state_bit_identical(self, toy):
        """At the strong point (2, 0) the map returns each block unchanged."""
        step = checked_step(toy, lipschitz_mode(toy.partition))
        for i in range(2):
            st = toy_state(toy, [2.0, 0.0])
            before = (st.x.tobytes(), st.cache.tobytes(), st.f_value, st.support, st.penalty)
            step(st, i)
            assert (st.x.tobytes(), st.cache.tobytes(), st.f_value, st.support, st.penalty) == before

    def test_exact_model_rejects_a_multi_coordinate_block(self):
        """The exact model has one scalar step; it must not be broadcast over a
        block. The step refuses to be built, so no state is ever written."""
        prob = random_logistic_problem(15, 12, seed=47)
        sizes = (3, 3, 2, 4)
        partition = BlockPartition(
            block_sizes=sizes,
            lam=(0.2,) * len(sizes),
            lipschitz=tuple(prob.smooth.block_lipschitz(sizes)),
        )
        prob = L0Problem(prob.smooth, partition)
        with pytest.raises(ValueError, match="exact approximation requires scalar blocks"):
            _coordinate_step(prob, ApproxSpec("ue", np.full(len(sizes), 1e-4)))

    def test_understated_lipschitz_detected(self):
        """A wrong (too small) block constant breaks guaranteed descent."""
        oracle = LeastSquaresObjective(np.array([[1.0]]), np.array([2.0]))
        partition = BlockPartition.scalar([0.5], [0.02])
        prob = L0Problem(oracle, partition)
        st = toy_state(prob, [0.0])
        with pytest.raises(InvariantViolation):
            checked_step(prob, lipschitz_mode(partition))(st, 0)


# A penalty this large zeroes the coordinate whatever its model value.
_HUGE_LAMBDA = 1e6


def _spec_for(model: str, partition: BlockPartition) -> ApproxSpec:
    if model == "uq":
        return separable_from_factor(partition, 1.5)
    if model == "uQ":
        L = np.repeat(partition.lipschitz, partition.block_sizes)
        return ApproxSpec("uQ", 1.5 * L)
    return exact_uniform(partition, 1e-3)


@pytest.mark.parametrize("model", ["uq", "uQ", "ue"])
@pytest.mark.parametrize("objective", ["least_squares", "logistic"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=strategies.integers(0, 2**16),
    lam_0=strategies.sampled_from([0.0, 0.05, _HUGE_LAMBDA]),
    x_0_zero=strategies.booleans(),
    rest=strategies.lists(strategies.integers(0, 5), max_size=5),
)
@example(seed=1, lam_0=_HUGE_LAMBDA, x_0_zero=True, rest=[])  # null step
@example(seed=1, lam_0=_HUGE_LAMBDA, x_0_zero=False, rest=[])  # support change
@example(seed=1, lam_0=0.0, x_0_zero=True, rest=[0, 0])  # lambda = 0 coordinate
def test_scalar_step_matches_block_step(objective, model, seed, lam_0, x_0_zero, rest):
    """The float step and ``_block_step`` move a state bit for bit alike.

    Coordinate 0 carries ``lam_0`` and is stepped first, then the
    coordinates of ``rest``; both states are compared after every step.
    """
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(3, 10)), 6
    make = random_ls_problem if objective == "least_squares" else random_logistic_problem
    oracle = make(m, n, seed=seed).smooth
    partition = BlockPartition.scalar([lam_0] + [0.3] * (n - 1), oracle.column_lipschitz())
    prob = L0Problem(oracle, partition)
    spec = _spec_for(model, partition)
    x0 = rng.standard_normal(n) * (rng.random(n) < 0.6)
    x0[0] = 0.0 if x_0_zero else 0.7
    scalar_state, block_state = toy_state(prob, x0), toy_state(prob, x0)
    step, block_step = _scalar_step(prob, spec), _block_step(prob, spec)
    for j in [0, *rest]:
        norm = step(scalar_state, j)
        assert norm == block_step(block_state, j)
        assert scalar_state.x.tobytes() == block_state.x.tobytes()
        assert scalar_state.cache.tobytes() == block_state.cache.tobytes()
        assert scalar_state.f_value == block_state.f_value
        assert scalar_state.support == block_state.support
        assert scalar_state.penalty == block_state.penalty
    if lam_0 == _HUGE_LAMBDA:
        # zeroed: a null step from a zero, a support change from a nonzero
        assert block_state.x[0] == 0.0


class TestRunRcdIht:
    @pytest.mark.parametrize("route", ["uq", "ihta"])
    def test_penalty_recounted_only_on_support_changes(self, monkeypatch, route):
        """l0_norm runs once for the start and once per support change."""
        from l0rcd import core

        calls = []
        counted = core.l0_norm

        def counting(x, partition):
            calls.append(1)
            return counted(x, partition)

        monkeypatch.setattr(core, "l0_norm", counting)
        prob = random_ls_problem(12, 20, seed=44)
        assert all(lam > 0.0 for lam in prob.partition.lam)
        x0 = np.random.default_rng(45).standard_normal(20)
        if route == "uq":
            spec = separable_from_factor(prob.partition, 1.5)
            _, trace = run_rcd_iht(prob, x0, SolverConfig(approx=spec, max_iters=600, seed=2))
        else:
            _, trace = run_ihta(prob, x0, 1.5 * prob.partition.global_lipschitz, max_iters=600)
        assert trace.kappa > 0
        assert len(calls) == trace.kappa + 1

    @pytest.mark.parametrize("route", ["uq_least_squares", "ue_logistic"])
    def test_cache_work_only_on_moving_steps(self, monkeypatch, route):
        """A step that leaves its block unchanged updates no cache and evaluates no f."""
        if route == "uq_least_squares":
            prob = random_ls_problem(12, 20, seed=44)
            spec = separable_from_factor(prob.partition, 1.5)
        else:
            prob = random_logistic_problem(15, 10, seed=46)
            spec = exact_uniform(prob.partition, 1e-4)
        calls = {"update_cache": 0, "value_from_cache": 0}
        oracle_class = type(prob.smooth)
        for name in calls:
            original = getattr(oracle_class, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(oracle_class, name, counted)
        x0 = np.random.default_rng(45).standard_normal(prob.n)
        _, trace = run_rcd_iht(prob, x0, SolverConfig(approx=spec, max_iters=600, seed=2))
        moved = int(np.count_nonzero(trace.step_norms))
        assert 0 < moved < trace.iterations
        # one f evaluation for the start, one per moving step, and one from a
        # fresh cache at the stop, which finds no drift here
        assert calls == {"update_cache": moved, "value_from_cache": moved + 2}

    def test_toy_converges(self, toy):
        spec = lipschitz_mode(toy.partition)
        for seed in (0, 7, 123):
            cfg = SolverConfig(approx=spec, max_iters=500, seed=seed)
            st, trace = run_rcd_iht(toy, np.array([2.0, 0.5]), cfg)
            np.testing.assert_array_equal(st.x, [2.0, 0.0])
            assert trace.final_F == pytest.approx(0.625)
            assert trace.kappa <= 1
            assert trace.metadata["stop"] == "converged"

    def test_start_at_strong_point(self, toy):
        cfg = SolverConfig(
            approx=lipschitz_mode(toy.partition), max_iters=500, seed=5
        )
        st, trace = run_rcd_iht(toy, np.array([2.0, 0.0]), cfg)
        np.testing.assert_array_equal(st.x, [2.0, 0.0])
        assert trace.kappa == 0

    def test_objective_never_increases(self):
        prob = random_logistic_problem(12, 6, seed=42)
        cfg = SolverConfig(
            approx=separable_from_factor(prob.partition, 2.0), max_iters=300, seed=8
        )
        _, trace = run_rcd_iht(prob, np.linspace(-1, 1, 6), cfg)
        Fs = np.append(trace.F, trace.final_F)
        assert np.all(np.diff(Fs) <= 1e-10 * (1.0 + np.abs(Fs[:-1])))

    def test_descent_surplus_per_iteration(self):
        """Each recorded step achieves at least (mu_i/2) ||step||^2 decrease."""
        prob = random_ls_problem(10, 6, seed=43)
        spec = separable_from_factor(prob.partition, 2.0)
        mu = spec.mu(prob.partition)
        cfg = SolverConfig(approx=spec, max_iters=300, seed=9)
        _, trace = run_rcd_iht(prob, np.ones(6), cfg)
        Fs = np.append(trace.F, trace.final_F)
        for k in range(trace.iterations):
            gain = Fs[k] - Fs[k + 1]
            need = 0.5 * mu[trace.blocks[k]] * trace.step_norms[k] ** 2
            assert gain >= need - 1e-10 * (1.0 + abs(Fs[k]))

    def test_bitwise_determinism(self):
        prob = random_ls_problem(9, 7, seed=44)
        spec = separable_from_factor(prob.partition, 1.5)
        x0 = np.linspace(-1, 1, 7)
        out = []
        for _ in range(2):
            cfg = SolverConfig(approx=spec, max_iters=400, seed=2024)
            out.append(run_rcd_iht(prob, x0, cfg))
        (_, t1), (_, t2) = out
        np.testing.assert_array_equal(t1.blocks, t2.blocks)
        np.testing.assert_array_equal(t1.F, t2.F)
        np.testing.assert_array_equal(t1.final_x, t2.final_x)
        assert t1.supports == t2.supports

    def test_seed_changes_block_sequence(self):
        prob = random_ls_problem(9, 7, seed=44)
        spec = separable_from_factor(prob.partition, 1.5)
        x0 = np.zeros(7)
        traces = [
            run_rcd_iht(prob, x0, SolverConfig(approx=spec, max_iters=50, seed=s))[1]
            for s in (0, 1)
        ]
        assert not np.array_equal(traces[0].blocks, traces[1].blocks)

    def test_final_point_is_fixed_point(self):
        """Every block's thresholding map leaves the limit point unchanged.

        Uses a tall, well-conditioned instance: the stop rule bounds recent
        step norms over a finite window, so a badly conditioned support can
        leave one slowly-moving coordinate a couple of orders above the
        step tolerance.
        """
        prob = random_ls_problem(20, 5, seed=45)
        spec = separable_from_factor(prob.partition, 1.5)
        cfg = SolverConfig(approx=spec, max_iters=4000, seed=11)
        st, _ = run_rcd_iht(prob, np.ones(5) * 0.3, cfg)
        tmap = threshold_map(spec, prob.smooth, prob.partition)
        cache = prob.smooth.make_cache(st.x)
        for i in range(prob.partition.num_blocks):
            sl = prob.partition.block_slice(i)
            new_block = tmap(st.x, sl, prob.smooth.block_grad(st.x, sl, cache), cache)
            assert np.linalg.norm(new_block - st.x[sl]) <= 1e-8

    def test_exact_matches_shifted_quadratic_on_least_squares(self):
        """On least squares the exact model with beta is the diagonal quadratic
        model with H_j = ||A_j||^2 + beta: the two runs are the same, bit for bit."""
        prob = random_ls_problem(8, 5, seed=46)
        beta = 0.3
        ue = exact_uniform(prob.partition, beta)
        uQ = ApproxSpec("uQ", prob.smooth.coord_curvature() + beta)
        x0 = np.linspace(-0.5, 0.5, 5)
        st_e, tr_e = run_rcd_iht(prob, x0, SolverConfig(approx=ue, max_iters=600, seed=3))
        st_q, tr_q = run_rcd_iht(prob, x0, SolverConfig(approx=uQ, max_iters=600, seed=3))
        for field in ("blocks", "F", "step_norms", "support_changed", "final_x"):
            assert getattr(tr_e, field).tobytes() == getattr(tr_q, field).tobytes(), field
        assert tr_e.supports == tr_q.supports
        assert tr_e.final_F == tr_q.final_F
        assert tr_e.metadata["stop"] == tr_q.metadata["stop"]
        assert st_e.x.tobytes() == st_q.x.tobytes()
        assert tr_e.kappa > 0

    def test_kappa_matches_change_list(self):
        prob = random_ls_problem(10, 6, seed=47)
        cfg = SolverConfig(
            approx=separable_from_factor(prob.partition, 1.5), max_iters=200, seed=14
        )
        _, trace = run_rcd_iht(prob, np.ones(6), cfg)
        assert trace.kappa == len(trace.support_change_iterations)
        assert trace.delta_bound == pytest.approx(
            delta_lower_bound(prob, cfg.approx, np.ones(6))
        )

    def test_max_iters_cap(self, toy):
        cfg = SolverConfig(
            approx=lipschitz_mode(toy.partition), max_iters=3, seed=1
        )
        _, trace = run_rcd_iht(toy, np.array([5.0, 5.0]), cfg)
        assert trace.iterations == 3
        assert trace.metadata["stop"] == "max_iters"

    def test_config_validation(self, toy):
        spec = lipschitz_mode(toy.partition)
        with pytest.raises(ValueError):
            SolverConfig(approx=spec, max_iters=0)
        for patience in (0, -1):
            with pytest.raises(ValueError, match="support_patience"):
                SolverConfig(approx=spec, max_iters=10, support_patience=patience)
            with pytest.raises(ValueError, match="support_patience"):
                run_ihta(toy, np.zeros(2), M_f=3.0, max_iters=10, support_patience=patience)


class TestRunIhta:
    def test_toy_first_iterate(self, toy):
        # gradient vanishes at (2, 0.5); only the small coordinate is zeroed
        st, _ = run_ihta(toy, np.array([2.0, 0.5]), M_f=2.0 + 1e-6, max_iters=1)
        np.testing.assert_array_equal(st.x, [2.0, 0.0])

    def test_toy_converges(self, toy):
        st, trace = run_ihta(toy, np.array([2.0, 0.5]), M_f=2.0 + 1e-6, max_iters=200)
        np.testing.assert_array_equal(st.x, [2.0, 0.0])
        assert trace.final_F == pytest.approx(0.625)
        assert trace.metadata["stop"] == "converged"
        assert np.all(trace.blocks == -1)

    def test_zero_penalty_coordinate_takes_plain_step(self):
        oracle = LeastSquaresObjective(np.eye(2), np.array([2.0, 0.5]))
        partition = BlockPartition.scalar([0.5, 0.0], [1.0, 1.0], 1.0)
        prob = L0Problem(oracle, partition)
        st, _ = run_ihta(prob, np.zeros(2), M_f=2.0, max_iters=1)
        # coordinate 1 is unpenalized: plain step 0 - (-0.5)/2
        assert st.x[1] == pytest.approx(0.25)

    def test_fixed_point_of_own_limit(self):
        prob = random_ls_problem(8, 5, seed=48)
        M_f = prob.partition.global_lipschitz * 1.5
        st, _ = run_ihta(prob, np.ones(5), M_f, max_iters=5000)
        st2, trace2 = run_ihta(prob, st.x, M_f, max_iters=1)
        assert float(np.linalg.norm(st2.x - st.x)) <= 1e-8

    def test_max_iters_must_be_positive(self, toy):
        for max_iters in (0, -5):
            with pytest.raises(ValueError, match="max_iters must be at least 1"):
                run_ihta(toy, np.zeros(2), M_f=2.0 + 1e-6, max_iters=max_iters)

    def test_m_f_must_exceed_global_constant(self, toy):
        with pytest.raises(ValueError):
            run_ihta(toy, np.zeros(2), M_f=toy.partition.global_lipschitz, max_iters=10)

    @pytest.mark.parametrize("M_f", [np.nan, np.inf, -np.inf])
    def test_m_f_must_be_finite(self, toy, M_f):
        """Unchecked, a NaN M_f zeroed x here, raised F from 1.625 to 2.125
        and still reported converged."""
        with pytest.raises(ValueError, match="finite"):
            run_ihta(toy, np.array([1.0, 1.0]), M_f=M_f, max_iters=10)

    @pytest.mark.parametrize("objective", ["least_squares", "logistic"])
    @pytest.mark.parametrize("sizes", [None, (3, 1, 2, 2)], ids=["scalar", "blocks_3_1_2_2"])
    def test_step_is_threshold_q_at_m_f(self, objective, sizes):
        """One iteration gives the bytes of threshold_q(x, grad f(x), M_f, lambda)."""
        make = random_ls_problem if objective == "least_squares" else random_logistic_problem
        prob = make(9, 8, seed=55)
        sizes = sizes or (1,) * 8
        lam = np.random.default_rng(56).uniform(0.05, 0.5, len(sizes))
        lam[1] = 0.0
        p = BlockPartition(
            block_sizes=sizes, lam=tuple(lam), lipschitz=tuple(prob.smooth.block_lipschitz(sizes))
        )
        prob = L0Problem(prob.smooth, p)
        M_f = 1.3 * p.global_lipschitz
        rng = np.random.default_rng(57)
        for _ in range(10):
            x0 = rng.standard_normal(8) * (rng.random(8) < 0.6)
            st, _ = run_ihta(prob, x0, M_f, max_iters=1)
            g = prob.smooth.block_grad(x0, slice(0, 8), prob.smooth.make_cache(x0))
            assert st.x.tobytes() == threshold_q(x0, g, M_f, p.coord_lambda()).tobytes()

    def test_descent_monotone(self):
        prob = random_logistic_problem(12, 6, seed=49)
        M_f = prob.partition.global_lipschitz * 1.2
        _, trace = run_ihta(prob, np.linspace(-1, 1, 6), M_f, max_iters=300)
        Fs = np.append(trace.F, trace.final_F)
        assert np.all(np.diff(Fs) <= 1e-10 * (1.0 + np.abs(Fs[:-1])))


class TestDeltaLowerBound:
    def problem_with(self, lam, L):
        n = len(lam)
        oracle = LeastSquaresObjective(np.eye(n), np.zeros(n))
        return L0Problem(oracle, BlockPartition.scalar(lam, L))

    def test_single_block_empty_support(self):
        # lambda=1, mu=1, M=2, x0=0: second min is over an empty set
        prob = self.problem_with([1.0], [1.0])
        spec = ApproxSpec("uq", [2.0])
        assert delta_lower_bound(prob, spec, np.zeros(1)) == pytest.approx(0.5)

    def test_two_blocks_with_start_term(self):
        prob = self.problem_with([1.0, 1.0], [1.0, 1.0])
        spec = ApproxSpec("uq", [2.0, 2.0])
        assert delta_lower_bound(prob, spec, np.array([3.0, 0.0])) == pytest.approx(0.25)

    def test_linear_growth_in_lambda(self):
        spec = ApproxSpec("uq", [2.0])
        d1 = delta_lower_bound(self.problem_with([1.0], [1.0]), spec, np.zeros(1))
        d10 = delta_lower_bound(self.problem_with([10.0], [1.0]), spec, np.zeros(1))
        assert d10 == pytest.approx(10.0 * d1)

    def test_exact_kind_uses_shifted_curvature(self):
        # mu = beta = 0.5 and M = L + beta = 1.5: delta = (0.5 * 1 / 1.5) / 1
        prob = self.problem_with([1.0], [1.0])
        spec = ApproxSpec("ue", [0.5])
        assert delta_lower_bound(prob, spec, np.zeros(1)) == pytest.approx(1.0 / 3.0)

    def test_huge_factor_and_penalty_give_a_finite_bound(self):
        # mu_i / M_i is about 1 when M_i = 1e300 L_i, so delta = lambda / N, not
        # the inf of an overflowing product mu_i * lambda_i
        prob = self.problem_with([1e10, 1e10], [1.0, 1.0])
        spec = separable_from_factor(prob.partition, 1e300)
        assert delta_lower_bound(prob, spec, np.zeros(2)) == pytest.approx(0.5e10)

    def test_start_term_that_overflows_is_no_term(self):
        # (mu/2) x0_0^2 overflows for x0_0 = 1e200; the penalty term, (1/2) / 2, is the min
        prob = self.problem_with([1.0, 1.0], [1.0, 1.0])
        spec = ApproxSpec("uq", [2.0, 2.0])
        assert delta_lower_bound(prob, spec, np.array([1e200, 0.0])) == pytest.approx(0.25)

    def test_zero_penalty_blocks_skipped(self):
        prob = L0Problem(
            LeastSquaresObjective(np.eye(2), np.zeros(2)),
            BlockPartition.scalar([1.0, 0.0], [1.0, 1.0], 1.0),
        )
        spec = ApproxSpec("uq", [2.0, 2.0])
        # only the penalized block contributes: (1/2) * (1*1/2)
        assert delta_lower_bound(prob, spec, np.zeros(2)) == pytest.approx(0.25)

    @pytest.mark.parametrize("kind", ["separable", "diagonal"])
    def test_matches_the_per_block_loop_bit_for_bit(self, kind):
        sizes = (1, 3, 2, 4, 1, 2, 3)
        prob = random_ls_problem(6, sum(sizes), seed=52)
        p = BlockPartition(
            block_sizes=sizes,
            lam=(0.3, 0.0, 0.7, 0.2, 1.1, 0.4, 0.9),
            lipschitz=tuple(prob.smooth.block_lipschitz(sizes)),
            global_lipschitz=prob.partition.global_lipschitz,
        )
        prob = L0Problem(prob.smooth, p)
        rng = np.random.default_rng(53)
        if kind == "separable":
            spec = separable_from_factor(p, 1.7)
        else:
            L = np.repeat(p.lipschitz, p.block_sizes)
            spec = ApproxSpec("uQ", L * rng.uniform(1.2, 3.0, p.n))
        x0 = rng.standard_normal(p.n) * (rng.random(p.n) < 0.5)
        mu, M = spec.mu(p), spec.curvature_bound(p)
        best = min(mu[i] / M[i] * p.lam[i] for i in range(p.num_blocks) if p.lam[i] > 0.0)
        for i in range(p.num_blocks):
            blk = x0[p.block_slice(i)]
            nz = blk[blk != 0.0]
            if nz.size:
                best = min(best, 0.5 * mu[i] * float(np.min(nz**2)))
        assert delta_lower_bound(prob, spec, x0) == float(best / p.num_blocks)


def synthetic_trace(F_values, final_F, changed=None):
    k = len(F_values)
    if changed is None:
        changed = np.zeros(k, dtype=bool)
    return SolverTrace(
        blocks=np.zeros(k, dtype=int),
        F=np.asarray(F_values, dtype=float),
        step_norms=np.zeros(k),
        support_changed=np.asarray(changed, dtype=bool),
        supports=[0] * k,
        final_x=np.zeros(1),
        final_F=float(final_F),
        delta_bound=0.0,
    )


class TestEstimateLinearRate:
    def test_geometric_sequence(self):
        F_star = 1.25
        F = F_star + 0.5 ** np.arange(40)
        trace = synthetic_trace(F, F_star + 0.5**40)
        slope, r2 = estimate_linear_rate(trace, F_star)
        assert slope == pytest.approx(-np.log(2.0), rel=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_gap(self):
        # r_squared is ill-defined for a constant sequence; only the slope
        # is meaningful here
        trace = synthetic_trace(np.full(30, 2.0), 2.0)
        slope, _ = estimate_linear_rate(trace, 1.5)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_short_tail_rejected(self):
        trace = synthetic_trace(np.full(10, 2.0), 2.0)
        with pytest.raises(ValueError):
            estimate_linear_rate(trace, 1.0)

    def test_tail_starts_after_last_support_change(self):
        changed = np.zeros(40, dtype=bool)
        changed[30] = True
        trace = synthetic_trace(np.full(40, 2.0), 2.0, changed)
        # only 9 recorded iterations remain after the change: too short
        with pytest.raises(ValueError):
            estimate_linear_rate(trace, 1.0)

    def test_empirical_run_decays(self):
        from l0rcd import restricted_minimize

        prob = random_ls_problem(10, 5, seed=50, tall=True)
        spec = separable_from_factor(prob.partition, 2.0)
        cfg = SolverConfig(approx=spec, max_iters=2000, seed=6)
        st, trace = run_rcd_iht(prob, np.ones(5), cfg)
        z = restricted_minimize(prob, np.flatnonzero(st.x))
        slope, r2 = estimate_linear_rate(trace, objective_F(prob, z))
        assert slope < 0
        assert r2 >= 0.9


class TestHelpers:
    def test_draw_block_range_and_coverage(self):
        rng = make_rng(0)
        draws = {draw_block(rng, 7) for _ in range(300)}
        assert draws == set(range(7))

    def test_traced_masks_exact_above_bit_63(self):
        """The mask recorded before iteration k is the support after k steps,
        as a Python int, also for coordinates past 63."""
        prob = random_ls_problem(30, 100, seed=51)
        spec = separable_from_factor(prob.partition, 1.5)
        rng = np.random.default_rng(52)
        x0 = np.where(rng.random(100) < 0.5, rng.uniform(-1, 1, 100), 0.0)
        _, full = run_rcd_iht(prob, x0, SolverConfig(approx=spec, max_iters=40, seed=3))
        _, short = run_rcd_iht(prob, x0, SolverConfig(approx=spec, max_iters=39, seed=3))
        expected = sum(1 << j for j in np.flatnonzero(short.final_x).tolist())
        assert expected >> 64
        assert type(full.supports[-1]) is int
        assert full.supports[-1] == expected

    def test_trace_rows_schema(self, toy):
        cfg = SolverConfig(
            approx=lipschitz_mode(toy.partition), max_iters=10, seed=0
        )
        _, trace = run_rcd_iht(toy, np.array([2.0, 0.5]), cfg)
        rows = list(trace_rows(trace))
        assert len(rows) == trace.iterations
        k, i_k, F, step, changed = rows[0]
        assert k == 0 and i_k in (0, 1) and changed in (0, 1)
        assert F == pytest.approx(1.0)
