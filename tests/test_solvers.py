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
    l0_norm,
    objective_F,
    resolve,
    run_ihta,
    run_rcd_iht,
    separable_from_factor,
    support_of,
    threshold_q,
)
from l0rcd.approx import M_EQ_LIPSCHITZ_FACTOR
from l0rcd import approx, cli, solvers
from l0rcd.solvers import (
    _block_step,
    _check_descent,
    _coordinate_step,
    _norm,
    _norm_bounds,
    _scalar_step,
    block_draws,
    draw_block,
    make_rng,
)

from conftest import random_logistic_problem, random_ls_problem, toy_problem


def _bits(*arrays):
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)


def lipschitz_mode(partition):
    """The "M equal to L_i" solver mode, nudged up to keep M_i > L_i."""
    return separable_from_factor(partition, M_EQ_LIPSCHITZ_FACTOR)


def toy_state(problem, x):
    return IterateState.from_point(problem, np.asarray(x, dtype=float))


def resolved(problem, spec):
    return resolve(spec, problem.smooth, problem.partition)


def count_resolves(monkeypatch):
    """The kinds of the models ``solvers`` resolves from now on, in order."""
    calls = []

    def counted(spec, oracle, partition):
        calls.append(spec.kind)
        return resolve(spec, oracle, partition)

    monkeypatch.setattr(solvers, "resolve", counted)
    return calls


def spec_calls(monkeypatch):
    """The kinds of the specs that ``approx._constants`` checks against a
    partition and derives the constants of from now on, in order."""
    calls = []
    original = approx._constants

    def counted(spec, partition):
        calls.append(spec.kind)
        return original(spec, partition)

    monkeypatch.setattr(approx, "_constants", counted)
    return calls


def checked_step(problem, spec):
    """The step a run takes, ``step(state, i)``, followed by the run's descent check."""
    model = resolved(problem, spec)
    step = _coordinate_step(problem, model)
    mu = model.mu

    def checked(state, i):
        F_old = state.objective()
        norm = step(state, i)
        _check_descent(F_old, state.objective(), mu[i], norm, i)

    return checked


def reference_run_ihta(problem, x0, M_f, max_iters):
    """``run_ihta`` written plainly: each step calls ``Model.map`` of the
    ``uq`` model at M_f over ``slice(0, n)`` and tests the zero pattern
    with ``np.any``. The reference for ``run_ihta``'s kept zero-pattern
    bytes and its one resolve per run."""
    partition, smooth = problem.partition, problem.smooth
    tmap = resolve(ApproxSpec("uq", np.full(partition.num_blocks, M_f)), smooth, partition).map
    whole = slice(0, partition.n)
    mu_f = M_f - partition.global_lipschitz

    def step(state):
        g = smooth.block_grad(state.x, whole, state.cache)
        new_x = tmap(state.x, whole, g, state.cache)
        step_norm = _norm(new_x - state.x)
        pattern_changed = np.any((new_x != 0.0) != (state.x != 0.0))
        state.x = new_x
        state.cache = smooth.make_cache(new_x)
        state.f_value = smooth.value_from_cache(new_x, state.cache)
        if pattern_changed:
            state.recount(problem)
        return -1, step_norm, mu_f

    metadata = {
        "solver": "ihta", "approx": "uq-global", "rng": "none", "seed": 0, "M_f": float(M_f)
    }
    return solvers._drive(problem, x0, step, max_iters, 3, float("nan"), metadata)


def ihta_runs_match_reference(prob):
    """Run ``run_ihta`` and ``reference_run_ihta`` from zero starts (+0.0 and
    -0.0) and random starts with -0.0 entries, assert that each pair of runs
    has the same trace byte for byte, and that support and penalty end as
    support_of and l0_norm of the point; return the total kappa."""
    p = prob.partition
    M_f = 1.3 * p.global_lipschitz
    rng = np.random.default_rng(60)
    starts = [np.zeros(8), np.full(8, -0.0)]
    for _ in range(8):
        x0 = rng.standard_normal(8) * (rng.random(8) < 0.6)
        x0[x0 == 0.0] = -0.0
        starts.append(x0)
    kappa = 0
    for x0 in starts:
        st, trace = run_ihta(prob, x0, M_f, max_iters=300)
        ref_st, ref = reference_run_ihta(prob, x0, M_f, max_iters=300)
        for column in ("blocks", "F", "step_norms", "support_changed", "final_x"):
            assert getattr(trace, column).tobytes() == getattr(ref, column).tobytes(), column
        assert trace.supports == ref.supports
        assert np.float64(trace.final_F).tobytes() == np.float64(ref.final_F).tobytes()
        assert trace.metadata == ref.metadata
        assert st.support == support_of(st.x, p) == ref_st.support
        assert st.penalty.hex() == l0_norm(st.x, p).hex() == ref_st.penalty.hex()
        kappa += trace.kappa
    return kappa


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
        "sizes, lam",
        [
            (None, None),
            ((2, 3), None),
            ((3, 1, 4, 2) * 8, None),
            ((1,) * 500, None),
            ((1,) * 40, (0.0, 0.3, 0.07, 0.3, 0.0) * 8),
        ],
        ids=["scalar", "blocks_2_3", "blocks_n80", "scalar_n500", "scalar_mixed_lambda"],
    )
    def test_state_stays_consistent(self, sizes, lam):
        """Support and penalty equal support_of and l0_norm of the point, bit
        for bit, and the support counts the penalized nonzeros, after every
        step: on the count table (uniform lambda, scalar_n500 reaching counts
        up to 500) and off it."""
        prob = random_ls_problem(8, sum(sizes) if sizes else 5, seed=40)
        if sizes is not None:
            # by default the first block carries no penalty: its coordinates are always in I(x)
            partition = BlockPartition(
                block_sizes=sizes,
                lam=lam or (0.0,) + (0.3,) * (len(sizes) - 1),
                lipschitz=tuple(prob.smooth.block_lipschitz(sizes)),
                global_lipschitz=prob.partition.global_lipschitz,
            )
            prob = L0Problem(prob.smooth, partition)
        p = prob.partition
        assert (p.count_penalty is None) == (sizes is not None and max(sizes) > 1 or lam is not None)
        step = checked_step(prob, separable_from_factor(p, 1.5))
        rng = np.random.default_rng(41)
        st = toy_state(prob, rng.standard_normal(p.n))
        penalized = p.coord_lambda() > 0.0
        free = p.zero_penalty_bits.bit_count()
        changes = 0
        for _ in range(max(300, 2 * p.num_blocks)):
            i = int(rng.integers(p.num_blocks))
            before = st.support
            step(st, i)
            changes += st.support != before
            assert st.support == support_of(st.x, p)
            assert st.penalty.hex() == l0_norm(st.x, p).hex()
            # the count at which flip reads the penalty table
            assert st.support.bit_count() - free == int(np.count_nonzero(st.x[penalized]))
            assert st.f_value == pytest.approx(prob.smooth.eval(st.x), rel=1e-9)
        assert changes >= 3

    @pytest.mark.parametrize("make_step", [_scalar_step, _block_step])
    def test_zero_penalty_coordinate_leaves_zero(self, make_step):
        """A lambda = 0 coordinate that starts at zero is in I(x) before and after
        it moves: its bit is no support change. Support and penalty match a
        recount after every step, on the count table (uniform lambda elsewhere)."""
        lam = np.array([0.3, 0.0, 0.3, 0.3, 0.0, 0.3])
        prob = random_ls_problem(8, len(lam), seed=42)
        partition = BlockPartition.scalar(
            lam, prob.smooth.column_lipschitz(), prob.partition.global_lipschitz
        )
        prob = L0Problem(prob.smooth, partition)
        assert partition.count_penalty is not None
        step = make_step(prob, resolved(prob, separable_from_factor(partition, 1.5)))
        x0 = np.random.default_rng(43).standard_normal(len(lam))
        x0[lam == 0.0] = 0.0
        st = toy_state(prob, x0)
        free = np.flatnonzero(lam == 0.0)
        rng = np.random.default_rng(44)
        for j in [*free, *rng.integers(len(lam), size=60)]:
            step(st, int(j))
            kept = (st.support, st.penalty.hex())
            st.recount(prob)
            assert kept == (st.support, st.penalty.hex())
        assert (st.x[free] != 0.0).all()

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
        block. The model refuses to be resolved, so no step is ever built."""
        prob = random_logistic_problem(15, 12, seed=47)
        sizes = (3, 3, 2, 4)
        partition = BlockPartition(
            block_sizes=sizes,
            lam=(0.2,) * len(sizes),
            lipschitz=tuple(prob.smooth.block_lipschitz(sizes)),
        )
        prob = L0Problem(prob.smooth, partition)
        with pytest.raises(ValueError, match="exact approximation requires scalar blocks"):
            resolved(prob, ApproxSpec("ue", np.full(len(sizes), 1e-4)))

    def test_long_step_passes_the_descent_check(self):
        """A step longer than 1.34e154, whose d * d overflows, has norm |d| on
        both step paths and passes the descent check; its norm was inf, and
        the check then required F <= -inf."""
        A = np.array([[1e-160, 1.0], [0.0, 1.0]])
        oracle = LeastSquaresObjective(A, np.array([0.0, 1.0]))
        partition = BlockPartition.scalar([1.0, 1.0], oracle.column_lipschitz())
        prob = L0Problem(oracle, partition)
        spec = separable_from_factor(partition, 2.0)
        x0 = np.array([1.5e154, 0.0])
        for make_step in (_scalar_step, _block_step):
            st = toy_state(prob, x0)
            F_old = st.objective()
            assert make_step(prob, resolved(prob, spec))(st, 0) == 1.5e154
            assert (F_old, st.objective()) == pytest.approx((1.5, 0.5))
        _, trace = run_rcd_iht(prob, x0, SolverConfig(approx=spec, max_iters=50, seed=0))
        assert trace.kappa == 1 and trace.final_F == pytest.approx(0.5)
        assert trace.step_norms.max() == 1.5e154

    def test_understated_lipschitz_detected(self):
        """A wrong (too small) block constant breaks guaranteed descent."""
        oracle = LeastSquaresObjective(np.array([[1.0]]), np.array([2.0]))
        partition = BlockPartition.scalar([0.5], [0.02])
        prob = L0Problem(oracle, partition)
        st = toy_state(prob, [0.0])
        with pytest.raises(InvariantViolation):
            checked_step(prob, lipschitz_mode(partition))(st, 0)

    @pytest.mark.parametrize(
        "route, where", [("uq", "at block 0"), ("ihta", "at the full-gradient step")]
    )
    def test_understated_lipschitz_stops_the_run(self, route, where):
        """A run's loop tests descent inline and raises through _check_descent.
        The constants understate lambda_max(A^T A) = 1, so M = 0.02 (1 + 1e-6)
        and M_f = 0.03 pass validation and the first step overshoots."""
        oracle = LeastSquaresObjective(np.array([[1.0]]), np.array([2.0]))
        prob = L0Problem(oracle, BlockPartition.scalar([0.5], [0.02], 0.02))
        with pytest.raises(InvariantViolation, match=f"descent inequality violated {where}"):
            if route == "ihta":
                run_ihta(prob, np.zeros(1), 0.03, max_iters=10)
            else:
                cfg = SolverConfig(approx=lipschitz_mode(prob.partition), max_iters=10)
                run_rcd_iht(prob, np.zeros(1), cfg)


# A penalty this large zeroes the coordinate whatever its model value.
_HUGE_LAMBDA = 1e6


def _spec_for(model: str, partition: BlockPartition) -> ApproxSpec:
    if model == "uq":
        return separable_from_factor(partition, 1.5)
    if model == "uQ":
        L = np.repeat(partition.lipschitz, partition.block_sizes)
        return ApproxSpec("uQ", 1.5 * L)
    return ApproxSpec("ue", np.full(partition.num_blocks, 1e-3))


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
@example(seed=1, lam_0=0.3, x_0_zero=False, rest=[1, 2, 3, 4, 5, 0])  # count table
def test_scalar_step_matches_block_step(objective, model, seed, lam_0, x_0_zero, rest):
    """The float step and ``_block_step`` move a state bit for bit alike.

    Coordinate 0 carries ``lam_0`` and is stepped first, then the
    coordinates of ``rest``; both states are compared after every step. At
    lam_0 = 0.3 (one lambda) and 0 (no penalty on coordinate 0) both steps
    read the penalty from the partition's count table.
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
    model = resolved(prob, spec)
    step, block_step = _scalar_step(prob, model), _block_step(prob, model)
    for j in [0, *rest]:
        norm = step(scalar_state, j)
        assert norm == block_step(block_state, j)
        assert scalar_state.x.tobytes() == block_state.x.tobytes()
        assert scalar_state.cache.tobytes() == block_state.cache.tobytes()
        assert scalar_state.f_value == block_state.f_value
        assert scalar_state.support == block_state.support
        assert scalar_state.penalty.hex() == block_state.penalty.hex()
    if lam_0 == _HUGE_LAMBDA:
        # zeroed: a null step from a zero, a support change from a nonzero
        assert block_state.x[0] == 0.0


class TestRunRcdIht:
    @pytest.mark.parametrize(
        "model, sizes",
        [("uq", (1,) * 6), ("uQ", (1,) * 6), ("ue", (1,) * 6), ("uq", (2, 1, 3)), ("uQ", (2, 1, 3))],
        ids=["uq-scalar", "uQ-scalar", "ue-scalar", "uq-blocks", "uQ-blocks"],
    )
    def test_model_resolved_once_per_run(self, monkeypatch, model, sizes):
        prob = random_logistic_problem(10, 6, seed=48)
        partition = BlockPartition(
            block_sizes=sizes,
            lam=(0.05,) * len(sizes),
            lipschitz=tuple(prob.smooth.block_lipschitz(sizes)),
        )
        prob = L0Problem(prob.smooth, partition)
        calls = count_resolves(monkeypatch)
        cfg = SolverConfig(approx=_spec_for(model, partition), max_iters=200, seed=2)
        run_rcd_iht(prob, np.linspace(-1.0, 1.0, 6), cfg)
        assert calls == [model]

    @pytest.mark.parametrize("kind", ["uq", "ue"])
    def test_spec_checked_and_curvature_built_once_per_run(self, monkeypatch, kind):
        """A run checks its spec against the partition and derives its
        curvature, mu and M bound once, in one ``approx._constants`` call:
        the strict-curvature check and delta read the model's own constants."""
        prob = random_ls_problem(10, 6, seed=48)
        calls = spec_calls(monkeypatch)
        spec = _spec_for(kind, prob.partition)
        run_rcd_iht(prob, np.ones(6), SolverConfig(approx=spec, max_iters=50, seed=1))
        assert calls == [kind]

    @pytest.mark.parametrize("route", ["uq", "uq_mixed_lambda", "ihta"])
    def test_penalty_recounted_only_on_support_changes(self, monkeypatch, route):
        """The whole point is read once, at the start. A coordinate step then
        flips support bits; on a partition with a ``count_penalty`` table it
        reads the penalty there, elsewhere it calls l0_norm once per support
        change, as the full-gradient step does."""
        from l0rcd import core

        prob = random_ls_problem(12, 20, seed=44)
        if route == "uq_mixed_lambda":
            p = prob.partition
            lam = (0.3, 0.2) * 10
            prob = L0Problem(prob.smooth, BlockPartition.scalar(lam, p.lipschitz, p.global_lipschitz))
            assert prob.partition.count_penalty is None
        else:
            assert prob.partition.count_penalty is not None
        assert all(lam > 0.0 for lam in prob.partition.lam)
        prob.partition.zero_penalty_bits  # built once per partition, before counting
        calls = {"l0_norm": 0, "_bitmask_of": 0}
        for name in calls:
            original = getattr(core, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(core, name, counting)
        x0 = np.random.default_rng(45).standard_normal(20)
        if route == "ihta":
            _, trace = run_ihta(prob, x0, 1.5 * prob.partition.global_lipschitz, max_iters=600)
        else:
            spec = separable_from_factor(prob.partition, 1.5)
            _, trace = run_rcd_iht(prob, x0, SolverConfig(approx=spec, max_iters=600, seed=2))
        assert trace.kappa > 0
        if route == "uq":
            assert calls == {"l0_norm": 1, "_bitmask_of": 1}
        else:
            assert calls["l0_norm"] == trace.kappa + 1

    @pytest.mark.parametrize("route", ["uq_least_squares", "ue_logistic"])
    def test_cache_work_only_on_moving_steps(self, monkeypatch, route):
        """A step that leaves its block unchanged updates no cache and evaluates no f."""
        if route == "uq_least_squares":
            prob = random_ls_problem(12, 20, seed=44)
            spec = separable_from_factor(prob.partition, 1.5)
        else:
            prob = random_logistic_problem(15, 10, seed=46)
            spec = ApproxSpec("ue", np.full(prob.partition.num_blocks, 1e-4))
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

    @pytest.mark.parametrize("route", ["uq", "ihta"])
    def test_logistic_exp_once_per_predictor_state(self, monkeypatch, route):
        """A logistic run evaluates exp over the m predictors once at the start,
        once per moving step (the f value of the new point, whose gradient
        queries then read the oracle's memo) and at most once per drift check
        at a stop; a null step evaluates none."""
        from l0rcd import objectives

        prob = random_logistic_problem(15, 10, seed=46)
        exps = []
        original_exp = objectives._exp_neg_abs

        def counted_exp(t):
            exps.append(len(t))
            return original_exp(t)

        checks = []
        original_refreshed = solvers._refreshed

        def counted_refreshed(problem, state):
            checks.append(state.f_value)
            return original_refreshed(problem, state)

        monkeypatch.setattr(objectives, "_exp_neg_abs", counted_exp)
        monkeypatch.setattr(solvers, "_refreshed", counted_refreshed)
        x0 = np.random.default_rng(45).standard_normal(prob.n)
        if route == "uq":
            spec = separable_from_factor(prob.partition, 1.5)
            _, trace = run_rcd_iht(prob, x0, SolverConfig(approx=spec, max_iters=600, seed=2))
        else:
            M_f = 1.5 * prob.partition.global_lipschitz
            _, trace = run_ihta(prob, x0, M_f, max_iters=600)
        moved = int(np.count_nonzero(trace.step_norms))
        assert set(exps) == {prob.smooth.m}
        assert len(exps) <= 1 + moved + len(checks)
        assert 1 + moved + len(checks) < 2 * trace.iterations
        if route == "uq":
            assert 1 + moved + len(checks) < trace.iterations

    def test_logistic_runs_stepped_in_turn_on_one_oracle(self):
        """Two runs whose steps alternate on one logistic oracle move, bit for
        bit, as the same runs taken one after the other."""
        prob = random_logistic_problem(15, 10, seed=46)
        model = resolve(separable_from_factor(prob.partition, 1.5), prob.smooth, prob.partition)
        step = _coordinate_step(prob, model)
        rng = np.random.default_rng(47)
        starts = [rng.standard_normal(prob.n) for _ in range(2)]
        blocks = [rng.integers(prob.n, size=300).tolist() for _ in range(2)]

        def record(state, i):
            norm = step(state, i)
            return _bits(state.x, state.cache, [state.f_value, norm])

        alone = [IterateState.from_point(prob, x0) for x0 in starts]
        want = [[record(st, i) for i in seq] for st, seq in zip(alone, blocks)]
        turn = [IterateState.from_point(prob, x0) for x0 in starts]
        got = [[], []]
        for pair in zip(*blocks):
            for r, i in enumerate(pair):
                got[r].append(record(turn[r], i))
        assert got == want
        assert any(a != b for a, b in zip(want[0], want[0][1:]))  # the runs move

    def test_logistic_runs_in_threads_share_one_oracle(self):
        """Runs on one logistic problem in more threads than cores, switched
        often, end as the same runs made one by one: the oracle's memo can
        be missed but never read across runs."""
        import sys
        import threading

        prob = random_logistic_problem(15, 10, seed=46, lam=0.01, nu=0.02)
        rng = np.random.default_rng(48)
        starts = [rng.standard_normal(prob.n) for _ in range(6)]
        specs = [
            separable_from_factor(prob.partition, 1.5),
            ApproxSpec("ue", np.full(prob.partition.num_blocks, 1e-4)),
        ]

        def run(k):
            spec = specs[k % 2]
            _, trace = run_rcd_iht(prob, starts[k], SolverConfig(approx=spec, max_iters=2000, seed=k))
            return _bits(trace.F, trace.step_norms, trace.final_x)

        want = [run(k) for k in range(len(starts))]
        got = [None] * len(starts)

        def worker(k):
            got[k] = run(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(starts))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    @pytest.mark.parametrize("route", ["uq", "ue", "ihta", "uq_blocks"])
    def test_norm_bounds_keep_every_stop_decision(self, monkeypatch, route):
        """Runs that take ||x|| from the bounds where they decide stop where
        runs that compute it at every stability check stop, bit for bit."""
        prob = random_ls_problem(6, 12, seed=13, lam=0.15)
        if route == "uq_blocks":
            p = prob.partition
            sizes = (3, 3, 2, 4)
            partition = BlockPartition(
                block_sizes=sizes, lam=(0.15,) * 4,
                lipschitz=tuple(prob.smooth.block_lipschitz(sizes)),
                global_lipschitz=p.global_lipschitz,
            )
            prob = L0Problem(prob.smooth, partition)

        def runs():
            traces, rng = [], np.random.default_rng(14)
            for trial in range(12):
                x0 = rng.uniform(-1, 1, 12) * (rng.random(12) < 0.5)
                if route == "ihta":
                    M_f = 1.000001 * prob.partition.global_lipschitz
                    traces.append(run_ihta(prob, x0, M_f, max_iters=2000)[1])
                else:
                    spec = (
                        ApproxSpec("ue", np.full(prob.partition.num_blocks, 1e-4)) if route == "ue"
                        else separable_from_factor(prob.partition, 2.0)
                    )
                    cfg = SolverConfig(approx=spec, max_iters=2400, seed=trial)
                    traces.append(run_rcd_iht(prob, x0, cfg)[1])
            return traces

        norms = {"x": 0}
        original = solvers._norm

        def counting(v):
            norms["x"] += v.size == 12
            return original(v)

        monkeypatch.setattr(solvers, "_norm", counting)
        bounded = runs()
        bounded_norms, norms["x"] = norms["x"], 0
        monkeypatch.setattr(solvers, "_norm_bounds", lambda *a: (np.nan, np.nan))
        computed = runs()
        assert sum(t.metadata["stop"] == "converged" for t in computed) >= 6
        for a, b in zip(bounded, computed):
            assert a.metadata["stop"] == b.metadata["stop"]
            assert a.F.tobytes() == b.F.tobytes() and a.final_F == b.final_F
        # ||x|| (or, on ihta, a step) of length 12: far fewer with the bounds
        assert bounded_norms < norms["x"]

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
        tmap = resolved(prob, spec).map
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
        ue = ApproxSpec("ue", np.full(prob.partition.num_blocks, beta))
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
            delta_lower_bound(prob, resolved(prob, cfg.approx), np.ones(6))
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
    def test_resolves_one_uq_model_per_run(self, monkeypatch):
        calls = count_resolves(monkeypatch)
        prob = random_logistic_problem(10, 6, seed=48)
        run_ihta(prob, np.linspace(-1.0, 1.0, 6), 1.5 * prob.partition.global_lipschitz, 200)
        assert calls == ["uq"]

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

    def test_zero_penalty_coordinate_keeps_a_step_whose_progress_underflows(self):
        """A lambda = 0 coordinate takes its gradient step also where (M/2) t^2
        underflows to 0 (t = 1e-170) and where t is -0.0, as threshold_q does."""
        A = np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 1.0]])
        p = BlockPartition.scalar([0.3, 0.0, 0.3], [1.0, 1.0, 1.25])
        prob = L0Problem(LeastSquaresObjective(A, np.array([1.0, -1.0])), p)
        for v in (1e-170, -0.0):
            st, _ = run_ihta(prob, np.array([1.0, v, 0.0]), 1.3 * p.global_lipschitz, max_iters=1)
            assert np.float64(st.x[1]).tobytes() == np.float64(v).tobytes()

    @pytest.mark.parametrize("objective", ["least_squares", "logistic"])
    @pytest.mark.parametrize("sizes", [None, (3, 1, 2, 2)], ids=["scalar", "blocks_3_1_2_2"])
    def test_run_equals_the_generic_map_run(self, objective, sizes):
        """Whole runs give the trace of ``reference_run_ihta`` byte for byte,
        from zero starts (+0.0 and -0.0) and from starts with -0.0 entries;
        a lambda = 0 block (coordinate 1, or the 2-block at 4-5) takes plain
        steps. Support and penalty end as support_of and l0_norm of the point."""
        make = random_ls_problem if objective == "least_squares" else random_logistic_problem
        prob = make(9, 8, seed=58)
        lam = np.random.default_rng(59).uniform(0.05, 0.5, len(sizes or (1,) * 8))
        if sizes is None:
            lam[1] = 0.0
            p = BlockPartition.scalar(lam, prob.partition.lipschitz)
        else:
            lam[2] = 0.0
            lipschitz = tuple(prob.smooth.block_lipschitz(sizes))
            p = BlockPartition(block_sizes=sizes, lam=tuple(lam), lipschitz=lipschitz)
        assert ihta_runs_match_reference(L0Problem(prob.smooth, p)) >= 5

    @pytest.mark.parametrize("objective", ["least_squares", "logistic"])
    @pytest.mark.parametrize("sizes", [(1,) * 8, (3, 1, 2, 2)], ids=["scalar", "blocks_3_1_2_2"])
    def test_run_without_zero_penalty_equals_the_generic_map_run(self, objective, sizes):
        """On a partition where every block is penalized the step skips the
        lambda = 0 mask, and whole runs still give the reference trace."""
        make = random_ls_problem if objective == "least_squares" else random_logistic_problem
        prob = make(9, 8, seed=61)
        lam = tuple(np.random.default_rng(62).uniform(0.05, 0.5, len(sizes)).tolist())
        lipschitz = tuple(prob.smooth.block_lipschitz(sizes))
        p = BlockPartition(block_sizes=sizes, lam=lam, lipschitz=lipschitz)
        assert p.zero_penalty_bits == 0
        assert ihta_runs_match_reference(L0Problem(prob.smooth, p)) >= 5

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
        assert delta_lower_bound(prob, resolved(prob, spec), np.zeros(1)) == pytest.approx(0.5)

    def test_two_blocks_with_start_term(self):
        prob = self.problem_with([1.0, 1.0], [1.0, 1.0])
        spec = ApproxSpec("uq", [2.0, 2.0])
        delta = delta_lower_bound(prob, resolved(prob, spec), np.array([3.0, 0.0]))
        assert delta == pytest.approx(0.25)

    def test_linear_growth_in_lambda(self):
        spec = ApproxSpec("uq", [2.0])
        p1, p10 = self.problem_with([1.0], [1.0]), self.problem_with([10.0], [1.0])
        d1 = delta_lower_bound(p1, resolved(p1, spec), np.zeros(1))
        d10 = delta_lower_bound(p10, resolved(p10, spec), np.zeros(1))
        assert d10 == pytest.approx(10.0 * d1)

    def test_exact_kind_uses_shifted_curvature(self):
        # mu = beta = 0.5 and M = L + beta = 1.5: delta = (0.5 * 1 / 1.5) / 1
        prob = self.problem_with([1.0], [1.0])
        spec = ApproxSpec("ue", [0.5])
        delta = delta_lower_bound(prob, resolved(prob, spec), np.zeros(1))
        assert delta == pytest.approx(1.0 / 3.0)

    def test_huge_factor_and_penalty_give_a_finite_bound(self):
        # mu_i / M_i is about 1 when M_i = 1e300 L_i, so delta = lambda / N, not
        # the inf of an overflowing product mu_i * lambda_i
        prob = self.problem_with([1e10, 1e10], [1.0, 1.0])
        spec = separable_from_factor(prob.partition, 1e300)
        assert delta_lower_bound(prob, resolved(prob, spec), np.zeros(2)) == pytest.approx(0.5e10)

    def test_start_term_that_overflows_is_no_term(self):
        # (mu/2) x0_0^2 overflows for x0_0 = 1e200; the penalty term, (1/2) / 2, is the min
        prob = self.problem_with([1.0, 1.0], [1.0, 1.0])
        spec = ApproxSpec("uq", [2.0, 2.0])
        delta = delta_lower_bound(prob, resolved(prob, spec), np.array([1e200, 0.0]))
        assert delta == pytest.approx(0.25)

    def test_zero_penalty_blocks_skipped(self):
        prob = L0Problem(
            LeastSquaresObjective(np.eye(2), np.zeros(2)),
            BlockPartition.scalar([1.0, 0.0], [1.0, 1.0], 1.0),
        )
        spec = ApproxSpec("uq", [2.0, 2.0])
        # only the penalized block contributes: (1/2) * (1*1/2)
        assert delta_lower_bound(prob, resolved(prob, spec), np.zeros(2)) == pytest.approx(0.25)

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
        assert delta_lower_bound(prob, resolved(prob, spec), x0) == float(best / p.num_blocks)


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

    @pytest.mark.parametrize("num_blocks", [1, 7, 500])
    def test_block_draws_are_draw_block_calls(self, num_blocks):
        """Blocks drawn in chunks are the blocks of one draw_block call each,
        across two chunk boundaries."""
        assert 2 * solvers._DRAW_CHUNK < 700
        single = make_rng(11)
        expected = [draw_block(single, num_blocks) for _ in range(700)]
        draws = block_draws(make_rng(11), num_blocks)
        assert [next(draws) for _ in range(700)] == expected

    def test_norm_scales_past_overflow(self):
        v = np.array([3e200, -4e200, 0.0])
        assert _norm(v) == pytest.approx(5e200, rel=1e-15)
        assert _norm(np.array([-2e300])) == 2e300
        assert _norm(np.array([1e200, np.inf])) == np.inf
        assert _norm(np.array([1e-170])) == 0.0  # underflows, as np.linalg.norm does

    def test_norm_bounds_bracket_the_computed_norm(self):
        """A random walk of steps from 1e-170 to 1e100 stays inside the bounds
        taken from its start norm and its summed step norms."""
        rng = np.random.default_rng(12)
        for scale in (1e-170, 1e-20, 1.0, 1e100):
            x = scale * rng.standard_normal(30)
            start, drift = _norm(x), 0.0
            for k in range(1, 400):
                j = int(rng.integers(30))
                new = x[j] + scale * 10.0 ** rng.uniform(-12, 0) * rng.standard_normal()
                drift += _norm(np.array([new - x[j]]))
                x[j] = new
                lo, hi = _norm_bounds(start, drift, k, x.size)
                assert lo <= _norm(x) <= hi
        assert all(v != v for v in _norm_bounds(np.inf, 1.0, 1, 3)[:1])

    def test_trace_rows_schema(self, toy, monkeypatch, capsys):
        """The trace.csv fields from the columns ``cmd_solve`` hands the writer."""
        cfg = SolverConfig(
            approx=lipschitz_mode(toy.partition), max_iters=10, seed=0
        )
        result = run_rcd_iht(toy, np.array([2.0, 0.5]), cfg)
        trace = result[1]
        tables = {}

        class Recorder:
            def write_csv(self, name, header, columns):
                tables[name] = columns

        monkeypatch.setattr(cli, "build_problem", lambda _cfg: toy)
        monkeypatch.setattr(cli, "run_named_solver", lambda *_: result)
        cli.cmd_solve(cli.ExperimentConfig(), Recorder())
        rows = list(zip(*(cli._csv_fields(c) for c in tables["trace.csv"])))
        assert len(rows) == trace.iterations
        k, i_k, F, step, changed = rows[0]
        assert k == "0" and i_k in ("0", "1") and changed in ("0", "1")
        assert float(F) == pytest.approx(1.0)
