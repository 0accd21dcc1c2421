"""Random block coordinate descent with hard thresholding, and the
full-gradient hard-thresholding baseline, with instrumented traces.

Every iteration of the coordinate method draws one block uniformly at random
and replaces it by the thresholding map of the configured approximation
model. The recorded trace carries enough to verify the per-iteration descent
inequality

    F(x^{k+1}) <= F(x^k) - (mu_i/2) ||x^{k+1}_i - x^k_i||^2,

count support changes, and fit the linear convergence rate of the final
fixed-support phase.
"""
from __future__ import annotations

import contextlib
import math
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .approx import TIE_RULE, ApproxSpec, Model, resolve
# l0_norm stays importable from this module.
from .core import IterateState, L0Problem, _bitmask_of, l0_norm  # noqa: F401

# Counter-based generator pinned for cross-run reproducibility; the
# identifier travels in trace metadata and CSV headers.
RNG_ALGORITHM = "philox4x64"

# Slack terms for the runtime descent check and the stopping rule.
_DESCENT_SLACK = 1e-12
_STEP_TOL = 1e-10
# Relative gap between the tracked f and f from a fresh cache that a stop repairs.
_DRIFT_TOL = 1e-9
# Uniform doubles a run draws from its generator at a time.
_DRAW_CHUNK = 256


class InvariantViolation(RuntimeError):
    """Raised when an iteration breaks the guaranteed descent inequality.

    This signals a bug or an invalid Lipschitz constant, never a benign
    numerical hiccup: the slack already absorbs roundoff.
    """


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(int(seed)))


def draw_block(rng: np.random.Generator, num_blocks: int) -> int:
    # Rejection-free uniform mapping from the 53-bit double; no modulo bias.
    return int(num_blocks * rng.random())


def block_draws(rng: np.random.Generator, num_blocks: int) -> Iterator[int]:
    """The blocks of repeated ``draw_block(rng, num_blocks)`` calls, endless.

    The doubles come ``_DRAW_CHUNK`` at a time from one ``rng.random``
    call, which yields the values of as many single ``rng.random()``
    calls; the generator runs ahead of the blocks taken by up to that many
    doubles.
    """
    while True:
        for u in rng.random(_DRAW_CHUNK).tolist():
            yield int(num_blocks * u)


@dataclass
class SolverConfig:
    """Settings for one coordinate-descent run."""

    approx: ApproxSpec
    max_iters: int
    seed: int = 0
    support_patience: int | None = None  # default 3N, see stopping rule

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.support_patience is not None and self.support_patience < 1:
            raise ValueError("support_patience must be at least 1")


@dataclass
class SolverTrace:
    """Per-iteration record of a solver run.

    ``F`` holds the objective before each iteration; ``final_F`` closes the
    sequence. ``blocks`` holds the chosen block index (-1 for full-gradient
    iterations). ``supports`` are bitmask snapshots of I(x^k) before each
    iteration.
    """

    blocks: np.ndarray
    F: np.ndarray
    step_norms: np.ndarray
    support_changed: np.ndarray
    supports: list[int]
    final_x: np.ndarray
    final_F: float
    delta_bound: float
    metadata: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.blocks)

    @property
    def support_change_iterations(self) -> np.ndarray:
        return np.flatnonzero(self.support_changed)

    @property
    def kappa(self) -> int:
        """Number of iterations whose step changed the support set."""
        return int(np.count_nonzero(self.support_changed))

    @property
    def fixed_support_tail_start(self) -> int:
        """First iteration of the final constant-support phase."""
        changes = self.support_change_iterations
        return int(changes[-1]) + 1 if len(changes) else 0


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array.

    np.linalg.norm's own formula, bit for bit, without its per-call
    dispatch, except where v . v overflows a finite v: the norm is then
    taken from v scaled by its largest magnitude, so a step longer than
    1.34e154 gets its norm and not inf. A one-entry v gets |v_0| there,
    as the float step does. ``np.vdot`` makes the BLAS ddot call of
    ``v.dot``, which is also the call of ``v @ v`` and so has its bits,
    without raising numpy's overflow warning for the case handled here.
    """
    s = math.sqrt(np.vdot(v, v))
    if s == math.inf:
        scale = float(np.abs(v).max())
        if scale < math.inf:
            w = v / scale
            s = scale * math.sqrt(w.dot(w))
    return s


def _block_step(problem: L0Problem, model: Model) -> Callable[[IterateState, int], float]:
    """The step that replaces block i by ``model``'s map; it returns the step norm.

    A null step touches nothing. Otherwise point, cache and f value move
    together. A step that changes the zero pattern of the block passes the
    changed bits, shifted to the block's offset, to ``IterateState.flip``.
    The step does O(m n_i) work, plus an ``l0_norm`` on a support change
    where the partition has no ``count_penalty`` table.
    """
    smooth = problem.smooth
    partition = problem.partition
    tmap = model.map

    def step(state: IterateState, i: int) -> float:
        sl = partition.block_slice(i)
        block = state.x[sl]
        new_block = tmap(state.x, sl, smooth.block_grad(state.x, sl, state.cache), state.cache)
        delta = new_block - block
        if not delta.any():
            return 0.0
        changed = (block != 0.0) != (new_block != 0.0)
        block[:] = new_block
        smooth.update_cache(state.cache, sl, delta)
        state.f_value = smooth.value_from_cache(state.x, state.cache)
        if changed.any():
            state.flip(problem, _bitmask_of(changed) << sl.start)
        return _norm(delta)

    return step


def _scalar_step(problem: L0Problem, model: Model) -> Callable[[IterateState, int], float]:
    """``_block_step`` for a partition of scalar blocks, on Python floats.

    Block j is coordinate j, and ``model.threshold`` is its map. The
    threshold, the null-step test, the zero-pattern test and the step norm
    are float operations, with the same roundings as the block arithmetic,
    so both steps move a state bit for bit alike. The gradient, the cache
    update (a column axpy) and the f value still go through the oracle and
    numpy; a zero-pattern change passes its one bit to ``flip``.
    """
    smooth = problem.smooth
    threshold = model.threshold

    def step(state: IterateState, j: int) -> float:
        x = state.x
        old = float(x[j])
        new = threshold(x, j, old, state.cache)
        d = new - old
        if d == 0.0:
            return 0.0
        x[j] = new
        smooth.update_cache(state.cache, j, d)
        state.f_value = smooth.value_from_cache(x, state.cache)
        if (old != 0.0) != (new != 0.0):
            state.flip(problem, 1 << j)
        # bit for bit _norm of the one-entry delta, also on underflow and overflow
        s = math.sqrt(d * d)
        return abs(d) if s == math.inf else s

    return step


def _coordinate_step(problem: L0Problem, model: Model) -> Callable[[IterateState, int], float]:
    """The step a coordinate run takes: on Python floats when every block is
    one coordinate (``_scalar_step``), on arrays otherwise (``_block_step``)."""
    if problem.partition.n == problem.partition.num_blocks:
        return _scalar_step(problem, model)
    return _block_step(problem, model)


def _check_descent(F_old: float, F_new: float, mu: float, step_norm: float, i: int) -> None:
    """Raise InvariantViolation unless F_new <= F_old - (mu/2) step^2 + slack.

    The product is taken as (0.5 mu) step step, so a step norm above
    1.34e154 with a small mu gives a finite decrease: step^2 would overflow
    (``step**2`` raises OverflowError there).
    """
    bound = F_old - 0.5 * mu * step_norm * step_norm + _DESCENT_SLACK * (1.0 + abs(F_old))
    if F_new > bound:
        where = f"block {i}" if i >= 0 else "the full-gradient step"
        raise InvariantViolation(
            f"descent inequality violated at {where}: F {F_old:.12g} -> {F_new:.12g}, "
            f"required <= {bound:.12g} (mu={mu:.3g}, step={step_norm:.3g}); "
            "check the Lipschitz constants"
        )


def _norm_bounds(x_norm: float, drift: float, steps: int, n: int) -> tuple[float, float]:
    """Floats lo <= _norm(x) <= hi for an x reached in ``steps`` steps from a
    point whose ``_norm`` was ``x_norm``, where the steps' norms sum to
    ``drift``.

    The triangle inequality gives ||x|| within x_norm -+ drift. The slack
    covers the rounding of each norm (n terms), of the sum (``steps``
    terms) and of this arithmetic with a relative 4 eps (n + steps + 4),
    and steps whose norm underflowed to 0 with the absolute 1e-140 term.
    A stop test is monotone in the norm, so if it gives one answer at lo
    and at hi, it gives that answer at _norm(x). A non-finite input gives
    a NaN or infinite bound, which decides nothing.
    """
    slack = 2.0**-51 * (n + steps + 4) * (x_norm + drift + 1e-140)
    return x_norm - drift - slack, x_norm + drift + slack


def _refreshed(problem: L0Problem, state: IterateState) -> bool:
    """Rebuild the state from its point if the tracked f has drifted; say whether it did.

    Incremental cache updates can cancel large entries (a run from a start
    with huge coordinates), and the tracked f then drifts from f(x). A
    drift above _DRIFT_TOL * (1 + |f|) triggers ``state.refresh``.
    """
    smooth = problem.smooth
    fresh = smooth.value_from_cache(state.x, smooth.make_cache(state.x))
    if abs(fresh - state.f_value) <= _DRIFT_TOL * (1.0 + abs(state.f_value)):
        return False
    state.refresh(problem)
    return True


def _drive(
    problem: L0Problem,
    x0: np.ndarray,
    step: Callable[[IterateState], tuple[int, float, float]],
    max_iters: int,
    window: int,
    delta_bound: float,
    metadata: dict,
) -> tuple[IterateState, SolverTrace]:
    """The iteration loop shared by every route.

    ``step`` moves the state one iteration forward in place and returns the
    block it drew (-1 for a full-gradient step), the step norm and the
    descent modulus mu of that step. F is read once per iteration, as
    ``f_value + penalty`` (the bits of ``IterateState.objective``), and
    checked against the descent inequality; ``_check_descent`` is called
    only to raise, with the same test. Stops at max_iters, or earlier
    once the support has been stable for ``window`` consecutive iterations
    and every step over that window moved the point by at most
    1e-10 * (1 + ||x||). ||x|| is computed only where ``_norm_bounds``,
    from the last computed norm and the step norms since, cannot decide
    that test, so the decision is always the one the computed norm gives.
    At either stop the tracked f is checked against a fresh cache
    (``_refreshed``); after a refresh a ``converged`` stop is taken back,
    and the run goes on with the stability window restarted.
    """
    n = problem.n
    state = IterateState.from_point(problem, x0)
    F_cur = state.objective()

    records: list[tuple[int, float, float, bool, int]] = []
    # (k, step norm) with norms falling from front to back: the front is
    # the largest step of the last ``window`` iterations, at O(1) amortized.
    peaks: deque[tuple[int, float]] = deque()
    stable = 0
    x_norm: float | None = None  # ||x|| at iteration k_norm, None before the first
    k_norm = 0
    drift = 0.0  # sum of the step norms since k_norm
    stop_reason = "max_iters"

    for k in range(max_iters):
        support_before = state.support
        i, step_norm, mu = step(state)
        F_new = state.f_value + state.penalty
        # _check_descent's test, inline
        if F_new > F_cur - 0.5 * mu * step_norm * step_norm + _DESCENT_SLACK * (1.0 + abs(F_cur)):
            _check_descent(F_cur, F_new, mu, step_norm, i)

        changed = state.support != support_before
        records.append((i, F_cur, step_norm, changed, support_before))
        F_cur = F_new

        while peaks and peaks[-1][1] <= step_norm:
            peaks.pop()
        peaks.append((k, step_norm))
        if peaks[0][0] <= k - window:
            peaks.popleft()
        stable = 0 if changed else stable + 1
        drift += step_norm
        if stable >= window:
            peak = peaks[0][1]
            small = None
            if x_norm is not None:
                lo, hi = _norm_bounds(x_norm, drift, k + 1 - k_norm, n)
                if peak <= _STEP_TOL * (1.0 + lo):
                    small = True
                elif peak > _STEP_TOL * (1.0 + hi):
                    small = False
            if small is None:
                x_norm, k_norm, drift = _norm(state.x), k + 1, 0.0
                small = peak <= _STEP_TOL * (1.0 + x_norm)
            if small:
                if _refreshed(problem, state):
                    # the run stood on a drifted f; it goes on from the fresh one
                    F_cur = state.objective()
                    stable = 0
                    continue
                stop_reason = "converged"
                break
    if stop_reason == "max_iters" and _refreshed(problem, state):
        F_cur = state.objective()

    blocks, F_seq, steps, changed_seq, supports = zip(*records) if records else ((),) * 5
    trace = SolverTrace(
        blocks=np.array(blocks, dtype=int),
        F=np.array(F_seq, dtype=float),
        step_norms=np.array(steps, dtype=float),
        support_changed=np.array(changed_seq, dtype=bool),
        supports=list(supports),
        final_x=state.x.copy(),
        final_F=F_cur,
        delta_bound=delta_bound,
        metadata={**metadata, "tie_rule": TIE_RULE, "stop": stop_reason},
    )
    return state, trace


def run_rcd_iht(
    problem: L0Problem, x0: np.ndarray, config: SolverConfig, *, model: Model | None = None
) -> tuple[IterateState, SolverTrace]:
    """Run the randomized coordinate thresholding method from x0.

    Blocks are drawn i.i.d. uniformly from the seeded counter-based
    generator. The stopping window (see ``_drive``) defaults to 3N
    iterations. Deterministic given (seed, x0, problem, config).
    ``model`` is ``config.approx`` resolved on ``problem`` and checked by
    ``Model.validate_for_solver``, where the caller has it already; by
    default the run resolves and checks it itself.
    """
    partition = problem.partition
    spec = config.approx
    if model is None:
        model = resolve(spec, problem.smooth, partition)
        model.validate_for_solver()
    mu = model.mu
    N = partition.num_blocks
    rng = make_rng(config.seed)

    window = config.support_patience if config.support_patience is not None else 3 * N
    metadata = {
        "solver": "rcd-iht", "approx": spec.kind, "rng": RNG_ALGORITHM, "seed": int(config.seed)
    }

    update = _coordinate_step(problem, model)
    draws = block_draws(rng, N)

    def step(state: IterateState) -> tuple[int, float, float]:
        i = next(draws)
        return i, update(state, i), mu[i]

    bound = delta_lower_bound(problem, model, x0)
    # as in run_ihta; the float step has no numpy product to overflow, and
    # errstate would slow each numpy call in it
    with np.errstate(over="ignore") if N < partition.n else contextlib.nullcontext():
        return _drive(problem, x0, step, config.max_iters, window, bound, metadata)


def run_ihta(
    problem: L0Problem,
    x0: np.ndarray,
    M_f: float,
    max_iters: int,
    support_patience: int = 3,
) -> tuple[IterateState, SolverTrace]:
    """Full-gradient hard-thresholding baseline with global constant M_f.

    The one-block case of the coordinate method: each iteration maps the
    whole point by the ``uq`` model with M_i = M_f, resolved once per run:
    the gradient step x - grad f(x) / M_f, with x_j zeroed unless its
    penalty is 0 or (M_f/2) |x_j - grad_j/M_f|^2 exceeds it (ties to zero).
    Requires a finite M_f > L_f. Deterministic; trace block index is -1.
    The stability window is 3 full iterations (each touches every block).
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if support_patience < 1:
        raise ValueError("support_patience must be at least 1")
    partition = problem.partition
    if not partition.global_lipschitz < M_f < math.inf:
        raise ValueError(
            f"M_f={M_f} must be finite and strictly exceed the global Lipschitz "
            f"constant {partition.global_lipschitz}"
        )
    mu_f = M_f - partition.global_lipschitz
    smooth = problem.smooth
    tmap = resolve(ApproxSpec("uq", [M_f] * partition.num_blocks), smooth, partition).map
    whole = slice(0, partition.n)
    # The zero pattern of state.x as bool-mask bytes (-0.0 counts as zero),
    # kept between steps: only a step moves x, and a refresh keeps it.
    pattern = None

    def step(state: IterateState) -> tuple[int, float, float]:
        nonlocal pattern
        # The cache holds the residual (or predictors) at state.x already.
        x = state.x
        if pattern is None:
            pattern = (x != 0.0).tobytes()
        new_x = tmap(x, whole, smooth.block_grad(x, whole, state.cache), state.cache)
        step_norm = _norm(new_x - x)
        state.x = new_x
        # a fresh cache each step, so the tracked f cannot drift
        state.cache = smooth.make_cache(new_x)
        state.f_value = smooth.value_from_cache(new_x, state.cache)
        new_pattern = (new_x != 0.0).tobytes()
        if new_pattern != pattern:
            pattern = new_pattern
            state.recount(problem)
        return -1, step_norm, mu_f

    metadata = {
        "solver": "ihta", "approx": "uq-global", "rng": "none", "seed": 0, "M_f": float(M_f)
    }
    # a huge M overflows _keep_or_zero's (M/2) t t to inf, the right decision
    with np.errstate(over="ignore"):
        return _drive(problem, x0, step, max_iters, support_patience, float("nan"), metadata)


def delta_lower_bound(problem: L0Problem, model: Model, x0: np.ndarray) -> float:
    """Guaranteed objective decrease per support change, from the start point.

    delta = (1/N) * min{ min over blocks with lambda_i > 0 of mu_i lambda_i / M_i,
                         min over initially nonzero coordinates j of (mu_i/2) x0_j^2 }

    The second inner min is dropped when x0 has empty support. For the exact
    model the curvature constant M_i is L_i + beta_i. mu_i and M_i are the
    ``Model``'s, resolved on ``problem``.
    """
    partition = problem.partition
    x0 = np.asarray(x0, dtype=float)
    mu = np.array(model.mu)
    lam = partition.lam_array
    # (mu_i / M_i) * lambda_i: mu_i <= M_i, so no product overflows
    best = np.min((mu / model.curvature_bound * lam)[lam > 0.0])
    # smallest x0_j^2 over each block's nonzeros; inf (no term) where there are none.
    # A term that overflows is inf too, and best is finite, so it is never the min.
    with np.errstate(over="ignore"):
        sq = np.minimum.reduceat(np.where(x0 != 0.0, x0**2, np.inf), partition.block_starts)
        return float(min(best, np.min(0.5 * mu * sq)) / partition.num_blocks)


def estimate_linear_rate(trace: SolverTrace, F_star: float) -> tuple[float, float]:
    """Fit log(F^k - F_star) over the final fixed-support phase.

    Returns (slope, r_squared) of the least-squares line; a linearly
    converging tail yields a negative slope with r_squared near 1. Gaps are
    floored at 1e-16. Raises ValueError when the tail has fewer than 20
    iterations.
    """
    start = trace.fixed_support_tail_start
    F_tail = np.append(trace.F[start:], trace.final_F)
    if len(F_tail) < 20:
        raise ValueError(
            f"fixed-support tail has {len(F_tail)} iterations; need at least 20"
        )
    gaps = np.maximum(F_tail - F_star, 1e-16)
    y = np.log(gaps)
    k = np.arange(len(y), dtype=float)
    slope, intercept = np.polyfit(k, y, 1)
    fit = slope * k + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r_squared)
