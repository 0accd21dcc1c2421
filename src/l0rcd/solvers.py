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

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .approx import TIE_RULE, ApproxSpec, model_curvature, threshold_e, threshold_map
# l0_norm stays importable from this module.
from .core import IterateState, L0Problem, l0_norm  # noqa: F401

# Counter-based generator pinned for cross-run reproducibility; the
# identifier travels in trace metadata and CSV headers.
RNG_ALGORITHM = "philox4x64"

# Slack terms for the runtime descent check and the stopping rule.
_DESCENT_SLACK = 1e-12
_STEP_TOL = 1e-10
# Relative gap between the tracked f and f from a fresh cache that a stop repairs.
_DRIFT_TOL = 1e-9


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
    # np.linalg.norm's own formula for a 1-D float array, bit for bit,
    # without its per-call dispatch
    return math.sqrt(v.dot(v))


def _block_step(problem: L0Problem, spec: ApproxSpec) -> Callable[[IterateState, int], float]:
    """The step that replaces block i by its thresholding map; it returns the step norm.

    The map is built here, so a spec that does not fit raises ValueError
    before any step. A null step touches nothing. Otherwise point, cache and
    f value move together; support and penalty are recounted only on a
    zero-pattern change.
    """
    smooth = problem.smooth
    partition = problem.partition
    tmap = threshold_map(spec, smooth, partition)

    def step(state: IterateState, i: int) -> float:
        sl = partition.block_slice(i)
        new_block = tmap(state.x, sl, smooth.block_grad(state.x, sl, state.cache), state.cache)
        delta = new_block - state.x[sl]
        if not delta.any():
            return 0.0
        pattern_changed = np.any((state.x[sl] != 0.0) != (new_block != 0.0))
        state.x[sl] = new_block
        smooth.update_cache(state.cache, sl, delta)
        state.f_value = smooth.value_from_cache(state.x, state.cache)
        if pattern_changed:
            state.recount(problem)
        return _norm(delta)

    return step


def _scalar_step(problem: L0Problem, spec: ApproxSpec) -> Callable[[IterateState, int], float]:
    """``_block_step`` for a partition of scalar blocks, on Python floats.

    Block j is coordinate j. The threshold, the null-step test, the
    zero-pattern test and the step norm are float operations, with the same
    roundings as the block arithmetic, so both steps move a state bit for bit
    alike. The gradient, the cache update, the f value and a recount still
    go through the oracle and numpy.
    """
    smooth = problem.smooth
    lam = problem.partition.lam
    curvature = model_curvature(spec, smooth, problem.partition)
    if curvature is None:
        beta = spec.params

        def threshold(x: np.ndarray, j: int, x_j: float, cache: np.ndarray) -> float:
            return threshold_e(smooth, x, j, beta[j], lam[j], cache)

    else:
        curvature = curvature.tolist()

        def threshold(x: np.ndarray, j: int, x_j: float, cache: np.ndarray) -> float:
            # threshold_q on floats: the gradient step, kept where its
            # progress value beats lambda_j, and always when lambda_j is 0
            M = curvature[j]
            t = x_j - float(smooth.coord_grad_shifted(x, j, 0.0, cache)) / M
            return t if lam[j] == 0.0 or 0.5 * M * t * t > lam[j] else 0.0

    def step(state: IterateState, j: int) -> float:
        x = state.x
        old = float(x[j])
        new = threshold(x, j, old, state.cache)
        d = new - old
        if d == 0.0:
            return 0.0
        x[j] = new
        smooth.update_cache(state.cache, slice(j, j + 1), np.array([d]))
        state.f_value = smooth.value_from_cache(x, state.cache)
        if (old != 0.0) != (new != 0.0):
            state.recount(problem)
        # bit for bit np.linalg.norm of the one-entry delta, also on underflow
        return math.sqrt(d * d)

    return step


def _coordinate_step(problem: L0Problem, spec: ApproxSpec) -> Callable[[IterateState, int], float]:
    """The step a coordinate run takes: on Python floats when every block is
    one coordinate (``_scalar_step``), on arrays otherwise (``_block_step``)."""
    if problem.partition.n == problem.partition.num_blocks:
        return _scalar_step(problem, spec)
    return _block_step(problem, spec)


def _check_descent(F_old: float, F_new: float, mu: float, step_norm: float, i: int) -> None:
    """Raise InvariantViolation unless F_new <= F_old - (mu/2) step^2 + slack."""
    step_sq = step_norm**2
    bound = F_old - 0.5 * mu * step_sq + _DESCENT_SLACK * (1.0 + abs(F_old))
    if F_new > bound:
        where = f"block {i}" if i >= 0 else "the full-gradient step"
        raise InvariantViolation(
            f"descent inequality violated at {where}: F {F_old:.12g} -> {F_new:.12g}, "
            f"required <= {bound:.12g} (mu={mu:.3g}, step^2={step_sq:.3g}); "
            "check the Lipschitz constants"
        )


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
    descent modulus mu of that step. F is evaluated once per iteration and
    checked against the descent inequality. Stops at max_iters, or earlier
    once the support has been stable for ``window`` consecutive iterations
    and every step over that window moved the point by at most
    1e-10 * (1 + ||x||). ||x|| is recomputed only after a step moved x.
    At either stop the tracked f is checked against a fresh cache
    (``_refreshed``); after a refresh a ``converged`` stop is taken back,
    and the run goes on with the stability window restarted.
    """
    state = IterateState.from_point(problem, x0)
    F_cur = state.objective()

    records: list[tuple[int, float, float, bool, int]] = []
    # (k, step norm) with norms falling from front to back: the front is
    # the largest step of the last ``window`` iterations, at O(1) amortized.
    peaks: deque[tuple[int, float]] = deque()
    stable = 0
    x_norm: float | None = None  # ||x||, None once a step moved x
    stop_reason = "max_iters"

    for k in range(max_iters):
        support_before = state.support
        i, step_norm, mu = step(state)
        F_new = state.objective()
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
        # A nonzero move whose norm underflows to 0.0 changes ||x|| far below
        # what 1 + ||x|| resolves.
        if step_norm != 0.0:
            x_norm = None
        if stable >= window:
            if x_norm is None:
                x_norm = _norm(state.x)
            if peaks[0][1] <= _STEP_TOL * (1.0 + x_norm):
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
    problem: L0Problem, x0: np.ndarray, config: SolverConfig
) -> tuple[IterateState, SolverTrace]:
    """Run the randomized coordinate thresholding method from x0.

    Blocks are drawn i.i.d. uniformly from the seeded counter-based
    generator. The stopping window (see ``_drive``) defaults to 3N
    iterations. Deterministic given (seed, x0, problem, config).
    """
    partition = problem.partition
    spec = config.approx
    spec.validate_for_solver(partition)
    mu = spec.mu(partition).tolist()
    N = partition.num_blocks
    rng = make_rng(config.seed)

    window = config.support_patience if config.support_patience is not None else 3 * N
    metadata = {
        "solver": "rcd-iht", "approx": spec.kind, "rng": RNG_ALGORITHM, "seed": int(config.seed)
    }

    update = _coordinate_step(problem, spec)

    def step(state: IterateState) -> tuple[int, float, float]:
        i = draw_block(rng, N)
        return i, update(state, i), mu[i]

    return _drive(
        problem, x0, step, config.max_iters, window, delta_lower_bound(problem, spec, x0), metadata
    )


def run_ihta(
    problem: L0Problem,
    x0: np.ndarray,
    M_f: float,
    max_iters: int,
    support_patience: int = 3,
) -> tuple[IterateState, SolverTrace]:
    """Full-gradient hard-thresholding baseline with global constant M_f.

    Every iteration applies the thresholding map of the separable quadratic
    model with M_i = M_f to every block at once: the gradient step
    x - grad f(x) / M_f, with coordinate j zeroed unless
    (M_f/2) |x_j - grad_j/M_f|^2 exceeds its block's penalty (ties to zero,
    as in the coordinate method) or that penalty is 0. Requires a finite
    M_f > L_f. Deterministic; trace block index is -1. The stability window
    is 3 full iterations (each one touches every block).
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
    tmap = threshold_map(
        ApproxSpec("uq", np.full(partition.num_blocks, M_f)), smooth, partition
    )
    whole = slice(0, partition.n)

    def step(state: IterateState) -> tuple[int, float, float]:
        # The cache holds the residual (or predictors) at state.x already.
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
    return _drive(problem, x0, step, max_iters, support_patience, float("nan"), metadata)


def delta_lower_bound(problem: L0Problem, spec: ApproxSpec, x0: np.ndarray) -> float:
    """Guaranteed objective decrease per support change, from the start point.

    delta = (1/N) * min{ min over blocks with lambda_i > 0 of mu_i lambda_i / M_i,
                         min over initially nonzero coordinates j of (mu_i/2) x0_j^2 }

    The second inner min is dropped when x0 has empty support. For the exact
    model the curvature constant M_i is L_i + beta_i.
    """
    partition = problem.partition
    x0 = np.asarray(x0, dtype=float)
    mu = spec.mu(partition)
    lam = partition.lam_array
    # (mu_i / M_i) * lambda_i: mu_i <= M_i, so no product overflows
    best = np.min((mu / spec.curvature_bound(partition) * lam)[lam > 0.0])
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


def trace_rows(trace: SolverTrace):
    """Iterate CSV rows (k, i_k, F, step_norm, support_changed) for export."""
    for k in range(trace.iterations):
        yield (
            k,
            int(trace.blocks[k]),
            trace.F[k],
            trace.step_norms[k],
            int(trace.support_changed[k]),
        )
