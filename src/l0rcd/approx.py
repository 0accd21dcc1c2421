"""Blockwise approximation models and their thresholding maps.

Three convex upper models of the smooth term along one block are supported,
each agreeing with f and its block gradient at the current point x:

- ``uq``, separable quadratic: gradient step model with scalar curvature M_i > L_i,
- ``uQ``, diagonal quadratic: per-coordinate curvatures (the diagonal of H_i),
- ``ue``, exact: the true one-dimensional restriction of f plus a proximal term
  (beta_i/2) |y - x_i|^2, scalar blocks only. Where f is quadratic along
  each coordinate (least squares) this is the diagonal model with
  curvature ||A_j||^2 + beta_j; ``resolve`` says which case holds.

The thresholding map minimizes model + lambda_i * ||.||_0 over the block by
comparing a "keep" candidate against zeroing, coordinate by coordinate for
the separable models. Ties resolve to zero (the sparser point); the tie rule
is recorded in solver/CLI output metadata as ``tie_rule=zero``.

``resolve`` turns a model (``ApproxSpec``) into a ``Model`` on one oracle and
one partition, once per solver run and once per class: the block map, the
float threshold of one coordinate and the fixed-point test all come from it.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import BlockPartition
from .objectives import SmoothOracle

# Relative perturbation for "M equal to the Lipschitz constant" solver mode;
# the solver contract needs strict M_i > L_i.
M_EQ_LIPSCHITZ_FACTOR = 1.0 + 1e-6

TIE_RULE = "zero"

# Relative margin by which a curvature bound on the exact model's progress
# must clear lambda_j before it decides the step (see ``threshold_e``).
_CERT_MARGIN = 1e-9

# The kinds, each with the name of its parameters in error messages.
_PARAMS_OF = {"uq": "M", "uQ": "H diagonal", "ue": "beta"}


@dataclass(frozen=True)
class ApproxSpec:
    """An approximation model: its kind and its parameters.

    Solvers step with the model's thresholding map; ``is_strong_local_min``
    and ``enumerate_catalog`` classify points by its fixed points. ``kind``
    is the label every output uses: "uq" (separable quadratic, ``params``
    holds M_i per block), "uQ" (diagonal quadratic, H_j per coordinate) or
    "ue" (exact, beta_i per scalar block). The package reads a spec's
    constants from its resolved ``Model``; the methods below derive them
    through ``_constants`` too.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in _PARAMS_OF:
            raise ValueError(f"unknown approximation kind: {self.kind!r}")
        params = tuple(float(v) for v in np.atleast_1d(self.params))
        if any(not 0.0 < v < math.inf for v in params):
            raise ValueError(f"{_PARAMS_OF[self.kind]} entries must be finite and positive")
        object.__setattr__(self, "params", params)

    def mu(self, partition: BlockPartition) -> np.ndarray:
        """Per-block descent modulus: min curvature over block i minus L_i, or beta_i."""
        return np.array(_constants(self, partition)[1])

    def curvature_bound(self, partition: BlockPartition) -> np.ndarray:
        """Per-block curvature constant M_i used in magnitude and progress bounds."""
        return _constants(self, partition)[2]

    def validate_for_solver(self, partition: BlockPartition) -> None:
        """Check the parameters fit ``partition`` and the strict-curvature condition mu > 0."""
        _check_mu(self.kind, _constants(self, partition)[1])


def _constants(
    spec: ApproxSpec, partition: BlockPartition
) -> tuple[np.ndarray | None, list[float], np.ndarray]:
    """(curvature, mu, bound) of ``spec`` on ``partition``; ValueError where it does not fit.

    The parameters must have one entry per block (per coordinate for the
    diagonal kind), and the exact kind needs scalar blocks. ``curvature`` is
    the quadratic model's per coordinate: M_i repeated over block i, or H_j;
    the exact kind has none of its own (None). ``mu`` is the per-block
    descent modulus as Python floats: the least curvature over block i minus
    L_i, or beta_i. ``bound`` is the per-block M_i of the magnitude and
    progress bounds: the largest curvature over block i, or L_i + beta_i,
    the smallest constant whose quadratic model dominates the exact one.
    """
    size = len(spec.params)
    expect = partition.n if spec.kind == "uQ" else partition.num_blocks
    if size != expect:
        raise ValueError(f"{spec.kind} parameters have length {size}, expected {expect}")
    lipschitz = np.asarray(partition.lipschitz, dtype=float)
    if spec.kind == "ue":
        if any(s != 1 for s in partition.block_sizes):
            raise ValueError("exact approximation requires scalar blocks")
        return None, list(spec.params), lipschitz + np.asarray(spec.params, dtype=float)
    if spec.kind == "uq":
        curvature = np.repeat(np.asarray(spec.params, dtype=float), partition.block_sizes)
    else:
        curvature = np.asarray(spec.params, dtype=float)
    starts = partition.block_starts
    mu = (np.minimum.reduceat(curvature, starts) - lipschitz).tolist()
    return curvature, mu, np.maximum.reduceat(curvature, starts)


def _check_mu(kind: str, mu) -> None:
    # the strict-curvature condition of a solver run: mu_i > 0 on every block
    if any(m <= 0 for m in mu):
        raise ValueError(f"{kind} curvature must strictly exceed the block Lipschitz constants")


def separable_from_factor(partition: BlockPartition, factor: float) -> ApproxSpec:
    """Separable quadratic spec with M_i = factor * L_i (factor > 1)."""
    # Python floats: a product that overflows is an inf the spec rejects, with no numpy warning
    return ApproxSpec("uq", [L * float(factor) for L in partition.lipschitz])


def threshold_q(x_i: np.ndarray, grad_i: np.ndarray, M_i, lambda_i) -> np.ndarray:
    """Quadratic-model thresholding of one block.

    ``M_i`` is the curvature and ``lambda_i`` the penalty, each one scalar
    for the block or one entry per coordinate. The progress value
    Delta_j = (M_j/2) t_j^2 of the gradient-step candidate
    t_j = x_j - grad_j / M_j is the model decrease forfeited by zeroing
    coordinate j. Keeps t_j where Delta_j > lambda_j, writes an exact zero
    where Delta_j < lambda_j, and resolves ties to zero. Where lambda_j = 0
    this is the plain gradient step.
    """
    M_i = np.asarray(M_i, dtype=float)
    t = np.asarray(x_i, dtype=float) - np.asarray(grad_i, dtype=float) / M_i
    return _keep_or_zero(t, 0.5 * M_i, lambda_i, np.equal(lambda_i, 0.0))


def _keep_or_zero(t: np.ndarray, half, lam, free) -> np.ndarray:
    """t where (half t) t > lam or where ``free`` (None: nowhere), else an exact zero."""
    keep = half * t * t > lam
    return np.where(keep if free is None else keep | free, t, 0.0)


def _solve_1d(
    oracle: SmoothOracle,
    x: np.ndarray,
    j: int,
    beta: float,
    cache: np.ndarray,
    at_zero: tuple[float, float] | None = None,
    max_iters: int = 200,
) -> float:
    """Root of g'(h) = d/dh [f(x + h e_j) + (beta/2) h^2], safeguarded Newton.

    g is strictly convex (beta > 0), so g' is increasing with a unique root,
    on the side of 0 where g' has the sign opposite to g'(0). The bracket
    grows on that side only, from B = 1 by doubling, until g'(+-B) changes
    sign (RuntimeError if it has not by B = 2^1023, the last finite
    doubling); then Newton iterations start from h = 0 with the known g'(0) and
    fall back to bisection whenever a step leaves the bracket. g' is
    evaluated once at every point visited; at h = 0 and at every Newton
    point it comes with g'' from one ``coord_grad_curvature_shifted`` query,
    whose answer at h = 0 the caller may pass as ``at_zero``. Converges when
    |g'(h)| <= 1e-10 * (1 + |g'(0)|).
    """

    def gp(h: float) -> float:
        return oracle.coord_grad_shifted(x, j, h, cache) + beta * h

    if at_zero is None:
        at_zero = oracle.coord_grad_curvature_shifted(x, j, 0.0, cache)
    g0, curv = at_zero[0], at_zero[1] + beta
    tol = 1e-10 * (1.0 + abs(g0))
    if abs(g0) <= tol:
        return 0.0

    side = 1.0 if g0 < 0.0 else -1.0
    B = 1.0
    grow = 0
    # multiplying by side is exact, so the sign test cannot underflow
    while side * gp(side * B) < 0.0:
        if grow == 1023:  # 2^1024 overflows
            raise RuntimeError(
                f"could not bracket the 1-D minimizer for coordinate {j}: g'(h) keeps "
                f"the sign of g'(0) = {g0:.3e} on the whole "
                f"{'positive' if side > 0.0 else 'negative'} side searched, out to |h| = 2^{grow}"
            )
        B *= 2.0
        grow += 1
    # g'(lo) < 0 < g'(hi), with 0 as the end on g'(0)'s side
    lo, hi = (0.0, B) if g0 < 0.0 else (-B, 0.0)

    h, g = 0.0, g0
    for _ in range(max_iters):
        h_new = None
        if curv > 0.0:
            cand = h - g / curv
            if lo < cand < hi:
                h_new = cand
        if h_new is None:
            h_new = 0.5 * (lo + hi)
        h = h_new
        fp, fpp = oracle.coord_grad_curvature_shifted(x, j, h, cache)
        g, curv = fp + beta * h, fpp + beta
        if abs(g) <= tol:
            return h
        if g < 0.0:
            lo = h
        else:
            hi = h
    raise RuntimeError(
        f"1-D minimization did not converge in {max_iters} iterations "
        f"(coordinate {j}, residual gradient {g:.3e}, tolerance {tol:.3e})"
    )


def threshold_e(
    oracle: SmoothOracle,
    x: np.ndarray,
    j: int,
    beta: float,
    lambda_j: float,
    cache: np.ndarray,
    lo: float | None = None,
    hi: float = math.inf,
    near: Callable[[np.ndarray, int, float, float, np.ndarray], float] | None = None,
) -> float:
    """Exact-model thresholding of scalar coordinate j.

    The progress value is
    Delta = [f at x with coordinate j zeroed + (beta/2) x_j^2]
          - [f at the inner minimizer + (beta/2) h*^2],
    both evaluated through ``cache``, the oracle's cache at x. Returns
    x_j + h* when Delta > lambda_j, else an exact zero (ties to zero).

    ``lo`` and ``hi`` bound the curvature of g(h) = f(x + h e_j) +
    (beta/2) h^2 (``Model.lo`` and ``Model.hi``); the defaults beta and inf
    hold for any convex f. With d = g'(-x_j), strong convexity and
    smoothness give d^2/(2 hi) <= Delta <= d^2/(2 lo). So the step is null,
    with no Newton solve, when d^2/(2 lo) <= (1 - 1e-9) lambda_j, and keeps
    x_j + h*, with no value of f, when d^2/(2 hi) > (1 + 1e-9) lambda_j;
    between the two, Delta is computed unless ``near`` (below) proves the
    step null. The margin 1e-9 lambda_j exceeds the rounding of the
    computed Delta (a few ulps of the two values it subtracts) and of d^2
    and the bounds unless lambda_j is tiny against f, so a bound and the
    computed Delta decide alike. Where they could disagree, Delta lies
    within rounding of lambda_j, and the bound gives the exact model's
    answer. At x_j = 0, d = g'(0) comes with g''(0) from one query that
    the Newton solve reuses.

    ``near`` is the oracle's optional ``coord_curvature_floor_near``
    (``resolve`` looks it up once), a floor c on f'' along coordinate j
    over an interval. Where neither global test decides, it gives one
    more null test. Since |g'(h) - g'(-x_j)| >= lo |h + x_j|, the root h*
    lies within R = |d|/lo of -x_j, so g'' >= c + beta on the segment from
    -x_j to h* for c the floor over [-x_j - R, -x_j + R]; on that segment
    g(-x_j) - g(h*) <= d^2/(2 (c + beta)) (Nesterov 2004, Thm 2.1.10), and
    the step is null, with no Newton solve, when that is <= (1 - 1e-9)
    lambda_j. Rounding moves R and each argument z = |t_k| + R |a_kj| of
    the floor's sigma'(z) by a few ulps, which moves sigma'(z) by a
    relative z ulps; sigma' rounds to zero past z = 746, so c, and the
    bound with it, is off by a relative 1e-12 at most, far inside the
    margin. And a computed h* has g(h*) >= min g, so the computed Delta
    lies below the true one within the rounding of the two values: a
    proved null step is null in that comparison too.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    x_j = float(x[j])
    if x_j == 0.0:
        at_zero = oracle.coord_grad_curvature_shifted(x, j, 0.0, cache)
        d = at_zero[0]
    else:
        at_zero = None
        d = oracle.coord_grad_shifted(x, j, -x_j, cache) - beta * x_j
    half_dd = 0.5 * d * d
    if lo is None:
        lo = beta
    null_below = lambda_j * (1.0 - _CERT_MARGIN)
    if half_dd / lo <= null_below:
        return 0.0
    kept = half_dd / hi > lambda_j * (1.0 + _CERT_MARGIN)
    if (
        not kept
        and near is not None
        and half_dd / (near(x, j, -x_j, abs(d) / lo, cache) + beta) <= null_below
    ):
        return 0.0
    h_star = _solve_1d(oracle, x, j, beta, cache, at_zero)
    if kept:
        return float(x_j + h_star)
    keep_value = oracle.value_shifted(x, j, h_star, cache) + 0.5 * beta * h_star * h_star
    zero_value = oracle.value_shifted(x, j, -x_j, cache) + 0.5 * beta * x_j * x_j
    if zero_value - keep_value > lambda_j:
        return float(x_j + h_star)
    return 0.0


def _moves(z, out, tol: float):
    """Whether the exact map moves z to out: it must keep each zero/nonzero
    status exactly and may move a kept value by at most tol. Elementwise on
    arrays, one bool on floats."""
    return ((out == 0.0) != (z == 0.0)) | (abs(out - z) > tol)


@dataclass(frozen=True, eq=False)
class Model:
    """A model resolved on one oracle and one partition; built by ``resolve``.

    ``lam`` is the penalty per coordinate. ``curvature`` is the model's
    curvature per coordinate, or None for the exact kind on an objective
    that is not quadratic along each coordinate; ``lo`` and ``hi`` then
    bound the curvature of the exact model along each coordinate (see
    ``threshold_e``), and are None otherwise. ``map`` reads ``half_curvature``
    (0.5 * curvature) and ``free`` (the lambda = 0 mask, None where it is
    empty). ``threshold(x, j, x_j, cache)`` is the map of coordinate j alone,
    on Python floats, with ``x_j`` = x[j] and the cache at x. ``mu`` (Python
    floats) and ``curvature_bound`` are the descent modulus and the M bound
    per block, from ``_constants``.
    """

    spec: ApproxSpec
    oracle: SmoothOracle
    partition: BlockPartition
    lam: np.ndarray
    curvature: np.ndarray | None
    half_curvature: np.ndarray | None
    free: np.ndarray | None
    lo: list[float] | None
    hi: list[float] | None
    threshold: Callable[[np.ndarray, int, float, np.ndarray], float]
    mu: list[float]
    curvature_bound: np.ndarray

    def validate_for_solver(self) -> None:
        """The strict-curvature condition of a solver run, mu > 0, from the
        model's own mu: ``resolve`` has checked the rest."""
        _check_mu(self.spec.kind, self.mu)

    def proves_inside(self, other: Model) -> bool:
        """Whether the models prove this model's class lies inside ``other``'s.

        Both on one partition. A quadratic class at curvature M lies in the
        one at M' where M <= M' on every coordinate. The exact class lies in
        a quadratic one at M where M_j >= L_j + beta_j (``curvature_bound``,
        on scalar blocks), since the exact model then lies below the
        quadratic one. Nothing is proved to lie inside an exact class.
        """
        if other.spec.kind == "ue":
            return False
        inner = self.curvature_bound if self.spec.kind == "ue" else self.curvature
        return bool(np.all(inner <= other.curvature))

    def map(self, x: np.ndarray, sl: slice, g: np.ndarray, cache: np.ndarray) -> np.ndarray:
        """The new values of the coordinates ``sl`` (a block, or ``slice(0, n)``).

        From x, the gradient ``g`` over ``sl`` and the cache at x; writes
        nothing. It is ``threshold_q`` where the model has a curvature, and
        then x and g may also be stacks of points as rows (the cache is not
        read); ``threshold_e``, coordinate by coordinate, where it has none.
        """
        if self.curvature is not None:
            free = None if self.free is None else self.free[sl]
            t = x[..., sl] - g / self.curvature[sl]
            return _keep_or_zero(t, self.half_curvature[sl], self.lam[sl], free)
        return np.array([self.threshold(x, j, x[j], cache) for j in range(sl.start, sl.stop)])

    def fixed(self, tol: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """The test "the map leaves z in place, within tol", ``(Z, G) -> bool per row``.

        Z is a stack of points, one per row, and G the gradients at them.
        For the quadratic kinds, with curvature M_j, a coordinate in a
        positive-penalty block passes where |G_j| <= sqrt(2 lambda_j M_j) + tol
        at Z_j = 0 and |Z_j| >= sqrt(2 lambda_j / M_j) - tol elsewhere. For
        the exact kind the map must keep each zero/nonzero status exactly
        and may move a kept value by at most tol: in closed form over the
        whole stack where the model has a curvature, else row by row, with
        one cache per row, until the first coordinate that moves.
        """
        lam, M = self.lam, self.curvature
        if self.spec.kind != "ue":
            with np.errstate(over="ignore"):  # a bound that overflows is +inf, the right bound
                zero_bound = np.sqrt(2.0 * lam * M) + tol
                keep_bound = np.sqrt(2.0 * lam / M) - tol
            penalized = lam != 0.0  # lam = 0 always passes
            return lambda Z, G: ~np.any(
                np.where(Z == 0.0, np.abs(G) > zero_bound, np.abs(Z) < keep_bound) & penalized,
                axis=-1,
            )
        if M is not None:
            whole = slice(0, self.partition.n)

            def closed_form_fixed(Z, G):
                with np.errstate(over="ignore"):  # a huge M overflows (M/2) t t to inf, rightly
                    return ~np.any(_moves(Z, self.map(Z, whole, G, None), tol), axis=-1)

            return closed_form_fixed
        oracle, threshold = self.oracle, self.threshold

        def rows_fixed(Z, G):
            out = np.ones(len(Z), dtype=bool)
            for k, z in enumerate(Z):
                cache = oracle.make_cache(z)
                out[k] = not any(
                    _moves(z_j, threshold(z, j, z_j, cache), tol)
                    for j, z_j in enumerate(z.tolist())
                )
            return out

        return rows_fixed


def resolve(spec: ApproxSpec, oracle: SmoothOracle, partition: BlockPartition) -> Model:
    """``spec`` resolved on ``oracle`` and ``partition``, once (ValueError where it does not fit).

    A quadratic kind has its own curvature. The exact kind has one when f
    is quadratic along each coordinate, with the oracle's optional
    ``coord_curvature()`` c_j: then minimizing f plus (beta_j/2) h^2 along
    coordinate j is the diagonal quadratic model with curvature c_j + beta_j,
    and ``threshold_q`` is its map. Otherwise the exact model's curvature
    along coordinate j lies between lo_j = beta_j + c_j, with c_j from the
    oracle's optional ``coord_curvature_floor()`` (beta_j alone without it:
    f is convex), and hi_j = L_j + beta_j, the model's ``curvature_bound``, which
    holds as the partition's Lipschitz constants do. The oracle's optional
    ``coord_curvature_floor_near``, looked up here once, gives
    ``threshold_e`` its local null test.
    """
    curvature, mu, bound = _constants(spec, partition)
    lam = partition.coord_lambda()
    lam_j = lam.tolist()
    half_curvature = lo = hi = None
    if spec.kind == "ue":
        beta = np.asarray(spec.params, dtype=float)
        coord_curvature = getattr(oracle, "coord_curvature", None)
        if coord_curvature is not None:
            curvature = coord_curvature() + beta
        else:
            floor = getattr(oracle, "coord_curvature_floor", None)
            lo = (beta if floor is None else beta + floor()).tolist()
            hi = bound.tolist()
    if curvature is None:
        params = spec.params
        near = getattr(oracle, "coord_curvature_floor_near", None)

        def threshold(x: np.ndarray, j: int, x_j: float, cache: np.ndarray) -> float:
            return threshold_e(oracle, x, j, params[j], lam_j[j], cache, lo[j], hi[j], near)

    else:
        half_curvature = 0.5 * curvature
        curvature_j = curvature.tolist()

        def threshold(x: np.ndarray, j: int, x_j: float, cache: np.ndarray) -> float:
            # threshold_q on floats: the gradient step, kept where its
            # progress value beats lambda_j, and always when lambda_j is 0
            M = curvature_j[j]
            t = x_j - float(oracle.coord_grad_shifted(x, j, 0.0, cache)) / M
            return t if lam_j[j] == 0.0 or 0.5 * M * t * t > lam_j[j] else 0.0

    free = partition.zero_penalty_mask if partition.zero_penalty_bits else None
    return Model(
        spec, oracle, partition, lam, curvature, half_curvature, free, lo, hi, threshold, mu, bound
    )
