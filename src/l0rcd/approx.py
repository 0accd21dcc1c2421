"""Blockwise approximation models and their thresholding maps.

Three convex upper models of the smooth term along one block are supported,
each agreeing with f and its block gradient at the current point x:

- ``uq``, separable quadratic: gradient step model with scalar curvature M_i > L_i,
- ``uQ``, diagonal quadratic: per-coordinate curvatures (the diagonal of H_i),
- ``ue``, exact: the true one-dimensional restriction of f plus a proximal term
  (beta_i/2) |y - x_i|^2, scalar blocks only. Where f is quadratic along
  each coordinate (least squares) this is the diagonal model with
  curvature ||A_j||^2 + beta_j; ``model_curvature`` says which case holds.

The thresholding map minimizes model + lambda_i * ||.||_0 over the block by
comparing a "keep" candidate against zeroing, coordinate by coordinate for
the separable models. Ties resolve to zero (the sparser point); the tie rule
is recorded in solver/CLI output metadata as ``tie_rule=zero``.
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

# The kinds, each with the name of its parameters in error messages.
_PARAMS_OF = {"uq": "M", "uQ": "H diagonal", "ue": "beta"}


@dataclass(frozen=True)
class ApproxSpec:
    """An approximation model: its kind and its parameters.

    Solvers step with the model's thresholding map; ``is_strong_local_min``
    and ``enumerate_catalog`` classify points by its fixed points. ``kind``
    is the label every output uses: "uq" (separable quadratic, ``params``
    holds M_i per block), "uQ" (diagonal quadratic, H_j per coordinate) or
    "ue" (exact, beta_i per scalar block).
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

    def coord_curvature(self, partition: BlockPartition) -> np.ndarray:
        """Per-coordinate curvature of a quadratic model: M_i repeated over block i, or H_j.

        The two quadratic kinds differ only here. The exact kind has no
        fixed curvature and raises ValueError.
        """
        if self.kind == "uq":
            return np.repeat(np.asarray(self.params, dtype=float), partition.block_sizes)
        if self.kind == "uQ":
            return np.asarray(self.params, dtype=float)
        raise ValueError("the exact model has no fixed curvature")

    def mu(self, partition: BlockPartition) -> np.ndarray:
        """Per-block descent modulus: min curvature over block i minus L_i, or beta_i."""
        if self.kind == "ue":
            return np.asarray(self.params, dtype=float)
        block_min = np.minimum.reduceat(self.coord_curvature(partition), partition.block_starts)
        return block_min - np.asarray(partition.lipschitz, dtype=float)

    def curvature_bound(self, partition: BlockPartition) -> np.ndarray:
        """Per-block curvature constant M_i used in magnitude and progress bounds.

        For the quadratic kinds this is the largest curvature over the block.
        For the exact kind it is L_i + beta_i, the smallest constant whose
        quadratic model dominates the exact one.
        """
        if self.kind == "ue":
            return np.asarray(partition.lipschitz, dtype=float) + self.params
        return np.maximum.reduceat(self.coord_curvature(partition), partition.block_starts)

    def check_partition(self, partition: BlockPartition) -> None:
        """Check that the parameters fit ``partition``.

        One parameter per block (per coordinate for the diagonal kind), and
        scalar blocks for the exact kind. Classification needs only this;
        a solver run also needs ``validate_for_solver``'s strict curvature.
        """
        size = len(self.params)
        expect = partition.n if self.kind == "uQ" else partition.num_blocks
        if size != expect:
            raise ValueError(f"{self.kind} parameters have length {size}, expected {expect}")
        if self.kind == "ue" and any(s != 1 for s in partition.block_sizes):
            raise ValueError("exact approximation requires scalar blocks")

    def validate_for_solver(self, partition: BlockPartition) -> None:
        """Check the parameters fit ``partition`` and the strict-curvature condition mu > 0."""
        self.check_partition(partition)
        if np.any(self.mu(partition) <= 0):
            raise ValueError(
                f"{self.kind} curvature must strictly exceed the block Lipschitz constants"
            )


def separable_from_factor(partition: BlockPartition, factor: float) -> ApproxSpec:
    """Separable quadratic spec with M_i = factor * L_i (factor > 1)."""
    # Python floats: a product that overflows is an inf the spec rejects, with no numpy warning
    return ApproxSpec("uq", [L * float(factor) for L in partition.lipschitz])


def exact_uniform(partition: BlockPartition, beta: float) -> ApproxSpec:
    """Exact-model spec with the same beta for every (scalar) block."""
    return ApproxSpec("ue", np.full(partition.num_blocks, float(beta)))


def model_curvature(
    spec: ApproxSpec, oracle: SmoothOracle, partition: BlockPartition
) -> np.ndarray | None:
    """Per-coordinate curvature of ``spec``'s model on ``oracle``, or None.

    A quadratic kind has its own curvature. The exact kind has one when f
    is quadratic along each coordinate, with the oracle's optional
    ``coord_curvature()`` c_j: then minimizing f plus (beta_j/2) h^2 along
    coordinate j is the diagonal quadratic model with curvature c_j + beta_j,
    and ``threshold_q`` is its thresholding map. None otherwise.
    """
    if spec.kind != "ue":
        return spec.coord_curvature(partition)
    coord_curvature = getattr(oracle, "coord_curvature", None)
    if coord_curvature is None:
        return None
    return coord_curvature() + np.asarray(spec.params, dtype=float)


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
    keep = 0.5 * M_i * t * t > lambda_i
    keep |= np.equal(lambda_i, 0.0)  # also where Delta_j = 0
    return np.where(keep, t, 0.0)


def _solve_1d(
    oracle: SmoothOracle,
    x: np.ndarray,
    j: int,
    beta: float,
    cache: np.ndarray,
    max_iters: int = 200,
) -> float:
    """Root of g'(h) = d/dh [f(x + h e_j) + (beta/2) h^2], safeguarded Newton.

    g is strictly convex (beta > 0), so g' is increasing with a unique root,
    on the side of 0 where g' has the sign opposite to g'(0). The bracket
    grows on that side only, from B = 1 by doubling, until g'(+-B) changes
    sign (RuntimeError if it has not by B = 2^1023, the last finite
    doubling); then Newton iterations start from h = 0 with the known g'(0) and
    fall back to bisection whenever a step leaves the bracket. g' is
    evaluated once at every point visited. Converges when
    |g'(h)| <= 1e-10 * (1 + |g'(0)|).
    """

    def gp(h: float) -> float:
        return oracle.coord_grad_shifted(x, j, h, cache) + beta * h

    def gpp(h: float) -> float:
        return oracle.coord_curvature_shifted(x, j, h, cache) + beta

    g0 = gp(0.0)
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
        curv = gpp(h)
        h_new = None
        if curv > 0.0:
            cand = h - g / curv
            if lo < cand < hi:
                h_new = cand
        if h_new is None:
            h_new = 0.5 * (lo + hi)
        h = h_new
        g = gp(h)
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


def exact_inner_min(
    oracle: SmoothOracle, x: np.ndarray, j: int, beta: float, cache: np.ndarray
) -> tuple[float, float]:
    """Minimize g(h) = f(x + h e_j) + (beta/2) h^2 over the scalar offset h.

    Returns (h_star, g(h_star)), with h_star from safeguarded Newton
    (``_solve_1d``). ``cache`` is the oracle's cache at x.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    x = np.asarray(x, dtype=float)
    h_star = _solve_1d(oracle, x, j, beta, cache)
    value = oracle.value_shifted(x, j, h_star, cache) + 0.5 * beta * h_star * h_star
    return float(h_star), float(value)


def threshold_e(
    oracle: SmoothOracle,
    x: np.ndarray,
    j: int,
    beta: float,
    lambda_j: float,
    cache: np.ndarray,
) -> float:
    """Exact-model thresholding of scalar coordinate j.

    The progress value is
    Delta = [f at x with coordinate j zeroed + (beta/2) x_j^2]
          - [f at the inner minimizer + (beta/2) h*^2],
    both evaluated through ``cache``, the oracle's cache at x. Returns
    x_j + h* when Delta > lambda_j, else an exact zero (ties to zero).
    """
    h_star, keep_value = exact_inner_min(oracle, x, j, beta, cache)
    zero_value = oracle.value_shifted(x, j, -x[j], cache) + 0.5 * beta * x[j] * x[j]
    if zero_value - keep_value > lambda_j:
        return float(x[j] + h_star)
    return 0.0


def threshold_map(spec: ApproxSpec, oracle: SmoothOracle, partition: BlockPartition) -> Callable:
    """The thresholding map of ``spec`` on ``oracle``: ``tmap(x, sl, g, cache)``.

    ``tmap`` returns the new values of the coordinates ``sl`` (a block, or
    ``slice(0, n)``) from x, the gradient ``g`` over ``sl`` and the cache at
    x, and writes nothing. It is ``threshold_q`` where ``model_curvature``
    has a curvature, and then x and g may also be stacks of points as rows
    (the cache is not read); it is ``threshold_e``, coordinate by
    coordinate, where there is none. The fit to ``partition`` is checked
    here, once (ValueError).
    """
    spec.check_partition(partition)
    lam = partition.coord_lambda()
    curvature = model_curvature(spec, oracle, partition)

    def tmap(x: np.ndarray, sl: slice, g: np.ndarray, cache: np.ndarray) -> np.ndarray:
        if curvature is not None:
            return threshold_q(x[..., sl], g, curvature[sl], lam[sl])
        # scalar blocks, so block j is coordinate j
        js = range(sl.start, sl.stop)
        return np.array([threshold_e(oracle, x, j, spec.params[j], lam[j], cache) for j in js])

    return tmap
