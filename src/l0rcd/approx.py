"""Blockwise approximation models and their thresholding maps.

Three convex upper models of the smooth term along one block are supported,
each agreeing with f and its block gradient at the current point x:

- separable quadratic: gradient step model with scalar curvature M_i > L_i,
- diagonal quadratic: per-coordinate curvatures (the diagonal of H_i),
- exact: the true one-dimensional restriction of f plus a proximal term
  (beta_i/2) |y - x_i|^2, scalar blocks only.

The thresholding map minimizes model + lambda_i * ||.||_0 over the block by
comparing a "keep" candidate against zeroing, coordinate by coordinate for
the separable models. Ties resolve to zero (the sparser point); the tie rule
is recorded in solver/CLI output metadata as ``tie_rule=zero``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BlockPartition
from .objectives import SmoothOracle

SEPARABLE_QUADRATIC = "separable_quadratic"
DIAGONAL_QUADRATIC = "diagonal_quadratic"
EXACT = "exact"

# Relative perturbation for "M equal to the Lipschitz constant" solver mode;
# the solver contract needs strict M_i > L_i.
M_EQ_LIPSCHITZ_FACTOR = 1.0 + 1e-6

TIE_RULE = "zero"


@dataclass(frozen=True)
class ApproxSpec:
    """An approximation model: its family and its parameters.

    Solvers step with the model's thresholding map; a ``ClassRequest``
    classifies supports by the map's fixed points. Exactly one of ``M`` (per block), ``H_diag`` (per coordinate), ``beta``
    (per block) is set, matching ``kind``.
    """

    kind: str
    M: tuple[float, ...] | None = None
    H_diag: tuple[float, ...] | None = None
    beta: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == SEPARABLE_QUADRATIC:
            if self.M is None or self.H_diag is not None or self.beta is not None:
                raise ValueError("separable quadratic kind takes per-block M only")
            if any(m <= 0 for m in self.M):
                raise ValueError("M entries must be positive")
        elif self.kind == DIAGONAL_QUADRATIC:
            if self.H_diag is None or self.M is not None or self.beta is not None:
                raise ValueError("diagonal quadratic kind takes per-coordinate H_diag only")
            if any(h <= 0 for h in self.H_diag):
                raise ValueError("H diagonal entries must be positive")
        elif self.kind == EXACT:
            if self.beta is None or self.M is not None or self.H_diag is not None:
                raise ValueError("exact kind takes per-block beta only")
            if any(b <= 0 for b in self.beta):
                raise ValueError("beta entries must be positive")
        else:
            raise ValueError(f"unknown approximation kind: {self.kind!r}")

    @classmethod
    def separable_quadratic(cls, M) -> "ApproxSpec":
        return cls(kind=SEPARABLE_QUADRATIC, M=tuple(float(v) for v in np.atleast_1d(M)))

    @classmethod
    def diagonal_quadratic(cls, H_diag) -> "ApproxSpec":
        return cls(
            kind=DIAGONAL_QUADRATIC, H_diag=tuple(float(v) for v in np.atleast_1d(H_diag))
        )

    @classmethod
    def exact(cls, beta) -> "ApproxSpec":
        return cls(kind=EXACT, beta=tuple(float(v) for v in np.atleast_1d(beta)))

    def coord_curvature(self, partition: BlockPartition) -> np.ndarray:
        """Per-coordinate curvature of a quadratic model: M_i repeated over block i, or H_diag.

        The two quadratic kinds differ only here. The exact kind has no
        fixed curvature and raises ValueError.
        """
        if self.kind == SEPARABLE_QUADRATIC:
            return np.repeat(np.asarray(self.M, dtype=float), partition.block_sizes)
        if self.kind == DIAGONAL_QUADRATIC:
            return np.asarray(self.H_diag, dtype=float)
        raise ValueError("the exact model has no fixed curvature")

    def mu(self, partition: BlockPartition) -> np.ndarray:
        """Per-block descent modulus: min curvature over block i minus L_i, or beta_i."""
        if self.kind == EXACT:
            return np.asarray(self.beta, dtype=float)
        block_min = np.minimum.reduceat(self.coord_curvature(partition), partition.block_starts)
        return block_min - np.asarray(partition.lipschitz, dtype=float)

    def curvature_bound(self, partition: BlockPartition) -> np.ndarray:
        """Per-block curvature constant M_i used in magnitude and progress bounds.

        For the quadratic kinds this is the largest curvature over the block.
        For the exact kind it is L_i + beta_i, the smallest constant whose
        quadratic model dominates the exact one.
        """
        if self.kind == EXACT:
            return np.asarray(partition.lipschitz, dtype=float) + np.asarray(self.beta, dtype=float)
        return np.maximum.reduceat(self.coord_curvature(partition), partition.block_starts)

    def check_partition(self, partition: BlockPartition) -> None:
        """Check that the parameters fit ``partition``.

        One parameter per block (per coordinate for the diagonal kind), and
        scalar blocks for the exact kind. Classification needs only this;
        a solver run also needs ``validate_for_solver``'s strict curvature.
        """
        params = {SEPARABLE_QUADRATIC: self.M, DIAGONAL_QUADRATIC: self.H_diag, EXACT: self.beta}
        size = len(params[self.kind])
        expect = partition.n if self.kind == DIAGONAL_QUADRATIC else partition.num_blocks
        if size != expect:
            raise ValueError(f"{self.kind} parameters have length {size}, expected {expect}")
        if self.kind == EXACT and any(s != 1 for s in partition.block_sizes):
            raise ValueError("exact approximation requires scalar blocks")

    def validate_for_solver(self, partition: BlockPartition) -> None:
        """Check the parameters fit ``partition`` and the strict-curvature condition mu > 0."""
        self.check_partition(partition)
        if np.any(self.mu(partition) <= 0):
            raise ValueError(
                f"{self.kind} curvature must strictly exceed the block Lipschitz constants"
            )

    def label(self) -> str:
        return {SEPARABLE_QUADRATIC: "uq", DIAGONAL_QUADRATIC: "uQ", EXACT: "ue"}[self.kind]


def separable_from_factor(partition: BlockPartition, factor: float) -> ApproxSpec:
    """Separable quadratic spec with M_i = factor * L_i (factor > 1)."""
    return ApproxSpec.separable_quadratic(np.asarray(partition.lipschitz) * float(factor))


def separable_lipschitz_mode(partition: BlockPartition) -> ApproxSpec:
    """The "M equal to L_i" solver mode, minimally perturbed to keep M_i > L_i."""
    return separable_from_factor(partition, M_EQ_LIPSCHITZ_FACTOR)


def exact_uniform(partition: BlockPartition, beta: float) -> ApproxSpec:
    """Exact-model spec with the same beta for every (scalar) block."""
    return ApproxSpec.exact(np.full(partition.num_blocks, float(beta)))


def delta_q(x_i: np.ndarray, grad_i: np.ndarray, M_i: float) -> np.ndarray:
    """Componentwise progress values (M_i/2) |x_j - grad_j / M_i|^2.

    Delta_j is the model decrease forfeited by zeroing coordinate j instead
    of taking the gradient step; the thresholding map compares it to lambda_i.
    """
    t = np.asarray(x_i, dtype=float) - np.asarray(grad_i, dtype=float) / M_i
    return 0.5 * M_i * t * t


def threshold_q(x_i: np.ndarray, grad_i: np.ndarray, M_i, lambda_i: float) -> np.ndarray:
    """Quadratic-model thresholding of one block.

    ``M_i`` is the curvature: one scalar for the block (separable model) or
    one entry per coordinate (diagonal model). Keeps the gradient-step
    candidate where Delta_j > lambda_i, writes an exact zero where
    Delta_j < lambda_i, and resolves ties to zero. With lambda_i = 0 this is
    the plain block gradient step.
    """
    x_i = np.asarray(x_i, dtype=float)
    M_i = np.asarray(M_i, dtype=float)
    t = x_i - np.asarray(grad_i, dtype=float) / M_i
    if lambda_i == 0.0:
        return t
    d = 0.5 * M_i * t * t
    return np.where(d > lambda_i, t, 0.0)


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
    sign; then Newton iterations start from h = 0 with the known g'(0) and
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
        if grow == 200:
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

    Returns (h_star, g(h_star)). Uses the oracle's closed-form
    ``coord_prox_step`` when it has one (least squares), otherwise
    safeguarded Newton (``_solve_1d``). ``cache`` is the oracle's cache at x.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    x = np.asarray(x, dtype=float)
    prox_step = getattr(oracle, "coord_prox_step", None)
    if prox_step is not None:
        h_star = prox_step(x, j, beta, cache)
    else:
        h_star = _solve_1d(oracle, x, j, beta, cache)
    value = oracle.value_shifted(x, j, h_star, cache) + 0.5 * beta * h_star * h_star
    return float(h_star), float(value)


def _exact_progress(
    oracle: SmoothOracle, x: np.ndarray, j: int, beta: float, cache: np.ndarray | None
) -> tuple[float, float]:
    """(h*, Delta) of the exact model at coordinate j; see delta_e."""
    if cache is None:
        cache = oracle.make_cache(x)
    h_star, keep_value = exact_inner_min(oracle, x, j, beta, cache)
    zero_value = oracle.value_shifted(x, j, -x[j], cache) + 0.5 * beta * x[j] * x[j]
    return h_star, zero_value - keep_value


def delta_e(
    oracle: SmoothOracle, x: np.ndarray, j: int, beta: float, cache: np.ndarray | None = None
) -> float:
    """Progress value for the exact model at coordinate j.

    Delta = [f at x with coordinate j zeroed + (beta/2) x_j^2]
          - [f at the inner minimizer + (beta/2) h*^2].

    Always >= 0 (the inner minimizer is at least as good as zeroing). Both
    candidates are evaluated through the cache, built from x when not given.
    """
    return float(_exact_progress(oracle, x, j, beta, cache)[1])


def threshold_e(
    oracle: SmoothOracle,
    x: np.ndarray,
    j: int,
    beta: float,
    lambda_j: float,
    cache: np.ndarray | None = None,
) -> float:
    """Exact-model thresholding of scalar coordinate j.

    Returns x_j + h* when Delta > lambda_j, else an exact zero (ties to
    zero). With lambda_j = 0 this is the pure proximal coordinate step.
    """
    h_star, delta = _exact_progress(oracle, x, j, beta, cache)
    if delta > lambda_j:
        return float(x[j] + h_star)
    return 0.0


def apply_threshold(
    oracle: SmoothOracle,
    partition: BlockPartition,
    x: np.ndarray,
    i: int,
    spec: ApproxSpec,
    cache: np.ndarray,
) -> np.ndarray:
    """New value of block i after one thresholding step under ``spec``.

    The exact model takes a scalar block only; a larger block raises ValueError.
    """
    sl = partition.block_slice(i)
    lam_i = partition.lam[i]
    if spec.kind == EXACT:
        if sl.stop - sl.start != 1:
            raise ValueError("exact approximation requires scalar blocks")
        return np.array([threshold_e(oracle, x, sl.start, spec.beta[i], lam_i, cache)])
    curvature = spec.M[i] if spec.kind == SEPARABLE_QUADRATIC else spec.H_diag[sl]
    return threshold_q(x[sl], oracle.block_grad(x, sl, cache), curvature, lam_i)
