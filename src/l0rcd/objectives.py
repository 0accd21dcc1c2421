"""Smooth convex objectives with blockwise gradient oracles and O(m) caches.

Two concrete objectives are provided: least squares and l2-regularized
logistic regression. Both expose the same oracle surface: full/block
gradients, an auxiliary cache (residual or linear predictors) that a solver
updates incrementally after single-block changes, and cheap one-dimensional
restrictions used by the exact thresholding map.
"""
from __future__ import annotations

from functools import cached_property
from typing import Protocol, runtime_checkable

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "SmoothOracle",
    "LeastSquaresObjective",
    "LogisticL2Objective",
    "load_matrix_csv",
    "load_vector_csv",
    "load_labels_csv",
    "finite_difference_error",
]


@runtime_checkable
class SmoothOracle(Protocol):
    """Oracle surface a smooth convex objective must provide.

    ``cache`` is objective-specific auxiliary state (e.g. the residual) that
    makes single-block updates O(m * n_i) instead of O(m * n). The cache is
    exclusively owned by one solver run; oracles themselves are immutable.
    ``update_cache(cache, sl, delta)`` adds block ``sl``'s change ``delta`` in place.
    ``eval`` and ``full_grad`` take one point or a stack of points as the rows
    of a 2-D array; a stack gets one value (or gradient row) per row, with the
    bits of the one-point call on that row.

    Optional methods outside the protocol: ``coord_curvature()`` says that f
    is quadratic along every coordinate and gives that curvature, so the
    exact model steps in closed form instead of by safeguarded Newton, and
    ``restricted_minimize(cols)`` makes enumeration possible: it takes a
    (k, s) int array of sorted index rows, all of one size s, and returns
    the (k, n) array of the minimizers of f over the vectors supported on
    each row.
    """

    dim: int

    def eval(self, x: np.ndarray) -> float | np.ndarray: ...

    def full_grad(self, x: np.ndarray) -> np.ndarray: ...

    def make_cache(self, x: np.ndarray) -> np.ndarray: ...

    def value_from_cache(self, x: np.ndarray, cache: np.ndarray) -> float: ...

    def block_grad(self, x: np.ndarray, sl: slice, cache: np.ndarray) -> np.ndarray: ...

    def update_cache(self, cache: np.ndarray, sl: slice, delta: np.ndarray) -> np.ndarray: ...

    def coord_grad_shifted(self, x: np.ndarray, j: int, h: float, cache: np.ndarray) -> float: ...

    def coord_curvature_shifted(
        self, x: np.ndarray, j: int, h: float, cache: np.ndarray
    ) -> float: ...

    def value_shifted(self, x: np.ndarray, j: int, h: float, cache: np.ndarray) -> float: ...


# Rank cutoff (relative to the largest singular value) for least-norm solves.
_RANK_TOL = 1e-10

# The gelsd gufunc that np.linalg.lstsq wraps, (m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p),
# bound here so that a numpy without it fails at import and not mid-enumeration.
_gelsd = _umath_linalg.lstsq


def _raise_lstsq_error(err, flag):
    # np.linalg.lstsq's own message for a failed SVD
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _block_spectral_sq(matrix: np.ndarray, col_sq: np.ndarray, block_sizes) -> np.ndarray:
    """Squared spectral norm of each column block; col_sq[j] for a single column j."""
    out = []
    start = 0
    for s in block_sizes:
        if s == 1:
            out.append(float(col_sq[start]))
        else:
            out.append(float(np.linalg.norm(matrix[:, start : start + s], 2) ** 2))
        start += s
    return np.array(out)


def _finite(v: float) -> float:
    if not np.isfinite(v):
        raise ValueError(f"objective evaluated to a non-finite value: {v}")
    return float(v)


def _finite_each(v: np.ndarray) -> float | np.ndarray:
    # _finite for one value; for a stack, the array back once every entry is finite
    if v.ndim == 0:
        return _finite(v)
    bad = ~np.isfinite(v)
    if bad.any():
        raise ValueError(f"objective evaluated to a non-finite value: {v[bad][0]}")
    return v


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x for one vector x or for each row of a stack.

    Stacked matmul makes the same gemv call per row as the 1-D product, so
    each row gets the bits of the one-point call; ``Z @ M.T`` and einsum
    regroup the sums.
    """
    return (M @ np.asarray(x, dtype=float)[..., None])[..., 0]


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u @ v for one pair of vectors or for each pair of rows, with the same dot call."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


class LeastSquaresObjective:
    """f(x) = 1/2 ||Ax - b||^2 with cached residual r = Ax - b."""

    def __init__(self, A: np.ndarray, b: np.ndarray) -> None:
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        if b.shape != (A.shape[0],):
            raise ValueError(f"b must have length {A.shape[0]}, got shape {b.shape}")
        # Fortran order keeps block-column slices contiguous.
        self.A = np.asfortranarray(A)
        self.b = b.copy()
        self._col_sq = np.einsum("ij,ij->j", A, A)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def eval(self, x: np.ndarray) -> float | np.ndarray:
        r = _matvec(self.A, x) - self.b
        return _finite_each(0.5 * _rowdot(r, r))

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        return _matvec(self.A.T, _matvec(self.A, x) - self.b)

    def make_cache(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x - self.b

    def value_from_cache(self, x: np.ndarray, cache: np.ndarray) -> float:
        return _finite(0.5 * float(cache @ cache))

    def block_grad(self, x: np.ndarray, sl: slice, cache: np.ndarray) -> np.ndarray:
        return self.A[:, sl].T @ cache

    def update_cache(self, cache: np.ndarray, sl: slice, delta: np.ndarray) -> np.ndarray:
        cache += self.A[:, sl] @ delta
        return cache

    def coord_grad_shifted(self, x: np.ndarray, j: int, h: float, cache: np.ndarray) -> float:
        return float(self.A[:, j] @ cache) + self._col_sq[j] * h

    def coord_curvature_shifted(
        self, x: np.ndarray, j: int, h: float, cache: np.ndarray
    ) -> float:
        return float(self._col_sq[j])

    def value_shifted(self, x: np.ndarray, j: int, h: float, cache: np.ndarray) -> float:
        r = cache + self.A[:, j] * h
        return 0.5 * float(r @ r)

    def coord_curvature(self) -> np.ndarray:
        """Curvature ||A_j||^2 of f along each coordinate: f is quadratic there."""
        return self._col_sq.copy()

    def restricted_minimize(self, cols: np.ndarray) -> np.ndarray:
        """Least-norm minimizers over the supports given as the rows of cols.

        ``cols`` is a (k, s) int array of sorted index rows; the result holds
        one point per row, shape (k, n). Pseudoinverse with relative rank
        cutoff 1e-10, so rank-deficient supports get a canonical
        representative. One gelsd call solves the stack, under the error
        state that ``np.linalg.lstsq`` sets, and each row gets the bits of
        ``np.linalg.lstsq(A[:, row], b, rcond=1e-10)``.
        """
        sub = np.moveaxis(self.A[:, cols], 1, 0)  # (k, m, s)
        with np.errstate(
            call=_raise_lstsq_error, invalid="call", over="ignore", divide="ignore", under="ignore"
        ):
            sol = _gelsd(sub, self.b[:, None], _RANK_TOL, signature="ddd->ddid")[0]
        Z = np.zeros((len(cols), self.dim))
        np.put_along_axis(Z, cols, sol[..., 0], axis=1)
        return Z

    # Constants for partition construction.

    def column_lipschitz(self) -> np.ndarray:
        """Per-coordinate gradient Lipschitz constants ||A_j||^2."""
        return self._col_sq.copy()

    def block_lipschitz(self, block_sizes) -> np.ndarray:
        """Per-block constants ||A_S||_2^2 (squared spectral norm of the column slice)."""
        return _block_spectral_sq(self.A, self._col_sq, block_sizes)

    def spectral_lipschitz(self) -> float:
        """The tight global constant lambda_max(A^T A).

        ValueError when a column constant ||A_j||^2 overflows, and A^T A with it.
        """
        if not np.isfinite(self._col_sq).all():
            raise ValueError("Lipschitz constants must be finite and positive")
        return float(np.linalg.eigvalsh(self.A.T @ self.A)[-1])


def _log1pexp(t: np.ndarray) -> np.ndarray:
    # max(t, 0) + log1p(exp(-|t|)), the overflow-safe branch form
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # One exp for the two overflow-safe branches: with e = exp(-|t|) this is
    # 1/(1 + exp(-t)) for t >= 0 and exp(t)/(1 + exp(t)) below, bit for bit,
    # because -|t| is t itself there.
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


class LogisticL2Objective:
    """Mean logistic loss with ridge term.

    f(x) = (1/m) sum_k [log(1 + e^{<a_k,x>}) - y_k <a_k,x>] + (nu/2) ||x||^2

    Samples a_k are the rows of ``data`` (shape m x n); labels y in {0,1}.
    Strongly convex with parameter nu. Cache: linear predictors t = data @ x.
    """

    def __init__(self, data: np.ndarray, y: np.ndarray, nu: float) -> None:
        data = np.asarray(data, dtype=float)
        y = np.asarray(y, dtype=float)
        if data.ndim != 2:
            raise ValueError("data must be a 2-D matrix (rows are samples)")
        m = data.shape[0]
        if y.shape != (m,):
            raise ValueError(f"labels must have length {m}, got shape {y.shape}")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must be 0 or 1")
        if nu <= 0:
            raise ValueError("ridge parameter nu must be positive")
        self.data = np.asfortranarray(data)
        self.y = y.copy()
        self.nu = float(nu)
        self.m = m
        self._col_sq = np.einsum("ij,ij->j", data, data)

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def eval(self, x: np.ndarray) -> float | np.ndarray:
        t = _matvec(self.data, x)
        loss = (_log1pexp(t) - self.y * t).sum(axis=-1) / self.m
        return _finite_each(loss + 0.5 * self.nu * _rowdot(x, x))

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        t = _matvec(self.data, x)
        return _matvec(self.data.T, _sigmoid(t) - self.y) / self.m + self.nu * x

    def make_cache(self, x: np.ndarray) -> np.ndarray:
        return self.data @ x

    def value_from_cache(self, x: np.ndarray, cache: np.ndarray) -> float:
        loss = float((_log1pexp(cache) - self.y * cache).sum()) / self.m
        return _finite(loss + 0.5 * self.nu * float(x @ x))

    def block_grad(self, x: np.ndarray, sl: slice, cache: np.ndarray) -> np.ndarray:
        return self.data[:, sl].T @ (_sigmoid(cache) - self.y) / self.m + self.nu * x[sl]

    def update_cache(self, cache: np.ndarray, sl: slice, delta: np.ndarray) -> np.ndarray:
        cache += self.data[:, sl] @ delta
        return cache

    def _shifted(self, j: int, h: float, cache: np.ndarray) -> np.ndarray:
        # Predictors at x + h e_j. At h == 0 the cache itself: adding
        # data[:, j] * 0.0 could only flip the sign of a zero predictor, which
        # the sigmoid and log(1 + e^t) map to the same value.
        return cache if h == 0.0 else cache + self.data[:, j] * h

    def coord_grad_shifted(self, x: np.ndarray, j: int, h: float, cache: np.ndarray) -> float:
        t = self._shifted(j, h, cache)
        g = float(self.data[:, j] @ (_sigmoid(t) - self.y)) / self.m
        return g + self.nu * (x[j] + h)

    def coord_curvature_shifted(
        self, x: np.ndarray, j: int, h: float, cache: np.ndarray
    ) -> float:
        s = _sigmoid(self._shifted(j, h, cache))
        return float((s * (1.0 - s)) @ (self.data[:, j] ** 2)) / self.m + self.nu

    def value_shifted(self, x: np.ndarray, j: int, h: float, cache: np.ndarray) -> float:
        t = self._shifted(j, h, cache)
        loss = float((_log1pexp(t) - self.y * t).sum()) / self.m
        sq = float(x @ x) - x[j] ** 2 + (x[j] + h) ** 2
        return loss + 0.5 * self.nu * sq

    @cached_property
    def _restricted_tol(self) -> float:
        # computed on first use: only enumeration needs it
        return 1e-10 * (1.0 + float(np.linalg.norm(self.full_grad(np.zeros(self.dim)))))

    def restricted_minimize(self, cols: np.ndarray) -> np.ndarray:
        """Minimizers over the supports given as the rows of cols, one Newton solve each.

        ``cols`` is a (k, s) int array of sorted index rows; the result is
        (k, n). Newton iterations with backtracking, to gradient norm
        1e-10 * (1 + ||grad f(0)||). LinAlgError, naming the support, when
        the Hessian is singular to machine precision (nu tiny, s > m).
        """
        Z = np.zeros((len(cols), self.dim))
        f0 = self.eval(np.zeros(self.dim))
        for z, idx in zip(Z, cols.tolist()):
            self._newton(z, idx, f0)
        return Z

    def _newton(self, z: np.ndarray, idx: list[int], val: float) -> None:
        # writes the minimizer over the sorted support idx into the zero vector z; val = f(0)
        tol = self._restricted_tol
        sub = self.data[:, idx]
        w = np.zeros(len(idx))
        for _ in range(100):
            t = sub @ w
            s = _sigmoid(t)
            g = sub.T @ (s - self.y) / self.m + self.nu * w
            if float(np.linalg.norm(g)) <= tol:
                z[idx] = w
                return
            D = s * (1.0 - s)
            H = (sub.T * D) @ sub / self.m + self.nu * np.eye(len(idx))
            try:
                step = np.linalg.solve(H, g)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    f"restricted Newton system on support {idx} is singular "
                    f"at ridge weight nu = {self.nu:g}"
                ) from exc
            # backtrack if a full Newton step overshoots
            alpha = 1.0
            for _ in range(50):
                w_new = w - alpha * step
                z[idx] = w_new
                val_new = self.eval(z)
                if val_new <= val + 1e-12 * (1 + abs(val)):
                    break
                alpha *= 0.5
            w = w_new
            val = val_new
        raise RuntimeError(
            f"restricted Newton did not reach gradient tolerance {tol:.3e} on support {idx}"
        )

    def column_lipschitz(self) -> np.ndarray:
        """Per-coordinate bound (1/(4m)) sum_k a_{k,j}^2 + nu."""
        return self._col_sq / (4.0 * self.m) + self.nu

    def block_lipschitz(self, block_sizes) -> np.ndarray:
        """Per-block bound (1/(4m)) ||A_S||_2^2 + nu."""
        return _block_spectral_sq(self.data, self._col_sq, block_sizes) / (4.0 * self.m) + self.nu


def load_matrix_csv(path) -> np.ndarray:
    """Load a matrix from headerless CSV rows of decimal numbers."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float, ndmin=2))


def load_vector_csv(path) -> np.ndarray:
    """Load a vector from a headerless single-column (or single-row) CSV."""
    arr = np.loadtxt(path, delimiter=",", dtype=float)
    return np.atleast_1d(arr).ravel()


def load_labels_csv(path) -> np.ndarray:
    """Load binary labels from a single CSV column; values must be 0 or 1."""
    y = load_vector_csv(path)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError(f"labels in {path} must all be 0 or 1")
    return y


def finite_difference_error(
    oracle: SmoothOracle, x: np.ndarray, h: float = 1e-6
) -> tuple[float, int]:
    """Worst relative error of the analytic gradient vs central differences.

    Returns (max |g_fd - g|_j / (1 + ||g||), offending coordinate index).
    """
    x = np.asarray(x, dtype=float)
    g = oracle.full_grad(x)
    fd = np.empty_like(g)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fd[j] = (oracle.eval(x + e) - oracle.eval(x - e)) / (2.0 * h)
    denom = 1.0 + float(np.linalg.norm(g))
    err = np.abs(fd - g) / denom
    j_worst = int(np.argmax(err))
    return float(err[j_worst]), j_worst
