"""Smooth convex objectives with blockwise gradient oracles and O(m) caches.

Two concrete objectives are provided: least squares and l2-regularized
logistic regression. Both expose the same oracle surface: full/block
gradients, an auxiliary cache (residual or linear predictors) that a solver
updates incrementally after single-block changes, and cheap one-dimensional
restrictions used by the exact thresholding map.
"""
from __future__ import annotations

import math
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
    exclusively owned by one solver run; oracles themselves are immutable, up
    to a memo keyed by the cache's bytes that no answer depends on (see
    LogisticL2Objective).
    ``update_cache(cache, sl, delta)`` adds block ``sl``'s change ``delta`` in place;
    ``sl`` is a slice with an array ``delta``, or a coordinate index j with a
    float change, added as the column axpy ``cache += A[:, j] * delta``: the
    bits of the one-column slice form, for a cache that holds no -0.0.
    ``eval`` and ``full_grad`` take one point or a stack of points as the rows
    of a 2-D array; a stack gets one value (or gradient row) per row, with the
    bits of the one-point call on that row.

    ``coord_grad_shifted``, ``coord_curvature_shifted`` and ``value_shifted``
    give f', f'' and f along coordinate j at x + h e_j from the cache at x.
    ``coord_grad_curvature_shifted`` returns the pair (f', f'') of one point,
    with the bits of the two single queries, from one pass over the shifted
    cache: the exact model's Newton step needs both at every point.

    ``L0Problem.from_oracle`` reads the partition's constants from two methods:
    ``block_lipschitz(block_sizes)`` gives the block constants L_i, and the
    optional ``spectral_lipschitz()`` L_f (without it, L_f is the sum of the L_i).

    Optional methods outside the protocol: ``coord_curvature()`` says that f
    is quadratic along every coordinate and gives that curvature, so the
    exact model steps in closed form instead of by safeguarded Newton;
    ``coord_curvature_floor()`` gives, per coordinate, a lower bound c_j on
    f'' along coordinate j everywhere (the ridge weight on logistic), which
    lets the exact model decide a step from curvature bounds without its
    Newton solve (without it the bound is 0, as for any convex f);
    ``coord_curvature_floor_near(x, j, h, radius, cache)`` gives a lower
    bound on f'' at x + u e_j for every u within ``radius`` of h, from one
    pass over the cache, with which the exact model proves more steps null
    without its Newton solve; and
    ``restricted_minimize(cols)`` makes enumeration possible: it takes a
    (k, s) int array of sorted index rows, all of one size s, and returns
    the (k, n) array of the minimizers of f over the vectors supported on
    each row.

    The bundled oracles make each per-iteration product one ``ndarray.dot``
    call: a BLAS gemv for the matrix-vector products of ``make_cache``,
    ``block_grad`` and the slice ``update_cache``, a BLAS ddot for the
    vector products of ``value_from_cache`` and the shifted queries. The
    queries of one coordinate j read column j from a list of views of the
    matrix, built on first use, and its constant ||A_j||^2 from a list of
    floats. For these shapes ``@`` makes the same BLAS call, so ``.dot``
    gives its bits; it only skips the matmul ufunc's dispatch, which costs
    more than the product itself on a short vector.
    """

    dim: int

    def eval(self, x: np.ndarray) -> float | np.ndarray: ...

    def full_grad(self, x: np.ndarray) -> np.ndarray: ...

    def make_cache(self, x: np.ndarray) -> np.ndarray: ...

    def value_from_cache(self, x: np.ndarray, cache: np.ndarray) -> float: ...

    def block_grad(self, x: np.ndarray, sl: slice, cache: np.ndarray) -> np.ndarray: ...

    def update_cache(
        self, cache: np.ndarray, sl: slice | int, delta: np.ndarray | float
    ) -> np.ndarray: ...

    def coord_grad_shifted(self, x: np.ndarray, j: int, h: float, cache: np.ndarray) -> float: ...

    def coord_curvature_shifted(
        self, x: np.ndarray, j: int, h: float, cache: np.ndarray
    ) -> float: ...

    def coord_grad_curvature_shifted(
        self, x: np.ndarray, j: int, h: float, cache: np.ndarray
    ) -> tuple[float, float]: ...

    def value_shifted(self, x: np.ndarray, j: int, h: float, cache: np.ndarray) -> float: ...


# Rank cutoff (relative to the largest singular value) for least-norm solves.
_RANK_TOL = 1e-10

# A row keeps its Gram-route point when the refinement step is at most this
# fraction of w (max norms). The step measures the first solve's error, about
# cond(A_I)^2 * eps, so this admits cond(A_I) up to about 1e5, where the
# refined point is accurate to about cond(A_I) * eps = 1e-11.
_REFINE_TOL = 1e-6

# The gelsd gufunc that np.linalg.lstsq wraps, (m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p),
# and the gesv gufunc that np.linalg.solve wraps for one right-hand side,
# (m,m),(m)->(m), which puts NaN in the row of a singular system instead of
# raising for the whole stack. Bound here so that a numpy without them fails
# at import and not mid-enumeration.
_gelsd = _umath_linalg.lstsq
_gesv = _umath_linalg.solve1


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
            norm = float(np.linalg.norm(matrix[:, start : start + s], 2))
            out.append(norm * norm)  # a float product: inf on overflow, with no warning
        start += s
    return np.array(out)


def _finite(v: float) -> float:
    if not math.isfinite(v):
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
    each row gets the bits of the one-point call, ``M.dot(x)`` in the
    oracles' per-iteration kernels; ``Z @ M.T`` and einsum regroup the
    sums.
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

    @cached_property
    def _cols(self) -> list[np.ndarray]:
        # the columns of A as views, built on the first scalar query
        return list(self.A.T)

    @cached_property
    def _col_sq_list(self) -> list[float]:
        return self._col_sq.tolist()

    def make_cache(self, x: np.ndarray) -> np.ndarray:
        return self.A.dot(x) - self.b

    def value_from_cache(self, x: np.ndarray, cache: np.ndarray) -> float:
        return _finite(0.5 * float(cache.dot(cache)))

    def block_grad(self, x: np.ndarray, sl: slice, cache: np.ndarray) -> np.ndarray:
        return self.A[:, sl].T.dot(cache)

    def update_cache(
        self, cache: np.ndarray, sl: slice | int, delta: np.ndarray | float
    ) -> np.ndarray:
        cache += self.A[:, sl].dot(delta) if isinstance(sl, slice) else self._cols[sl] * delta
        return cache

    def coord_grad_shifted(self, x: np.ndarray, j: int, h: float, cache: np.ndarray) -> float:
        return float(self._cols[j].dot(cache)) + self._col_sq_list[j] * h

    def coord_curvature_shifted(
        self, x: np.ndarray, j: int, h: float, cache: np.ndarray
    ) -> float:
        return self.coord_grad_curvature_shifted(x, j, h, cache)[1]

    def coord_grad_curvature_shifted(
        self, x: np.ndarray, j: int, h: float, cache: np.ndarray
    ) -> tuple[float, float]:
        return self.coord_grad_shifted(x, j, h, cache), self._col_sq_list[j]

    def value_shifted(self, x: np.ndarray, j: int, h: float, cache: np.ndarray) -> float:
        r = cache + self._cols[j] * h
        return 0.5 * float(r.dot(r))

    def coord_curvature(self) -> np.ndarray:
        """Curvature ||A_j||^2 of f along each coordinate: f is quadratic there."""
        return self._col_sq.copy()

    @cached_property
    def _gram(self) -> tuple[np.ndarray, np.ndarray]:
        # A^T A and A^T b, built on the first restricted solve: only enumeration needs them
        with np.errstate(over="ignore", invalid="ignore"):  # an inf entry fails its rows
            return self.A.T @ self.A, self.A.T @ self.b

    def restricted_minimize(self, cols: np.ndarray) -> np.ndarray:
        """Least-norm minimizers over the supports given as the rows of cols.

        ``cols`` is a (k, s) int array of sorted index rows; the result holds
        one point per row, shape (k, n), zero off the row's support. For
        s <= m the stack solves the normal equations G_I w = c_I, gathered
        from G = A^T A and c = A^T b; for s > m it takes the least-norm form
        w = A_I^T (A_I A_I^T)^-1 b. Either way one step of iterative
        refinement follows, the same solve on the residual b - A_I w. A row
        whose step is not small against w (relative ``_REFINE_TOL``), whose
        system is singular or whose values are not finite goes to the gelsd
        gufunc behind ``np.linalg.lstsq``, under the error state that it
        sets, and gets the bits of ``np.linalg.lstsq(A[:, row], b,
        rcond=1e-10)``: a pseudoinverse with relative rank cutoff 1e-10, so
        a rank-deficient support gets a canonical representative. Every
        step is one LAPACK or BLAS call per row, so a row has the bits of
        the one-row call whatever else is in the stack.
        """
        AT = self.A.T[cols]  # (k, s, m): the rows of A_I^T
        AI = AT.transpose(0, 2, 1)
        with np.errstate(all="ignore"):  # a failed row goes to gelsd below
            if cols.shape[1] <= self.A.shape[0]:
                G, c = self._gram
                G_I = G[cols[:, :, None], cols[:, None, :]]
                w = _gesv(G_I, c[cols], signature="dd->d")
                step = _gesv(G_I, _matvec(AT, self.b - _matvec(AI, w)), signature="dd->d")
            else:
                H = AI @ AT
                w = _matvec(AT, _gesv(H, self.b, signature="dd->d"))
                step = _matvec(AT, _gesv(H, self.b - _matvec(AI, w), signature="dd->d"))
            certified = np.abs(step).max(axis=1) <= _REFINE_TOL * np.abs(w).max(axis=1)
            w += step
            certified &= np.isfinite(w).all(axis=1)
        rows = np.flatnonzero(~certified)
        if len(rows):
            with np.errstate(
                call=_raise_lstsq_error, invalid="call", over="ignore", divide="ignore",
                under="ignore",
            ):
                sol = _gelsd(AI[rows], self.b[:, None], _RANK_TOL, signature="ddd->ddid")[0]
            w[rows] = sol[..., 0]
        Z = np.zeros((len(cols), self.dim))
        np.put_along_axis(Z, cols, w, axis=1)
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


def _exp_neg_abs(t: np.ndarray) -> np.ndarray:
    # exp(-|t|), the one exp of the overflow-safe forms of log(1 + e^t) and the sigmoid
    return np.exp(-np.abs(t))


def _log1pexp(t: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # max(t, 0) + log1p(exp(-|t|)), the overflow-safe branch form; e is
    # exp(-|t|) where the caller has it already
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(_exp_neg_abs(t) if e is None else e)


def _sigmoid(t: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # One exp for the two overflow-safe branches: with e = exp(-|t|) this is
    # 1/(1 + exp(-t)) for t >= 0 and exp(t)/(1 + exp(t)) below, bit for bit,
    # because -|t| is t itself there. e as in _log1pexp.
    t = np.asarray(t, dtype=float)
    if e is None:
        e = _exp_neg_abs(t)
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


class LogisticL2Objective:
    """Mean logistic loss with ridge term.

    f(x) = (1/m) sum_k [log(1 + e^{<a_k,x>}) - y_k <a_k,x>] + (nu/2) ||x||^2

    Samples a_k are the rows of ``data`` (shape m x n); labels y in {0,1}.
    Strongly convex with parameter nu. Cache: linear predictors t = data @ x.

    The oracle keeps the sigmoid s, s - y and the mean loss of the last
    predictors it was asked about (a one-entry memo keyed by their bytes),
    so the queries at one cache state share one exp over the m predictors:
    ``value_from_cache``, ``block_grad`` and every shifted query at h = 0.
    The memo holds a pure function of those bits, so no query can read a
    stale entry, and every answer has the bits of a fresh oracle.
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
        # squared entries, column j contiguous, for the curvature queries; an
        # entry that overflows makes its column's L_i inf, which a partition rejects
        with np.errstate(over="ignore"):
            self._data_sq = np.asfortranarray(self.data**2)
        # (predictor bytes, s, s - y, mean loss), see _at
        self._memo: tuple[bytes, np.ndarray, np.ndarray, float] | None = None

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

    def _loss(self, t: np.ndarray, e: np.ndarray | None = None) -> float:
        # the mean logistic loss at the predictors t (e as in _log1pexp)
        return float((_log1pexp(t, e) - self.y * t).sum()) / self.m

    def _at(self, t: np.ndarray) -> tuple[bytes, np.ndarray, np.ndarray, float]:
        """(key, s, s - y, mean loss) at the predictors t, from one exp.

        Read from the memo when t has its bytes, else computed and stored.
        s - y is kept beside s: with y = 1, s - 1 + 1 need not give s back.
        The memo is replaced whole, so runs that share the oracle can only
        miss it, never read a mix of two states.
        """
        t = np.asarray(t, dtype=float)
        key = t.tobytes()
        memo = self._memo
        if memo is None or memo[0] != key:
            e = _exp_neg_abs(t)
            s = _sigmoid(t, e)
            memo = self._memo = (key, s, s - self.y, self._loss(t, e))
        return memo

    @cached_property
    def _cols(self) -> list[np.ndarray]:
        # the columns of data as views, built on the first scalar query
        return list(self.data.T)

    @cached_property
    def _sq_cols(self) -> list[np.ndarray]:
        # the columns of _data_sq as views
        return list(self._data_sq.T)

    def make_cache(self, x: np.ndarray) -> np.ndarray:
        return self.data.dot(x)

    def value_from_cache(self, x: np.ndarray, cache: np.ndarray) -> float:
        return _finite(self._at(cache)[3] + 0.5 * self.nu * float(x.dot(x)))

    def block_grad(self, x: np.ndarray, sl: slice, cache: np.ndarray) -> np.ndarray:
        return self.data[:, sl].T.dot(self._at(cache)[2]) / self.m + self.nu * x[sl]

    def update_cache(
        self, cache: np.ndarray, sl: slice | int, delta: np.ndarray | float
    ) -> np.ndarray:
        cache += self.data[:, sl].dot(delta) if isinstance(sl, slice) else self._cols[sl] * delta
        return cache

    def _shifted(self, j: int, h: float, cache: np.ndarray) -> np.ndarray:
        # Predictors at x + h e_j. At h == 0 the cache itself: adding
        # data[:, j] * 0.0 could only flip the sign of a zero predictor, which
        # the sigmoid and log(1 + e^t) map to the same value.
        return cache if h == 0.0 else cache + self._cols[j] * h

    def _sigmoid_shifted(
        self, j: int, h: float, cache: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # s and s - y at the predictors of x + h e_j; from the memo at h == 0
        if h == 0.0:
            return self._at(cache)[1:3]
        s = _sigmoid(self._shifted(j, h, cache))
        return s, s - self.y

    def _coord_grad(self, x: np.ndarray, j: int, h: float, s_minus_y: np.ndarray) -> float:
        # f' along coordinate j at x + h e_j, from s - y at the shifted predictors
        return float(self._cols[j].dot(s_minus_y)) / self.m + self.nu * (float(x[j]) + h)

    def coord_grad_shifted(self, x: np.ndarray, j: int, h: float, cache: np.ndarray) -> float:
        return self._coord_grad(x, j, h, self._sigmoid_shifted(j, h, cache)[1])

    def coord_curvature_shifted(
        self, x: np.ndarray, j: int, h: float, cache: np.ndarray
    ) -> float:
        return self.coord_grad_curvature_shifted(x, j, h, cache)[1]

    def coord_grad_curvature_shifted(
        self, x: np.ndarray, j: int, h: float, cache: np.ndarray
    ) -> tuple[float, float]:
        s, s_minus_y = self._sigmoid_shifted(j, h, cache)
        curvature = float((s * (1.0 - s)).dot(self._sq_cols[j])) / self.m + self.nu
        return self._coord_grad(x, j, h, s_minus_y), curvature

    def coord_curvature_floor(self) -> np.ndarray:
        """Lower bound nu on f'' along each coordinate: the loss is convex."""
        return np.full(self.dim, self.nu)

    @cached_property
    def _abs_cols(self) -> tuple[list[np.ndarray], list[float]]:
        # the columns of |data| as views, and the largest entry of each
        abs_data = np.abs(self.data)
        return list(abs_data.T), abs_data.max(axis=0).tolist()

    def coord_curvature_floor_near(
        self, x: np.ndarray, j: int, h: float, radius: float, cache: np.ndarray
    ) -> float:
        """Lower bound on f'' along coordinate j at x + u e_j for every |u - h| <= radius.

        With t the predictors at x + h e_j, f'' there is (1/m) sum_k
        a_kj^2 sigma'(t_k + (u - h) a_kj) + nu, and sigma' falls with |.|,
        so sigma'(|t_k| + radius |a_kj|) bounds each term from below: one
        pass over the m predictors with one exp, sigma'(z) = e/(1 + e)^2
        with e = exp(-z). Where radius times the column's largest |a_kj|
        is not finite (radius inf or nan) the answer is nu, the floor
        everywhere, with no pass.
        """
        abs_cols, abs_max = self._abs_cols
        if not radius * abs_max[j] < math.inf:  # Python floats: inf or nan, no warning
            return self.nu
        e = abs_cols[j] * -radius
        e -= np.abs(self._shifted(j, h, cache))
        np.exp(e, out=e)
        return float((e / ((1.0 + e) ** 2)).dot(self._sq_cols[j])) / self.m + self.nu

    def value_shifted(self, x: np.ndarray, j: int, h: float, cache: np.ndarray) -> float:
        loss = self._at(cache)[3] if h == 0.0 else self._loss(self._shifted(j, h, cache))
        x_j = float(x[j])  # a Python float: x_j * x_j gives inf where it overflows, no warning
        sq = float(x.dot(x)) - x_j * x_j + (x_j + h) * (x_j + h)
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
        t = sub @ w
        for _ in range(100):
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
                # f at the trial point, from the predictors of the support's columns
                t_new = sub @ w_new
                val_new = _finite(self._loss(t_new) + 0.5 * self.nu * float(w_new @ w_new))
                if val_new <= val + 1e-12 * (1 + abs(val)):
                    break
                alpha *= 0.5
            w, t, val = w_new, t_new, val_new
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
