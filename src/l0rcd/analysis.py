"""Brute-force enumeration of candidate local minimizers and their
classification into nested restriction classes.

A candidate is the minimizer of the smooth term f restricted to a support
set I (zeros outside I). Classes, from largest to smallest:

- basic: the gradient vanishes on I(z);
- quadratic-model strong (curvature M_j per coordinate, from a separable or
  diagonal model): basic, and every zero coordinate has
  |grad_j| <= sqrt(2 lambda_i M_j) while every nonzero coordinate has
  |z_j| >= sqrt(2 lambda_i / M_j);
- exact-model strong (per-block beta): basic, and every coordinate is a
  fixed point of the exact thresholding map.

Every strong class is the basic class intersected with the fixed points of
one model's thresholding map: ``_fixed_point_test`` is the one place that
decides fixed points, and ``_classify`` adds the basic flag. Smaller
parameters give sharper models and smaller classes; the enumeration records
per-class flags so the inclusion chain can be verified directly.
"""
from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .approx import TIE_RULE, ApproxSpec, model_curvature, threshold_map
from .core import BlockPartition, L0Problem, _check_dim, _weighted_count
from .objectives import LeastSquaresObjective, _rowdot

# Boundary tolerance for class membership tests; restricted solves are
# accurate to 1e-10, so this absorbs accumulation without blurring classes.
CLASSIFY_TOL = 1e-8

# 2^n supports are solved; past this the table stops being a desk computation.
ENUMERATION_LIMIT = 24

BASIC_LABEL = "basic"

# Supports classified together by enumerate_catalog.
_CHUNK = 1024


@dataclass(slots=True)  # no per-entry __dict__: ``entries`` may hold 2^n of them
class CatalogEntry:
    """One row of a MinimaCatalog, built on request; ``point`` is a view of the row."""

    bitmask: int
    point: np.ndarray
    f_value: float
    F_value: float
    flags: dict[str, bool]

    @property
    def support(self) -> frozenset[int]:
        return frozenset(j for j in range(self.bitmask.bit_length()) if self.bitmask >> j & 1)


@dataclass
class MinimaCatalog:
    """The enumerated supports as columns, one row per support in increasing bitmask order:
    row k is support ``bitmasks[k]`` (int64), its restricted minimizer ``points[k]`` (one
    read-only array), ``f[k]``, ``F[k]`` and ``flags[label][k]`` ("basic" the first column)."""

    bitmasks: np.ndarray
    points: np.ndarray
    f: np.ndarray
    F: np.ndarray
    flags: dict[str, np.ndarray]
    class_labels: list[str]
    conventions: dict[str, str] = field(default_factory=dict)

    def _entry(self, k: int) -> CatalogEntry:
        return CatalogEntry(
            bitmask=int(self.bitmasks[k]),
            point=self.points[k],
            f_value=float(self.f[k]),
            F_value=float(self.F[k]),
            flags={label: bool(column[k]) for label, column in self.flags.items()},
        )

    @cached_property
    def entries(self) -> list[CatalogEntry]:
        """Every row as a CatalogEntry, built on first access and kept."""
        return [self._entry(k) for k in range(len(self.bitmasks))]

    def counts(self) -> dict[str, int]:
        return {label: int(np.count_nonzero(self.flags[label])) for label in self.class_labels}

    def members(self, label: str) -> list[CatalogEntry]:
        return [self._entry(k) for k in np.flatnonzero(self.flags[label])]

    @property
    def global_min(self) -> CatalogEntry:
        # argmin returns the first minimum, the one with the smaller bitmask
        return self._entry(int(np.argmin(self.F)))

    def entry_for_support(self, bitmask: int) -> CatalogEntry | None:
        """The entry whose support is the int ``bitmask``, as ``IterateState.support`` holds it."""
        k = int(np.searchsorted(self.bitmasks, bitmask))
        if k < len(self.bitmasks) and self.bitmasks[k] == bitmask:
            return self._entry(k)
        return None


def _restricted_solver(problem: L0Problem) -> Callable:
    """The oracle's optional ``restricted_minimize``; TypeError for an oracle without it."""
    solve = getattr(problem.smooth, "restricted_minimize", None)
    if solve is None:
        raise TypeError(
            f"restricted minimization not implemented for {type(problem.smooth).__name__}"
        )
    return solve


def restricted_minimize(problem: L0Problem, I) -> np.ndarray:
    """Minimizer of f over the subspace of vectors supported on I.

    Delegates to the oracle's optional ``restricted_minimize`` with I as
    one sorted row; raises TypeError for an oracle without it.
    """
    n = problem.n
    idx = sorted(int(j) for j in I)
    if any(j < 0 or j >= n for j in idx):
        raise ValueError(f"support indices out of range for n={n}")
    if not idx:
        return np.zeros(n)
    return _restricted_solver(problem)(np.array([idx]))[0]


def _fixed_point_test(problem: L0Problem, model: ApproxSpec, tol: float) -> Callable:
    """The test "the thresholding map of ``model`` leaves z in place, within tol".

    The returned function takes a stack Z of points, one per row, and the
    gradients G at them, and returns one bool per row. Everything that does
    not depend on the points is built here, once.
    """
    partition = problem.partition
    smooth = problem.smooth
    if model.kind == "ue":
        tmap = threshold_map(model, smooth, partition)

        def moves(z, out):
            # the exact map must keep each zero/nonzero status exactly and may
            # move kept values by at most tol
            return ((out == 0.0) != (z == 0.0)) | (np.abs(out - z) > tol)

        if model_curvature(model, smooth, partition) is not None:
            # threshold_q, elementwise over the whole stack
            whole = slice(0, partition.n)
            return lambda Z, G: ~np.any(moves(Z, tmap(Z, whole, G, None)), axis=-1)

        coords = [slice(j, j + 1) for j in range(partition.n)]

        def rows_fixed(Z, G):
            # one cache per row, and a row fails at the first coordinate that moves
            out = np.ones(len(Z), dtype=bool)
            for k, (z, g) in enumerate(zip(Z, G)):
                cache = smooth.make_cache(z)
                out[k] = not any(moves(z[sl], tmap(z, sl, g[sl], cache)) for sl in coords)
            return out

        return rows_fixed
    model.check_partition(partition)
    lam = partition.coord_lambda()
    M = model.coord_curvature(partition)
    with np.errstate(over="ignore"):  # a bound that overflows is +inf, the right bound
        zero_bound = np.sqrt(2.0 * lam * M) + tol
        keep_bound = np.sqrt(2.0 * lam / M) - tol
    penalized = lam != 0.0  # lam = 0 always passes
    return lambda Z, G: ~np.any(
        np.where(Z == 0.0, np.abs(G) > zero_bound, np.abs(Z) < keep_bound) & penalized, axis=-1
    )


def _classify(
    problem: L0Problem, Z: np.ndarray, tests: dict[str, Callable], tol: float
) -> dict[str, np.ndarray]:
    """Membership of each row of Z in the basic class and in each labelled test's class.

    Returns one bool array per class, "basic" first. A requested class holds
    the basic points that are fixed points of its model's thresholding
    map; the maps see only the basic rows. One stacked gradient serves every
    class.
    """
    G = problem.smooth.full_grad(Z)
    on = (Z != 0.0) | problem.partition.zero_penalty_mask  # I(z), row by row
    sizes = on.sum(axis=1)
    basic = sizes == 0
    # np.linalg.norm of g on I(z) is sqrt(dot(g_on, g_on)); the rows with the
    # same |I(z)| share one stacked dot of exactly that length, since padding
    # with zeros could regroup the dot's sum
    for size in set(sizes.tolist()) - {0}:
        rows = np.flatnonzero(sizes == size)
        g_on = G[rows][on[rows]].reshape(len(rows), size)
        basic[rows] = np.sqrt(_rowdot(g_on, g_on)) <= tol
    flags = {BASIC_LABEL: basic}
    basic_rows = np.flatnonzero(basic)
    for label, test in tests.items():
        member = np.zeros(len(Z), dtype=bool)
        member[basic_rows] = test(Z[basic_rows], G[basic_rows])
        flags[label] = member
    return flags


def is_basic_local_min(problem: L0Problem, z: np.ndarray, tol: float = CLASSIFY_TOL) -> bool:
    """True iff the gradient of f vanishes on I(z) (within tol)."""
    return bool(_classify(problem, _check_dim(z, problem.n)[None], {}, tol)[BASIC_LABEL][0])


def is_strong_local_min(
    problem: L0Problem, z: np.ndarray, model: ApproxSpec, tol: float = CLASSIFY_TOL
) -> bool:
    """True iff z is a basic local minimizer and a fixed point of ``model``'s map.

    This is the class that the convergence theorem assigns to runs with
    ``model``, asked with the same ``ApproxSpec`` a solver run takes, of
    any kind. For the quadratic kinds, with curvature M_j per coordinate,
    the fixed-point test reads, per coordinate in positive-penalty blocks:
    |grad_j| <= sqrt(2 lambda_i M_j) where z_j = 0 and
    |z_j| >= sqrt(2 lambda_i / M_j) where z_j != 0. For the exact kind,
    the thresholding output must keep each coordinate's zero/nonzero
    status exactly (zeroing a tiny coordinate is a support change) and
    may drift from kept values by at most tol. Unlike a solver run,
    classification accepts M_i = L_i. Raises ValueError when the model's
    parameters do not fit the partition.
    """
    tests = {model.kind: _fixed_point_test(problem, model, tol)}
    return bool(_classify(problem, _check_dim(z, problem.n)[None], tests, tol)[model.kind][0])


def enumerate_catalog(
    problem: L0Problem,
    requests: Mapping[str, ApproxSpec],
) -> MinimaCatalog:
    """Solve the restricted problem for every support and classify the results.

    ``requests`` maps each class label to its model, sharpest class first;
    a class is the set of fixed points of the model's thresholding map, and
    classification accepts M_i = L_i, which a solver run would refuse.
    Supports range over all subsets of positive-penalty coordinates, each
    joined with the (always-included) zero-penalty coordinates: 2^(number of
    penalized coordinates) restricted solves. One row per support, in
    increasing bitmask order; the "basic" class is always computed, and
    every requested class lies inside it by definition. The columns are
    filled in chunks of ``_CHUNK`` supports: one restricted-solve call per
    support size in the chunk, with the empty support left at zero, then f,
    F and every class flag for the whole chunk at once. Raises ValueError
    for n above ``ENUMERATION_LIMIT``, for the reserved label "basic" and
    for a model whose parameters do not fit the partition.
    """
    n = problem.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration over 2^{n} supports refused (limit n <= {ENUMERATION_LIMIT})"
        )
    if BASIC_LABEL in requests:
        raise ValueError(f"label {BASIC_LABEL!r} is reserved")
    partition = problem.partition
    solve = _restricted_solver(problem)
    tests = {label: _fixed_point_test(problem, m, CLASSIFY_TOL) for label, m in requests.items()}
    # bit i of s goes to the i-th penalized coordinate, which keeps the order of s
    penalized = np.flatnonzero(~partition.zero_penalty_mask)
    s = np.arange(1 << len(penalized), dtype=np.int64)
    bitmasks = np.full(len(s), partition.zero_penalty_bits, dtype=np.int64)
    for i, j in enumerate(penalized.tolist()):
        bitmasks |= (s >> i & 1) << j

    count = len(bitmasks)
    points = np.zeros((count, n))
    f = np.empty(count)
    F = np.empty(count)
    flags: dict[str, np.ndarray] = {}
    shifts = np.arange(n)
    for lo in range(0, count, _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        bits = (bitmasks[chunk, None] >> shifts) & 1 == 1  # row r: the support bitmasks[lo + r]
        sizes = bits.sum(axis=1)
        Z = points[chunk]
        for size in sorted(set(sizes.tolist()) - {0}):
            rows = np.flatnonzero(sizes == size)
            # np.nonzero walks row by row, so each row's indices come sorted
            Z[rows] = solve(np.nonzero(bits[rows])[1].reshape(len(rows), size))
        f[chunk] = problem.smooth.eval(Z)
        F[chunk] = f[chunk] + _weighted_count(Z != 0.0, partition)
        for label, member in _classify(problem, Z, tests, CLASSIFY_TOL).items():
            flags.setdefault(label, np.zeros(count, dtype=bool))[chunk] = member
    points.flags.writeable = False

    labels = [*requests, BASIC_LABEL]
    conventions = {
        "tie_rule": TIE_RULE,
        "representative": "least-norm",
        "classify_tol": repr(CLASSIFY_TOL),
        "objective": type(problem.smooth).__name__,
    }
    return MinimaCatalog(bitmasks, points, f, F, flags, labels, conventions)


def verify_inclusions(catalog: MinimaCatalog) -> list[str]:
    """Check the nesting of classes and global-minimum membership.

    The catalog's label order runs from sharpest (smallest) to loosest:
    enumerate_catalog builds it as the requested classes followed by
    "basic". Returns a list of violation descriptions; an empty list means
    every inclusion holds and the global minimizer is flagged in every
    class.
    """
    order = catalog.class_labels
    violations = [
        f"support {bitmask:#x} is in class {a!r} but not in {b!r}"
        for a, b in zip(order, order[1:])
        for bitmask in catalog.bitmasks[catalog.flags[a] & ~catalog.flags[b]].tolist()
    ]
    gm = catalog.global_min
    for label in order:
        if not gm.flags.get(label, False):
            violations.append(
                f"global minimizer (support {gm.bitmask:#x}, F={gm.F_value:.6g}) "
                f"is not flagged in class {label!r}"
            )
    return violations


# Built-in small polynomial-fitting example used by the CLI --example2 flag.
EXAMPLE_ALPHA = (1.0, 1.1, 1.2, 1.3)
EXAMPLE_N = 7
EXAMPLE_P = 3.3
EXAMPLE_Q = 25.0
EXAMPLE_LAMBDA = 1.0
EXAMPLE_BETA = 1e-4


def build_example_instance() -> L0Problem:
    """The bundled 4x7 least squares instance with scalar blocks.

    Row r of the matrix holds the powers 0..6 of alpha_r, with 3.3 added on
    the first four diagonal entries; the target is 25 * ones(4); every
    coordinate carries penalty 1.
    """
    A = np.array([[a**c for c in range(EXAMPLE_N)] for a in EXAMPLE_ALPHA], dtype=float)
    for r in range(4):
        A[r, r] += EXAMPLE_P
    b = EXAMPLE_Q * np.ones(4)
    oracle = LeastSquaresObjective(A, b)
    partition = BlockPartition.scalar(
        lam=np.full(EXAMPLE_N, EXAMPLE_LAMBDA),
        lipschitz=oracle.column_lipschitz(),
        global_lipschitz=oracle.spectral_lipschitz(),
    )
    return L0Problem(smooth=oracle, partition=partition)


def example_class_requests(problem: L0Problem) -> dict[str, ApproxSpec]:
    """The three classification columns used for the bundled instance.

    Sharpest first: exact model with beta = 1e-4, quadratic model at the
    per-block constants L_i, quadratic model at the global constant L_f.
    """
    partition = problem.partition
    N = partition.num_blocks
    return {
        "ue[beta=1e-4]": ApproxSpec("ue", np.full(N, EXAMPLE_BETA)),
        "uq[M=Li]": ApproxSpec("uq", partition.lipschitz),
        "uq[M=Lf]": ApproxSpec("uq", np.full(N, partition.global_lipschitz)),
    }
