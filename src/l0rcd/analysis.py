"""Brute-force enumeration of candidate local minimizers and their
classification into restriction classes.

A candidate is the minimizer of the smooth term f restricted to a support
set I (zeros outside I). The classes:

- basic: the gradient vanishes on I(z);
- quadratic-model strong (curvature M_j per coordinate, from a separable or
  diagonal model): basic, and every zero coordinate has
  |grad_j| <= sqrt(2 lambda_i M_j) while every nonzero coordinate has
  |z_j| >= sqrt(2 lambda_i / M_j);
- exact-model strong (per-block beta): basic, and every coordinate is a
  fixed point of the exact thresholding map.

Every strong class is the basic class intersected with the fixed points of
one model's thresholding map: ``Model.fixed`` (``approx.resolve``) decides
fixed points, and ``_classify`` adds the basic flag. So every class lies in
basic. Between strong classes the models prove two inclusions: a quadratic
class at curvature M lies in the one at M' where M <= M' coordinatewise, and
ue[beta] lies in uq[M] where M_j >= L_j + beta_j, since the exact model then
lies below the quadratic one (``Model.proves_inside``). No other pair is
proved to nest. On least squares ue[beta] is the diagonal quadratic class at
||A_j||^2 + beta_j, so uq[M = L_j] lies inside it, not around it: on
generated 8x20 least squares (seed 3, lambda 0.3) one support is in
ue[beta = 1e-4] but not in uq[M = L_j]. ``verify_inclusions`` checks the
proved pairs only.
"""
from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .approx import TIE_RULE, ApproxSpec, Model, resolve
from .core import L0Problem, _check_dim, _weighted_count
from .objectives import LeastSquaresObjective, _rowdot

# Boundary tolerance for class membership tests; restricted solves agree
# with a pseudoinverse solve to about 1e-11 relative, so this absorbs
# accumulation without blurring classes.
CLASSIFY_TOL = 1e-8

# 2^n supports are solved; past this the table stops being a desk computation.
ENUMERATION_LIMIT = 24

BASIC_LABEL = "basic"

# Most supports of one size that enumerate_catalog solves and classifies together.
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
    read-only array), ``f[k]``, ``F[k]`` and ``flags[label][k]`` ("basic" the first column).
    ``models`` maps each requested label to its resolved ``Model``."""

    bitmasks: np.ndarray
    points: np.ndarray
    f: np.ndarray
    F: np.ndarray
    flags: dict[str, np.ndarray]
    class_labels: list[str]
    models: dict[str, Model]
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
    tests = {model.kind: resolve(model, problem.smooth, problem.partition).fixed(tol)}
    return bool(_classify(problem, _check_dim(z, problem.n)[None], tests, tol)[model.kind][0])


def enumerate_catalog(
    problem: L0Problem,
    requests: Mapping[str, ApproxSpec],
) -> MinimaCatalog:
    """Solve the restricted problem for every support and classify the results.

    ``requests`` maps each class label to its model; their order is the
    order of the columns. A class is the set of fixed points of the model's
    thresholding map, and classification accepts M_i = L_i, which a solver
    run would refuse.
    Supports range over all subsets of positive-penalty coordinates, each
    joined with the (always-included) zero-penalty coordinates: 2^(number of
    penalized coordinates) restricted solves. One row per support, in
    increasing bitmask order; the "basic" class is always computed, and
    every requested class lies inside it by definition. The columns are
    filled size by size: the supports of one size, in increasing bitmask
    order and at most ``_CHUNK`` at a time, make one batch, with one
    restricted-solve call (the empty support stays zero), one stacked f,
    one penalty and every class flag, scattered into the batch's rows. Each
    stacked call gives a row the bits of its one-row call, so the batching
    changes no value. Raises ValueError for n above ``ENUMERATION_LIMIT``,
    for the reserved label "basic" and for a model whose parameters do not
    fit the partition.
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
    models = {label: resolve(m, problem.smooth, partition) for label, m in requests.items()}
    tests = {label: model.fixed(CLASSIFY_TOL) for label, model in models.items()}
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
    flags = {label: np.zeros(count, dtype=bool) for label in (BASIC_LABEL, *requests)}
    shifts = np.arange(n)
    sizes = np.bitwise_count(bitmasks)
    for size in range(int(sizes.min()), n + 1):
        same_size = np.flatnonzero(sizes == size)
        for lo in range(0, len(same_size), _CHUNK):
            rows = same_size[lo : lo + _CHUNK]
            if size:
                bits = (bitmasks[rows, None] >> shifts) & 1 == 1  # row r: support bitmasks[rows[r]]
                # np.nonzero walks row by row, so each row's indices come sorted
                Z = solve(np.nonzero(bits)[1].reshape(len(rows), size))
            else:
                Z = np.zeros((len(rows), n))  # the empty support
            points[rows] = Z
            fz = problem.smooth.eval(Z)
            f[rows] = fz
            F[rows] = fz + _weighted_count(Z != 0.0, partition)
            for label, member in _classify(problem, Z, tests, CLASSIFY_TOL).items():
                flags[label][rows] = member
    points.flags.writeable = False

    labels = [*requests, BASIC_LABEL]
    conventions = {
        "tie_rule": TIE_RULE,
        "representative": "least-norm",
        "classify_tol": repr(CLASSIFY_TOL),
        "objective": type(problem.smooth).__name__,
    }
    return MinimaCatalog(bitmasks, points, f, F, flags, labels, models, conventions)


def verify_inclusions(catalog: MinimaCatalog) -> list[str]:
    """Check the class inclusions the models prove and global-minimum membership.

    The inclusions are every ordered pair of requested classes that
    ``Model.proves_inside`` proves, in label order, then every requested
    class inside "basic" (see the module docstring). Returns a list of
    violation descriptions; an empty list means every such inclusion holds
    and the global minimizer is flagged in every class.
    """
    models = catalog.models
    pairs = [
        (a, b) for a in models for b in models if a != b and models[a].proves_inside(models[b])
    ] + [(a, BASIC_LABEL) for a in models]
    violations = [
        f"support {bitmask:#x} is in class {a!r} but not in {b!r}"
        for a, b in pairs
        for bitmask in catalog.bitmasks[catalog.flags[a] & ~catalog.flags[b]].tolist()
    ]
    gm = catalog.global_min
    for label in catalog.class_labels:
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
    return L0Problem.from_oracle(LeastSquaresObjective(A, b), EXAMPLE_LAMBDA)


def example_class_requests(problem: L0Problem) -> dict[str, ApproxSpec]:
    """The three classification columns used for the bundled instance.

    Exact model with beta = 1e-4, quadratic model at the per-block constants
    L_i, quadratic model at the global constant L_f.
    """
    partition = problem.partition
    N = partition.num_blocks
    return {
        "ue[beta=1e-4]": ApproxSpec("ue", np.full(N, EXAMPLE_BETA)),
        "uq[M=Li]": ApproxSpec("uq", partition.lipschitz),
        "uq[M=Lf]": ApproxSpec("uq", np.full(N, partition.global_lipschitz)),
    }
