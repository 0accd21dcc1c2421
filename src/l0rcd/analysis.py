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

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from itertools import islice

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


@dataclass(frozen=True)
class ClassRequest:
    """One classification column: a label and the approximation model.

    The class is the set of fixed points of the model's thresholding map.
    Classification accepts M_i = L_i, which a solver run would refuse.
    """

    label: str
    model: ApproxSpec

    def __post_init__(self) -> None:
        if self.label == BASIC_LABEL:
            raise ValueError(f"label {BASIC_LABEL!r} is reserved")

    @classmethod
    def quadratic(cls, label: str, M) -> "ClassRequest":
        return cls(label, ApproxSpec.separable_quadratic(M))

    @classmethod
    def exact(cls, label: str, beta) -> "ClassRequest":
        return cls(label, ApproxSpec.exact(beta))


@dataclass(slots=True)  # no per-entry __dict__: a catalog holds 2^n of them
class CatalogEntry:
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
    """One entry per enumerated support, with class-membership flags."""

    entries: list[CatalogEntry]
    class_labels: list[str]
    conventions: dict[str, str] = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        return {
            label: sum(1 for e in self.entries if e.flags[label])
            for label in self.class_labels
        }

    def members(self, label: str) -> list[CatalogEntry]:
        return [e for e in self.entries if e.flags[label]]

    @property
    def global_min(self) -> CatalogEntry:
        return min(self.entries, key=lambda e: (e.F_value, e.bitmask))

    def entry_for_support(self, bitmask: int) -> CatalogEntry | None:
        """The entry whose support is the int ``bitmask``, as ``IterateState.support`` holds it."""
        for e in self.entries:
            if e.bitmask == bitmask:
                return e
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
    zero_bound = np.sqrt(2.0 * lam * M) + tol
    keep_bound = np.sqrt(2.0 * lam / M) - tol
    penalized = lam != 0.0  # lam = 0 always passes
    return lambda Z, G: ~np.any(
        np.where(Z == 0.0, np.abs(G) > zero_bound, np.abs(Z) < keep_bound) & penalized, axis=-1
    )


def _classify(
    problem: L0Problem, Z: np.ndarray, tests: list[tuple[str, Callable]], tol: float
) -> dict[str, np.ndarray]:
    """Membership of each row of Z in the basic class and in each (label, test) class.

    Returns one bool array per class, "basic" first. A requested class holds
    the basic points that are fixed points of the request's thresholding
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
    for label, test in tests:
        member = np.zeros(len(Z), dtype=bool)
        member[basic_rows] = test(Z[basic_rows], G[basic_rows])
        flags[label] = member
    return flags


def is_basic_local_min(problem: L0Problem, z: np.ndarray, tol: float = CLASSIFY_TOL) -> bool:
    """True iff the gradient of f vanishes on I(z) (within tol)."""
    return bool(_classify(problem, _check_dim(z, problem.n)[None], [], tol)[BASIC_LABEL][0])


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
    tests = [(model.kind, _fixed_point_test(problem, model, tol))]
    return bool(_classify(problem, _check_dim(z, problem.n)[None], tests, tol)[model.kind][0])


def _submasks(free: int) -> Iterator[int]:
    """The submasks of ``free``, in increasing order, 0 first."""
    s = 0
    while True:
        yield s
        s = (s - free) & free
        if s == 0:
            return


def enumerate_catalog(
    problem: L0Problem,
    requests: list[ClassRequest],
    tol: float = CLASSIFY_TOL,
) -> MinimaCatalog:
    """Solve the restricted problem for every support and classify the results.

    Supports range over all subsets of positive-penalty coordinates, each
    joined with the (always-included) zero-penalty coordinates: 2^(number of
    penalized coordinates) restricted solves. One entry per support, in
    increasing bitmask order; the "basic" class is always computed, and
    every requested class lies inside it by definition. The supports go in
    chunks of ``_CHUNK``: one restricted-solve call per support size in the
    chunk, with the empty support left at zero, then f, F and every class
    flag for the whole chunk at once, from its points stacked as the rows of
    a read-only array that the entries' points are views of.
    """
    n = problem.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration over 2^{n} supports refused (limit n <= {ENUMERATION_LIMIT})"
        )
    partition = problem.partition
    solve = _restricted_solver(problem)
    tests = [(req.label, _fixed_point_test(problem, req.model, tol)) for req in requests]
    mandatory = partition.zero_penalty_bits
    supports = (mandatory | s for s in _submasks(((1 << n) - 1) & ~mandatory))
    shifts = np.arange(n)

    entries: list[CatalogEntry] = []
    while chunk := list(islice(supports, _CHUNK)):
        bits = (np.array(chunk)[:, None] >> shifts) & 1 == 1  # row k: the support chunk[k]
        sizes = bits.sum(axis=1)
        Z = np.zeros((len(chunk), n))
        for size in sorted(set(sizes.tolist()) - {0}):
            rows = np.flatnonzero(sizes == size)
            # np.nonzero walks row by row, so each row's indices come sorted
            Z[rows] = solve(np.nonzero(bits[rows])[1].reshape(len(rows), size))
        Z.flags.writeable = False
        f = problem.smooth.eval(Z)
        F = (f + _weighted_count(Z != 0.0, partition)).tolist()
        flags = [(label, v.tolist()) for label, v in _classify(problem, Z, tests, tol).items()]
        for k, (bitmask, f_val) in enumerate(zip(chunk, f.tolist())):
            entries.append(
                CatalogEntry(
                    bitmask=bitmask,
                    point=Z[k],
                    f_value=f_val,
                    F_value=F[k],
                    flags={label: member[k] for label, member in flags},
                )
            )

    labels = [req.label for req in requests] + [BASIC_LABEL]
    conventions = {
        "tie_rule": TIE_RULE,
        "representative": "least-norm",
        "classify_tol": repr(tol),
        "objective": type(problem.smooth).__name__,
    }
    return MinimaCatalog(entries=entries, class_labels=labels, conventions=conventions)


def verify_inclusions(catalog: MinimaCatalog) -> list[str]:
    """Check the nesting of classes and global-minimum membership.

    The catalog's label order runs from sharpest (smallest) to loosest:
    enumerate_catalog builds it as the requested classes followed by
    "basic". Returns a list of violation descriptions; an empty list means
    every inclusion holds and the global minimizer is flagged in every
    class.
    """
    order = catalog.class_labels
    violations: list[str] = []
    for a, b in zip(order, order[1:]):
        masks_b = {e.bitmask for e in catalog.members(b)}
        for e in catalog.members(a):
            if e.bitmask not in masks_b:
                violations.append(
                    f"support {e.bitmask:#x} is in class {a!r} but not in {b!r}"
                )
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


def example_class_requests(problem: L0Problem) -> list[ClassRequest]:
    """The three classification columns used for the bundled instance.

    Sharpest first: exact model with beta = 1e-4, quadratic model at the
    per-block constants L_i, quadratic model at the global constant L_f.
    """
    partition = problem.partition
    L = np.asarray(partition.lipschitz)
    Lf = partition.global_lipschitz
    return [
        ClassRequest.exact("ue[beta=1e-4]", np.full(partition.num_blocks, EXAMPLE_BETA)),
        ClassRequest.quadratic("uq[M=Li]", L),
        ClassRequest.quadratic("uq[M=Lf]", np.full(partition.num_blocks, Lf)),
    ]
