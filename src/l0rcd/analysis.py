"""Brute-force enumeration of candidate local minimizers and their
classification into nested restriction classes.

A candidate is the minimizer of the smooth term f restricted to a support
set I (zeros outside I). Classes, from largest to smallest:

- basic: the gradient vanishes on I(z);
- quadratic-model strong (curvature M_j per coordinate, from a separable or
  diagonal model): basic, and every zero coordinate has
  |grad_j| <= sqrt(2 lambda_i M_j) while every nonzero coordinate has
  |z_j| >= sqrt(2 lambda_i / M_j);
- exact-model strong (per-block beta): every coordinate is a fixed point of
  the exact thresholding map.

Smaller parameters give sharper models and smaller classes; the enumeration
records per-class flags so the inclusion chain can be verified directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .approx import EXACT, TIE_RULE, ApproxSpec, threshold_e
from .core import BlockPartition, L0Problem, l0_norm
from .objectives import LeastSquaresObjective

# Boundary tolerance for class membership tests; restricted solves are
# accurate to 1e-10, so this absorbs accumulation without blurring classes.
CLASSIFY_TOL = 1e-8

# 2^n supports are solved; past this the table stops being a desk computation.
ENUMERATION_LIMIT = 24

BASIC_LABEL = "basic"


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


@dataclass
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


def restricted_minimize(problem: L0Problem, I) -> np.ndarray:
    """Minimizer of f over the subspace of vectors supported on I.

    Delegates to the oracle's optional ``restricted_minimize``; raises
    TypeError for an oracle without it.
    """
    n = problem.n
    idx = sorted(int(j) for j in I)
    if any(j < 0 or j >= n for j in idx):
        raise ValueError(f"support indices out of range for n={n}")
    if not idx:
        return np.zeros(n)
    solve = getattr(problem.smooth, "restricted_minimize", None)
    if solve is None:
        raise TypeError(
            f"restricted minimization not implemented for {type(problem.smooth).__name__}"
        )
    return solve(idx)


def _classify(
    problem: L0Problem, z: np.ndarray, requests: list[ClassRequest], tol: float
) -> dict[str, bool]:
    """The basic flag and one flag per request, from one cache and one gradient.

    Each request's flag is its bare condition; callers that need it conjoin
    the basic flag themselves.
    """
    partition = problem.partition
    for req in requests:
        req.model.check_partition(partition)
    z = np.asarray(z, dtype=float)
    smooth = problem.smooth
    cache = smooth.make_cache(z)
    g = smooth.block_grad(z, slice(None), cache)
    on = (z != 0.0) | partition.zero_penalty_mask  # I(z)
    flags = {BASIC_LABEL: not on.any() or float(np.linalg.norm(g[on])) <= tol}
    lam = partition.coord_lambda()
    for req in requests:
        model = req.model
        if model.kind == EXACT:
            # scalar blocks, so block j is coordinate j; stop at the first that moves
            flags[req.label] = True
            for j, beta in enumerate(model.beta):
                out = threshold_e(smooth, z, j, beta, partition.lam[j], cache)
                if (out == 0.0) != (z[j] == 0.0) or abs(out - z[j]) > tol:
                    flags[req.label] = False
                    break
        else:
            M = model.coord_curvature(partition)
            zero_bound = np.sqrt(2.0 * lam * M) + tol
            keep_bound = np.sqrt(2.0 * lam / M) - tol
            fails = np.where(z == 0.0, np.abs(g) > zero_bound, np.abs(z) < keep_bound)
            flags[req.label] = not np.any(fails & (lam != 0.0))  # lam = 0 always passes
    return flags


def is_basic_local_min(problem: L0Problem, z: np.ndarray, tol: float = CLASSIFY_TOL) -> bool:
    """True iff the gradient of f vanishes on I(z) (within tol)."""
    return _classify(problem, z, [], tol)[BASIC_LABEL]


def is_uq_strong(
    problem: L0Problem, z: np.ndarray, M, tol: float = CLASSIFY_TOL
) -> bool:
    """Fixed-point test for the separable quadratic model, in explicit form.

    Requires the basic condition, plus per coordinate in positive-penalty
    blocks: |grad_j| <= sqrt(2 lambda_i M_i) where z_j = 0 and
    |z_j| >= sqrt(2 lambda_i / M_i) where z_j != 0. Valid with M_i = L_i
    (classification at the boundary is well defined); solvers require
    strict inequality but classification does not.
    """
    flags = _classify(problem, z, [ClassRequest.quadratic("uq", M)], tol)
    return flags[BASIC_LABEL] and flags["uq"]


def is_ue_strong(
    problem: L0Problem, z: np.ndarray, beta, tol: float = CLASSIFY_TOL
) -> bool:
    """Fixed-point test for the exact model: thresholding returns z itself.

    Scalar blocks only. The thresholding output must preserve each
    coordinate's zero/nonzero status exactly (support semantics are
    bit-exact, so zeroing a tiny coordinate is a support change, not a
    fixed point) and may drift from kept values by at most tol.
    """
    return _classify(problem, z, [ClassRequest.exact("ue", beta)], tol)["ue"]


def enumerate_catalog(
    problem: L0Problem,
    requests: list[ClassRequest],
    tol: float = CLASSIFY_TOL,
) -> MinimaCatalog:
    """Solve the restricted problem for every support and classify the results.

    Supports range over all subsets of positive-penalty coordinates, each
    joined with the (always-included) zero-penalty coordinates: 2^(number of
    penalized coordinates) restricted solves. One entry per support; the
    "basic" class is always computed, and u-strong flags are conjoined with
    the basic flag so the inclusion chain holds by construction.
    """
    n = problem.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration over 2^{n} supports refused (limit n <= {ENUMERATION_LIMIT})"
        )
    partition = problem.partition
    mandatory = partition.zero_penalty_bits
    free = [1 << j for j in range(n) if not mandatory >> j & 1]

    entries: list[CatalogEntry] = []
    for choice in range(1 << len(free)):
        bitmask = mandatory | sum(bit for t, bit in enumerate(free) if choice >> t & 1)
        z = restricted_minimize(problem, [j for j in range(n) if bitmask >> j & 1])
        f_val = problem.smooth.eval(z)
        F_val = f_val + l0_norm(z, partition)
        flags = _classify(problem, z, requests, tol)
        basic = flags[BASIC_LABEL]
        entries.append(
            CatalogEntry(
                bitmask=bitmask,
                point=z,
                f_value=f_val,
                F_value=F_val,
                flags={label: basic and flag for label, flag in flags.items()},
            )
        )

    entries.sort(key=lambda e: e.bitmask)
    labels = [req.label for req in requests] + [BASIC_LABEL]
    conventions = {
        "tie_rule": TIE_RULE,
        "representative": "least-norm",
        "classify_tol": repr(tol),
        "objective": type(problem.smooth).__name__,
    }
    return MinimaCatalog(entries=entries, class_labels=labels, conventions=conventions)


def verify_inclusions(catalog: MinimaCatalog, order: list[str] | None = None) -> list[str]:
    """Check the nesting of classes and global-minimum membership.

    ``order`` lists class labels from sharpest (smallest) to loosest; the
    default is the catalog's label order, which enumerate_catalog builds as
    the requested classes followed by "basic". Returns a list of violation
    descriptions; an empty list means every inclusion holds and the global
    minimizer is flagged in every class.
    """
    if order is None:
        order = list(catalog.class_labels)
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
