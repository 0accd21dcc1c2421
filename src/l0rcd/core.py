"""Problem model: block structure, the weighted l0 penalty, support bookkeeping.

The objective being minimized everywhere in this package is

    F(x) = f(x) + sum_i lambda_i * (number of nonzero components in block i)

where f is smooth and convex with a known Lipschitz constant for each block
gradient. A component counts as nonzero iff it is not bit-exactly 0.0;
thresholding operations write literal zeros, so support tracking is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .objectives import SmoothOracle

# Relative slack for validating the global constant against the sum bound.
_LF_SUM_SLACK = 1e-9


@dataclass(frozen=True)
class BlockPartition:
    """Partition of the n coordinates into contiguous blocks.

    Each block i carries a nonnegative penalty weight ``lam[i]`` and a
    positive Lipschitz constant ``lipschitz[i]`` for the block gradient of
    the smooth term. ``global_lipschitz`` bounds the full gradient; it comes
    from ``global_bound``, a float or a zero-argument function that returns
    one, and defaults (``global_bound`` 0.0) to the always valid sum of the
    per-block constants. Arrays derived from the layout, and
    ``global_lipschitz``, are built on first use and shared read-only.
    Equality compares the fields, ``global_bound`` aside, and
    ``global_lipschitz``.
    """

    block_sizes: tuple[int, ...]
    lam: tuple[float, ...]
    lipschitz: tuple[float, ...]
    global_bound: float | Callable[[], float] = field(default=0.0, compare=False)
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.block_sizes:
            raise ValueError("partition needs at least one block")
        if any(int(s) < 1 for s in self.block_sizes):
            raise ValueError("block sizes must be positive integers")
        if len(self.lam) != len(self.block_sizes) or len(self.lipschitz) != len(self.block_sizes):
            raise ValueError("lam and lipschitz must have one entry per block")
        if any(not 0.0 <= l < math.inf for l in self.lam):
            raise ValueError("penalty weights must be finite and nonnegative")
        if not any(l > 0 for l in self.lam):
            raise ValueError("at least one penalty weight must be positive")
        if sum(float(l) * int(s) for l, s in zip(self.lam, self.block_sizes)) == math.inf:
            raise ValueError("the penalty of the full support, sum of lam_i * n_i, overflows")
        if any(not 0.0 < L < math.inf for L in self.lipschitz):
            raise ValueError("Lipschitz constants must be finite and positive")
        object.__setattr__(self, "offsets", (0, *accumulate(map(int, self.block_sizes))))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.block_sizes, self.lam, self.lipschitz, self.global_lipschitz) == (
            other.block_sizes, other.lam, other.lipschitz, other.global_lipschitz
        )

    @cached_property
    def global_lipschitz(self) -> float:
        """L_f from ``global_bound``, called here at most once; ValueError
        unless it is finite, positive and at most the sum of the L_i."""
        bound = self.global_bound
        L_f = float(bound() if callable(bound) else bound)
        sum_L = float(sum(self.lipschitz))
        if L_f == 0.0:
            L_f = sum_L
        if not 0.0 < L_f < math.inf:
            raise ValueError("global Lipschitz constant must be finite and positive")
        if L_f > sum_L * (1 + _LF_SUM_SLACK):
            raise ValueError(
                f"global Lipschitz constant {L_f} exceeds the sum of block constants {sum_L}"
            )
        return L_f

    @property
    def n(self) -> int:
        return self.offsets[-1]

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    def block_slice(self, i: int) -> slice:
        """Coordinate range of block i."""
        return slice(self.offsets[i], self.offsets[i + 1])

    @cached_property
    def block_starts(self) -> np.ndarray:
        return _read_only(np.array(self.offsets[:-1], dtype=np.intp))

    @cached_property
    def lam_array(self) -> np.ndarray:
        return _read_only(np.array(self.lam, dtype=float))

    @cached_property
    def _coord_lam(self) -> np.ndarray:
        return _read_only(np.repeat(self.lam_array, self.block_sizes))

    @cached_property
    def zero_penalty_mask(self) -> np.ndarray:
        return _read_only(self._coord_lam == 0.0)

    @cached_property
    def zero_penalty_bits(self) -> int:
        return _bitmask_of(self.zero_penalty_mask)

    @cached_property
    def count_penalty(self) -> tuple[float, ...] | None:
        """``l0_norm`` of a point by its number k of penalized nonzeros, as
        entry k, when the penalty depends on that count alone: every block
        with lam_i > 0 is one coordinate, and all of them share one lam.
        None on any other partition.

        Entry k is the left-to-right sum of k copies of lam, the sum
        ``l0_norm`` forms once its exact 0.0 terms drop out, so it has
        ``l0_norm``'s bits (lam * k rounds differently from k = 6 at
        lam = 0.3).
        """
        penalized = [(s, l) for s, l in zip(self.block_sizes, self.lam) if l > 0.0]
        if any(s != 1 or l != penalized[0][1] for s, l in penalized):
            return None
        return (0.0, *np.cumsum(np.full(len(penalized), penalized[0][1])).tolist())

    def coord_lambda(self) -> np.ndarray:
        """Per-coordinate penalty weight (each coordinate inherits its block's)."""
        return self._coord_lam

    @staticmethod
    def scalar(lam, lipschitz, global_bound: float = 0.0) -> "BlockPartition":
        """Convenience constructor for all-scalar blocks (n_i = 1)."""
        lam = tuple(float(v) for v in np.atleast_1d(lam))
        lip = tuple(float(v) for v in np.atleast_1d(lipschitz))
        return BlockPartition(
            block_sizes=(1,) * len(lam),
            lam=lam,
            lipschitz=lip,
            global_bound=global_bound,
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _bitmask_of(mask: np.ndarray) -> int:
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _check_dim(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected vector of length {n}, got shape {x.shape}")
    return x


def l0_norm(x: np.ndarray, partition: BlockPartition) -> float:
    """Weighted count of nonzero components, sum_i lam_i * ||x_i||_0.

    Zero means bit-exact 0.0. Not a norm (fails homogeneity), but
    scale-invariant: l0_norm(c*x) = l0_norm(x) for c != 0. Block terms are
    added left to right (cumsum, not a pairwise or compensated sum).
    """
    return float(_weighted_count(_check_dim(x, partition.n) != 0.0, partition))


def _weighted_count(nonzero: np.ndarray, partition: BlockPartition) -> np.ndarray:
    """``l0_norm``'s sum, lam_i times the True entries of block i, along the
    last axis of a mask: one value for one point, one per row for a stack."""
    counts = np.add.reduceat(nonzero.astype(np.int64), partition.block_starts, axis=-1)
    return np.cumsum(partition.lam_array * counts, axis=-1)[..., -1]


def support_of(x: np.ndarray, partition: BlockPartition) -> int:
    """The index set I(x) as an int bitmask, bit j set for each member j.

    I(x) holds the nonzero coordinates plus all zero-penalty coordinates:
    coordinates living in blocks with lam_i = 0 are always included because
    the penalty never constrains them.
    """
    x = _check_dim(x, partition.n)
    return _bitmask_of(x != 0.0) | partition.zero_penalty_bits


@dataclass(frozen=True)
class L0Problem:
    """A smooth convex oracle paired with a block partition.

    Immutable and safely shareable across concurrent solver runs. An oracle
    may keep a memo of its last answers (the logistic one does), but only of
    a pure function of the cache bits, replaced whole: runs that share it
    can miss it, never read each other's state, and get the same bits. The
    partition's ``global_lipschitz`` is computed on its first read; two
    first reads at once may both compute it, and get the same bits.
    """

    smooth: "SmoothOracle"
    partition: BlockPartition

    def __post_init__(self) -> None:
        if self.smooth.dim != self.partition.n:
            raise ValueError(
                f"oracle dimension {self.smooth.dim} != partition dimension {self.partition.n}"
            )

    @classmethod
    def from_oracle(cls, smooth: "SmoothOracle", lam: float, block_sizes=None) -> "L0Problem":
        """``smooth`` with penalty ``lam`` on every block of ``block_sizes``
        (scalar blocks where it is None or empty) and the oracle's constants:
        ``block_lipschitz(block_sizes)`` per block and, where the oracle has
        it, ``spectral_lipschitz`` as the source of the global one (else the
        partition's default, the sum of the block constants). The partition
        calls it on the first read of ``global_lipschitz``, so a problem that
        never reads L_f never computes it.

        ValueError when the sizes do not sum to ``smooth.dim``, before any
        constant is asked for; else whatever the oracle, the partition or
        the problem raise."""
        n = smooth.dim
        sizes = tuple(block_sizes or (1,) * n)
        if (total := sum(sizes)) != n:
            raise ValueError(f"block_sizes sum to {total}, need {n}")
        lipschitz = tuple(float(v) for v in smooth.block_lipschitz(sizes))
        global_bound = getattr(smooth, "spectral_lipschitz", 0.0)
        partition = BlockPartition(sizes, (float(lam),) * len(sizes), lipschitz, global_bound)
        return cls(smooth, partition)

    @property
    def n(self) -> int:
        return self.partition.n


def objective_F(problem: L0Problem, x: np.ndarray) -> float:
    """Full objective f(x) + l0_norm(x)."""
    x = _check_dim(x, problem.n)
    return problem.smooth.eval(x) + l0_norm(x, problem.partition)


@dataclass
class IterateState:
    """Mutable per-run solver state: point, oracle cache, f value, support, penalty.

    Exclusively owned by one solver run. ``support`` is ``support_of(x)``
    and ``penalty`` is ``l0_norm(x)``: both depend on ``x`` only through
    which entries are zero, and only this class maps that pattern to them.
    The stepping code keeps ``cache`` and ``f_value`` consistent with
    ``x``; a coordinate step that changes the zero pattern of one block
    passes just the toggled bits to ``flip``, which drops the zero-penalty
    ones, XORs the rest into the support and reads the penalty from the
    partition's ``count_penalty`` table, with no O(n) work. On a partition
    without the table, ``flip`` recomputes the penalty with ``l0_norm``.
    ``recount`` reads both from the whole point, and ``refresh`` rebuilds
    everything; the full-gradient step recounts.
    """

    x: np.ndarray
    cache: np.ndarray = field(init=False)
    f_value: float = field(init=False)
    support: int = field(init=False)
    penalty: float = field(init=False)

    @classmethod
    def from_point(cls, problem: L0Problem, x: np.ndarray) -> "IterateState":
        state = cls(_check_dim(x, problem.n).copy())
        state.refresh(problem)
        return state

    def objective(self) -> float:
        return self.f_value + self.penalty

    def recount(self, problem: L0Problem) -> None:
        """Recompute support and penalty from the zero pattern of the point."""
        self.support = support_of(self.x, problem.partition)
        self.penalty = l0_norm(self.x, problem.partition)

    def flip(self, problem: L0Problem, bits: int) -> None:
        """Account for a step, already written to ``x``, that toggled the zero
        status of the coordinates in the bitmask ``bits``; zero-penalty
        coordinates never leave the support, so their bits are dropped."""
        partition = problem.partition
        free = partition.zero_penalty_bits
        bits &= ~free
        if not bits:
            return
        self.support ^= bits
        table = partition.count_penalty
        if table is None:
            self.penalty = l0_norm(self.x, partition)
        else:
            # the support holds every zero-penalty coordinate and the penalized nonzeros
            self.penalty = table[self.support.bit_count() - free.bit_count()]

    def refresh(self, problem: L0Problem) -> None:
        """Recompute cache, f value, support and penalty from the current point."""
        self.cache = problem.smooth.make_cache(self.x)
        self.f_value = problem.smooth.value_from_cache(self.x, self.cache)
        self.recount(problem)
