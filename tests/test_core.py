import numpy as np
import pytest
from hypothesis import given, settings, strategies

import l0rcd
from l0rcd import (
    BlockPartition,
    IterateState,
    L0Problem,
    LeastSquaresObjective,
    l0_norm,
    objective_F,
    support_of,
)

from conftest import toy_problem


def scalar_partition(lam, L):
    return BlockPartition.scalar(lam, L)


class TestL0Norm:
    def test_zero_vector(self):
        p = scalar_partition([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert l0_norm(np.zeros(3), p) == 0.0

    def test_scalar_blocks(self):
        p = scalar_partition([0.5, 0.5, 0.5], [1.0, 1.0, 1.0])
        assert l0_norm(np.array([1.0, 0.0, 2.0]), p) == 1.0

    def test_multivariate_block_counts_components(self):
        # one block of size 3: penalty is lam * (number of nonzero entries)
        p = BlockPartition(
            block_sizes=(3,), lam=(0.5,), lipschitz=(1.0,)
        )
        assert l0_norm(np.array([1.0, 0.0, 2.0]), p) == 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        p = scalar_partition(rng.uniform(0.1, 2.0, 6), np.ones(6))
        for _ in range(50):
            x = rng.standard_normal(6) * (rng.random(6) < 0.6)
            c = rng.uniform(0.1, 10.0)
            assert l0_norm(x, p) == l0_norm(c * x, p)

    def test_dimension_mismatch(self):
        p = scalar_partition([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            l0_norm(np.zeros(3), p)


class TestSupportOf:
    def test_zero_penalty_coordinates_always_included(self):
        p = scalar_partition([1.0, 0.0], [1.0, 1.0])
        assert support_of(np.array([1.0, 0.0]), p) == 0b11

    def test_zero_vector_all_penalized(self):
        p = scalar_partition([1.0, 1.0], [1.0, 1.0])
        assert support_of(np.zeros(2), p) == 0

    def test_nonzero_entries(self):
        p = scalar_partition([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert support_of(np.array([0.0, 3.0, 0.0]), p) == 0b010

    def test_exact_zero_semantics(self):
        # tiny but nonzero entries are in the support; no epsilon band
        p = scalar_partition([1.0, 1.0], [1.0, 1.0])
        assert support_of(np.array([1e-300, 0.0]), p) == 0b01

    def test_bits_past_63(self):
        p = scalar_partition(np.ones(70), np.ones(70))
        x = np.zeros(70)
        x[[3, 65]] = 1.0
        assert support_of(x, p) == (1 << 3) | (1 << 65)


class TestObjective:
    def test_toy_values(self, toy):
        assert objective_F(toy, np.array([2.0, 0.5])) == pytest.approx(1.0)
        assert objective_F(toy, np.array([2.0, 0.0])) == pytest.approx(0.625)
        assert objective_F(toy, np.zeros(2)) == pytest.approx(2.125)

    def test_f_plus_penalty(self):
        rng = np.random.default_rng(3)
        prob = toy_problem(lam=0.7)
        for _ in range(20):
            x = rng.standard_normal(2) * (rng.random(2) < 0.5)
            f = prob.smooth.eval(x)
            assert objective_F(prob, x) == pytest.approx(
                f + l0_norm(x, prob.partition)
            )


class TestBlockPartition:
    def test_offsets_and_slices(self):
        p = BlockPartition(
            block_sizes=(2, 3, 1), lam=(1.0, 0.5, 0.0), lipschitz=(1.0, 2.0, 3.0)
        )
        assert p.n == 6
        assert p.num_blocks == 3
        assert p.block_slice(0) == slice(0, 2)
        assert p.block_slice(1) == slice(2, 5)
        assert p.block_slice(2) == slice(5, 6)

    def test_coord_lookups(self):
        p = BlockPartition(
            block_sizes=(2, 1), lam=(1.0, 0.25), lipschitz=(4.0, 9.0)
        )
        np.testing.assert_allclose(p.coord_lambda(), [1.0, 1.0, 0.25])

    def test_coord_arrays_are_shared_and_read_only(self):
        p = BlockPartition(block_sizes=(2, 1), lam=(1.0, 0.0), lipschitz=(4.0, 9.0))
        assert p.coord_lambda() is p.coord_lambda()
        with pytest.raises(ValueError):
            p.coord_lambda()[0] = 5.0
        np.testing.assert_array_equal(p.coord_lambda(), [1.0, 1.0, 0.0])

    def test_default_global_lipschitz_is_sum(self):
        p = scalar_partition([1.0, 1.0], [2.0, 3.0])
        assert p.global_lipschitz == pytest.approx(5.0)

    def test_global_lipschitz_above_sum_rejected(self):
        with pytest.raises(ValueError):
            BlockPartition(
                block_sizes=(1, 1),
                lam=(1.0, 1.0),
                lipschitz=(1.0, 1.0),
                global_lipschitz=2.5,
            )

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            scalar_partition([1.0, -0.5], [1.0, 1.0])

    def test_non_finite_parameters_rejected(self):
        """NaN passes a bare v < 0 or v <= 0 test."""
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                scalar_partition([bad, 1.0], [1.0, 1.0])
            with pytest.raises(ValueError):
                scalar_partition([1.0, 1.0], [1.0, bad])
            with pytest.raises(ValueError):
                BlockPartition.scalar([1.0, 1.0], [1.0, 1.0], global_lipschitz=bad)

    def test_all_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            scalar_partition([0.0, 0.0], [1.0, 1.0])

    def test_nonpositive_lipschitz_rejected(self):
        with pytest.raises(ValueError):
            scalar_partition([1.0, 1.0], [1.0, 0.0])

    def test_overflowing_full_support_penalty_rejected(self):
        """sum of lam_i * n_i must be finite, so F of any point can be."""
        BlockPartition.scalar([1e308], [1.0])
        BlockPartition(block_sizes=(1, 1), lam=(8e307, 8e307), lipschitz=(1.0, 1.0))
        with pytest.raises(ValueError, match="overflows"):
            scalar_partition([1e308, 1e308], [1.0, 1.0])
        with pytest.raises(ValueError, match="overflows"):
            BlockPartition(block_sizes=(2,), lam=(1e308,), lipschitz=(1.0,))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BlockPartition(block_sizes=(1, 2), lam=(1.0,), lipschitz=(1.0, 1.0))


class TestIterateState:
    def test_from_point_consistency(self, toy):
        x = np.array([2.0, 0.5])
        st = IterateState.from_point(toy, x)
        assert st.support == 0b11
        assert st.f_value == pytest.approx(toy.smooth.eval(x))
        assert st.objective() == pytest.approx(1.0)

    def test_refresh_after_manual_edit(self, toy):
        st = IterateState.from_point(toy, np.array([2.0, 0.5]))
        st.x[1] = 0.0
        st.refresh(toy)
        assert st.support == 0b01
        assert st.objective() == pytest.approx(0.625)

    def test_copy_is_taken(self, toy):
        x = np.array([1.0, 1.0])
        st = IterateState.from_point(toy, x)
        x[0] = 99.0
        assert st.x[0] == 1.0


# Values whose zero test is easy to get wrong: signed zeros and denormals.
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1.0, -3.0]


@strategies.composite
def _partitioned_points(draw):
    """A partition with n >= 70, block sizes 1-4 and one zero-penalty block, and a point."""
    ints, floats, lists = strategies.integers, strategies.floats, strategies.lists
    sizes = draw(lists(ints(1, 4), min_size=70, max_size=90))
    N, n = len(sizes), sum(sizes)
    lam = draw(lists(floats(0.01, 10.0), min_size=N, max_size=N))
    lam[draw(ints(0, N - 1))] = 0.0
    values = strategies.one_of(strategies.sampled_from(_EDGE_VALUES), floats(-10.0, 10.0))
    x = draw(lists(values, min_size=n, max_size=n))
    return tuple(sizes), tuple(lam), np.array(x)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_partitioned_points())
def test_state_support_and_penalty_from_the_zero_pattern(case):
    sizes, lam, x = case
    p = BlockPartition(block_sizes=sizes, lam=lam, lipschitz=(1.0,) * len(sizes))
    prob = L0Problem(LeastSquaresObjective(np.ones((2, p.n)), np.ones(2)), p)
    expected, j = 0, 0
    for size, lam_i in zip(sizes, lam):
        for _ in range(size):
            if x[j] != 0.0 or lam_i == 0.0:
                expected |= 1 << j
            j += 1
    state = IterateState.from_point(prob, x)
    assert state.support == expected
    assert state.penalty.hex() == l0_norm(x, p).hex()


def test_every_exported_name_resolves():
    assert len(set(l0rcd.__all__)) == len(l0rcd.__all__)
    missing = [name for name in l0rcd.__all__ if not hasattr(l0rcd, name)]
    assert missing == []
