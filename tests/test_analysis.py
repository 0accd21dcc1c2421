import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from l0rcd import (
    ApproxSpec,
    BlockPartition,
    L0Problem,
    LeastSquaresObjective,
    LogisticL2Objective,
    SolverConfig,
    build_example_instance,
    enumerate_catalog,
    example_class_requests,
    is_basic_local_min,
    is_strong_local_min,
    l0_norm,
    objective_F,
    restricted_minimize,
    run_rcd_iht,
    separable_from_factor,
    verify_inclusions,
)
from l0rcd import analysis, approx
from l0rcd.analysis import _CHUNK, CLASSIFY_TOL
from l0rcd.approx import M_EQ_LIPSCHITZ_FACTOR

from l0rcd.cli import ExperimentConfig, _enumerate_requests, build_problem, generate_least_squares

from conftest import random_logistic_problem, toy_problem


class TestRestrictedMinimize:
    def test_empty_support(self, toy):
        np.testing.assert_array_equal(restricted_minimize(toy, frozenset()), [0.0, 0.0])

    def test_single_coordinate(self, toy):
        np.testing.assert_allclose(restricted_minimize(toy, {0}), [2.0, 0.0])

    def test_full_support_stationary(self, toy):
        z = restricted_minimize(toy, {0, 1})
        assert np.linalg.norm(toy.smooth.full_grad(z)) <= 1e-10

    def test_logistic_newton_reaches_tolerance(self):
        prob = random_logistic_problem(15, 6, seed=60)
        for I in [{0, 2, 4}, set(range(6)), {5}]:
            z = restricted_minimize(prob, I)
            g = prob.smooth.full_grad(z)
            tol = 1e-10 * (1 + np.linalg.norm(prob.smooth.full_grad(np.zeros(6))))
            assert np.linalg.norm(g[sorted(I)]) <= tol
            off = [j for j in range(6) if j not in I]
            np.testing.assert_array_equal(z[off], 0.0)

    def test_rank_deficient_least_norm(self):
        # x0 + x1 = 2 has many solutions; the canonical one is (1, 1)
        oracle = LeastSquaresObjective(np.array([[1.0, 1.0]]), np.array([2.0]))
        prob = L0Problem(oracle, BlockPartition.scalar([1.0, 1.0], [1.0, 1.0], 2.0))
        np.testing.assert_allclose(restricted_minimize(prob, {0, 1}), [1.0, 1.0])

    def test_out_of_range_support(self, toy):
        with pytest.raises(ValueError):
            restricted_minimize(toy, {0, 5})


class TestIsBasic:
    def test_origin_with_positive_penalties(self, toy):
        assert is_basic_local_min(toy, np.zeros(2))

    def test_restricted_stationary_point(self, toy):
        assert is_basic_local_min(toy, np.array([2.0, 0.0]))

    def test_nonstationary_point(self, toy):
        assert not is_basic_local_min(toy, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (1,)])
    @pytest.mark.parametrize("model", [None, "uq", "ue"])
    def test_point_of_wrong_shape_rejected(self, toy, shape, model):
        """Both predicates take one point of length n, as objective_F does."""
        z = np.zeros(shape)
        with pytest.raises(ValueError, match=r"expected vector of length 2, got shape"):
            if model is None:
                is_basic_local_min(toy, z)
            else:
                spec = uq([1.0, 1.0]) if model == "uq" else ue([1e-4, 1e-4])
                is_strong_local_min(toy, z, spec)


def uq(M):
    return ApproxSpec("uq", M)


def ue(beta):
    return ApproxSpec("ue", beta)


class TestIsUqStrong:
    def test_strong_point(self, toy):
        assert is_strong_local_min(toy, np.array([2.0, 0.0]), uq([1.0, 1.0]))

    def test_small_nonzero_fails(self, toy):
        # |0.5| < sqrt(2 * 0.5 / 1): the nonzero magnitude bound fails
        assert not is_strong_local_min(toy, np.array([2.0, 0.5]), uq([1.0, 1.0]))

    def test_large_zero_gradient_fails(self, toy):
        # |grad_0 f(0)| = 2 > sqrt(2 * 0.5 * 1)
        assert not is_strong_local_min(toy, np.zeros(2), uq([1.0, 1.0]))

    def test_m_shape_validated(self, toy):
        with pytest.raises(ValueError):
            is_strong_local_min(toy, np.zeros(2), uq([1.0]))

    def test_looser_m_admits_more(self, toy):
        # (2, 0.5) enters the class once sqrt(2 lambda / M) drops below 0.5
        assert is_strong_local_min(toy, np.array([2.0, 0.5]), uq([4.0, 4.0]))

    def test_overflowing_zero_bound_is_inf(self):
        # 2 * lambda * M overflows: the bound on |grad| at a zero is +inf, no warning
        partition = BlockPartition.scalar([1e308], [1.0])
        prob = L0Problem(LeastSquaresObjective(np.eye(1), np.ones(1)), partition)
        assert is_strong_local_min(prob, np.zeros(1), uq([2.0]))
        assert not is_strong_local_min(prob, np.ones(1), uq([2.0]))


class TestIsUeStrong:
    def test_strong_point(self, toy):
        assert is_strong_local_min(toy, np.array([2.0, 0.0]), ue([1e-4, 1e-4]))

    def test_origin_escapes(self, toy):
        # zeroed first coordinate forfeits about 2 > 0.5 of decrease
        assert not is_strong_local_min(toy, np.zeros(2), ue([1e-4, 1e-4]))

    def test_beta_shape_validated(self, toy):
        with pytest.raises(ValueError):
            is_strong_local_min(toy, np.zeros(2), ue([1e-4]))

    def test_scalar_blocks_required(self):
        oracle = LeastSquaresObjective(np.eye(2), np.ones(2))
        prob = L0Problem(
            oracle, BlockPartition(block_sizes=(2,), lam=(1.0,), lipschitz=(1.0,))
        )
        with pytest.raises(ValueError):
            is_strong_local_min(prob, np.zeros(2), ue([1e-4]))

    def test_requires_basic(self):
        """A point the exact map leaves in place is outside the class unless basic."""
        oracle = LeastSquaresObjective(np.array([[10.0]]), np.array([10.0]))
        prob = L0Problem(oracle, BlockPartition.scalar([0.01], oracle.column_lipschitz()))
        z = np.array([1.0 + 5e-9])  # gradient 5e-7, above the tolerance
        assert not is_basic_local_min(prob, z)
        assert not is_strong_local_min(prob, z, ue([1e-4]))
        assert not is_strong_local_min(prob, z, uq([100.0]))


class TestEnumerateCatalog:
    def toy_catalog(self, toy):
        return enumerate_catalog(toy, {"uq[M=Li]": ApproxSpec("uq", [1.0, 1.0])})

    def test_toy_counts(self, toy):
        catalog = self.toy_catalog(toy)
        assert catalog.counts() == {"uq[M=Li]": 1, "basic": 4}

    def test_toy_strong_member(self, toy):
        catalog = self.toy_catalog(toy)
        (entry,) = catalog.members("uq[M=Li]")
        np.testing.assert_allclose(entry.point, [2.0, 0.0])

    def test_toy_global_min(self, toy):
        catalog = self.toy_catalog(toy)
        assert catalog.global_min.support == frozenset({0})
        assert catalog.global_min.F_value == pytest.approx(0.625)

    def test_one_entry_per_support(self, toy):
        catalog = self.toy_catalog(toy)
        masks = [e.bitmask for e in catalog.entries]
        assert sorted(masks) == list(range(4))
        assert len(set(masks)) == 4

    def test_flags_imply_basic(self, toy):
        for e in self.toy_catalog(toy).entries:
            if e.flags["uq[M=Li]"]:
                assert e.flags["basic"]

    def test_strongly_convex_global_in_every_class(self):
        prob = random_logistic_problem(12, 4, seed=61, lam=0.05)
        L = np.asarray(prob.partition.lipschitz)
        catalog = enumerate_catalog(
            prob, {"sharp": ApproxSpec("ue", np.full(4, 1e-3)), "loose": ApproxSpec("uq", L)}
        )
        assert len(catalog.entries) == 16
        assert all(e.flags["basic"] for e in catalog.entries)
        assert verify_inclusions(catalog) == []

    def test_zero_penalty_coordinates_always_present(self):
        oracle = LeastSquaresObjective(np.eye(3), np.array([1.0, 2.0, 3.0]))
        partition = BlockPartition.scalar([1.0, 1.0, 0.0], [1.0, 1.0, 1.0], 1.0)
        prob = L0Problem(oracle, partition)
        catalog = enumerate_catalog(prob, {})
        assert len(catalog.entries) == 4
        for e in catalog.entries:
            assert 2 in e.support
            assert e.point[2] == pytest.approx(3.0)

    def test_zero_penalty_blocks_keep_order_and_flags(self):
        """With lambda = 0 blocks, the entries are the supports that contain
        every unpenalized coordinate, in increasing bitmask order, and each
        entry's flags are those of the point asked on its own."""
        cfg = ExperimentConfig(m=5, n=9, instance_seed=6, lam=0.2, block_sizes=(2, 3, 1, 3))
        built = build_problem(cfg)
        p = built.partition
        partition = BlockPartition(
            block_sizes=p.block_sizes,
            lam=(0.2, 0.0, 0.3, 0.0),
            lipschitz=p.lipschitz,
            global_lipschitz=p.global_lipschitz,
        )
        prob = L0Problem(built.smooth, partition)
        uq = separable_from_factor(partition, 1.5)
        L = np.repeat(partition.lipschitz, partition.block_sizes)
        uQ = ApproxSpec("uQ", 1.2 * L)
        catalog = enumerate_catalog(prob, {"uq": uq, "uQ": uQ})
        mandatory = sum(1 << j for j in (2, 3, 4, 6, 7, 8))  # blocks 1 and 3
        assert partition.zero_penalty_bits == mandatory
        expect = [b for b in range(1 << 9) if b & mandatory == mandatory]
        assert [e.bitmask for e in catalog.entries] == expect == sorted(expect)
        assert len(expect) == 8
        for e in catalog.entries:
            assert e.flags["basic"] == is_basic_local_min(prob, e.point)
            assert e.flags["uq"] == is_strong_local_min(prob, e.point, uq)
            assert e.flags["uQ"] == is_strong_local_min(prob, e.point, uQ)
        assert catalog.counts()["uq"] > 0

    def test_request_curvature_built_once_per_call(self, monkeypatch):
        """One ``approx._constants`` call per requested class and catalog."""
        calls = []
        original = approx._constants

        def counted(spec, partition):
            calls.append(spec.kind)
            return original(spec, partition)

        monkeypatch.setattr(approx, "_constants", counted)
        prob = build_example_instance()
        catalog = enumerate_catalog(prob, example_class_requests(prob))
        assert len(catalog.entries) == 128
        assert calls == ["ue", "uq", "uq"]

    def test_basic_label_reserved(self, toy, monkeypatch):
        monkeypatch.setattr(toy.smooth, "restricted_minimize", lambda cols: pytest.fail("solved"))
        with pytest.raises(ValueError, match="reserved"):
            enumerate_catalog(toy, {"basic": ApproxSpec("uq", [1.0, 1.0])})

    def test_diagonal_model_class_matches_separable(self):
        """A diagonal model whose curvature is M_i over block i gives the same class."""
        cfg = ExperimentConfig(m=5, n=8, instance_seed=4, lam=0.2, block_sizes=(3, 3, 2))
        prob = build_problem(cfg)
        sep = separable_from_factor(prob.partition, 1.5)
        diag = ApproxSpec("uQ", approx.resolve(sep, prob.smooth, prob.partition).curvature)
        catalog = enumerate_catalog(prob, {"sep": sep, "diag": diag})
        assert catalog.counts()["sep"] == catalog.counts()["diag"] > 0
        assert all(e.flags["sep"] == e.flags["diag"] for e in catalog.entries)

    def test_enumeration_limit(self):
        n = 30
        oracle = LeastSquaresObjective(np.eye(n), np.zeros(n))
        prob = L0Problem(oracle, BlockPartition.scalar(np.ones(n), np.ones(n), 1.0))
        with pytest.raises(ValueError):
            enumerate_catalog(prob, {})

    def test_conventions_recorded(self, toy):
        conv = self.toy_catalog(toy).conventions
        assert conv["tie_rule"] == "zero"
        assert conv["representative"] == "least-norm"

    def test_global_min_tie_breaks_to_smaller_bitmask(self):
        # all four supports of this instance give F = 1.0 exactly
        oracle = LeastSquaresObjective(np.eye(2), np.ones(2))
        prob = L0Problem(oracle, BlockPartition.scalar([0.5, 0.5], [1.0, 1.0], 1.0))
        catalog = enumerate_catalog(prob, {})
        Fs = {e.F_value for e in catalog.entries}
        assert Fs == {1.0}
        assert catalog.global_min.bitmask == 0

    def test_entry_lookup(self, toy):
        catalog = self.toy_catalog(toy)
        assert catalog.entry_for_support(0b01).support == frozenset({0})
        assert catalog.entry_for_support(0b11).support == frozenset({0, 1})
        assert catalog.entry_for_support(1 << 9) is None


class TestOneClassification:
    def test_one_cache_and_gradient_per_support(self, monkeypatch):
        """Each batch of same-size supports gets one stacked eval and one stacked
        gradient, sizes in increasing order, and no per-support cache."""
        calls = {"make_cache": [], "block_grad": [], "full_grad": [], "eval": []}
        for name in calls:
            original = getattr(LeastSquaresObjective, name)

            def counted(self, x, *args, _name=name, _original=original):
                calls[_name].append(np.shape(x))
                return _original(self, x, *args)

            monkeypatch.setattr(LeastSquaresObjective, name, counted)
        prob, requests = _configured_case(m=8, n=11, instance_seed=3, lam=0.3)
        catalog = enumerate_catalog(prob, requests)
        assert len(catalog.entries) == 2 * _CHUNK
        # every size class of 11 coordinates fits one batch: C(11, s) <= 462 < _CHUNK
        batches = [(math.comb(11, s), 11) for s in range(12)]
        assert calls == {"make_cache": [], "block_grad": [], "full_grad": batches, "eval": batches}

    def test_one_restricted_solve_per_support_size(self, monkeypatch):
        """One oracle call per nonempty support size, with sorted index rows in
        increasing bitmask order; every nonempty support is solved exactly once,
        and the one-support wrapper is not called."""
        prob, requests = _configured_case(m=8, n=11, instance_seed=3, lam=0.3)
        stacks = []
        original = prob.smooth.restricted_minimize

        def counted(cols):
            stacks.append(cols.copy())
            return original(cols)

        monkeypatch.setattr(prob.smooth, "restricted_minimize", counted)
        monkeypatch.setattr(
            "l0rcd.analysis.restricted_minimize", lambda *a: pytest.fail("called per support")
        )
        catalog = enumerate_catalog(prob, requests)
        assert [c.shape for c in stacks] == [(math.comb(11, s), s) for s in range(1, 12)]
        for cols in stacks:
            assert (np.diff(cols, axis=1) > 0).all()
        solved = [[sum(1 << j for j in row) for row in cols.tolist()] for cols in stacks]
        assert all(masks == sorted(masks) for masks in solved)
        assert sorted(sum(solved, [])) == list(range(1, 2 * _CHUNK))
        assert catalog.entries[0].point.tobytes() == np.zeros(11).tobytes()

    def test_logistic_restricted_tolerance_computed_once(self, monkeypatch):
        """Logistic restricted solves compute their tolerance from full_grad(0) once;
        every other gradient is a stacked one."""
        cfg = ExperimentConfig(
            problem_kind="logistic", m=12, n=8, instance_seed=2, nu=0.3, lam=0.05
        )
        prob = build_problem(cfg)
        calls = []
        original = LogisticL2Objective.full_grad

        def counted(self, x):
            if np.ndim(x) == 1:
                calls.append(1)
            return original(self, x)

        monkeypatch.setattr(LogisticL2Objective, "full_grad", counted)
        catalog = enumerate_catalog(prob, _enumerate_requests(prob, cfg))
        assert len(calls) == 1
        assert catalog.counts() == {
            "ue[beta=0.0001]": 1, "uq[M=Li]": 1, "uq[M=Lf]": 16, "basic": 256
        }

    @staticmethod
    def requests(partition, exact):
        N = partition.num_blocks
        reqs = {"ue": ApproxSpec("ue", np.full(N, 1e-4))} if exact else {}
        return reqs | {
            "uq[M=Li]": ApproxSpec("uq", partition.lipschitz),
            "uq[M=Lf]": ApproxSpec("uq", np.full(N, partition.global_lipschitz)),
        }

    def test_pinned_counts_on_blocks(self):
        cfg = ExperimentConfig(
            m=5, n=12, instance_seed=4, lam=0.2, block_sizes=(3, 3, 2, 4)
        )
        prob = build_problem(cfg)
        catalog = enumerate_catalog(prob, self.requests(prob.partition, exact=False))
        assert catalog.counts() == {"uq[M=Li]": 74, "uq[M=Lf]": 151, "basic": 4096}
        assert verify_inclusions(catalog) == []

    @staticmethod
    def zero_penalty_case():
        oracle, _ = generate_least_squares(5, 8, 5)
        lam = np.full(8, 0.2)
        lam[[2, 5]] = 0.0
        partition = BlockPartition.scalar(
            lam, oracle.column_lipschitz(), oracle.spectral_lipschitz()
        )
        return L0Problem(oracle, partition), TestOneClassification.requests(partition, exact=True)

    def test_pinned_counts_with_zero_penalties(self):
        prob, requests = self.zero_penalty_case()
        catalog = enumerate_catalog(prob, requests)
        assert catalog.counts() == {"ue": 16, "uq[M=Li]": 16, "uq[M=Lf]": 22, "basic": 64}
        assert verify_inclusions(catalog) == []

    @pytest.mark.parametrize(
        "case",
        [
            lambda: _example_case(),
            zero_penalty_case,
            lambda: _configured_case(m=6, n=12, instance_seed=13, lam=0.3),
            lambda: _configured_case(m=8, n=16, instance_seed=3, lam=0.3),
        ],
        ids=["example_4x7", "zero_penalties_5x8", "generated_6x12", "generated_8x16"],
    )
    def test_class_members_hold_their_own_support(self, case):
        """A row flagged in a requested class has I(z) equal to its own bitmask. A
        point with an exact zero inside its support is also the minimizer of a
        smaller support's row, so a class would count it twice."""
        prob, requests = case()
        catalog = enumerate_catalog(prob, requests)
        on = (catalog.points != 0.0) | prob.partition.zero_penalty_mask
        support = on.astype(np.int64) @ (1 << np.arange(prob.n, dtype=np.int64))
        for label in requests:
            rows = catalog.flags[label]
            assert rows.any()
            assert (support[rows] == catalog.bitmasks[rows]).all(), label

    def test_predicates_agree_with_catalog_flags(self):
        prob = build_example_instance()
        requests = example_class_requests(prob)
        for e in enumerate_catalog(prob, requests).entries:
            assert is_basic_local_min(prob, e.point) == e.flags["basic"]
            for label, model in requests.items():
                assert is_strong_local_min(prob, e.point, model) == e.flags[label]

    def test_diagonal_predicate_agrees_with_catalog_flag(self):
        """The uQ class, with curvature varying inside blocks, asked point by point."""
        cfg = ExperimentConfig(m=5, n=8, instance_seed=4, lam=0.2, block_sizes=(3, 3, 2))
        prob = build_problem(cfg)
        L = np.repeat(prob.partition.lipschitz, prob.partition.block_sizes)
        H = L * np.linspace(1.0, 3.0, 8)
        diag = ApproxSpec("uQ", H)
        catalog = enumerate_catalog(prob, {"uQ": diag})
        assert 0 < catalog.counts()["uQ"] < len(catalog.entries)
        for e in catalog.entries:
            assert is_strong_local_min(prob, e.point, diag) == e.flags["uQ"]


def reference_catalog(prob, requests):
    """enumerate_catalog support by support: one restricted solve, eval, l0_norm
    and the single-point predicates, with the basic flag also from np.linalg.norm."""
    n, partition = prob.n, prob.partition
    mandatory = partition.zero_penalty_bits
    rows = []
    for bitmask in range(1 << n):
        if bitmask & mandatory != mandatory:
            continue
        z = restricted_minimize(prob, [j for j in range(n) if bitmask >> j & 1])
        f = prob.smooth.eval(z)
        on = (z != 0.0) | partition.zero_penalty_mask
        g_on = prob.smooth.full_grad(z)[on]
        basic = is_basic_local_min(prob, z)
        assert basic == (not on.any() or float(np.linalg.norm(g_on)) <= CLASSIFY_TOL)
        flags = {"basic": basic}
        for label, model in requests.items():
            flags[label] = is_strong_local_min(prob, z, model)
        rows.append((bitmask, z.tobytes(), f, f + l0_norm(z, partition), flags))
    return rows


def _zero_penalty_blocks_case():
    built = build_problem(
        ExperimentConfig(m=5, n=9, instance_seed=6, lam=0.2, block_sizes=(2, 3, 1, 3))
    )
    p = built.partition
    partition = BlockPartition(
        block_sizes=p.block_sizes,
        lam=(0.2, 0.0, 0.3, 0.0),
        lipschitz=p.lipschitz,
        global_lipschitz=p.global_lipschitz,
    )
    L = np.repeat(partition.lipschitz, partition.block_sizes)
    requests = {
        "uq": separable_from_factor(partition, 1.5),
        "uQ": ApproxSpec("uQ", 1.2 * L),
        "uq[M=Lf]": ApproxSpec("uq", np.full(4, partition.global_lipschitz)),
    }
    return L0Problem(built.smooth, partition), requests


def _example_case():
    prob = build_example_instance()
    return prob, example_class_requests(prob)


def _configured_case(**kw):
    cfg = ExperimentConfig(**kw)
    prob = build_problem(cfg)
    return prob, _enumerate_requests(prob, cfg)


REFERENCE_CASES = [
    lambda: _configured_case(m=6, n=7, instance_seed=0, lam=0.02),
    _zero_penalty_blocks_case,
    lambda: _configured_case(
        problem_kind="logistic", m=12, n=8, instance_seed=5, nu=0.3, lam=0.005
    ),
    lambda: _configured_case(m=8, n=11, instance_seed=3, lam=0.3),
]
REFERENCE_IDS = ["ls-scalar", "ls-blocks-zero-penalty", "logistic-12x8", "ls-two-chunks"]


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=REFERENCE_IDS)
def test_catalog_matches_support_by_support_reference(case):
    """Every entry, in order, has the reference's bitmask, point bytes, f, F and flags."""
    prob, requests = case()
    catalog = enumerate_catalog(prob, requests)
    got = [
        (e.bitmask, e.point.tobytes(), e.f_value, e.F_value, e.flags) for e in catalog.entries
    ]
    assert got == reference_catalog(prob, requests)
    assert all(type(e.f_value) is float and type(e.F_value) is float for e in catalog.entries)
    assert all(type(v) is bool for e in catalog.entries for v in e.flags.values())
    assert list(catalog.entries[0].flags) == ["basic"] + list(requests)
    for e in catalog.entries[:3]:
        assert not e.point.flags.writeable


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=REFERENCE_IDS)
def test_size_groups_split_across_batches(case, monkeypatch):
    """With batches of at most 5 supports, the size groups of more than 5
    supports span several batches: the entries still equal the reference's,
    and the supports with s of the p penalized coordinates take
    ceil(C(p, s) / 5) solves, the empty support none."""
    monkeypatch.setattr(analysis, "_CHUNK", 5)
    prob, requests = case()
    stacks = []
    original = prob.smooth.restricted_minimize

    def counted(cols):
        stacks.append(len(cols))
        return original(cols)

    monkeypatch.setattr(prob.smooth, "restricted_minimize", counted)
    catalog = enumerate_catalog(prob, requests)
    p = int(np.count_nonzero(prob.partition.coord_lambda() > 0.0))
    free = prob.partition.zero_penalty_bits != 0
    assert len(stacks) == sum(-(-math.comb(p, s) // 5) for s in range(p + 1) if s or free)
    assert max(stacks) <= 5
    got = [
        (e.bitmask, e.point.tobytes(), e.f_value, e.F_value, e.flags) for e in catalog.entries
    ]
    assert got == reference_catalog(prob, requests)


def test_enumeration_memory_beyond_the_catalog_columns():
    """Besides the catalog's own columns, enumerating 8x16 least squares
    allocates at most 4 MB at its peak: the batches keep O(_CHUNK n) entries,
    besides the row indices of one size and the one 2^n array of support
    sizes, never a (2^n, n) temporary."""
    prob, requests = _configured_case(m=8, n=16, instance_seed=3, lam=0.3)
    tracemalloc.start()
    try:
        catalog = enumerate_catalog(prob, requests)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = [catalog.bitmasks, catalog.points, catalog.f, catalog.F, *catalog.flags.values()]
    assert peak - sum(c.nbytes for c in columns) <= 4 * 2**20


def _row(e):
    return (e.bitmask, e.point.tobytes(), e.f_value, e.F_value, e.flags)


@pytest.mark.parametrize(
    "case",
    [_zero_penalty_blocks_case, lambda: _configured_case(m=8, n=11, instance_seed=3, lam=0.3)],
    ids=["ls-blocks-zero-penalty", "ls-two-chunks"],
)
def test_column_queries_match_a_loop_over_the_entries(case):
    """counts, members, global_min, entry_for_support and verify_inclusions,
    each against a brute-force loop over ``catalog.entries``."""
    prob, requests = case()
    catalog = enumerate_catalog(prob, requests)
    entries = catalog.entries
    assert catalog.entries is entries
    labels = catalog.class_labels
    assert catalog.counts() == {c: sum(e.flags[c] for e in entries) for c in labels}
    for c in labels:
        assert [_row(e) for e in catalog.members(c)] == [_row(e) for e in entries if e.flags[c]]
    best = min(entries, key=lambda e: (e.F_value, e.bitmask))
    assert _row(catalog.global_min) == _row(best)
    present = {e.bitmask for e in entries}
    for e in entries:
        assert _row(catalog.entry_for_support(e.bitmask)) == _row(e)
    absent = [b for b in range(1 << (prob.n + 1)) if b not in present]
    assert absent and all(catalog.entry_for_support(b) is None for b in absent)

    # a violation of a proved pair: the global minimizer, a member of every
    # class, taken out of uq[M=Lf]
    assert verify_inclusions(catalog) == []
    models = catalog.models
    assert list(models) == labels[:-1]
    pairs = [
        (a, b) for a in models for b in models if a != b and models[a].proves_inside(models[b])
    ]
    assert any(b == "uq[M=Lf]" for _, b in pairs)
    pairs += [(a, "basic") for a in models]
    flags = {**catalog.flags, "uq[M=Lf]": catalog.flags["uq[M=Lf]"].copy()}
    flags["uq[M=Lf]"][np.searchsorted(catalog.bitmasks, best.bitmask)] = False
    broken = dataclasses.replace(catalog, flags=flags)
    broken_best = broken.entry_for_support(best.bitmask)
    expect = [
        f"support {e.bitmask:#x} is in class {a!r} but not in {b!r}"
        for a, b in pairs
        for e in broken.entries
        if e.flags[a] and not e.flags[b]
    ]
    expect += [
        f"global minimizer (support {best.bitmask:#x}, F={best.F_value:.6g}) "
        f"is not flagged in class {c!r}"
        for c in labels
        if not broken_best.flags[c]
    ]
    assert expect
    assert verify_inclusions(broken) == expect


# Each class of four catalogs as (member count, sha256 of its sorted member
# bitmasks as little-endian int64). Between them they take all three class
# tests: the quadratic bounds, the exact model in closed form on least squares,
# and the exact model by Newton, coordinate by coordinate, on logistic.
PINNED_MEMBERS = {
    "example2": {
        "ue[beta=1e-4]": (69, "e5a09772a8284b5da6ccfe9de12c6c4577478828d8519e8c6e5da35e88ec1b63"),
        "uq[M=Li]": (69, "e5a09772a8284b5da6ccfe9de12c6c4577478828d8519e8c6e5da35e88ec1b63"),
        "uq[M=Lf]": (82, "bac16b233f99b861f6b894c733a179f1841b84653260303af9c22c243000ad0f"),
        "basic": (128, "3e4f0a2fd9498da7c1440a355a22b6292161a5216c63aa0bc59b5a4742fd1e36"),
    },
    "ls-8x16": {
        "ue[beta=0.0001]": (536, "ab531a6bfed98c35a1eb266883af7eef1be22ce5ea64463cda8ede7172f1d42d"),
        "uq[M=Li]": (536, "ab531a6bfed98c35a1eb266883af7eef1be22ce5ea64463cda8ede7172f1d42d"),
        "uq[M=Lf]": (1437, "18c37a6d3eedde9d12bbff9ecd34121cced80c0c91f023759b4b415e8b1adfc4"),
        "basic": (65536, "197f7a314b356f70296099420b30d0beddb9fe80e95054af72e1c382cdf1eb9b"),
    },
    "ls-5x12-blocks-3-3-2-4": {
        "uq[M=Li]": (55, "899936bc68ca35f2a9acee966608754bd8e64282d91f070331a34049833c952b"),
        "uq[M=Lf]": (109, "51496166260a3daf4d1c999d2dff89bfd05eaa136250e6d7a74245bdb1f83433"),
        "basic": (4096, "b83e23eb1db808bf694ae4894d62b50c9840bcd869ba7ac2456f40ddf0530bf3"),
    },
    "logistic-12x8": {
        "ue[beta=0.0001]": (1, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
        "uq[M=Li]": (1, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
        "uq[M=Lf]": (15, "6ee9ff5c12018a0b358feb6b20c23cbc87d3d8a5ceaddcb0b6d6f285c072da91"),
        "basic": (256, "bbd330b12e8159e117376ef24fa106413bc9fc18032a0d43e95c5dae5e47953f"),
    },
}

PINNED_CASES = {
    "example2": _example_case,
    "ls-8x16": lambda: _configured_case(m=8, n=16, instance_seed=3, lam=0.3),
    "ls-5x12-blocks-3-3-2-4": lambda: _configured_case(
        m=5, n=12, instance_seed=4, lam=0.3, block_sizes=(3, 3, 2, 4)
    ),
    "logistic-12x8": lambda: _configured_case(
        problem_kind="logistic", m=12, n=8, instance_seed=5, nu=0.3, lam=0.05
    ),
}


@pytest.mark.parametrize("name", list(PINNED_CASES))
def test_class_members_are_pinned(name):
    """Every class of the catalog has the members it had before the models were
    resolved in one place (``approx.resolve``)."""
    catalog = enumerate_catalog(*PINNED_CASES[name]())
    got = {}
    for label in catalog.class_labels:
        members = np.sort(catalog.bitmasks[catalog.flags[label]]).astype("<i8")
        got[label] = (len(members), hashlib.sha256(members.tobytes()).hexdigest())
    assert got == PINNED_MEMBERS[name]


def test_model_resolved_once_per_class(monkeypatch):
    """One ``resolve`` per requested class and catalog, however many chunks it
    fills, and one per predicate call."""
    calls = []

    def counted(spec, oracle, partition):
        calls.append(spec.kind)
        return approx.resolve(spec, oracle, partition)

    monkeypatch.setattr(analysis, "resolve", counted)
    prob, requests = _configured_case(m=8, n=11, instance_seed=3, lam=0.3)
    catalog = enumerate_catalog(prob, requests)
    assert len(catalog.bitmasks) == 2 * _CHUNK
    assert calls == ["ue", "uq", "uq"]
    calls.clear()
    enumerate_catalog(prob, {})
    assert calls == []
    is_strong_local_min(prob, catalog.points[5], requests["uq[M=Li]"])
    is_basic_local_min(prob, catalog.points[5])
    assert calls == ["uq"]


def test_exact_class_is_not_inside_the_quadratic_class_at_Li():
    """Generated 8x20 least squares (seed 3, lambda 0.3): support 0x45469 is in
    ue[beta=1e-4] and in uq[M=Lf] but not in uq[M=Li]. On least squares
    ue[beta] is the diagonal quadratic class at L_j + beta_j > L_j, so the
    models prove no inclusion of ue[beta] in uq[M=Li]."""
    prob, requests = _configured_case(m=8, n=20, instance_seed=3, lam=0.3)
    z = restricted_minimize(prob, [j for j in range(20) if 0x45469 >> j & 1])
    flags = {label: is_strong_local_min(prob, z, spec) for label, spec in requests.items()}
    assert flags == {"ue[beta=0.0001]": True, "uq[M=Li]": False, "uq[M=Lf]": True}
    models = {
        label: approx.resolve(spec, prob.smooth, prob.partition)
        for label, spec in requests.items()
    }
    assert not models["ue[beta=0.0001]"].proves_inside(models["uq[M=Li]"])
    assert models["ue[beta=0.0001]"].proves_inside(models["uq[M=Lf]"])
    assert models["uq[M=Li]"].proves_inside(models["uq[M=Lf]"])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    logistic=strategies.booleans(),
    m=strategies.integers(1, 10),
    n=strategies.integers(1, 8),
    seed=strategies.integers(0, 2**16),
    lam=strategies.floats(1e-3, 1.0),
    beta=strategies.floats(1e-6, 10.0),
    factors=strategies.lists(strategies.floats(1.0, 10.0), min_size=8, max_size=8),
)
def test_the_proved_inclusions_hold(logistic, m, n, seed, lam, beta, factors):
    """On generated catalogs every pair of classes the models prove nests, with
    the default requests plus uq at a random M >= L and uq at L + beta."""
    kind = "logistic" if logistic else "least_squares"
    prob, requests = _configured_case(
        problem_kind=kind, m=m, n=n, instance_seed=seed, lam=lam, ue_beta=beta
    )
    L = np.asarray(prob.partition.lipschitz)
    requests["uq[M>=Li]"] = ApproxSpec("uq", L * factors[:n])
    requests["uq[M=Li+beta]"] = ApproxSpec("uq", L + beta)
    catalog = enumerate_catalog(prob, requests)
    assert verify_inclusions(catalog) == []


class TestVerifyInclusions:
    def test_toy_chain(self, toy):
        catalog = enumerate_catalog(toy, {"uq[M=Li]": ApproxSpec("uq", [1.0, 1.0])})
        assert verify_inclusions(catalog) == []

    def test_single_class_vacuous(self, toy):
        catalog = enumerate_catalog(toy, {})
        assert verify_inclusions(catalog) == []

    def test_monotone_in_curvature(self):
        """Smaller curvature gives the sharper class: members survive growth."""
        prob = random_logistic_problem(10, 5, seed=62, lam=0.02)
        L = np.asarray(prob.partition.lipschitz)
        catalog = enumerate_catalog(
            prob, {"tight": ApproxSpec("uq", L), "loose": ApproxSpec("uq", 3.0 * L)}
        )
        assert verify_inclusions(catalog) == []

    def test_violation_reported(self, toy):
        tight, loose = ApproxSpec("uq", [1.0, 1.0]), ApproxSpec("uq", [2.0, 2.0])
        catalog = enumerate_catalog(toy, {"uq[M=Li]": tight, "uq[M=2Li]": loose})
        assert verify_inclusions(catalog) == []
        # the one member of both classes, the global minimizer, taken out of the looser one
        assert catalog.bitmasks[catalog.flags["uq[M=2Li]"]].tolist() == [0x1]
        flags = {**catalog.flags, "uq[M=2Li]": np.zeros(4, dtype=bool)}
        report = verify_inclusions(dataclasses.replace(catalog, flags=flags))
        assert report == [
            "support 0x1 is in class 'uq[M=Li]' but not in 'uq[M=2Li]'",
            "global minimizer (support 0x1, F=0.625) is not flagged in class 'uq[M=2Li]'",
        ]


class TestExampleInstance:
    def test_matrix_entries(self):
        prob = build_example_instance()
        A = prob.smooth.A
        assert A.shape == (4, 7)
        assert A[0, 0] == pytest.approx(4.3)
        assert A[1, 1] == pytest.approx(4.4)
        assert A[0, 1] == pytest.approx(1.0)
        assert A[3, 6] == pytest.approx(1.3**6)
        np.testing.assert_allclose(prob.smooth.b, 25.0)

    def test_partition_constants(self):
        prob = build_example_instance()
        oracle = prob.smooth
        np.testing.assert_allclose(prob.partition.lipschitz, oracle.column_lipschitz())
        assert prob.partition.global_lipschitz == pytest.approx(
            oracle.spectral_lipschitz()
        )
        assert prob.partition.lam == (1.0,) * 7

    def test_class_requests_order(self):
        prob = build_example_instance()
        reqs = example_class_requests(prob)
        assert list(reqs) == ["ue[beta=1e-4]", "uq[M=Li]", "uq[M=Lf]"]
        assert reqs["ue[beta=1e-4]"] == ApproxSpec("ue", np.full(7, 1e-4))
        np.testing.assert_allclose(reqs["uq[M=Li]"].params, prob.partition.lipschitz)
        assert set(reqs["uq[M=Lf]"].params) == {prob.partition.global_lipschitz}


class TestCatalogSolverAgreement:
    def test_toy_final_point_is_flagged(self, toy):
        spec = separable_from_factor(toy.partition, M_EQ_LIPSCHITZ_FACTOR)
        cfg = SolverConfig(approx=spec, max_iters=500, seed=5)
        st, _ = run_rcd_iht(toy, np.array([2.0, 0.5]), cfg)
        catalog = enumerate_catalog(toy, {"uq": spec})
        entry = catalog.entry_for_support(st.support)
        assert entry is not None and entry.flags["uq"]
        assert np.linalg.norm(entry.point - st.x) <= 1e-6
        assert is_strong_local_min(toy, st.x, spec, tol=1e-6)
