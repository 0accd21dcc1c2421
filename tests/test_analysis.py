import numpy as np
import pytest

from l0rcd import (
    ApproxSpec,
    BlockPartition,
    ClassRequest,
    L0Problem,
    LeastSquaresObjective,
    LogisticL2Objective,
    SolverConfig,
    build_example_instance,
    enumerate_catalog,
    example_class_requests,
    is_basic_local_min,
    is_ue_strong,
    is_uq_strong,
    objective_F,
    restricted_minimize,
    run_rcd_iht,
    separable_from_factor,
    separable_lipschitz_mode,
    verify_inclusions,
)

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


class TestIsUqStrong:
    def test_strong_point(self, toy):
        assert is_uq_strong(toy, np.array([2.0, 0.0]), [1.0, 1.0])

    def test_small_nonzero_fails(self, toy):
        # |0.5| < sqrt(2 * 0.5 / 1): the nonzero magnitude bound fails
        assert not is_uq_strong(toy, np.array([2.0, 0.5]), [1.0, 1.0])

    def test_large_zero_gradient_fails(self, toy):
        # |grad_0 f(0)| = 2 > sqrt(2 * 0.5 * 1)
        assert not is_uq_strong(toy, np.zeros(2), [1.0, 1.0])

    def test_m_shape_validated(self, toy):
        with pytest.raises(ValueError):
            is_uq_strong(toy, np.zeros(2), [1.0])

    def test_looser_m_admits_more(self, toy):
        # (2, 0.5) enters the class once sqrt(2 lambda / M) drops below 0.5
        assert is_uq_strong(toy, np.array([2.0, 0.5]), [4.0, 4.0])


class TestIsUeStrong:
    def test_strong_point(self, toy):
        assert is_ue_strong(toy, np.array([2.0, 0.0]), [1e-4, 1e-4])

    def test_origin_escapes(self, toy):
        # zeroed first coordinate forfeits about 2 > 0.5 of decrease
        assert not is_ue_strong(toy, np.zeros(2), [1e-4, 1e-4])

    def test_beta_shape_validated(self, toy):
        with pytest.raises(ValueError):
            is_ue_strong(toy, np.zeros(2), [1e-4])

    def test_scalar_blocks_required(self):
        oracle = LeastSquaresObjective(np.eye(2), np.ones(2))
        prob = L0Problem(
            oracle, BlockPartition(block_sizes=(2,), lam=(1.0,), lipschitz=(1.0,))
        )
        with pytest.raises(ValueError):
            is_ue_strong(prob, np.zeros(2), [1e-4])


class TestEnumerateCatalog:
    def toy_catalog(self, toy):
        return enumerate_catalog(
            toy, [ClassRequest.quadratic("uq[M=Li]", [1.0, 1.0])]
        )

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
            prob,
            [
                ClassRequest.exact("sharp", np.full(4, 1e-3)),
                ClassRequest.quadratic("loose", L),
            ],
        )
        assert len(catalog.entries) == 16
        assert all(e.flags["basic"] for e in catalog.entries)
        assert verify_inclusions(catalog) == []

    def test_zero_penalty_coordinates_always_present(self):
        oracle = LeastSquaresObjective(np.eye(3), np.array([1.0, 2.0, 3.0]))
        partition = BlockPartition.scalar([1.0, 1.0, 0.0], [1.0, 1.0, 1.0], 1.0)
        prob = L0Problem(oracle, partition)
        catalog = enumerate_catalog(prob, [])
        assert len(catalog.entries) == 4
        for e in catalog.entries:
            assert 2 in e.support
            assert e.point[2] == pytest.approx(3.0)

    def test_enumeration_limit(self):
        n = 30
        oracle = LeastSquaresObjective(np.eye(n), np.zeros(n))
        prob = L0Problem(oracle, BlockPartition.scalar(np.ones(n), np.ones(n), 1.0))
        with pytest.raises(ValueError):
            enumerate_catalog(prob, [])

    def test_conventions_recorded(self, toy):
        conv = self.toy_catalog(toy).conventions
        assert conv["tie_rule"] == "zero"
        assert conv["representative"] == "least-norm"

    def test_global_min_tie_breaks_to_smaller_bitmask(self):
        # all four supports of this instance give F = 1.0 exactly
        oracle = LeastSquaresObjective(np.eye(2), np.ones(2))
        prob = L0Problem(oracle, BlockPartition.scalar([0.5, 0.5], [1.0, 1.0], 1.0))
        catalog = enumerate_catalog(prob, [])
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
        calls = {"make_cache": 0, "block_grad": 0, "full_grad": 0}
        for name in calls:
            original = getattr(LeastSquaresObjective, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(LeastSquaresObjective, name, counted)
        prob = build_example_instance()
        enumerate_catalog(prob, example_class_requests(prob))
        assert calls == {"make_cache": 128, "block_grad": 128, "full_grad": 0}

    def test_logistic_restricted_tolerance_computed_once(self, monkeypatch):
        """Logistic restricted solves compute their tolerance from full_grad(0) once."""
        cfg = ExperimentConfig(
            problem_kind="logistic", m=12, n=8, instance_seed=2, nu=0.3, lam=0.05
        )
        prob = build_problem(cfg)
        calls = []
        original = LogisticL2Objective.full_grad

        def counted(self, x):
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
        reqs = [ClassRequest.exact("ue", np.full(N, 1e-4))] if exact else []
        return reqs + [
            ClassRequest.quadratic("uq[M=Li]", partition.lipschitz),
            ClassRequest.quadratic("uq[M=Lf]", np.full(N, partition.global_lipschitz)),
        ]

    def test_pinned_counts_on_blocks(self):
        cfg = ExperimentConfig(
            m=5, n=12, instance_seed=4, lam=0.2, block_sizes=(3, 3, 2, 4)
        )
        prob = build_problem(cfg)
        catalog = enumerate_catalog(prob, self.requests(prob.partition, exact=False))
        assert catalog.counts() == {"uq[M=Li]": 74, "uq[M=Lf]": 151, "basic": 4096}
        assert verify_inclusions(catalog) == []

    def test_pinned_counts_with_zero_penalties(self):
        oracle, _ = generate_least_squares(5, 8, 5)
        lam = np.full(8, 0.2)
        lam[[2, 5]] = 0.0
        partition = BlockPartition.scalar(
            lam, oracle.column_lipschitz(), oracle.spectral_lipschitz()
        )
        prob = L0Problem(oracle, partition)
        catalog = enumerate_catalog(prob, self.requests(partition, exact=True))
        assert catalog.counts() == {"ue": 17, "uq[M=Li]": 17, "uq[M=Lf]": 23, "basic": 64}
        assert verify_inclusions(catalog) == []

    def test_predicates_agree_with_catalog_flags(self):
        prob = build_example_instance()
        requests = example_class_requests(prob)
        ue, uq_li, _ = requests
        for e in enumerate_catalog(prob, requests).entries:
            assert is_basic_local_min(prob, e.point) == e.flags["basic"]
            assert is_uq_strong(prob, e.point, uq_li.model.M) == e.flags[uq_li.label]
            basic_and_ue = e.flags["basic"] and is_ue_strong(prob, e.point, ue.model.beta)
            assert basic_and_ue == e.flags[ue.label]


class TestVerifyInclusions:
    def test_toy_chain(self, toy):
        catalog = enumerate_catalog(
            toy, [ClassRequest.quadratic("uq[M=Li]", [1.0, 1.0])]
        )
        assert verify_inclusions(catalog) == []

    def test_single_class_vacuous(self, toy):
        catalog = enumerate_catalog(toy, [])
        assert verify_inclusions(catalog) == []

    def test_monotone_in_curvature(self):
        """Smaller curvature gives the sharper class: members survive growth."""
        prob = random_logistic_problem(10, 5, seed=62, lam=0.02)
        L = np.asarray(prob.partition.lipschitz)
        catalog = enumerate_catalog(
            prob,
            [
                ClassRequest.quadratic("tight", L),
                ClassRequest.quadratic("loose", 3.0 * L),
            ],
        )
        assert verify_inclusions(catalog) == []

    def test_violation_reported(self, toy):
        catalog = enumerate_catalog(
            toy, [ClassRequest.quadratic("uq[M=Li]", [1.0, 1.0])]
        )
        # deliberately reversed order must flag basic-only entries
        report = verify_inclusions(catalog, order=["basic", "uq[M=Li]"])
        assert len(report) == 3


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
        assert [r.label for r in reqs] == ["ue[beta=1e-4]", "uq[M=Li]", "uq[M=Lf]"]
        assert reqs[0].model == ApproxSpec.exact(np.full(7, 1e-4))
        np.testing.assert_allclose(reqs[1].model.M, prob.partition.lipschitz)
        assert set(reqs[2].model.M) == {prob.partition.global_lipschitz}


class TestClassRequest:
    def test_basic_label_reserved(self):
        with pytest.raises(ValueError):
            ClassRequest.quadratic("basic", [1.0])

    def test_nonpositive_parameters_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ClassRequest.quadratic("x", [0.0, 1.0])
        with pytest.raises(ValueError):
            ClassRequest.exact("y", [-1.0, 1.0])

    def test_diagonal_model_class_matches_separable(self):
        """A diagonal model whose curvature is M_i over block i gives the same class."""
        cfg = ExperimentConfig(m=5, n=8, instance_seed=4, lam=0.2, block_sizes=(3, 3, 2))
        prob = build_problem(cfg)
        sep = separable_from_factor(prob.partition, 1.5)
        diag = ApproxSpec.diagonal_quadratic(sep.coord_curvature(prob.partition))
        catalog = enumerate_catalog(prob, [ClassRequest("sep", sep), ClassRequest("diag", diag)])
        assert catalog.counts()["sep"] == catalog.counts()["diag"] > 0
        assert all(e.flags["sep"] == e.flags["diag"] for e in catalog.entries)


class TestCatalogSolverAgreement:
    def test_toy_final_point_is_flagged(self, toy):
        spec = separable_lipschitz_mode(toy.partition)
        cfg = SolverConfig(approx=spec, max_iters=500, seed=5)
        st, _ = run_rcd_iht(toy, np.array([2.0, 0.5]), cfg)
        catalog = enumerate_catalog(toy, [ClassRequest("uq", spec)])
        entry = catalog.entry_for_support(st.support)
        assert entry is not None and entry.flags["uq"]
        assert np.linalg.norm(entry.point - st.x) <= 1e-6
