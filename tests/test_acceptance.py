"""End-to-end acceptance suite: ten numbered release gates.

Every check is seeded and self-contained, so a plain ``pytest -v`` prints
exactly one pass/fail line per gate. The heavy gates drive the shipped CLI
the same way a user would (written config file, ``main()`` entry point,
CSV artifacts); the remaining gates exercise the library API directly.
"""

import itertools
import time

import numpy as np

from l0rcd import (
    ApproxSpec,
    IterateState,
    SolverConfig,
    build_example_instance,
    delta_lower_bound,
    enumerate_catalog,
    estimate_linear_rate,
    exact_uniform,
    example_class_requests,
    objective_F,
    run_ihta,
    run_rcd_iht,
    separable_from_factor,
    verify_inclusions,
)
from l0rcd.approx import _solve_1d, threshold_e, threshold_q
from l0rcd.cli import ExperimentConfig, build_problem, main, random_start, seeded_rng
from l0rcd.objectives import LeastSquaresObjective, LogisticL2Objective
from l0rcd.solvers import _check_descent, _coordinate_step, draw_block, make_rng

from conftest import random_logistic_problem, random_ls_problem
from test_approx import brute_force_threshold_q
from test_cli import read_csv

UQ_FACTOR = 2.0
UE_BETA = 1e-4
IHTA_FACTOR = 1.5


def generated_instance(kind, m, n, seed, lam):
    cfg = ExperimentConfig()
    cfg.problem_kind = kind
    cfg.m, cfg.n = m, n
    cfg.instance_seed = seed
    cfg.lam = lam
    return build_problem(cfg)


# 20 seeded instances (n <= 50) shared by gates 2 and 3.
DESCENT_INSTANCES = [
    ("least_squares", 15, 20, 101, 0.3),
    ("least_squares", 20, 30, 102, 0.3),
    ("least_squares", 25, 40, 103, 0.25),
    ("least_squares", 30, 50, 104, 0.3),
    ("least_squares", 18, 24, 105, 0.4),
    ("least_squares", 22, 36, 106, 0.35),
    ("least_squares", 16, 28, 107, 0.3),
    ("least_squares", 28, 44, 108, 0.25),
    ("least_squares", 20, 20, 109, 0.3),
    ("least_squares", 24, 32, 110, 0.35),
    ("least_squares", 26, 48, 111, 0.3),
    ("least_squares", 30, 40, 112, 0.4),
    ("logistic", 20, 20, 113, 0.1),
    ("logistic", 25, 30, 114, 0.12),
    ("logistic", 30, 40, 115, 0.1),
    ("logistic", 35, 50, 116, 0.08),
    ("logistic", 22, 26, 117, 0.1),
    ("logistic", 28, 34, 118, 0.12),
    ("logistic", 32, 44, 119, 0.1),
    ("logistic", 40, 50, 120, 0.08),
]
DESCENT_ITERS = 2000

# 10 small instances whose full support catalogs certify the solver limits.
LIMIT_INSTANCES = [
    ("least_squares", 6, 10, 21, 0.3),
    ("least_squares", 8, 12, 22, 0.4),
    ("least_squares", 6, 8, 23, 0.25),
    ("least_squares", 10, 12, 24, 0.5),
    ("least_squares", 7, 11, 25, 0.35),
    ("least_squares", 9, 12, 26, 0.3),
    ("logistic", 14, 8, 27, 0.1),
    ("logistic", 20, 9, 28, 0.15),
    ("logistic", 16, 8, 29, 0.12),
    ("logistic", 18, 10, 30, 0.1),
]

# Strongly convex instances for the support-change budget (5 x 20 seeds).
BUDGET_INSTANCES = [
    ("ls", 12, 6, 60, 0.3),
    ("ls", 16, 8, 61, 0.3),
    ("ls", 20, 10, 62, 0.4),
    ("logistic", 25, 8, 63, 0.15),
    ("logistic", 30, 10, 64, 0.1),
]

# Strongly convex runs with a long fixed-support approach phase.
RATE_RUNS = [
    (16, 8, 51, 0.3, 555, 0),
    (14, 7, 53, 0.25, 556, 0),
    (12, 6, 55, 0.3, 556, 0),
]

TOURNAMENT_CONFIG = """[problem]
kind = least_squares
m = 6
n = 12
seed = 13
lambda = 1.0

[solvers]
list = ihta, uq, ue
uq_factor = 2.0
max_iters = 2400

[starts]
trials = 100

[sweep]
lambdas = 0.01, 0.07, 0.09, 0.15, 0.35, 0.8, 1.2, 1.8, 2.0
"""


def strongly_convex_instance(kind, m, n, seed, lam):
    if kind == "ls":
        return random_ls_problem(m, n, seed, lam=lam, tall=True)
    return random_logistic_problem(m, n, seed, lam=lam)


def descent_runs(problem, index):
    """The three solver runs used by gates 2 and 3, forced to full length."""
    part = problem.partition
    x0 = random_start(problem.n, seeded_rng(9000 + index, 0))
    runs = []
    for tag, spec, seed in (
        ("uq", separable_from_factor(part, UQ_FACTOR), 3 * index + 1),
        ("ue", exact_uniform(part, UE_BETA), 3 * index + 2),
    ):
        cfg = SolverConfig(
            approx=spec,
            max_iters=DESCENT_ITERS,
            seed=seed,
            support_patience=10**9,
        )
        _, trace = run_rcd_iht(problem, x0, cfg)
        runs.append((tag, spec.mu(part), trace))
    M_f = IHTA_FACTOR * part.global_lipschitz
    _, trace = run_ihta(
        problem, x0, M_f, max_iters=DESCENT_ITERS, support_patience=10**9
    )
    runs.append(("ihta", np.array([M_f - part.global_lipschitz]), trace))
    return x0, runs


def test_criterion_01_bundled_example_enumeration(tmp_path):
    """Bundled 4x7 example: 128 basic minimizers and nested strict classes.

    The hard contract is the basic count and the class nesting. The stricter
    per-class counts depend on the bundled instance's matrix convention, so
    the counts realized under the default convention are pinned to catch
    regressions: 82 under the global-constant quadratic model and 69 under
    both the blockwise quadratic and the exact model.
    """
    start = time.monotonic()
    out = tmp_path / "out"
    assert main(["enumerate", "--example2", "--out", str(out), "--no-timestamp"]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0

    _, header, rows = read_csv(out / "counts.csv")
    assert header == ["class", "count"]
    counts = {label: int(c) for label, c in rows}
    assert counts["basic"] == 128
    assert counts == {
        "basic": 128,
        "uq[M=Lf]": 82,
        "uq[M=Li]": 69,
        "ue[beta=1e-4]": 69,
    }
    assert counts["ue[beta=1e-4]"] <= counts["uq[M=Li]"] <= counts["uq[M=Lf]"] <= 128

    problem = build_example_instance()
    catalog = enumerate_catalog(problem, example_class_requests(problem))
    assert verify_inclusions(catalog) == []
    gm = catalog.global_min
    assert all(gm.flags[label] for label in catalog.class_labels)


def test_criterion_02_per_iteration_descent_inequality():
    """Every iteration of every solver decreases F by the model surplus.

    20 seeded instances x 3 solvers x 2000 iterations; each step must obey
    F_next <= F - (mu/2) * step^2 + 1e-10 * (1 + |F|), with mu the touched
    block's curvature surplus (M_f - L_f for the full-gradient baseline).
    """
    start = time.monotonic()
    violations = 0
    for index, (kind, m, n, seed, lam) in enumerate(DESCENT_INSTANCES):
        problem = generated_instance(kind, m, n, seed, lam)
        _, runs = descent_runs(problem, index)
        for _, mu, trace in runs:
            iters = trace.iterations
            assert iters == DESCENT_ITERS
            for k in range(iters):
                F_before = trace.F[k]
                F_after = trace.F[k + 1] if k + 1 < iters else trace.final_F
                i = int(trace.blocks[k])
                mu_k = mu[i] if i >= 0 else mu[0]
                slack = 1e-10 * (1.0 + abs(F_before))
                surplus = 0.5 * mu_k * trace.step_norms[k] ** 2
                if F_after > F_before - surplus + slack:
                    violations += 1
    assert violations == 0
    assert time.monotonic() - start < 60.0


def test_criterion_03_kept_magnitudes_clear_the_threshold():
    """Quadratic-model steps never keep a coordinate below its threshold.

    Replays the quadratic-model runs of gate 2 step by step, with the step
    and the descent check that a run uses, and checks that after each touch every surviving coordinate of the touched block
    satisfies x_j^2 >= 2 lambda_i / M_i - 1e-12.
    """
    violations = 0
    for index, (kind, m, n, seed, lam) in enumerate(DESCENT_INSTANCES):
        problem = generated_instance(kind, m, n, seed, lam)
        part = problem.partition
        spec = separable_from_factor(part, UQ_FACTOR)
        x0 = random_start(problem.n, seeded_rng(9000 + index, 0))
        state = IterateState.from_point(problem, x0)
        rng = make_rng(3 * index + 1)
        mu = spec.mu(part)
        step = _coordinate_step(problem, spec)
        for _ in range(DESCENT_ITERS):
            i = draw_block(rng, part.num_blocks)
            F_old = state.objective()
            step_norm = step(state, i)
            _check_descent(F_old, state.objective(), mu[i], step_norm, i)
            sl = part.block_slice(i)
            block = state.x[sl]
            nz = block[block != 0.0]
            if nz.size and part.lam[i] > 0.0:
                floor = 2.0 * part.lam[i] / spec.params[i] - 1e-12
                violations += int(np.count_nonzero(nz**2 < floor))
    assert violations == 0


def test_criterion_04_thresholding_matches_brute_force():
    """Each thresholding map picks the same candidate as brute-force search.

    200 random calls per approximation kind. Separable and diagonal
    quadratic maps are compared against full keep/zero pattern enumeration
    (blocks up to 4 wide, exact equality). The exact-model map is compared
    against an independent two-candidate search whose keep candidate comes
    from the safeguarded Newton solve ``_solve_1d``.
    """
    rng = np.random.default_rng(2024)

    for _ in range(200):
        n_i = int(rng.integers(1, 5))
        x_i = rng.uniform(-3, 3, size=n_i)
        g_i = rng.uniform(-3, 3, size=n_i)
        M = float(rng.uniform(0.2, 5.0))
        lam = float(rng.uniform(0.0, 2.0))
        np.testing.assert_array_equal(
            threshold_q(x_i, g_i, M, lam), brute_force_threshold_q(x_i, g_i, M, lam)
        )

    def brute_diag(x_i, g_i, H, lam):
        t = x_i - g_i / H
        best = None
        for pattern in itertools.product([0, 1], repeat=x_i.size):
            y = np.where(pattern, t, 0.0)
            model = float(g_i @ (y - x_i) + 0.5 * np.sum(H * (y - x_i) ** 2))
            key = (model + lam * int(np.count_nonzero(y)), int(np.count_nonzero(y)))
            if best is None or key < best[0]:
                best = (key, y)
        return best[1]

    for _ in range(200):
        n_i = int(rng.integers(1, 5))
        x_i = rng.uniform(-3, 3, size=n_i)
        g_i = rng.uniform(-3, 3, size=n_i)
        H = rng.uniform(0.3, 4.0, size=n_i)
        lam = float(rng.uniform(0.0, 2.0))
        np.testing.assert_array_equal(
            threshold_q(x_i, g_i, H, lam), brute_diag(x_i, g_i, H, lam)
        )

    data = rng.uniform(-1, 1, size=(12, 6))
    oracles = [
        LeastSquaresObjective(data[:8], rng.uniform(-1, 1, size=8)),
        LogisticL2Objective(data, (rng.random(12) < 0.5).astype(float), 0.3),
    ]
    for oracle in oracles:
        for _ in range(100):
            x = rng.uniform(-2, 2, size=6)
            j = int(rng.integers(0, 6))
            beta = float(rng.uniform(0.05, 2.0))
            lam = float(rng.uniform(0.0, 1.5))
            cache = oracle.make_cache(x)
            out = threshold_e(oracle, x, j, beta, lam, cache)
            h_star = _solve_1d(oracle, x, j, beta, cache)
            keep_val = oracle.value_shifted(x, j, h_star, cache) + 0.5 * beta * h_star**2
            zero_val = oracle.value_shifted(x, j, -x[j], cache) + 0.5 * beta * x[j] ** 2
            keep_wins = keep_val + lam < zero_val
            if keep_wins:
                assert out != 0.0
                np.testing.assert_allclose(out, x[j] + h_star, rtol=1e-9, atol=1e-9)
            else:
                assert out == 0.0


def test_criterion_05_solver_limits_match_flagged_catalog_entries():
    """Solver finals land on catalog entries flagged strong for their model.

    10 enumerable instances, 2 starts each: the quadratic, exact, and
    full-gradient runs must finish within 1e-6 of the restricted optimum of
    their final support, and that entry must carry the matching strength
    flag (the full-gradient baseline is quadratic-strong at the uniform
    constant it iterates with).
    """
    for kind, m, n, seed, lam in LIMIT_INSTANCES:
        problem = generated_instance(kind, m, n, seed, lam)
        part = problem.partition
        M_f = IHTA_FACTOR * part.global_lipschitz
        requests = {
            "uq": separable_from_factor(part, UQ_FACTOR),
            "ue": exact_uniform(part, UE_BETA),
            "ihta": ApproxSpec("uq", np.full(part.num_blocks, M_f)),
        }
        catalog = enumerate_catalog(problem, requests)
        for t in range(2):
            x0 = random_start(problem.n, seeded_rng(seed, 1000 + t))
            finals = {}
            for label, sseed in (("uq", 10 * t + 1), ("ue", 10 * t + 2)):
                cfg = SolverConfig(
                    approx=requests[label],
                    max_iters=4000,
                    seed=sseed,
                    support_patience=10 * problem.n,
                )
                finals[label] = run_rcd_iht(problem, x0, cfg)[0]
            finals["ihta"] = run_ihta(problem, x0, M_f, max_iters=2000)[0]
            for label, state in finals.items():
                entry = catalog.entry_for_support(state.support)
                assert entry is not None
                assert entry.flags[label], (kind, seed, t, label, hex(state.support))
                assert float(np.max(np.abs(state.x - entry.point))) <= 1e-6


def test_criterion_06_support_change_budget():
    """Observed support changes stay within the per-run decrease budget.

    5 strongly convex instances, one seeded start each, 20 block-sequence
    seeds: mean kappa <= mean ceil((F(x0) - F(x_final)) / delta) + 1, with
    delta the certified minimum decrease per support change.
    """
    for kind, m, n, seed, lam in BUDGET_INSTANCES:
        problem = strongly_convex_instance(kind, m, n, seed, lam)
        spec = separable_from_factor(problem.partition, UQ_FACTOR)
        x0 = random_start(problem.n, seeded_rng(seed, 777))
        F0 = objective_F(problem, x0)
        delta = delta_lower_bound(problem, spec, x0)
        kappas, bounds = [], []
        for s in range(20):
            cfg = SolverConfig(approx=spec, max_iters=6000, seed=s)
            _, trace = run_rcd_iht(problem, x0, cfg)
            kappas.append(trace.kappa)
            bounds.append(np.ceil((F0 - trace.final_F) / delta))
        assert np.mean(kappas) <= np.mean(bounds) + 1, (kind, seed)


def test_criterion_07_fixed_support_tail_converges_linearly():
    """The tail after the last support change decays geometrically.

    3 strongly convex instances: fit log(F^k - F*) over the fixed-support
    tail, with F* the enumerated restricted optimum of the final support;
    require negative slope and r^2 >= 0.9.
    """
    for m, n, seed, lam, start_entropy, sseed in RATE_RUNS:
        problem = random_ls_problem(m, n, seed, lam=lam, tall=True)
        spec = separable_from_factor(problem.partition, UQ_FACTOR)
        x0 = random_start(problem.n, seeded_rng(seed, start_entropy))
        cfg = SolverConfig(approx=spec, max_iters=6000, seed=sseed)
        state, trace = run_rcd_iht(problem, x0, cfg)
        catalog = enumerate_catalog(problem, {})
        entry = catalog.entry_for_support(state.support)
        slope, r2 = estimate_linear_rate(trace, entry.F_value)
        assert slope < 0.0, (seed, slope)
        assert r2 >= 0.9, (seed, r2)


def test_criterion_08_tournament_success_ordering(tmp_path):
    """Sharper models win the success-count tournament on most penalties.

    Runs the shipped tournament command on a seeded 6x12 least squares
    instance (9 penalty levels x 3 solvers x 100 starts) and requires
    success(exact) >= success(quadratic) >= success(full-gradient) - 5 on
    at least 7 of the 9 penalty levels, within the 5-minute budget.
    """
    cfg_path = tmp_path / "tournament.ini"
    cfg_path.write_text(TOURNAMENT_CONFIG)
    out = tmp_path / "out"
    start = time.monotonic()
    assert main(
        ["tournament", "--config", str(cfg_path), "--out", str(out), "--no-timestamp"]
    ) == 0
    assert time.monotonic() - start < 300.0

    _, header, rows = read_csv(out / "tournament.csv")
    assert header == ["lambda", "F_star", "success_ihta", "success_uq", "success_ue"]
    assert len(rows) == 9
    ordered = 0
    for row in rows:
        ihta, uq, ue = (int(v) for v in row[2:])
        if ue >= uq and uq >= ihta - 5:
            ordered += 1
    assert ordered >= 7, rows


def test_criterion_09_gradient_and_cache_checks(tmp_path):
    """The gradcheck command passes on both objectives.

    Central-difference gradient error <= 1e-5 and incremental-cache drift
    <= 1e-8 after 1000 random block updates, for least squares and for
    regularized logistic loss.
    """
    configs = {
        "ls": "[problem]\nkind = least_squares\nm = 10\nn = 14\nseed = 2\nlambda = 0.3\n",
        "logistic": "[problem]\nkind = logistic\nm = 12\nn = 9\nseed = 3\nlambda = 0.1\n",
    }
    for tag, text in configs.items():
        cfg_path = tmp_path / f"{tag}.ini"
        cfg_path.write_text(text)
        out = tmp_path / f"out_{tag}"
        assert main(
            ["gradcheck", "--config", str(cfg_path), "--out", str(out), "--no-timestamp"]
        ) == 0
        _, header, rows = read_csv(out / "gradcheck.csv")
        assert header == ["check", "worst_error", "threshold", "passed"]
        by_name = {r[0]: r for r in rows}
        assert float(by_name["finite_difference"][1]) <= 1e-5
        assert int(by_name["finite_difference"][3]) == 1
        assert float(by_name["cache_coherence"][1]) <= 1e-8
        assert int(by_name["cache_coherence"][3]) == 1


def test_criterion_10_byte_identical_reruns(tmp_path):
    """Re-running any subcommand with --no-timestamp reproduces every byte."""
    problem_block = "[problem]\nkind = least_squares\nm = 6\nn = 8\nseed = 5\nlambda = 0.3\n"
    configs = {
        "solve": problem_block + "\n[solve]\nsolver = uq\nstart = random\n",
        "enumerate": problem_block,
        "tournament": (
            "[problem]\nkind = least_squares\nm = 4\nn = 6\nseed = 3\nlambda = 1.0\n\n"
            "[solvers]\nlist = ihta, uq, ue\nmax_iters = 400\n\n"
            "[starts]\ntrials = 2\n\n"
            "[sweep]\nlambdas = 0.3, 0.8\n"
        ),
        "benchmark": (
            "[problem]\nkind = logistic\nm = 10\nn = 6\nseed = 7\nlambda = 0.15\n\n"
            "[solvers]\nlist = ihta, uq, ue\nmax_iters = 400\n\n"
            "[starts]\ntrials = 2\n"
        ),
        "gradcheck": "[problem]\nkind = logistic\nm = 8\nn = 7\nseed = 1\nlambda = 0.1\n",
    }
    for command, text in configs.items():
        cfg_path = tmp_path / f"{command}.ini"
        cfg_path.write_text(text)
        snapshots = []
        for attempt in range(2):
            out = tmp_path / f"{command}_{attempt}"
            rc = main(
                [command, "--config", str(cfg_path), "--out", str(out), "--no-timestamp"]
            )
            assert rc == 0
            snapshot = {
                p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
            }
            assert snapshot, command
            snapshots.append(snapshot)
        assert snapshots[0] == snapshots[1], command
