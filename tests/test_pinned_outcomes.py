"""Pinned solver outcomes: a refactor that changes what a run computes fails here.

The values were recorded from the CLI's solver entry point on two fixed
instances: the 6x12 least squares instance of the acceptance tournament
(three penalties, all three routes, two random starts each) and a small
logistic instance, once with multivariate blocks and once with scalar
blocks (where `ue` takes the safeguarded Newton step). Iteration counts,
stop reasons and final supports must match exactly; final F to 1e-12
relative. Two more tests pin every bit, as sha256 digests: the traces of
the logistic ``benchmark`` configuration (50x40, 12 starts, three routes)
and the 12x8 logistic catalog.
"""
import dataclasses
import hashlib

import numpy as np
import pytest

from l0rcd.analysis import enumerate_catalog
from l0rcd.cli import (
    ExperimentConfig,
    _enumerate_requests,
    build_problem,
    random_start,
    run_named_solver,
    seeded_rng,
)

ACCEPTANCE = ExperimentConfig(
    problem_kind="least_squares", m=6, n=12, instance_seed=13, uq_factor=2.0, max_iters=2400
)
BLOCK_LOGISTIC = ExperimentConfig(
    problem_kind="logistic",
    m=20,
    n=12,
    instance_seed=4,
    nu=0.1,
    lam=0.05,
    block_sizes=(3, 3, 2, 4),
    max_iters=3000,
)
SCALAR_LOGISTIC = dataclasses.replace(BLOCK_LOGISTIC, block_sizes=None)

# (lambda, solver, start) -> (iterations, stop, final support, final F)
ACCEPTANCE_OUTCOMES = {
    (0.07, "ihta", 0): (1180, "converged", [1, 3, 5, 7, 11], 0.35014018320876455),
    (0.07, "ihta", 1): (1507, "converged", [5, 6, 8, 9, 11], 0.4281721504825442),
    (0.07, "uq", 0): (2400, "max_iters", [0, 1, 3, 4, 5, 7, 8, 9, 11], 0.6300000019740758),
    (0.07, "uq", 1): (2391, "converged", [0, 2, 10, 11], 0.29596232780240594),
    (0.07, "ue", 0): (2400, "max_iters", [0, 1, 3, 4, 6, 7, 8, 9, 11], 0.6300000008155158),
    (0.07, "ue", 1): (2400, "max_iters", [3, 5, 6, 7, 9], 0.37325597990474313),
    (0.35, "ihta", 0): (923, "converged", [1, 3, 5, 7], 1.4094803941513896),
    (0.35, "ihta", 1): (1537, "converged", [5, 6, 8, 9, 11], 1.8281721504825443),
    (0.35, "uq", 0): (2400, "max_iters", [1, 3, 5, 7], 1.4094803945352652),
    (0.35, "uq", 1): (1131, "converged", [1, 8, 11], 1.87288720640056),
    (0.35, "ue", 0): (1141, "converged", [1, 3, 5], 1.2749549136250258),
    (0.35, "ue", 1): (179, "converged", [0, 3], 1.2331862863301395),
    (1.2, "ihta", 0): (868, "converged", [1, 3, 5, 7], 4.8094803941513895),
    (1.2, "ihta", 1): (72, "converged", [3], 3.1037211953923394),
    (1.2, "uq", 0): (2168, "converged", [1, 5, 11], 4.069920661888583),
    (1.2, "uq", 1): (67, "converged", [], 3.2666740745718363),
    (1.2, "ue", 0): (488, "converged", [5, 7, 11], 3.7714737852248876),
    (1.2, "ue", 1): (124, "converged", [0], 2.632402905798326),
}

BLOCK_LOGISTIC_OUTCOMES = {
    ("uq", 0): (66, "converged", [0], 0.6916812781880602),
    ("uq", 1): (57, "converged", [2], 0.6856609456086835),
    ("ihta", 0): (124, "converged", [0, 2, 3, 7, 11], 0.7916758856631791),
    ("ihta", 1): (110, "converged", [2, 3], 0.713147400505675),
}

SCALAR_LOGISTIC_OUTCOMES = {
    ("uq", 0): (146, "converged", [0, 2], 0.685004177293132),
    ("uq", 1): (130, "converged", [2], 0.6856609456086835),
    ("ue", 0): (92, "converged", [0, 2], 0.6850041772931319),
    ("ue", 1): (149, "converged", [0, 2], 0.685004177293132),
    ("ihta", 0): (314, "converged", [0, 2, 3, 7, 9, 11], 0.8368735624317596),
    ("ihta", 1): (279, "converged", [2, 3], 0.7131474005056752),
}

SOLVER_INDEX = {"ihta": 0, "uq": 1, "ue": 2}


def outcome(problem, cfg, name, entropy, start):
    x0 = random_start(problem.n, seeded_rng(0, start))
    state, trace = run_named_solver(name, problem, x0, cfg, entropy)
    support = np.flatnonzero(state.x).tolist()
    return trace.iterations, trace.metadata["stop"], support, trace.final_F


def assert_outcome(got, expected):
    iters, stop, support, final_F = got
    assert (iters, stop, support) == expected[:3]
    assert final_F == pytest.approx(expected[3], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam_index,lam", enumerate((0.07, 0.35, 1.2)))
def test_acceptance_instance_outcomes(lam_index, lam):
    problem = build_problem(ACCEPTANCE, lam=lam)
    for name, si in SOLVER_INDEX.items():
        for t in range(2):
            got = outcome(problem, ACCEPTANCE, name, (0, lam_index, si, t), t)
            assert_outcome(got, ACCEPTANCE_OUTCOMES[(lam, name, t)])


def test_block_logistic_outcomes():
    problem = build_problem(BLOCK_LOGISTIC)
    for si, name in enumerate(("uq", "ihta")):
        for t in range(2):
            got = outcome(problem, BLOCK_LOGISTIC, name, (0, 0, si, t), t)
            assert_outcome(got, BLOCK_LOGISTIC_OUTCOMES[(name, t)])


def test_scalar_logistic_outcomes():
    problem = build_problem(SCALAR_LOGISTIC)
    for name, si in (("uq", 0), ("ue", 1), ("ihta", 2)):
        for t in range(2):
            got = outcome(problem, SCALAR_LOGISTIC, name, (0, 0, si, t), t)
            assert_outcome(got, SCALAR_LOGISTIC_OUTCOMES[(name, t)])


# The logistic benchmark configuration: 50x40, three routes, 12 random starts.
MULTISTART_LOGISTIC = ExperimentConfig(
    problem_kind="logistic",
    m=50,
    n=40,
    instance_seed=0,
    nu=0.05,
    lam=0.01,
    solver_names=("uq", "ue", "ihta"),
    max_iters=4000,
    trials=12,
    master_seed=0,
)
CATALOG_LOGISTIC = ExperimentConfig(
    problem_kind="logistic", m=12, n=8, instance_seed=5, nu=0.3, lam=0.05
)

# sha256 over the bits of every trace of the runs below, recorded before the
# logistic oracle kept its sigmoid between queries.
MULTISTART_LOGISTIC_SHA256 = "3b161f4ca23a8468a3e8df51fd8ab6a25cc9b00685687aee32f46b686a982ea4"
CATALOG_LOGISTIC_SHA256 = "0c95f5a1040fe7c8e8b264af700b3c135203882dfef4261cb1049920073237af"


def test_multistart_logistic_traces_are_pinned():
    """The 36 runs of the ``benchmark`` subcommand on 50x40 logistic, in its
    order and with its seeds, keep every bit of F, the step norms, the blocks
    and the final point."""
    cfg = MULTISTART_LOGISTIC
    problem = build_problem(cfg)
    digest = hashlib.sha256()
    for si, name in enumerate(cfg.solver_names):
        for t in range(cfg.trials):
            x0 = random_start(
                problem.n, seeded_rng(cfg.master_seed, t), cfg.start_density, cfg.value_range
            )
            _, trace = run_named_solver(name, problem, x0, cfg, (cfg.master_seed, 0, si, t))
            for a in (trace.F, trace.step_norms, trace.blocks.astype("<i8"), trace.final_x):
                digest.update(a.tobytes())
            digest.update(trace.metadata["stop"].encode())
    assert digest.hexdigest() == MULTISTART_LOGISTIC_SHA256


def test_logistic_catalog_is_pinned():
    """The 12x8 logistic catalog keeps every bit of its points, values and
    class flags, which the exact-model class test computes by Newton steps."""
    problem = build_problem(CATALOG_LOGISTIC)
    catalog = enumerate_catalog(problem, _enumerate_requests(problem, CATALOG_LOGISTIC))
    digest = hashlib.sha256()
    for a in (catalog.bitmasks, catalog.points, catalog.f, catalog.F):
        digest.update(np.ascontiguousarray(a).tobytes())
    for label in catalog.class_labels:
        digest.update(label.encode() + catalog.flags[label].tobytes())
    assert digest.hexdigest() == CATALOG_LOGISTIC_SHA256
