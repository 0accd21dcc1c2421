"""Tests of the benchmark itself: determinism, the checks, the tracer, the guard.

Run from the repository root with ``python3 -m pytest perfbench``; they are
outside the package's ``testpaths``. The ROADMAP table test takes about a
minute.
"""
from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from l0rcd import cli, core, solvers  # noqa: E402
import l0rcd  # noqa: E402

import layers  # noqa: E402
from measure import run_passes  # noqa: E402
from tracer import Patches, Tracer, install  # noqa: E402
from workloads import WORKLOADS, Boundary, check_runs, reference_check  # noqa: E402


def one_pass(workload, cfg, seed, out_dir):
    boundary = Boundary(workload.setup(cfg))
    patches = Patches()
    try:
        boundary.install(patches)
        writer = cli.OutputWriter(str(out_dir), "test", True)
        passes, errors, _ = run_passes(workload, cfg, boundary, writer, seed, 0.0, None)
    finally:
        patches.restore()
    return passes[0], errors


def test_tournament_outcomes_repeat_exactly(tmp_path):
    workload = WORKLOADS["tournament-ls-6x12"]
    cfg = workload.config(0, trials=1)
    first, errors = one_pass(workload, cfg, 0, tmp_path / "a")
    assert errors == [] and first.failed == 0
    second, _ = one_pass(workload, cfg, 0, tmp_path / "b")
    assert [r.outcome() for r in first.runs] == [r.outcome() for r in second.runs]
    assert layers.route_outcomes(first.runs) == layers.route_outcomes(second.runs)
    assert first.successes == second.successes


def test_tournament_max_iters_table_at_ten_trials(tmp_path):
    """29, 17 and 5 of 90 runs stop at max_iters for uq, ue and ihta (master seed 0)."""
    workload = WORKLOADS["tournament-ls-6x12"]
    p, errors = one_pass(workload, workload.config(0, trials=10), 0, tmp_path)
    assert errors == []
    routes = layers.route_outcomes(p.runs)
    assert {r: (c["max_iters"], c["runs"]) for r, c in routes.items()} == {
        "uq": (29, 90),
        "ue": (17, 90),
        "ihta": (5, 90),
    }


def test_check_runs_rejects_a_wrong_final_F(tmp_path):
    workload = WORKLOADS["multistart-logistic-50x40"]
    cfg = workload.warmup_config(workload.config(1))
    p, errors = one_pass(workload, cfg, 1, tmp_path)
    assert errors == [] and len(p.runs) == 3
    bad = copy.deepcopy(p.runs[0])
    bad.trace.final_F += 1e-6
    assert check_runs([bad])


def test_reference_check_agrees_and_catches_a_wrong_flag():
    workload = WORKLOADS["enumerate-ls-n16"]
    cfg = workload.warmup_config(workload.config(3))
    problem = cli.build_problem(cfg)
    catalog = l0rcd.enumerate_catalog(problem, cli._enumerate_requests(problem, cfg))
    assert reference_check(cfg, catalog, 3) == []
    for entry in catalog.entries:
        entry.flags["uq[M=Lf]"] = not entry.flags["uq[M=Lf]"]
    assert reference_check(cfg, catalog, 3)


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (core.l0_norm, solvers.l0_norm, cli.l0_norm, l0rcd.l0_norm)
    assert len(set(map(id, originals))) == 1
    tracer, patches = Tracer(), Patches()
    try:
        install(tracer, patches)
        bound = {id(core.l0_norm), id(solvers.l0_norm), id(cli.l0_norm), id(l0rcd.l0_norm)}
        assert len(bound) == 1 and core.l0_norm is not originals[0]
        problem = cli.build_problem(
            cli.ExperimentConfig(problem_kind="least_squares", m=4, n=6, lam=0.5)
        )
        with tracer.recording():
            core.objective_F(problem, [0.0, 1.0, 0.0, 2.0, 0.0, 0.0])
    finally:
        patches.restore()
    assert core.l0_norm is originals[0] and solvers.l0_norm is originals[0]
    spans = tracer.spans()
    names = [tracer.names[i] for i in spans["name"]]
    assert names == [
        "core.objective_F",
        "objectives.LeastSquaresObjective.eval",
        "core.l0_norm",
    ]
    assert list(spans["parent"]) == [-1, 0, 0]
    duration = spans["t1"] - spans["t0"]
    assert spans["self"][0] == pytest.approx(duration[0] - duration[1] - duration[2])


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-ls-200x500", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
