"""Set-up, warm-up, timed passes, the traced pass and the known-defect probe."""
from __future__ import annotations

import io
import os
import resource
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from l0rcd import cli
from l0rcd.solvers import SolverConfig, run_rcd_iht

import layers
from speed import SpeedSampler
from tracer import Patches, Tracer, install
from workloads import Boundary, Pass, Workload

SETUP_MIN_BATCHES = 5
SETUP_BATCH_S = 0.2
SETUP_MIN_S = 1.5  # set-up repeats until this much time is spent
WARMUP_S = 2.0  # the first seconds of a process run its Python code slower
PROBE_ITERS = 40


class Discard(io.TextIOBase):
    """Standard output of the subcommands: formatted, then dropped."""

    def write(self, text: str) -> int:
        return len(text)


def run_record() -> str:
    """Interpreter, numpy and BLAS versions, cores and the BLAS thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_id = "unknown"
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"python {sys.version.split()[0]} | numpy {np.__version__} | BLAS {blas_id} | "
        f"nproc {cores} | BLAS threads {os.environ.get('OPENBLAS_NUM_THREADS')}"
    )


def time_setup(workload: Workload, cfg, speed: SpeedSampler) -> tuple[float, dict]:
    """Set-up time at the nominal speed, and the problems of the last repeat.

    Repeats run in batches of at least SETUP_BATCH_S; each batch's mean
    repeat time is scaled by the batch's own speed factor, and the median
    over batches is returned.
    """
    scaled: list[float] = []
    start = speed.clock()
    while len(scaled) < SETUP_MIN_BATCHES or speed.clock() - start < SETUP_MIN_S:
        mark, reps = speed.mark(), 0
        t0 = speed.clock()
        while reps == 0 or speed.clock() - t0 < SETUP_BATCH_S:
            problems = workload.setup(cfg)
            reps += 1
        scaled.append((speed.clock() - t0) / reps * speed.factor(mark, speed.mark()))
    return median(scaled), problems


def warm_up(workload: Workload, cfg, out_dir: Path) -> None:
    """Run a shortened pass until WARMUP_S has gone by; nothing is recorded."""
    wcfg = workload.warmup_config(cfg)
    writer = cli.OutputWriter(str(out_dir), wcfg.config_hash, True)
    start = perf_counter()
    while perf_counter() - start < WARMUP_S:
        try:
            with redirect_stdout(Discard()):
                workload.run_pass(wcfg, writer)
        except Exception:
            traceback.print_exc()
            return


def run_passes(
    workload: Workload,
    cfg,
    boundary: Boundary,
    writer,
    seed: int,
    budget_s: float,
    reference: list | None,
    recording=nullcontext,
    speed: SpeedSampler | None = None,
) -> tuple[list[Pass], list[str], list | None]:
    """Timed passes, at least one, until the next would overrun ``budget_s``.

    Returns the passes, the correctness errors, and the outcome list every
    pass must reproduce (the first successful pass's, unless given). Only
    the subcommand call runs inside ``recording()``; the checks stay out.
    Every pass but the last is released after its checks. With ``speed``,
    each pass gets the speed factor of its own interval.
    """
    clock = boundary.clock
    passes: list[Pass] = []
    errors: list[str] = []
    start = clock()
    while True:
        if passes:
            passes[-1].release()
        p = Pass(wall=0.0)
        boundary.current = p
        mark = speed.mark() if speed else 0
        t0 = clock()
        try:
            with recording(), redirect_stdout(Discard()):
                p.exit_code = workload.run_pass(cfg, writer)
        except Exception:
            # A package exception fails one operation; the workload goes on.
            if p.failed == 0:
                p.attempted += 1
                p.failed += 1
            traceback.print_exc()
        p.wall = clock() - t0
        if speed:
            p.factor = speed.factor(mark, speed.mark())
        passes.append(p)
        if p.failed == 0:
            errs = workload.check(cfg, p, writer.out_dir, seed)
            if p.exit_code != cli.EXIT_OK:
                errs.append(f"{workload.command} exited with {p.exit_code}")
            outcome = [r.outcome() for r in p.runs]
            if reference is None:
                reference = outcome
            elif outcome != reference:
                errs.append(f"pass {len(passes)} gave other solver outcomes than the first")
            errors += errs
        walls = [q.wall for q in passes]
        if clock() - start + median(walls) > budget_s:
            return passes, errors, reference


def end_to_end(workload: Workload, passes: list[Pass], setup_s: float) -> dict:
    """Every end-to-end metric that applies to the workload, as (value, unit).

    Times are at the nominal machine speed: each pass's, and each run's in
    it, scaled by the pass's speed factor (see speed.py).
    """
    for p in passes:
        p.release()
    ok = [p for p in passes if p.failed == 0] or passes
    out = {
        "us_per_step": (median(1e6 * p.wall * p.factor / p.steps for p in ok), "us"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "wall_s": (median(p.wall * p.factor for p in ok), "s"),
        f"steps_per_pass (passes={len(ok)})": (ok[0].steps, "count"),
        "wall_s_unscaled": (median(p.wall for p in ok), "s"),
        "speed_factor": (median(p.factor for p in ok), "1"),
    }
    outcomes = [o for p in ok for o in p.outcomes]
    run_s = [t * p.factor for p in ok for t in p.run_seconds]
    if "solver_runs_per_s" in workload.reports:
        out["solver_runs_per_s"] = (len(run_s) / sum(p.wall * p.factor for p in ok), "1/s")
    if "run_ms" in workload.reports:
        ms = 1e3 * np.array(run_s)
        out[f"run_ms_p50 (n={len(ms)})"] = (float(np.percentile(ms, 50)), "ms")
        out[f"run_ms_p90 (n={len(ms)})"] = (float(np.percentile(ms, 90)), "ms")
    coord = [(o[2], t) for o, t in zip(outcomes, run_s) if o[0] in layers.COORD_ROUTES]
    if coord:
        iters, secs = map(sum, zip(*coord))
        out["coord_iters_per_s"] = (iters / secs, "1/s")
    sizes = [(t * p.factor, n) for p in ok for t, n in p.catalog_sizes]
    if sizes:
        secs, supports = map(sum, zip(*sizes))
        out["supports_per_s"] = (supports / secs, "1/s")
    first = ok[0].outcomes
    if "success_rate" in workload.reports:
        out["success_rate"] = (ok[0].successes / len(first), "fraction")
    if "max_iters_frac" in workload.reports:
        hits = sum(o[3] == "max_iters" for o in first)
        out["max_iters_frac"] = (hits / len(first), "fraction")
    attempted = sum(p.attempted for p in passes)
    out["error_rate"] = (sum(p.failed for p in passes) / attempted, "fraction")
    return out


def traced_pass(workload, cfg, problems, writer, seed, reference, patches):
    """Set-up and one pass with every module wrapped."""
    tracer = Tracer()
    install(tracer, patches)
    with tracer.recording():
        workload.setup(cfg)
    pass_start = len(tracer.span_t0)
    boundary = Boundary(problems)
    boundary.install(patches)
    passes, errors, _ = run_passes(
        workload, cfg, boundary, writer, seed, 0.0, reference, tracer.recording
    )
    return passes[0], errors, tracer, pass_start


def measure(workload: Workload, seed: int, seconds: float, trace: bool, out_root: Path):
    """Run the workload; returns (metrics, attempted, failed, errors).

    Untraced: set-up, warm-up and passes for ``seconds``, with the speed
    sampler on. Traced: untraced passes for half of ``seconds`` (the
    baseline of the tracing overhead), then one traced set-up and pass.
    """
    cfg = workload.config(seed)
    writer = cli.OutputWriter(str(out_root / "out" / workload.name), cfg.config_hash, True)
    warm_up(workload, cfg, out_root / "warmup" / workload.name)
    sampler = SpeedSampler()
    patches = Patches()
    try:
        with sampler.running():
            setup_s, problems = time_setup(workload, cfg, sampler)
            boundary = Boundary(problems, sampler.clock)
            boundary.install(patches)
            budget = seconds / 2 if trace else seconds
            passes, errors, reference = run_passes(
                workload, cfg, boundary, writer, seed, budget, None, speed=sampler
            )
        patches.restore()
        if not trace:
            metrics = end_to_end(workload, passes, setup_s)
        else:
            p, errs, tracer, pass_start = traced_pass(
                workload, cfg, problems, writer, seed, reference, patches
            )
            errors += errs
            untraced = median([q.wall for q in passes if q.failed == 0] or [q.wall for q in passes])
            metrics = layers.layer_metrics(
                tracer.spans(),
                tracer.names,
                pass_start,
                p.runs,
                next(iter(problems.values())),
                p.wall,
                untraced,
            )
            trace_path = out_root / "trace" / f"{workload.name}-seed{seed}.npz"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(trace_path)
            passes.append(p)
    finally:
        patches.restore()
    attempted = sum(q.attempted for q in passes)
    failed = sum(q.failed for q in passes)
    if not any(q.failed == 0 for q in passes):
        errors.append("no pass completed, so no output was checked")
    return metrics, attempted, failed, errors


def probe_known_defects() -> list[str]:
    """Short, untimed runs at n=500 that show the support-bitmask defects.

    ``support_bitmask`` shifts ``1 << j`` with ``j`` an ``np.int64`` that
    ``rcd_iht_step`` put into the support: from a random start (support held
    as Python ints) the shift raises OverflowError; from the zero start it
    wraps silently, so recorded masks are wrong above bit 63.
    """
    cfg = cli.ExperimentConfig(problem_kind="least_squares", m=200, n=500, lam=1.0)
    problem = cli.build_problem(cfg)
    spec = cli.solver_spec("uq", cfg, problem)
    x0 = cli.random_start(problem.n, cli.seeded_rng(0, 0))
    try:
        run_rcd_iht(problem, x0, SolverConfig(approx=spec, max_iters=PROBE_ITERS))
        random_status = "not reproduced"
    except OverflowError as exc:
        random_status = f"reproduced (OverflowError: {exc})"
    except Exception as exc:
        random_status = f"probe failed ({type(exc).__name__}: {exc})"
    zero = np.zeros(problem.n)
    try:
        _, full = run_rcd_iht(problem, zero, SolverConfig(approx=spec, max_iters=PROBE_ITERS))
        _, short = run_rcd_iht(problem, zero, SolverConfig(approx=spec, max_iters=PROBE_ITERS - 1))
        expected = sum(1 << int(j) for j in np.flatnonzero(short.final_x))
        got = full.supports[-1]
        if type(got) is int and got == expected:
            zero_status = "not reproduced"
        else:
            zero_status = (
                f"reproduced (mask before iteration {PROBE_ITERS - 1} is {type(got).__name__} "
                f"{got}; the support it records needs {expected.bit_length()} bits)"
            )
    except Exception as exc:
        zero_status = f"probe failed ({type(exc).__name__}: {exc})"
    return [
        f"known_defect.random_start_n500 = {random_status}",
        f"known_defect.zero_start_support_masks_n500 = {zero_status}",
    ]
