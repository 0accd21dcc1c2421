"""The four benchmark workloads.

Each workload is a closed loop: one process calls an ``l0rcd.cli`` subcommand
function again and again, each call one *pass*, and waits for it to finish
before the next. The workload seed picks the random inputs each workload
lets it pick; the package sees only those inputs. Every pass of one run does the same work, so counts
taken from any pass repeat exactly, and a pass that differs from the first
one is a correctness failure.

Set-up (instance generation, ``build_problem`` with its ``eigvalsh``, start
generation) is timed on its own. During timed passes ``cli.build_problem``
returns the problems built in set-up, and ``cli.run_named_solver`` and
``cli.enumerate_catalog`` are timed at the call: those are the
``Boundary`` hooks, the only code the benchmark puts into an untraced pass.
"""
from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from l0rcd import cli
from l0rcd.analysis import CLASSIFY_TOL, verify_inclusions
from l0rcd.core import objective_F

# Relative tolerances of the correctness stage.
SUCCESS_RTOL = 1e-6  # a run "succeeds" within this of the certified F*
FINAL_F_RTOL = 1e-9  # a run's final F against objective_F at its final x
REFERENCE_SAMPLE = 256  # supports re-classified independently per enumerate pass
REFERENCE_MARGIN = 1e-6  # supports this close to a class boundary are skipped

# Class counts of the enumerate workload's instance at the commit that
# added this benchmark.
EXPECTED_COUNTS = {"ue[beta=0.0001]": 536, "uq[M=Li]": 536, "uq[M=Lf]": 1437, "basic": 65536}


@dataclass
class Run:
    """One solver run seen at the ``run_named_solver`` boundary."""

    solver: str
    problem: object
    x0: np.ndarray
    seconds: float
    trace: object

    def outcome(self) -> tuple:
        """What must repeat exactly between passes and between runs."""
        t = self.trace
        return (
            self.solver,
            float(self.problem.partition.lam[0]),
            t.iterations,
            t.metadata["stop"],
            t.kappa,
            int(np.count_nonzero(t.step_norms)),
            float(t.final_F),
        )


@dataclass
class Pass:
    """Everything one pass produced, for the checks and the metrics."""

    wall: float
    exit_code: int | None = None
    runs: list[Run] = field(default_factory=list)
    catalogs: list[tuple[float, object]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    successes: int = 0  # tournament runs within SUCCESS_RTOL of the certified F*
    factor: float = 1.0  # speed factor of the pass's interval, see speed.py
    outcomes: list[tuple] = field(default_factory=list)
    run_seconds: list[float] = field(default_factory=list)
    catalog_sizes: list[tuple[float, int]] = field(default_factory=list)
    steps: int = 0  # solver iterations plus enumerated supports
    released: bool = False

    def release(self) -> None:
        """Keep what the metrics need and drop the traces and catalogs."""
        if self.released:
            return
        self.released = True
        self.outcomes = [r.outcome() for r in self.runs]
        self.run_seconds = [r.seconds for r in self.runs]
        self.catalog_sizes = [(t, len(c.entries)) for t, c in self.catalogs]
        self.steps = sum(o[2] for o in self.outcomes) + sum(n for _, n in self.catalog_sizes)
        self.runs, self.catalogs = [], []


class Boundary:
    """Hooks on three ``cli`` bindings for the duration of timed passes."""

    def __init__(self, problems: dict, clock=perf_counter) -> None:
        self.problems = problems
        self.clock = clock
        self.current: Pass | None = None

    def install(self, patches) -> None:
        run_solver = cli.run_named_solver
        enumerate_catalog = cli.enumerate_catalog

        def build_problem(cfg, lam=None):
            return self.problems[lam]

        def run_named_solver(name, problem, x0, cfg, seed_entropy):
            self.current.attempted += 1
            t0 = self.clock()
            try:
                state, trace = run_solver(name, problem, x0, cfg, seed_entropy)
            except Exception:
                self.current.failed += 1
                raise
            self.current.runs.append(Run(name, problem, x0, self.clock() - t0, trace))
            return state, trace

        def timed_catalog(problem, requests, *args, **kwargs):
            self.current.attempted += 1
            t0 = self.clock()
            try:
                catalog = enumerate_catalog(problem, requests, *args, **kwargs)
            except Exception:
                self.current.failed += 1
                raise
            self.current.catalogs.append((self.clock() - t0, catalog))
            return catalog

        patches.set(cli, "build_problem", build_problem)
        patches.set(cli, "run_named_solver", run_named_solver)
        patches.set(cli, "enumerate_catalog", timed_catalog)


def read_csv_rows(path: Path) -> list[list[str]]:
    """Header and data rows of a CSV written by ``cli.OutputWriter``."""
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def check_runs(runs: list[Run]) -> list[str]:
    """Each run's final F matches objective_F at its final x and is <= F(x0)."""
    errors = []
    for k, r in enumerate(runs):
        F_final = r.trace.final_F
        F_check = objective_F(r.problem, r.trace.final_x)
        F_start = objective_F(r.problem, r.x0)
        if abs(F_final - F_check) > FINAL_F_RTOL * (1.0 + abs(F_check)):
            errors.append(f"run {k} ({r.solver}): final F {F_final!r} != objective_F {F_check!r}")
        if F_final > F_start + FINAL_F_RTOL * (1.0 + abs(F_start)):
            errors.append(f"run {k} ({r.solver}): final F {F_final!r} > F(x0) {F_start!r}")
    return errors


class Workload:
    """One named workload: its configuration, set-up, pass and checks."""

    name = ""
    command = ""  # the cli subcommand function a pass calls
    reports: tuple[str, ...] = ()  # end-to-end metrics that apply beyond the common ones

    def config(self, seed: int) -> cli.ExperimentConfig:
        raise NotImplementedError

    def warmup_config(self, cfg: cli.ExperimentConfig) -> cli.ExperimentConfig:
        """A shorter pass over the same code, run before timing starts."""
        raise NotImplementedError

    def problem_keys(self, cfg) -> list:
        """The ``lam`` arguments with which the subcommand calls build_problem."""
        return [None]

    def setup(self, cfg) -> dict:
        """Build every problem a pass needs and its starts; return the problems."""
        problems = {key: cli.build_problem(cfg, lam=key) for key in self.problem_keys(cfg)}
        self.starts(cfg, next(iter(problems.values())).n)
        return problems

    def starts(self, cfg, n: int) -> list[np.ndarray]:
        """The random starts the subcommand draws, as it draws them."""
        return [
            cli.random_start(n, cli.seeded_rng(cfg.master_seed, t), cfg.start_density, cfg.value_range)
            for t in range(cfg.trials)
        ]

    def run_pass(self, cfg, writer) -> int:
        return getattr(cli, self.command)(cfg, writer)

    def check(self, cfg, p: Pass, out_dir: Path, seed: int) -> list[str]:
        raise NotImplementedError


class Tournament(Workload):
    name = "tournament-ls-6x12"
    command = "cmd_tournament"
    reports = ("solver_runs_per_s", "run_ms", "success_rate", "max_iters_frac")

    LAMBDAS = (0.01, 0.07, 0.09, 0.15, 0.35, 0.8, 1.2, 1.8, 2.0)

    def config(self, seed, trials=5):
        # The acceptance tournament's instance and solver settings. Five
        # trials of 9 lambdas x 3 solvers: 135 runs, so run_ms_p90 has more
        # than 10 samples above it.
        return cli.ExperimentConfig(
            problem_kind="least_squares",
            m=6,
            n=12,
            instance_seed=13,
            lam=1.0,
            solver_names=("ihta", "uq", "ue"),
            uq_factor=2.0,
            max_iters=2400,
            trials=trials,
            sweep=self.LAMBDAS,
            master_seed=seed,
        )

    def warmup_config(self, cfg):
        return dataclasses.replace(cfg, trials=1, sweep=cfg.sweep[:2])

    def problem_keys(self, cfg):
        return [1.0] + list(cfg.sweep)

    def check(self, cfg, p, out_dir, seed):
        errors = check_runs(p.runs)
        if len(p.catalogs) != 1:
            return errors + [f"expected one certification catalog, got {len(p.catalogs)}"]
        catalog = p.catalogs[0][1]
        errors += verify_inclusions(catalog)
        f = np.array([e.f_value for e in catalog.entries])
        nnz = np.array([np.count_nonzero(e.point) for e in catalog.entries])
        expected_runs = len(cfg.sweep) * len(cfg.solver_names) * cfg.trials
        if len(p.runs) != expected_runs:
            errors.append(f"expected {expected_runs} solver runs, got {len(p.runs)}")
        successes: dict[tuple[float, str], int] = {}
        for r in p.runs:
            lam = float(r.problem.partition.lam[0])
            F_star = float(np.min(f + lam * nnz))
            slack = SUCCESS_RTOL * (1.0 + abs(F_star))
            if r.trace.final_F < F_star - slack:
                errors.append(
                    f"{r.solver} at lambda={lam}: F={r.trace.final_F!r} is below "
                    f"the certified F*={F_star!r}"
                )
            hit = abs(r.trace.final_F - F_star) <= slack
            successes[(lam, r.solver)] = successes.get((lam, r.solver), 0) + int(hit)
        p.successes = sum(successes.values())
        rows = read_csv_rows(out_dir / "tournament.csv")
        for row in rows[1:]:
            lam = float(row[0])
            for name, count in zip(cfg.solver_names, row[2:]):
                if int(count) != successes.get((lam, name)):
                    errors.append(
                        f"tournament.csv says {count} successes for {name} at "
                        f"lambda={lam}; the returned traces give {successes.get((lam, name))}"
                    )
        return errors


class Solve(Workload):
    name = "solve-ls-200x500"
    command = "cmd_solve"

    def config(self, seed):
        # solve's default zero start; the iteration cap keeps a pass near 2 s.
        return cli.ExperimentConfig(
            problem_kind="least_squares",
            m=200,
            n=500,
            instance_seed=seed,
            lam=1.0,
            max_iters=1000,
            master_seed=seed,
            solve_solver="uq",
            solve_start="zeros",
        )

    def warmup_config(self, cfg):
        return dataclasses.replace(cfg, max_iters=100)

    def starts(self, cfg, n):
        return [np.zeros(n)]

    def check(self, cfg, p, out_dir, seed):
        errors = check_runs(p.runs)
        if len(p.runs) != 1:
            return errors + [f"expected one solver run, got {len(p.runs)}"]
        rows = read_csv_rows(out_dir / "solution.csv")[1:]
        written = np.array([float(v) for _, v in rows])
        if not np.array_equal(written, p.runs[0].trace.final_x):
            errors.append("solution.csv differs from the run's final point")
        return errors


class Enumerate(Workload):
    name = "enumerate-ls-n16"
    command = "cmd_enumerate"

    def config(self, seed):
        # One instance: the class checks stop at the first failing coordinate,
        # so the work per support differs by up to 30% between instances. The
        # seed picks the supports that reference_check re-derives.
        return cli.ExperimentConfig(
            problem_kind="least_squares", m=8, n=16, instance_seed=3, lam=0.3, master_seed=seed
        )

    def warmup_config(self, cfg):
        return dataclasses.replace(cfg, m=5, n=10)

    def starts(self, cfg, n):
        return []

    def run_pass(self, cfg, writer):
        return cli.cmd_enumerate(cfg, writer, False)

    def check(self, cfg, p, out_dir, seed):
        if len(p.catalogs) != 1:
            return [f"expected one catalog, got {len(p.catalogs)}"]
        catalog = p.catalogs[0][1]
        errors = verify_inclusions(catalog)
        if len(catalog.entries) != 1 << cfg.n:
            errors.append(f"catalog has {len(catalog.entries)} entries, expected {1 << cfg.n}")
        counts = catalog.counts()
        written = {row[0]: int(row[1]) for row in read_csv_rows(out_dir / "counts.csv")[1:]}
        if written != counts:
            errors.append(f"counts.csv {written} differs from the catalog {counts}")
        if counts != EXPECTED_COUNTS:
            errors.append(f"class counts {counts} differ from the recorded {EXPECTED_COUNTS}")
        return errors + reference_check(cfg, catalog, seed)


def reference_check(cfg, catalog, seed: int) -> list[str]:
    """Re-derive the point and class flags of sampled supports without the package.

    Least squares only, scalar blocks, one penalty for every coordinate.
    The point is the least-norm solution on the support; the classes are the
    closed forms of the fixed-point conditions. Supports near a class
    boundary are skipped, since the package and this code round differently
    there.
    """
    oracle, _ = cli.generate_least_squares(cfg.m, cfg.n, cfg.instance_seed, cfg.planted_density)
    A, b, lam, beta, tol = oracle.A, oracle.b, cfg.lam, cfg.ue_beta, CLASSIFY_TOL
    c = np.einsum("ij,ij->j", A, A)
    L_f = float(np.linalg.eigvalsh(A.T @ A)[-1])
    rng = np.random.default_rng(seed)
    errors = []
    for mask in rng.integers(0, len(catalog.entries), size=REFERENCE_SAMPLE):
        entry = catalog.entries[mask]
        idx = [j for j in range(cfg.n) if mask >> j & 1]
        z = np.zeros(cfg.n)
        if idx:
            z[idx] = np.linalg.lstsq(A[:, idx], b, rcond=1e-10)[0]
        if entry.bitmask != mask or not np.allclose(entry.point, z, rtol=1e-8, atol=1e-10):
            errors.append(f"support {mask:#x}: restricted minimizer differs from the reference")
            continue
        g = A.T @ (A @ z - b)
        nz = z != 0.0
        grad_norm = float(np.linalg.norm(g[nz]))
        flags = {"basic": grad_norm <= tol}
        near = [0.5 * tol < grad_norm < 2 * tol]
        for label, M in (("uq[M=Li]", c), ("uq[M=Lf]", np.full(cfg.n, L_f))):
            slack = np.where(
                nz,
                np.abs(z) - (np.sqrt(2 * lam / M) - tol),
                np.sqrt(2 * lam * M) + tol - np.abs(g),
            )
            flags[label] = flags["basic"] and bool(slack.min() >= 0)
            near.append(np.abs(slack).min() < REFERENCE_MARGIN)
        # exact model: keep x_j + h* iff delta_j > lambda, in the LS closed form
        delta = -z * g + 0.5 * z * z * (c + beta) + 0.5 * g * g / (c + beta)
        out = np.where(delta > lam, z - g / (c + beta), 0.0)
        drift = np.abs(out - z)
        flags["ue[beta=%g]" % beta] = flags["basic"] and bool(
            np.all((out == 0.0) == ~nz) and np.all(drift <= tol)
        )
        near.append(np.abs(delta - lam).min() < REFERENCE_MARGIN)
        near.append(np.any((0.5 * tol < drift) & (drift < 2 * tol)))
        if any(near):
            continue
        if flags != entry.flags:
            errors.append(f"support {mask:#x}: flags {entry.flags} differ from the reference {flags}")
    return errors


class Logistic(Workload):
    name = "multistart-logistic-50x40"
    command = "cmd_benchmark"
    reports = ("solver_runs_per_s", "max_iters_frac")

    def config(self, seed):
        return cli.ExperimentConfig(
            problem_kind="logistic",
            m=50,
            n=40,
            # One instance: its iteration counts differ by tens of percent
            # between instances, so the seed picks the starts only.
            instance_seed=0,
            nu=0.05,
            lam=0.01,
            solver_names=("uq", "ue", "ihta"),
            max_iters=4000,
            # Twelve starts, so that the mix of routes, and with it the cost
            # per step, varies little between seeds.
            trials=12,
            master_seed=seed,
        )

    def warmup_config(self, cfg):
        return dataclasses.replace(cfg, trials=1, max_iters=200)

    def check(self, cfg, p, out_dir, seed):
        errors = check_runs(p.runs)
        if len(p.runs) != len(cfg.solver_names) * cfg.trials:
            errors.append(f"expected {len(cfg.solver_names) * cfg.trials} runs, got {len(p.runs)}")
        for row in read_csv_rows(out_dir / "benchmark.csv")[1:]:
            best = min(r.trace.final_F for r in p.runs if r.solver == row[0])
            if float(row[1]) != best:
                errors.append(f"benchmark.csv F_best {row[1]} for {row[0]} != best run {best!r}")
        return errors


WORKLOADS = {w.name: w for w in (Tournament(), Solve(), Enumerate(), Logistic())}
