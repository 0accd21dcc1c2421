"""Command-line experiment harness.

Subcommands: solve, enumerate, tournament, benchmark, gradcheck. Instances
come from CSV files or seeded generators described in an INI config file
(see config.schema.ini at the repository root). Every emitted CSV embeds the
config hash and the RNG algorithm identifier; rerunning a subcommand with
the same config and --no-timestamp produces byte-identical outputs.

Exit codes: 0 success, 1 check failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import sys
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analysis import (
    build_example_instance,
    enumerate_catalog,
    example_class_requests,
    verify_inclusions,
)
from .approx import (
    ApproxSpec,
    M_EQ_LIPSCHITZ_FACTOR,
    TIE_RULE,
    exact_uniform,
    separable_from_factor,
)
# l0_norm stays importable from this module.
from .core import BlockPartition, L0Problem, l0_norm  # noqa: F401
from .objectives import (
    LeastSquaresObjective,
    LogisticL2Objective,
    finite_difference_error,
    load_labels_csv,
    load_matrix_csv,
    load_vector_csv,
)
from .solvers import (
    RNG_ALGORITHM,
    SolverConfig,
    make_rng,
    run_ihta,
    run_rcd_iht,
    trace_rows,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_DEFAULT_PLANT_DENSITY = 0.2
_DEFAULT_START_DENSITY = 0.5
_DEFAULT_VALUE_RANGE = 1.0
_SUCCESS_RTOL = 1e-6


class ConfigError(Exception):
    """Invalid or missing configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# instance and start generation


def seeded_rng(*entropy: int) -> np.random.Generator:
    """Philox generator keyed by an entropy tuple (master seed, indices...)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _planted_draw(m: int, n: int, seed: int, planted_density: float):
    """(rng, matrix, planted point) from ``seeded_rng(seed)``, in a fixed draw
    order: the matrix iid U[-1,1], then the planted support, then its values."""
    rng = seeded_rng(seed)
    matrix = rng.uniform(-1.0, 1.0, size=(m, n))
    mask = rng.random(n) < planted_density
    vals = rng.uniform(-1.0, 1.0, size=n)
    return rng, matrix, np.where(mask, vals, 0.0)


def generate_least_squares(
    m: int, n: int, seed: int, planted_density: float = _DEFAULT_PLANT_DENSITY
) -> tuple[LeastSquaresObjective, np.ndarray]:
    """Random LS instance, b = A @ planted point; returns the objective and that point."""
    _, A, x_plant = _planted_draw(m, n, seed, planted_density)
    return LeastSquaresObjective(A, A @ x_plant), x_plant


def generate_logistic(
    m: int, n: int, seed: int, nu: float, planted_density: float = _DEFAULT_PLANT_DENSITY
) -> tuple[LogisticL2Objective, np.ndarray]:
    """Random logistic instance, labels drawn from the model at a planted point;
    returns the objective and that point."""
    rng, data, x_plant = _planted_draw(m, n, seed, planted_density)
    t = data @ x_plant
    prob = 1.0 / (1.0 + np.exp(-t))
    y = (rng.random(m) < prob).astype(float)
    return LogisticL2Objective(data, y, nu), x_plant


def random_start(
    n: int,
    rng: np.random.Generator,
    density: float = _DEFAULT_START_DENSITY,
    value_range: float = _DEFAULT_VALUE_RANGE,
) -> np.ndarray:
    """Random-support start: per-coordinate keep probability ``density``,
    kept values uniform on [-value_range, value_range]."""
    mask = rng.random(n) < density
    vals = rng.uniform(-value_range, value_range, size=n)
    return np.where(mask, vals, 0.0)


def _random_starts(cfg: ExperimentConfig, problem: L0Problem, count: int) -> list[np.ndarray]:
    """Random starts t = 0 .. count-1, each from ``seeded_rng(master_seed, t)``.

    A start at which f is not finite is a ConfigError."""
    starts = []
    for t in range(count):
        rng = seeded_rng(cfg.master_seed, t)
        x0 = random_start(problem.n, rng, cfg.start_density, cfg.value_range)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                problem.smooth.eval(x0)
        except ValueError as exc:
            raise ConfigError(
                f"[starts] value_range = {cfg.value_range} is too large for this instance: "
                f"at random start {t}, {exc}"
            ) from exc
        starts.append(x0)
    return starts


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    """Parsed experiment settings; ``CONFIG_KEYS`` gives each field's config key."""

    problem_kind: str = "least_squares"
    m: int = 0
    n: int = 0
    instance_seed: int = 0
    nu: float = 0.5
    planted_density: float = _DEFAULT_PLANT_DENSITY
    matrix_csv: str | None = None
    rhs_csv: str | None = None
    labels_csv: str | None = None
    lam: float = 1.0
    block_sizes: tuple[int, ...] | None = None

    solver_names: tuple[str, ...] = ("uq",)
    uq_factor: float = M_EQ_LIPSCHITZ_FACTOR
    ue_beta: float = 1e-4
    ihta_factor: float = M_EQ_LIPSCHITZ_FACTOR
    max_iters: int = 0  # 0 means "choose from the dimension"

    trials: int = 1
    start_density: float = _DEFAULT_START_DENSITY
    value_range: float = _DEFAULT_VALUE_RANGE
    master_seed: int = 0

    sweep: tuple[float, ...] = ()

    solve_solver: str = "uq"
    solve_start: str = "zeros"

    config_hash: str = "builtin"


def _list_of(cast):
    """Parser of a comma-separated list; an empty value gives the empty tuple."""
    return lambda text: tuple(cast(s) for s in text.split(",")) if text else ()


def _finite_float(text: str) -> float:
    """float() that also rejects inf and nan, so the error names the config key."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _solver_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


_AT_LEAST_0 = (">= 0", lambda v: v >= 0)
_IN_UNIT = ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_ABOVE_1 = ("> 1", lambda v: v > 1.0)

# Every config key: (section, key, ExperimentConfig field, parser, range rule or None).
# A rule is (text, predicate). Every key present is cast, then every rule is checked,
# both in this order, so of two bad values the first listed is reported.
CONFIG_KEYS = (
    ("problem", "kind", "problem_kind", str, None),
    ("problem", "m", "m", int, None),
    ("problem", "n", "n", int, None),
    ("problem", "seed", "instance_seed", int, _AT_LEAST_0),
    ("problem", "nu", "nu", _finite_float, None),
    ("problem", "planted_density", "planted_density", _finite_float, _IN_UNIT),
    ("problem", "matrix_csv", "matrix_csv", str, None),
    ("problem", "rhs_csv", "rhs_csv", str, None),
    ("problem", "labels_csv", "labels_csv", str, None),
    ("problem", "lambda", "lam", _finite_float, None),
    ("problem", "block_sizes", "block_sizes", _list_of(int), None),
    ("solvers", "list", "solver_names", _solver_list, ("nonempty", bool)),
    ("solvers", "uq_factor", "uq_factor", _finite_float, _ABOVE_1),
    ("solvers", "ue_beta", "ue_beta", _finite_float, ("> 0", lambda v: v > 0.0)),
    ("solvers", "ihta_factor", "ihta_factor", _finite_float, _ABOVE_1),
    ("solvers", "max_iters", "max_iters", int, (">= 0 (0 means auto)", lambda v: v >= 0)),
    ("starts", "trials", "trials", int, (">= 1", lambda v: v >= 1)),
    ("starts", "density", "start_density", _finite_float, _IN_UNIT),
    ("starts", "value_range", "value_range", _finite_float,
     (">= 0 with 2 * value_range finite", lambda v: 0.0 <= 2.0 * v < np.inf)),
    ("starts", "seed", "master_seed", int, _AT_LEAST_0),
    ("sweep", "lambdas", "sweep", _list_of(_finite_float), None),
    ("solve", "solver", "solve_solver", str, None),
    ("solve", "start", "solve_start", str, None),
)


def _parse_config_file(path: str) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = p.read_bytes()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(raw.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        # configparser messages span lines; keep the error on one line
        raise ConfigError(f"cannot parse config {path}: {' '.join(str(exc).split())}") from exc

    # configparser strips every value, so a text key needs no strip of its own
    cfg = ExperimentConfig(config_hash=hashlib.sha256(raw).hexdigest()[:16])
    for section, key, name, parse, _ in CONFIG_KEYS:
        if parser.has_option(section, key):
            try:
                setattr(cfg, name, parse(parser.get(section, key)))
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    for section, key, name, _, rule in CONFIG_KEYS:
        if rule and not rule[1](value := getattr(cfg, name)):
            raise ConfigError(f"[{section}] {key} must be {rule[0]}, got {value}")
    return cfg


def _load_csv(loader, path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # reported below as a one-line error
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = loader(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load {path}: {exc}") from exc
    if values.size == 0:
        raise ConfigError(f"{path} holds no data")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{path} holds a non-finite entry")
    return values


def _construct(make, *args, **kwargs):
    """Call a constructor that validates its input; ValueError becomes ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid problem configuration: {exc}") from exc


def build_problem(cfg: ExperimentConfig, lam: float | None = None) -> L0Problem:
    """Instantiate the configured problem, optionally overriding the penalty."""
    lam_val = cfg.lam if lam is None else lam
    kind = cfg.problem_kind
    if kind in ("least_squares", "ls"):
        if cfg.matrix_csv:
            if not cfg.rhs_csv:
                raise ConfigError("least squares from CSV needs rhs_csv")
            A = _load_csv(load_matrix_csv, cfg.matrix_csv)
            b = _load_csv(load_vector_csv, cfg.rhs_csv)
            oracle = _construct(LeastSquaresObjective, A, b)
        else:
            if cfg.m < 1 or cfg.n < 1:
                raise ConfigError("generated least squares needs positive m and n")
            oracle, _ = generate_least_squares(
                cfg.m, cfg.n, cfg.instance_seed, cfg.planted_density
            )
        global_L = _construct(oracle.spectral_lipschitz)
    elif kind == "logistic":
        if cfg.matrix_csv:
            if not cfg.labels_csv:
                raise ConfigError("logistic from CSV needs labels_csv")
            data = _load_csv(load_matrix_csv, cfg.matrix_csv)
            y = _load_csv(load_labels_csv, cfg.labels_csv)
            oracle = _construct(LogisticL2Objective, data, y, cfg.nu)
        else:
            if cfg.m < 1 or cfg.n < 1:
                raise ConfigError("generated logistic needs positive m and n")
            oracle, _ = _construct(
                generate_logistic, cfg.m, cfg.n, cfg.instance_seed, cfg.nu, cfg.planted_density
            )
        global_L = 0.0  # defaults to the sum of block constants
    else:
        raise ConfigError(f"unknown problem kind {kind!r}")

    n = oracle.dim
    if cfg.block_sizes:
        if sum(cfg.block_sizes) != n:
            raise ConfigError(f"block_sizes sum to {sum(cfg.block_sizes)}, need {n}")
        sizes = cfg.block_sizes
    else:
        sizes = (1,) * n
    lipschitz = oracle.block_lipschitz(sizes)
    partition = _construct(
        BlockPartition,
        block_sizes=sizes,
        lam=(float(lam_val),) * len(sizes),
        lipschitz=tuple(float(v) for v in lipschitz),
        global_lipschitz=float(global_L),
    )
    return L0Problem(smooth=oracle, partition=partition)


def solver_spec(name: str, cfg: ExperimentConfig, problem: L0Problem) -> ApproxSpec | None:
    """ApproxSpec for a named coordinate solver; None marks the full-gradient one."""
    partition = problem.partition
    if name == "uq":
        spec = _construct(separable_from_factor, partition, cfg.uq_factor)
    elif name == "ue":
        spec = _construct(exact_uniform, partition, cfg.ue_beta)
    elif name == "ihta":
        if not np.isfinite(partition.global_lipschitz * cfg.ihta_factor):
            raise ConfigError(f"[solvers] ihta_factor = {cfg.ihta_factor} makes M_f overflow")
        return None
    else:
        raise ConfigError(f"unknown solver name {name!r} (expected uq, ue, or ihta)")
    _construct(spec.validate_for_solver, partition)
    return spec


def run_named_solver(
    name: str,
    problem: L0Problem,
    x0: np.ndarray,
    cfg: ExperimentConfig,
    seed_entropy: tuple[int, ...],
):
    """Run one configured solver from x0; returns (state, trace).

    ``max_iters`` = 0 picks 2000 for ``ihta`` and 400 n for a coordinate route."""
    spec = solver_spec(name, cfg, problem)
    if spec is None:
        M_f = problem.partition.global_lipschitz * cfg.ihta_factor
        return run_ihta(problem, x0, M_f, max_iters=cfg.max_iters if cfg.max_iters > 0 else 2000)
    seed = int(np.random.SeedSequence(seed_entropy).generate_state(1)[0])
    max_iters = cfg.max_iters if cfg.max_iters > 0 else 400 * problem.n
    return run_rcd_iht(problem, x0, SolverConfig(approx=spec, max_iters=max_iters, seed=seed))


# ---------------------------------------------------------------------------
# output helpers


class OutputWriter:
    """CSV emission with embedded metadata lines and aligned stdout tables."""

    def __init__(self, out_dir: str, config_hash: str, no_timestamp: bool) -> None:
        self.out_dir = Path(out_dir)
        self.config_hash = config_hash
        self.no_timestamp = no_timestamp
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc

    def meta_lines(self) -> list[list[str]]:
        lines = [
            ["#config_hash", self.config_hash],
            ["#rng", RNG_ALGORITHM],
            ["#tie_rule", TIE_RULE],
        ]
        if not self.no_timestamp:
            lines.append(["#timestamp", datetime.now(timezone.utc).isoformat()])
        return lines

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        path = self.out_dir / name
        try:
            fh = open(path, "w", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
        with fh:
            writer = csv.writer(fh)
            for line in self.meta_lines():
                writer.writerow(line)
            writer.writerow(header)
            for row in rows:
                writer.writerow(row)
        return path


def print_table(header: list[str], rows: list[list[str]]) -> None:
    cols = [header] + rows
    widths = [max(len(str(r[c])) for r in cols) for c in range(len(header))]
    for r in cols:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


def _fmt(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(cfg: ExperimentConfig, writer: OutputWriter) -> int:
    problem = build_problem(cfg)
    if cfg.solve_start == "zeros":
        x0 = np.zeros(problem.n)
    elif cfg.solve_start == "random":
        x0 = _random_starts(cfg, problem, 1)[0]
    else:
        raise ConfigError(f"unknown start kind {cfg.solve_start!r}")

    state, trace = run_named_solver(cfg.solve_solver, problem, x0, cfg, (cfg.master_seed, 0, 0))
    F = trace.final_F
    sparsity = int(np.count_nonzero(state.x))

    writer.write_csv(
        "solution.csv",
        ["index", "value"],
        ([j, _fmt(v)] for j, v in enumerate(state.x)),
    )
    writer.write_csv(
        "trace.csv",
        ["k", "i_k", "F", "step_norm", "support_changed"],
        ([k, i, _fmt(Fv), _fmt(s), c] for k, i, Fv, s, c in trace_rows(trace)),
    )
    print_table(
        ["solver", "F", "nonzeros", "iterations", "stop"],
        [[cfg.solve_solver, f"{F:.10g}", str(sparsity), str(trace.iterations), trace.metadata["stop"]]],
    )
    return EXIT_OK


def _enumerate_requests(problem: L0Problem, cfg: ExperimentConfig) -> dict[str, ApproxSpec]:
    partition = problem.partition
    N = partition.num_blocks
    reqs: dict[str, ApproxSpec] = {}
    if all(s == 1 for s in partition.block_sizes):
        reqs["ue[beta=%g]" % cfg.ue_beta] = ApproxSpec("ue", np.full(N, cfg.ue_beta))
    reqs["uq[M=Li]"] = ApproxSpec("uq", partition.lipschitz)
    reqs["uq[M=Lf]"] = ApproxSpec("uq", np.full(N, partition.global_lipschitz))
    return reqs


def cmd_enumerate(cfg: ExperimentConfig, writer: OutputWriter, example2: bool) -> int:
    if example2:
        problem = build_example_instance()
        requests = example_class_requests(problem)
    else:
        problem = build_problem(cfg)
        requests = _enumerate_requests(problem, cfg)
    catalog = _enumerate(problem, requests)
    violations = verify_inclusions(catalog)
    counts = catalog.counts()

    flag_cols = list(catalog.class_labels)
    # csv writes a float as str(), which is _fmt's repr; flags go out as 0/1
    columns = [catalog.bitmasks, catalog.F] + [catalog.flags[c].view(np.uint8) for c in flag_cols]
    step = 1 << 16  # rows turned into Python values at a time, to bound the memory
    writer.write_csv(
        "catalog.csv",
        ["support_bitmask", "F"] + flag_cols,
        (
            row
            for lo in range(0, len(catalog.F), step)
            for row in zip(*(column[lo : lo + step].tolist() for column in columns))
        ),
    )
    writer.write_csv(
        "counts.csv",
        ["class", "count"],
        ([label, counts[label]] for label in catalog.class_labels),
    )

    order = list(reversed(catalog.class_labels))  # largest class first for display
    print_table(
        ["Class of local minima"] + order,
        [["Number of local minima"] + [str(counts[c]) for c in order]],
    )
    gm = catalog.global_min
    print(
        f"global minimum: F = {gm.F_value:.10g} at support bitmask {gm.bitmask:#x} "
        f"({sorted(gm.support)})"
    )
    print(
        "conventions: "
        + ", ".join(f"{k}={v}" for k, v in sorted(catalog.conventions.items()))
    )
    if violations:
        print("inclusion violations:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _enumerate(problem: L0Problem, requests: dict[str, ApproxSpec]):
    """``enumerate_catalog``; n above its limit or a singular restricted Newton
    system (logistic with a tiny ridge weight) becomes a ConfigError."""
    try:
        return enumerate_catalog(problem, requests)
    except np.linalg.LinAlgError as exc:  # a ValueError, so caught first
        raise ConfigError(f"enumeration failed: {exc}; increase [problem] nu") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_tournament(cfg: ExperimentConfig, writer: OutputWriter) -> int:
    if not cfg.sweep:
        raise ConfigError("tournament needs [sweep] lambdas")
    base_problem = build_problem(cfg, lam=1.0)
    problems = [build_problem(cfg, lam=lam) for lam in cfg.sweep]  # a bad lambda fails here
    for name in cfg.solver_names:  # a route that cannot run fails before any work
        solver_spec(name, cfg, base_problem)  # a model does not depend on lambda
    # F* = min f + lambda * nnz: a point's nonzeros, which can be fewer than its support
    catalog = _enumerate(base_problem, {})
    nnz = np.count_nonzero(catalog.points, axis=1)
    starts = _random_starts(cfg, base_problem, cfg.trials)

    rows = []
    for li, (lam, problem) in enumerate(zip(cfg.sweep, problems)):
        F_star = float(np.min(catalog.f + lam * nnz))
        successes = []
        for si, name in enumerate(cfg.solver_names):
            count = 0
            for t, x0 in enumerate(starts):
                _, trace = run_named_solver(
                    name, problem, x0, cfg, (cfg.master_seed, li, si, t)
                )
                if abs(trace.final_F - F_star) <= _SUCCESS_RTOL * (1.0 + abs(F_star)):
                    count += 1
            successes.append(count)
        rows.append([lam, F_star] + successes)

    writer.write_csv(
        "tournament.csv",
        ["lambda", "F_star"] + [f"success_{s}" for s in cfg.solver_names],
        ([_fmt(r[0]), _fmt(r[1])] + r[2:] for r in rows),
    )
    print_table(
        ["lambda", "F_star"] + list(cfg.solver_names),
        [[f"{r[0]:g}", f"{r[1]:.6g}"] + [str(c) for c in r[2:]] for r in rows],
    )
    print(f"trials per cell: {cfg.trials}")
    return EXIT_OK


def cmd_benchmark(cfg: ExperimentConfig, writer: OutputWriter) -> int:
    problem = build_problem(cfg)
    for name in cfg.solver_names:  # a route that cannot run fails before any work
        solver_spec(name, cfg, problem)
    starts = _random_starts(cfg, problem, cfg.trials)
    rows = []
    for si, name in enumerate(cfg.solver_names):
        best = None
        for t, x0 in enumerate(starts):
            state, trace = run_named_solver(name, problem, x0, cfg, (cfg.master_seed, 0, si, t))
            nnz = int(np.count_nonzero(state.x))
            iters = trace.iterations
            cand = (trace.final_F, nnz, iters)
            if best is None or cand[0] < best[0]:
                best = cand
        F_best, nnz, iters = best
        full_iters = iters / problem.partition.num_blocks if name != "ihta" else float(iters)
        rows.append([name, F_best, nnz, iters, full_iters])

    writer.write_csv(
        "benchmark.csv",
        ["solver", "F_best", "nonzeros", "iterations", "full_iterations"],
        ([r[0], _fmt(r[1]), r[2], r[3], _fmt(r[4])] for r in rows),
    )
    print_table(
        ["solver", "F_best", "nonzeros", "iterations", "full_iterations"],
        [[r[0], f"{r[1]:.10g}", str(r[2]), str(r[3]), f"{r[4]:.6g}"] for r in rows],
    )
    return EXIT_OK


def cmd_gradcheck(cfg: ExperimentConfig, writer: OutputWriter) -> int:
    problem = build_problem(cfg)
    oracle = problem.smooth
    n = problem.n
    rng = seeded_rng(cfg.master_seed, 97)

    worst_fd = 0.0
    worst_fd_coord = -1
    for t in range(5):
        x = rng.uniform(-1.0, 1.0, size=n)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                err, j = finite_difference_error(oracle, x, h=1e-6)
        except ValueError as exc:
            raise ConfigError(
                f"f overflows on this instance: at gradcheck point {t} in [-1, 1]^{n}, {exc}"
            ) from exc
        if err > worst_fd:
            worst_fd, worst_fd_coord = err, j

    # cache coherence over 1000 random single-block updates
    partition = problem.partition
    x = rng.uniform(-1.0, 1.0, size=n)
    cache = oracle.make_cache(x)
    for _ in range(1000):
        i = int(partition.num_blocks * rng.random())
        sl = partition.block_slice(i)
        new = rng.uniform(-1.0, 1.0, size=sl.stop - sl.start)
        oracle.update_cache(cache, sl, new - x[sl])
        x[sl] = new
    fresh = oracle.make_cache(x)
    denom = 1.0 + float(np.linalg.norm(fresh))
    cache_err = float(np.linalg.norm(cache - fresh)) / denom

    fd_pass = worst_fd <= 1e-5
    cache_pass = cache_err <= 1e-8
    writer.write_csv(
        "gradcheck.csv",
        ["check", "worst_error", "threshold", "passed"],
        [
            ["finite_difference", _fmt(worst_fd), _fmt(1e-5), int(fd_pass)],
            ["cache_coherence", _fmt(cache_err), _fmt(1e-8), int(cache_pass)],
        ],
    )
    print_table(
        ["check", "worst error", "threshold", "status"],
        [
            ["finite_difference", f"{worst_fd:.3e}", "1e-05", "pass" if fd_pass else "FAIL"],
            ["cache_coherence", f"{cache_err:.3e}", "1e-08", "pass" if cache_pass else "FAIL"],
        ],
    )
    if not fd_pass:
        print(
            f"worst finite-difference offender: coordinate {worst_fd_coord} "
            f"(relative error {worst_fd:.3e})",
            file=sys.stderr,
        )
    return EXIT_OK if fd_pass and cache_pass else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# entry point


# (name, help, run(cfg, writer, args)): one row per subcommand, read by the
# parser; the parsed arguments carry the row's ``run``.
_SUBCOMMANDS = (
    ("solve", "run one solver on one instance", lambda cfg, w, a: cmd_solve(cfg, w)),
    ("enumerate", "enumerate supports and classify local minimizers",
     lambda cfg, w, a: cmd_enumerate(cfg, w, a.example2)),
    ("tournament", "λ sweep x solvers x random starts, success counts vs the certified optimum",
     lambda cfg, w, a: cmd_tournament(cfg, w)),
    ("benchmark", "run all configured solvers, report best F / sparsity / iterations",
     lambda cfg, w, a: cmd_benchmark(cfg, w)),
    ("gradcheck", "finite-difference and cache-coherence verification",
     lambda cfg, w, a: cmd_gradcheck(cfg, w)),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l0rcd",
        description=(
            "Coordinate descent with hard thresholding for l0-regularized "
            "problems, plus a brute-force local-minima enumerator."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, run in _SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(run=run, example2=False)
        sp.add_argument("--config", help="path to INI config (see config.schema.ini)")
        sp.add_argument("--seed", type=int, help="override the master experiment seed")
        sp.add_argument("--out", default="out", help="output directory (default: ./out)")
        sp.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the timestamp metadata line for byte-identical reruns",
        )
        if name == "enumerate":
            sp.add_argument(
                "--example2",
                action="store_true",
                help="use the built-in 4x7 polynomial least squares instance",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = _parse_config_file(args.config)
        elif args.example2:
            cfg = ExperimentConfig(config_hash="builtin-example2")
        else:
            raise ConfigError("--config is required for this command")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            cfg.master_seed = args.seed
        return args.run(cfg, OutputWriter(args.out, cfg.config_hash, args.no_timestamp), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
