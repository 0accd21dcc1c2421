"""Per-layer metrics of one traced pass, from its spans and the returned traces.

A ratio whose base is zero on a workload (calls per coordinate iteration on
``enumerate``, calls per support on ``solve``) reads 0; the base is reported
next to it (``solvers.coord_iters``, ``analysis.supports``).
"""
from __future__ import annotations

import numpy as np

from tracer import CATALOG, ORACLE_METHODS, SUPPORT_GROUP

COORD_ROUTES = ("uq", "ue")
ROUTES = ("uq", "ue", "ihta")
LAYERS = ("cli", "solvers", "core", "approx", "objectives", "analysis")
SHIFTED = ("coord_grad_shifted", "coord_curvature_shifted", "value_shifted")


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def kernel_costs(kind: str, m: int, n: int, ni: int) -> dict[str, tuple[int, int]]:
    """Computed (flops, bytes) per call of the main oracle kernels.

    From the shapes only: 8-byte floats, every operand read once from memory
    and every result written once; exp and log1p count as one flop. Cache
    effects are not modelled, so these are floors, not measurements.
    """
    mv = 2 * m * ni
    if kind == "LeastSquaresObjective":
        return {
            "block_grad": (mv, 8 * (m * ni + m + ni)),
            "update_cache": (mv + m + ni, 8 * (m * ni + 2 * m + 3 * ni)),
            "value_from_cache": (2 * m, 8 * m),
            "full_grad": (4 * m * n + m, 8 * (2 * m * n + 2 * m + 2 * n)),
            "coord_grad_shifted": (2 * m + 2, 8 * 2 * m),
        }
    sigmoid = 4 * m  # exp, add, divide and the sign test per predictor
    return {
        "block_grad": (sigmoid + m + mv + 3 * ni, 8 * (m * ni + 3 * m + 2 * ni)),
        "update_cache": (mv + m + ni, 8 * (m * ni + 2 * m + 3 * ni)),
        "value_from_cache": (8 * m + 2 * ni, 8 * (2 * m + ni)),
        "full_grad": (4 * m * n + sigmoid + m + 3 * n, 8 * (2 * m * n + 3 * m + 3 * n)),
        "coord_grad_shifted": (2 * m + sigmoid + 3 * m + 4, 8 * 4 * m),
    }


def route_outcomes(runs: list) -> dict[str, dict[str, int]]:
    """Per-route counts from the returned traces; they repeat exactly between runs."""
    out = {}
    for route in ROUTES:
        traces = [r.trace for r in runs if r.solver == route]
        stops = [t.metadata["stop"] for t in traces]
        out[route] = {
            "runs": len(traces),
            "converged": stops.count("converged"),
            "max_iters": stops.count("max_iters"),
            "iterations": sum(t.iterations for t in traces),
            "kappa": sum(t.kappa for t in traces),
            "useful_steps": sum(int(np.count_nonzero(t.step_norms)) for t in traces),
        }
    return out


class Spans:
    """Lookups over the spans of one phase."""

    def __init__(self, spans: dict, names: list[str], start: int, stop: int | None = None) -> None:
        sl = slice(start, stop)
        self.ids = {n: i for i, n in enumerate(names)}
        self.name = spans["name"][sl]
        self.parent_name = np.where(
            spans["parent"][sl] >= 0, spans["name"][np.maximum(spans["parent"][sl], 0)], -1
        )
        self.group = spans["group"][sl]
        self.dur = spans["t1"][sl] - spans["t0"][sl]
        self.self_time = spans["self"][sl]
        self.layer = np.array([n.split(".")[0] for n in names] or [""])[self.name]

    def of(self, name: str, where=None) -> np.ndarray:
        m = self.name == self.ids.get(name, -1)
        return m if where is None else m & where

    def under(self, parent: str) -> np.ndarray:
        return self.parent_name == self.ids.get(parent, -1)

    def groups_with(self, name: str) -> np.ndarray:
        """Spans whose group also holds a span of ``name``."""
        groups = np.unique(self.group[self.of(name)])
        return np.isin(self.group, groups[groups > 0])

    def calls(self, name: str, where=None) -> int:
        return int(np.count_nonzero(self.of(name, where)))

    def total(self, name: str, where=None) -> float:
        return float(self.dur[self.of(name, where)].sum())

    def own(self, name: str, where=None) -> float:
        return float(self.self_time[self.of(name, where)].sum())

    def us_per_call(self, name: str, where=None) -> float:
        return 1e6 * ratio(self.total(name, where), self.calls(name, where))

    def self_us_per_call(self, name: str, where=None) -> float:
        return 1e6 * ratio(self.own(name, where), self.calls(name, where))


def layer_metrics(
    spans: dict,
    names: list[str],
    pass_start: int,
    runs: list,
    problem,
    traced_wall: float,
    untraced_wall: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit)."""
    setup = Spans(spans, names, 0, pass_start)
    s = Spans(spans, names, pass_start)
    out: dict[str, tuple[float, str]] = {}

    coord = s.groups_with("solvers.run_rcd_iht")
    routes = route_outcomes(runs)
    coord_iters = sum(routes[r]["iterations"] for r in COORD_ROUTES)
    ihta_iters = routes["ihta"]["iterations"]
    supports = s.calls(SUPPORT_GROUP, s.under(CATALOG))
    in_catalog = s.groups_with(SUPPORT_GROUP)
    coord_time = s.total("solvers.run_rcd_iht")

    out["solvers.runs"] = (len(runs), "count")
    out["solvers.coord_iters"] = (coord_iters, "count")
    out["solvers.ihta_iters"] = (ihta_iters, "count")
    out["analysis.supports"] = (supports, "count")

    # core
    out["core.l0_norm.calls"] = (s.calls("core.l0_norm"), "count")
    out["core.l0_norm.calls_per_iter"] = (ratio(s.calls("core.l0_norm", coord), coord_iters), "calls/iter")
    out["core.l0_norm.us_per_call"] = (s.us_per_call("core.l0_norm"), "us")
    out["core.l0_norm.share"] = (ratio(s.total("core.l0_norm"), traced_wall), "fraction")
    out["core.support_of.calls"] = (s.calls("core.support_of"), "count")
    out["core.support_of.us_per_call"] = (s.us_per_call("core.support_of"), "us")
    out["core.IterateState.objective.calls_per_iter"] = (
        ratio(s.calls("core.IterateState.objective", coord), coord_iters),
        "calls/iter",
    )

    # solvers: spans
    out["solvers.run_rcd_iht.self_us_per_iter"] = (1e6 * ratio(s.own("solvers.run_rcd_iht"), coord_iters), "us")
    out["solvers.rcd_iht_step.calls"] = (s.calls("solvers.rcd_iht_step"), "count")
    out["solvers.rcd_iht_step.self_us_per_call"] = (s.self_us_per_call("solvers.rcd_iht_step"), "us")
    out["solvers.support_bitmask.calls"] = (s.calls("solvers.support_bitmask"), "count")
    out["solvers.support_bitmask.us_per_call"] = (s.us_per_call("solvers.support_bitmask"), "us")
    out["solvers.run_ihta.self_us_per_iter"] = (1e6 * ratio(s.own("solvers.run_ihta"), ihta_iters), "us")
    out["solvers.delta_lower_bound.us_per_call"] = (s.us_per_call("solvers.delta_lower_bound"), "us")

    # solvers: outcomes from the returned traces
    total = {k: sum(r[k] for r in routes.values()) for k in routes["uq"]}
    out["solvers.iters_per_run"] = (ratio(total["iterations"], total["runs"]), "iter/run")
    out["solvers.kappa_per_run"] = (ratio(total["kappa"], total["runs"]), "changes/run")
    for route, counts in routes.items():
        out[f"solvers.stop_max_iters.{route}"] = (counts["max_iters"], "count")
        out[f"solvers.stop_converged.{route}"] = (counts["converged"], "count")
    out["solvers.useful_step_frac"] = (ratio(total["useful_steps"], total["iterations"]), "fraction")

    # objectives
    kind = type(problem.smooth).__name__
    for meth in ORACLE_METHODS:
        name = f"objectives.{kind}.{meth}"
        out[f"objectives.{meth}.calls"] = (s.calls(name), "count")
        out[f"objectives.{meth}.us_per_call"] = (s.us_per_call(name), "us")
    ni = max(problem.partition.block_sizes)
    m = problem.smooth.A.shape[0] if kind == "LeastSquaresObjective" else problem.smooth.m
    costs = kernel_costs(kind, m, problem.n, ni)
    for meth, (flops, nbytes) in costs.items():
        out[f"objectives.{meth}.flops_per_call"] = (flops, "flop")
        out[f"objectives.{meth}.bytes_per_call"] = (nbytes, "B")
    flops = sum(c[0] * s.calls(f"objectives.{kind}.{k}", coord) for k, c in costs.items())
    nbytes = sum(c[1] * s.calls(f"objectives.{kind}.{k}", coord) for k, c in costs.items())
    out["objectives.flops_per_coord_iter"] = (ratio(flops, coord_iters), "flop/iter")
    out["objectives.bytes_per_coord_iter"] = (ratio(nbytes, coord_iters), "B/iter")
    oracle_self = sum(s.own(f"objectives.{kind}.{k}", coord) for k in ORACLE_METHODS)
    out["objectives.time_share"] = (ratio(oracle_self, coord_time), "fraction")

    # approx
    out["approx.apply_threshold.self_us_per_call"] = (s.self_us_per_call("approx.apply_threshold"), "us")
    out["approx.threshold_q.us_per_call"] = (s.us_per_call("approx.threshold_q"), "us")
    out["approx.threshold_e.self_us_per_call"] = (s.self_us_per_call("approx.threshold_e"), "us")
    out["approx.exact_inner_min.calls"] = (s.calls("approx.exact_inner_min"), "count")
    out["approx.exact_inner_min.us_per_call"] = (s.us_per_call("approx.exact_inner_min"), "us")
    under_inner = s.under("approx.exact_inner_min")
    shifted = sum(s.calls(f"objectives.{kind}.{k}", under_inner) for k in SHIFTED)
    out["approx.newton_oracle_calls_per_step"] = (
        ratio(shifted, s.calls("approx.exact_inner_min")),
        "calls/step",
    )

    # analysis
    out["analysis.restricted_minimize.us_per_call"] = (s.us_per_call("analysis.restricted_minimize"), "us")
    out["analysis.full_grad_per_support"] = (
        ratio(s.calls(f"objectives.{kind}.full_grad", in_catalog), supports),
        "calls/support",
    )
    out["analysis.is_basic_local_min.calls_per_support"] = (
        ratio(s.calls("analysis.is_basic_local_min", in_catalog), supports),
        "calls/support",
    )
    out["analysis.is_uq_strong.us_per_call"] = (s.us_per_call("analysis.is_uq_strong"), "us")
    out["analysis.is_ue_strong.us_per_call"] = (s.us_per_call("analysis.is_ue_strong"), "us")
    out["analysis.enumerate_catalog.self_us_per_support"] = (
        1e6 * ratio(s.own(CATALOG), supports),
        "us",
    )
    out["analysis.verify_inclusions.s"] = (s.total("analysis.verify_inclusions"), "s")

    # cli
    out["cli.build_problem.s"] = (setup.total("cli.build_problem"), "s")
    cmd = [n for n in s.ids if n.startswith("cli.cmd_")]
    out["cli.orchestration.self_s"] = (sum(s.own(n) for n in cmd), "s")
    out["cli.write_csv.s"] = (s.total("cli.OutputWriter.write_csv"), "s")

    # whole pass
    for layer in LAYERS:
        share = ratio(float(s.self_time[s.layer == layer].sum()), traced_wall)
        out[f"{layer}.self_share"] = (share, "fraction")
    out["trace.spans"] = (len(s.name), "count")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out
