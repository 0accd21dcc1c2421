"""Run one l0rcd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it imports ``l0rcd`` from the
checkout's ``src`` and writes only under ``.perfbench/`` there. ``all`` runs
every workload in a process of its own. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
with ``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` list,
with ``--trace 1`` its ``per_layer`` list. The lines before it print every
metric that applies, by name and unit, the run record and the known-defect
probe. Exit code 0 means a result was printed; 2 means the checkout holds
no ``src/l0rcd`` or no ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
# Listed here too, so that parsing arguments needs neither numpy nor l0rcd.
WORKLOAD_NAMES = (
    "tournament-ls-6x12",
    "solve-ls-200x500",
    "enumerate-ls-n16",
    "multistart-logistic-50x40",
)
# One BLAS thread, which is <= nproc anywhere; set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_spec() -> dict | None:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None


def import_package() -> bool:
    """Import l0rcd from the checkout's src; False when it is not there."""
    src = ROOT / "src"
    if not (src / "l0rcd" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import l0rcd

    return Path(l0rcd.__file__).resolve().parent == (src / "l0rcd").resolve()


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_one(args, spec: dict) -> int:
    from measure import measure, probe_known_defects, run_record
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    print(f"# {run_record()}")
    print(
        f"# workload {workload.name} | seed {args.seed} | seconds {args.seconds:g} | "
        f"trace {args.trace} | closed loop, one client"
    )
    metrics, attempted, failed, errors = measure(
        workload, args.seed, args.seconds, bool(args.trace), OUT
    )
    for line in probe_known_defects():
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(result_line(not errors, attempted, failed, {k: metrics[k] for k in wanted}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, m in result["metrics"].items():
            metrics[f"{name}.{key}"] = (m["value"], m["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if spec is None:
        print(f"error: cannot read {ROOT / 'BENCHMARK.json'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not import_package():
        print(f"error: no l0rcd package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
