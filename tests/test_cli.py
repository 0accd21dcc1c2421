import csv
import hashlib
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import l0rcd
from l0rcd import cli
from l0rcd.cli import (
    ConfigError,
    ExperimentConfig,
    _random_starts,
    build_problem,
    main,
    run_named_solver,
    solver_spec,
)


def write_config(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_child(command, cfg, out):
    """``python -m l0rcd command --config cfg --out out`` in a child process.

    numpy's warnings reach stderr only outside pytest's warning capture.
    """
    env = dict(os.environ)
    src = str(Path(l0rcd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "l0rcd", command, "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def write_toy_csvs(tmp_path):
    A = tmp_path / "A.csv"
    b = tmp_path / "b.csv"
    np.savetxt(A, np.eye(2), delimiter=",")
    np.savetxt(b, np.array([2.0, 0.5]), delimiter=",")
    return str(A), str(b)


def toy_config(tmp_path, lam=0.5, solver="uq", start="zeros"):
    A, b = write_toy_csvs(tmp_path)
    return write_config(
        tmp_path,
        f"""[problem]
kind = least_squares
matrix_csv = {A}
rhs_csv = {b}
lambda = {lam}

[solve]
solver = {solver}
start = {start}
""",
    )


def read_csv(path):
    """Returns (meta dict, header list, data rows)."""
    meta, header, rows = {}, None, []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row and row[0].startswith("#"):
                meta[row[0]] = row[1] if len(row) > 1 else ""
            elif header is None:
                header = row
            else:
                rows.append(row)
    return meta, header, rows


class TestSolve:
    def test_toy_instance(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        meta, header, rows = read_csv(out / "solution.csv")
        assert header == ["index", "value"]
        values = [float(r[1]) for r in rows]
        np.testing.assert_allclose(values, [2.0, 0.0])
        assert "0.625" in capsys.readouterr().out
        _, theader, trows = read_csv(out / "trace.csv")
        assert theader == ["k", "i_k", "F", "step_norm", "support_changed"]
        assert len(trows) >= 1

    def test_metadata_lines(self, tmp_path):
        cfg = toy_config(tmp_path)
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out)])
        meta, _, _ = read_csv(out / "solution.csv")
        assert len(meta["#config_hash"]) == 16
        assert meta["#rng"] == "philox4x64"
        assert meta["#tie_rule"] == "zero"
        assert "#timestamp" in meta

    def test_one_timestamp_per_run(self, tmp_path, monkeypatch):
        """Each CSV of one run carries the run's one #timestamp line, taken
        once, even where the clock moves between the files."""
        ticks = iter(range(60))

        class Clock:
            @staticmethod
            def now(tz):
                return datetime(2026, 1, 1, 0, 0, next(ticks), tzinfo=tz)

        monkeypatch.setattr(cli, "datetime", Clock)
        out = tmp_path / "out"
        assert main(["solve", "--config", toy_config(tmp_path), "--out", str(out)]) == 0
        stamps = [read_csv(out / name)[0]["#timestamp"] for name in ("solution.csv", "trace.csv")]
        assert stamps == ["2026-01-01T00:00:00+00:00"] * 2

    def test_no_timestamp_flag(self, tmp_path):
        cfg = toy_config(tmp_path)
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out), "--no-timestamp"])
        meta, _, _ = read_csv(out / "solution.csv")
        assert "#timestamp" not in meta

    def test_tiny_lambda_reaches_stationarity(self, tmp_path):
        """With a negligible penalty nothing is thresholded and the run is
        plain coordinate descent: the final gradient vanishes."""
        A = tmp_path / "A.csv"
        b = tmp_path / "b.csv"
        np.savetxt(A, np.eye(3), delimiter=",")
        np.savetxt(b, np.array([1.0, 2.0, 3.0]), delimiter=",")
        cfg = write_config(
            tmp_path,
            f"[problem]\nkind = ls\nmatrix_csv = {A}\nrhs_csv = {b}\nlambda = 1e-12\n",
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "solution.csv")
        x = np.array([float(r[1]) for r in rows])
        grad = x - np.array([1.0, 2.0, 3.0])
        assert np.linalg.norm(grad) <= 1e-6

    def test_zero_lambda_rejected(self, tmp_path, capsys):
        cfg = toy_config(tmp_path, lam=0.0)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_csv_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "[problem]\nkind = ls\nmatrix_csv = /nonexistent/A.csv\n"
            "rhs_csv = /nonexistent/b.csv\nlambda = 1\n",
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_required(self, tmp_path, capsys):
        assert main(["solve", "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_solver_name(self, tmp_path):
        cfg = toy_config(tmp_path, solver="momentum")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_exact_solver_route(self, tmp_path):
        cfg = toy_config(tmp_path, solver="ue", start="zeros")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "solution.csv")
        np.testing.assert_allclose([float(r[1]) for r in rows], [2.0, 0.0], atol=1e-9)

    def test_uq_at_fifty_thousand_blocks(self, tmp_path, monkeypatch):
        """``uq`` on 50x50,000 least squares needs only the column constants:
        with ``spectral_lipschitz`` (an 8 N^2-byte A^T A, 18.6 GiB here)
        refused by a stub, the solve runs and writes every coordinate."""

        def refuse(self):
            raise AssertionError("L_f was computed")

        monkeypatch.setattr(l0rcd.LeastSquaresObjective, "spectral_lipschitz", refuse)
        cfg = write_config(
            tmp_path,
            "[problem]\nkind = ls\nm = 50\nn = 50000\nlambda = 0.05\n"
            "[solvers]\nmax_iters = 2000\n[solve]\nsolver = uq\nstart = zeros\n",
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(read_csv(tmp_path / "o" / "solution.csv")[2]) == 50_000


class TestEnumerate:
    def test_toy_counts(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        out = tmp_path / "out"
        assert main(["enumerate", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "counts.csv")
        counts = {r[0]: int(r[1]) for r in rows}
        assert counts["basic"] == 4
        assert counts["uq[M=Li]"] == 1
        assert counts["uq[M=Lf]"] == 1
        assert counts["ue[beta=0.0001]"] == 1
        assert "4" in capsys.readouterr().out

    def test_builtin_example_counts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["enumerate", "--example2", "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "counts.csv")
        counts = {r[0]: int(r[1]) for r in rows}
        assert counts == {
            "ue[beta=1e-4]": 69,
            "uq[M=Li]": 69,
            "uq[M=Lf]": 82,
            "basic": 128,
        }
        stdout = capsys.readouterr().out
        assert "128" in stdout
        assert "global minimum" in stdout

    def test_catalog_csv_shape(self, tmp_path):
        out = tmp_path / "out"
        main(["enumerate", "--example2", "--out", str(out)])
        _, header, rows = read_csv(out / "catalog.csv")
        assert header[:2] == ["support_bitmask", "F"]
        assert len(rows) == 128
        masks = [int(r[0]) for r in rows]
        assert masks == sorted(masks)

    def test_dimension_guard(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "[problem]\nkind = ls\nm = 5\nn = 30\nseed = 1\nlambda = 0.5\n",
        )
        assert main(["enumerate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["enumerate", "tournament"])
    def test_enumeration_limit_is_one_error_line(self, tmp_path, capsys, command):
        """Both commands that enumerate refuse n = 25 through enumerate_catalog's limit."""
        cfg = write_config(
            tmp_path,
            "[problem]\nkind = ls\nm = 4\nn = 25\nlambda = 0.5\n[sweep]\nlambdas = 0.5\n",
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_unproved_pair_is_not_a_violation(self, tmp_path, capsys):
        """Generated 5x10 least squares, seed 36: support 0x68 is in
        ue[beta=1e-4] but not in uq[M=Li], a pair the models do not prove. The
        run exits 0, with the CSVs it wrote when it checked the label chain."""
        cfg = write_config(
            tmp_path, "[problem]\nkind = least_squares\nm = 5\nn = 10\nseed = 36\nlambda = 0.3\n"
        )
        out = tmp_path / "o"
        assert main(["enumerate", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
        assert capsys.readouterr().err == ""
        _, _, rows = read_csv(out / "counts.csv")
        assert {r[0]: int(r[1]) for r in rows} == {
            "ue[beta=0.0001]": 123, "uq[M=Li]": 122, "uq[M=Lf]": 346, "basic": 1024
        }
        _, header, rows = read_csv(out / "catalog.csv")
        row = dict(zip(header, rows[0x68]))
        assert row["support_bitmask"] == "104"
        assert (row["ue[beta=0.0001]"], row["uq[M=Li]"]) == ("1", "0")
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("catalog.csv", "counts.csv")
        }
        assert digests == {
            "catalog.csv": "11730076da83157b219dedac48a7d2cb75854ed34e014b87d70a9153db4bfb45",
            "counts.csv": "b71ddb0d4b113dc29de72ac0c5d294673d7bfde1bb4d85695c3ad2fc419e7966",
        }

    def test_no_entry_object_per_support(self, tmp_path, monkeypatch):
        """The command reads the catalog's columns; 2^11 supports build no 2^11 entries."""
        built = []
        original = l0rcd.CatalogEntry.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(l0rcd.CatalogEntry, "__init__", counted)
        cfg = write_config(
            tmp_path, "[problem]\nkind = ls\nm = 8\nn = 11\nseed = 3\nlambda = 0.3\n"
        )
        assert main(["enumerate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(built) <= 4


class TestTournament:
    def test_all_starts_at_global(self, tmp_path):
        """With a dominating penalty the origin is the certified optimum and
        zero-density starts sit on it: every solver scores trials/trials."""
        cfg = write_config(
            tmp_path,
            """[problem]
kind = least_squares
m = 4
n = 6
seed = 3
lambda = 1

[solvers]
list = ihta,uq,ue

[starts]
trials = 2
density = 0.0
seed = 11

[sweep]
lambdas = 200
""",
        )
        out = tmp_path / "out"
        assert main(["tournament", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "tournament.csv")
        assert header == ["lambda", "F_star", "success_ihta", "success_uq", "success_ue"]
        assert len(rows) == 1
        assert [int(v) for v in rows[0][2:]] == [2, 2, 2]

    def test_sweep_emits_one_row_per_lambda(self, tmp_path):
        cfg = write_config(
            tmp_path,
            """[problem]
kind = least_squares
m = 4
n = 6
seed = 5
lambda = 1

[solvers]
list = uq

[starts]
trials = 1
seed = 2

[sweep]
lambdas = 0.01,0.07,0.09,0.15,0.35,0.8,1.2,1.8,2
""",
        )
        out = tmp_path / "out"
        assert main(["tournament", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "tournament.csv")
        assert len(rows) == 9
        np.testing.assert_allclose(
            [float(r[0]) for r in rows],
            [0.01, 0.07, 0.09, 0.15, 0.35, 0.8, 1.2, 1.8, 2.0],
        )

    def test_bad_lambda_fails_before_any_work(self, tmp_path, monkeypatch, capsys):
        """Every sweep problem is built before the certification catalog and the
        first solver run, so a bad lambda late in the sweep costs neither."""
        calls = []
        for name in ("run_named_solver", "enumerate_catalog"):
            original = getattr(l0rcd.cli, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(l0rcd.cli, name, counted)
        cfg = write_config(
            tmp_path,
            "[problem]\nkind = ls\nm = 4\nn = 6\nseed = 5\nlambda = 1\n"
            "[solvers]\nlist = uq\n[starts]\ntrials = 2\n[sweep]\nlambdas = 0.07, 0.35, -1\n",
        )
        assert main(["tournament", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "penalty weights must be finite and nonnegative" in err
        assert calls == []

    def test_sweep_required(self, tmp_path):
        cfg = write_config(
            tmp_path, "[problem]\nkind = ls\nm = 4\nn = 6\nseed = 5\nlambda = 1\n"
        )
        assert main(["tournament", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestBenchmark:
    def bench_config(self, tmp_path, block_sizes="1,1,1,1,1,1", solvers="ihta,uq,ue"):
        return write_config(
            tmp_path,
            f"""[problem]
kind = logistic
m = 10
n = 6
seed = 9
nu = 0.5
lambda = 0.2
block_sizes = {block_sizes}

[solvers]
list = {solvers}

[starts]
trials = 2
seed = 4
""",
        )

    def test_schema_and_full_iteration_convention(self, tmp_path):
        cfg = self.bench_config(tmp_path)
        out = tmp_path / "out"
        assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "benchmark.csv")
        assert header == ["solver", "F_best", "nonzeros", "iterations", "full_iterations"]
        by_name = {r[0]: r for r in rows}
        assert set(by_name) == {"ihta", "uq", "ue"}
        for name in ("uq", "ue"):
            iters = int(by_name[name][3])
            assert float(by_name[name][4]) == pytest.approx(iters / 6.0)
        assert float(by_name["ihta"][4]) == float(int(by_name["ihta"][3]))

        # one full iteration is one pass over the blocks, not over the coordinates
        cfg = self.bench_config(tmp_path, block_sizes="2,4", solvers="uq")
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "blocks")]) == 0
        _, _, rows = read_csv(tmp_path / "blocks" / "benchmark.csv")
        assert float(rows[0][4]) == pytest.approx(int(rows[0][3]) / 2.0)

    def test_deterministic_rerun(self, tmp_path):
        cfg = self.bench_config(tmp_path)
        outs = [tmp_path / "o1", tmp_path / "o2"]
        for o in outs:
            assert main(["benchmark", "--config", cfg, "--out", str(o), "--no-timestamp"]) == 0
        assert (outs[0] / "benchmark.csv").read_bytes() == (
            outs[1] / "benchmark.csv"
        ).read_bytes()


class TestRunNamedSolver:
    def test_spec_checked_once_per_run(self, monkeypatch):
        """A coordinate run checks its spec once, by resolving its model; the
        solver does not check it again."""
        from test_solvers import spec_calls

        cfg = ExperimentConfig(problem_kind="least_squares", m=5, n=6, instance_seed=2, lam=0.3)
        problem = build_problem(cfg)
        x0 = _random_starts(cfg, problem, 1)[0]
        calls = spec_calls(monkeypatch)
        run_named_solver("uq", problem, x0, cfg, (0, 0, 0, 0))
        assert calls == ["uq"]
        calls.clear()
        run_named_solver("ue", problem, x0, cfg, (0, 0, 1, 0))
        assert calls == ["ue"]

    def test_spec_error_is_a_config_error_with_the_spec_message(self):
        """ue on a block of more than one coordinate fails as solver_spec fails."""
        cfg = ExperimentConfig(
            problem_kind="least_squares", m=5, n=6, instance_seed=2, lam=0.3,
            block_sizes=(2, 2, 2),
        )
        problem = build_problem(cfg)
        with pytest.raises(ConfigError) as from_spec:
            solver_spec("ue", cfg, problem)
        with pytest.raises(ConfigError) as from_run:
            run_named_solver("ue", problem, np.zeros(6), cfg, (0, 0, 0, 0))
        assert str(from_run.value) == str(from_spec.value)
        assert "exact approximation requires scalar blocks" in str(from_run.value)


class TestHugeStarts:
    """A 3x4 logistic instance run from starts with coordinates up to value_range."""

    @staticmethod
    def config(value_range):
        return ExperimentConfig(
            problem_kind="logistic", m=3, n=4, instance_seed=3, lam=0.5,
            solver_names=("uq", "ue"), trials=3, value_range=value_range,
        )

    @pytest.mark.parametrize("value_range", [1e20, 1e58, 1e61, 1e153])
    def test_final_F_is_F_of_the_final_point(self, value_range):
        """Incremental cache updates drift from such starts; the reported F does not."""
        cfg = self.config(value_range)
        problem = build_problem(cfg)
        for si, name in enumerate(cfg.solver_names):
            for t, x0 in enumerate(_random_starts(cfg, problem, cfg.trials)):
                state, trace = run_named_solver(name, problem, x0, cfg, (cfg.master_seed, 0, si, t))
                F = l0rcd.objective_F(problem, trace.final_x)
                assert trace.final_F == pytest.approx(F, rel=1e-9)
                assert state.objective() == trace.final_F

    @pytest.mark.parametrize("value_range", ["1e61", "1e100", "1e153"])
    def test_exact_steps_bracket_huge_coordinates(self, tmp_path, value_range):
        cfg = write_config(
            tmp_path,
            "[problem]\nkind = logistic\nm = 3\nn = 4\nseed = 3\nlambda = 0.5\n"
            f"[solvers]\nlist = ue\n[starts]\ntrials = 3\nvalue_range = {value_range}\n",
        )
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


class TestGradcheck:
    def test_least_squares_passes(self, tmp_path):
        cfg = write_config(
            tmp_path, "[problem]\nkind = ls\nm = 8\nn = 5\nseed = 7\nlambda = 0.3\n"
        )
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "gradcheck.csv")
        assert all(r[-1] == "1" for r in rows)

    def test_logistic_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[problem]\nkind = logistic\nm = 8\nn = 5\nseed = 7\nnu = 0.4\nlambda = 0.3\n",
        )
        assert main(["gradcheck", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


class TestReproducibility:
    def test_solve_rerun_byte_identical(self, tmp_path):
        cfg = toy_config(tmp_path)
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for o in outs:
            assert main(["solve", "--config", cfg, "--out", str(o), "--no-timestamp"]) == 0
        for name in ("solution.csv", "trace.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_enumerate_rerun_byte_identical(self, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for o in outs:
            assert main(["enumerate", "--example2", "--out", str(o), "--no-timestamp"]) == 0
        for name in ("catalog.csv", "counts.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_override_is_deterministic(self, tmp_path):
        cfg = toy_config(tmp_path, start="random")
        outs = [tmp_path / "s1", tmp_path / "s2"]
        for o in outs:
            assert main(
                ["solve", "--config", cfg, "--out", str(o), "--seed", "42", "--no-timestamp"]
            ) == 0
        assert (outs[0] / "solution.csv").read_bytes() == (
            outs[1] / "solution.csv"
        ).read_bytes()


class TestConfigParsing:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_integer(self, tmp_path):
        cfg = write_config(
            tmp_path, "[problem]\nkind = ls\nm = five\nn = 6\nlambda = 1\n"
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_zero_trials(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[problem]\nkind = ls\nm = 4\nn = 4\nseed = 1\nlambda = 1\n[starts]\ntrials = 0\n",
        )
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_block_sizes_must_sum(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[problem]\nkind = ls\nm = 4\nn = 6\nseed = 1\nlambda = 1\nblock_sizes = 2,2\n",
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_kind(self, tmp_path):
        cfg = write_config(tmp_path, "[problem]\nkind = quantile\nm = 4\nn = 4\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_block_partition_config(self, tmp_path):
        # multivariate blocks flow through parsing, building, and solving
        cfg = write_config(
            tmp_path,
            "[problem]\nkind = ls\nm = 6\nn = 6\nseed = 2\nlambda = 0.3\n"
            "block_sizes = 2,2,2\n",
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "section,solver,command",
        [(section, solver, "solve") for section, solver in [
            ("[solvers]\nuq_factor = 0.5\n", "uq"),
            ("[solvers]\nue_beta = 0\n", "ue"),
            ("[solvers]\nihta_factor = 0.9\n", "ihta"),
            ("[solvers]\nmax_iters = -5\n", "uq"),
            ("[starts]\ndensity = 2\n", "uq"),
            ("nan-matrix", "uq"),
            ("short-rhs", "uq"),
            ("logistic-nu", "uq"),
            ("[sweep]\nlambdas = 0.1,abc\n", "uq"),
            ("[problem]\nblock_sizes = 1,one\n", "uq"),
            ("[starts]\nvalue_range = -1\n", "uq"),
            ("[problem]\nblock_sizes = 2\n", "ue"),
            ("[problem]\nplanted_density = 3\n", "uq"),
            ("[problem]\nplanted_density = nan\n", "uq"),
            ("[problem]\nnu = inf\n", "uq"),
            ("[problem]\nnu = nan\n", "uq"),
            ("[solvers]\nue_beta = inf\n", "ue"),
            ("[starts]\nvalue_range = inf\n", "uq"),
            ("lambda-inf", "uq"),
            ("[sweep]\nlambdas = 0.1,inf\n", "uq"),
            ("[problem]\noops\n", "uq"),
            ("[problem]\nseed = -3\n", "uq"),
            ("[starts]\nseed = -2\n", "uq"),
            ("[starts]\nvalue_range = 1e308\n", "uq"),
        ]] + [
            ("[solvers]\nlist =\n", "uq", "benchmark"),
            ("[solvers]\nlist = ,\n[sweep]\nlambdas = 0.5\n", "uq", "tournament"),
        ],
        ids=[
            "uq_factor", "ue_beta", "ihta_factor", "max_iters", "density", "nan_matrix",
            "short_rhs", "logistic_nu", "lambdas_item", "block_sizes_item", "value_range",
            "ue_on_blocks", "planted_density", "planted_density_nan", "nu_inf", "nu_nan",
            "ue_beta_inf", "value_range_inf", "lambda_inf", "lambdas_item_inf",
            "unparsable_line", "problem_seed", "starts_seed", "value_range_overflow",
            "empty_list_benchmark", "empty_list_tournament",
        ],
    )
    def test_bad_value_is_a_one_line_error(self, tmp_path, capsys, section, solver, command):
        lam = "inf" if section == "lambda-inf" else 0.5
        cfg = toy_config(tmp_path, lam=lam, solver=solver, start="random")
        if section == "nan-matrix":
            np.savetxt(tmp_path / "A.csv", [[1.0, 0.0], [np.nan, 1.0]], delimiter=",")
        elif section == "short-rhs":
            np.savetxt(tmp_path / "b.csv", [2.0, 0.5, 1.0], delimiter=",")
        elif section == "logistic-nu":
            cfg = write_config(tmp_path, "[problem]\nkind = logistic\nm = 4\nn = 3\nnu = 0\n")
        elif section.startswith("[problem]\n"):
            # a second [problem] header would be a parse error, so add the key to the first
            text = Path(cfg).read_text()
            Path(cfg).write_text(text.replace("[problem]\n", section, 1))
        elif section != "lambda-inf":
            with open(cfg, "a") as fh:
                fh.write(section)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,problem,extra",
        [
            ("solve", "ls", "[solvers]\nuq_factor = 1e308\n"),
            ("tournament", "ls", "[solvers]\nuq_factor = 1e308\n"),
            ("benchmark", "ls", "[solvers]\nuq_factor = 1e308\n"),
            ("solve", "ls", "[solvers]\nihta_factor = 1e308\n[solve]\nsolver = ihta\n"),
            ("tournament", "ls", "[solvers]\nlist = ihta\nihta_factor = 1e308\n"),
            ("benchmark", "ls", "[solvers]\nlist = ihta\nihta_factor = 1e308\n"),
            ("solve", "ls", "[starts]\nvalue_range = 1e160\n[solve]\nstart = random\n"),
            ("tournament", "ls", "[starts]\nvalue_range = 1e160\n"),
            ("benchmark", "ls", "[starts]\nvalue_range = 1e160\n"),
            ("benchmark", "logistic", "[starts]\nvalue_range = 1e200\n"),
            ("solve", "empty_matrix", ""),
            ("solve", "empty_rhs", ""),
            ("solve", "huge_matrix", ""),
            ("enumerate", "huge_matrix", ""),
            ("tournament", "huge_matrix", ""),
            ("benchmark", "huge_matrix", ""),
            ("gradcheck", "huge_matrix", ""),
            ("gradcheck", "overflowing_f", ""),
        ],
        ids=[
            "uq_factor_solve", "uq_factor_tournament", "uq_factor_benchmark",
            "ihta_factor_solve", "ihta_factor_tournament", "ihta_factor_benchmark",
            "value_range_solve", "value_range_tournament", "value_range_benchmark",
            "value_range_logistic", "empty_matrix_csv", "empty_rhs_csv",
            "huge_csv_solve", "huge_csv_enumerate", "huge_csv_tournament",
            "huge_csv_benchmark", "huge_csv_gradcheck", "overflowing_f_csv_gradcheck",
        ],
    )
    def test_overflow_and_empty_data_are_one_line_errors(self, tmp_path, command, problem, extra):
        """A factor whose M overflows, a start whose f overflows, an empty CSV and
        a CSV matrix whose A^T A overflows, and one whose f overflows at gradcheck's
        random points of [-1, 1]^n, each end in one error line and exit 2, not a
        traceback or a warning. Run in a child process (``run_child``).
        """
        if problem.startswith("empty"):
            A, b = write_toy_csvs(tmp_path)
            empty = tmp_path / "empty.csv"
            empty.write_text("")
            A, b = (empty, b) if problem == "empty_matrix" else (A, empty)
            text = f"[problem]\nkind = ls\nmatrix_csv = {A}\nrhs_csv = {b}\nlambda = 0.5\n"
        elif problem in ("huge_matrix", "overflowing_f"):
            # entries near 1e155, so every ||A_j||^2 overflows; or up to 4e153,
            # so ||A_j||^2 is finite but f overflows at most points of [-1, 1]^5
            scale = 1e155 if problem == "huge_matrix" else 2e152
            A, b = tmp_path / "A.csv", tmp_path / "b.csv"
            np.savetxt(A, np.arange(1.0, 21.0).reshape(4, 5) * scale, delimiter=",")
            np.savetxt(b, [1.0, 0.0, -1.0, 0.5], delimiter=",")
            text = f"[problem]\nkind = ls\nmatrix_csv = {A}\nrhs_csv = {b}\nlambda = 0.5\n"
        else:
            # on this instance the largest L_i is 2.42, so 1e308 * L_i overflows
            kind = "least_squares" if problem == "ls" else "logistic"
            text = f"[problem]\nkind = {kind}\nm = 3\nn = 4\nseed = 3\nlambda = 0.5\n"
        cfg = write_config(tmp_path, text + "[sweep]\nlambdas = 0.5\n" + extra)
        proc = run_child(command, cfg, tmp_path / "o")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
        if problem.startswith("empty"):
            assert "holds no data" in proc.stderr
        if problem == "huge_matrix":
            assert "Lipschitz constants must be finite and positive" in proc.stderr
        if problem == "overflowing_f":
            assert "f overflows on this instance" in proc.stderr

    @pytest.mark.parametrize("command", ["enumerate", "tournament"])
    def test_singular_restricted_newton_is_a_one_line_error(self, tmp_path, command):
        """A tiny ridge weight leaves the Hessian of a support larger than m
        singular to machine precision; that is a one-line error naming the
        support and [problem] nu, exit 2."""
        cfg = write_config(
            tmp_path,
            "[problem]\nkind = logistic\nm = 4\nn = 8\nseed = 0\nnu = 1e-17\n"
            "lambda = 0.01\n[sweep]\nlambdas = 0.01\n",
        )
        proc = run_child(command, cfg, tmp_path / "o")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
        assert "on support [" in proc.stderr and "[problem] nu" in proc.stderr

    @pytest.mark.parametrize("case", ["out_is_a_file", "out_under_a_file", "csv_is_a_dir"])
    def test_unusable_out_path_is_a_one_line_error(self, tmp_path, capsys, case):
        """An --out that is a file, a path under a file, or an output CSV name
        that is a directory: one error line naming the path, exit 2."""
        (tmp_path / "file").write_text("")
        out = tmp_path / "o"
        if case == "out_is_a_file":
            out = tmp_path / "file"
        elif case == "out_under_a_file":
            out = tmp_path / "file" / "o"
        else:
            (out / "catalog.csv").mkdir(parents=True)
        assert main(["enumerate", "--example2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(out) in err

    @pytest.mark.parametrize("command", ["tournament", "benchmark"])
    @pytest.mark.parametrize(
        "blocks,solvers,message",
        [
            ("", "list = uq,bogus", "unknown solver name 'bogus'"),
            ("block_sizes = 2,2,2,2,2,2", "list = uq,ue", "exact approximation requires scalar blocks"),
            ("", "list = uq,ihta\nihta_factor = 1e308", "ihta_factor = 1e+308 makes M_f overflow"),
        ],
        ids=["unknown_name", "ue_on_blocks", "ihta_factor_overflow"],
    )
    def test_unrunnable_route_fails_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, blocks, solvers, message
    ):
        """Every configured solver is resolved before the first run (and before
        the tournament's certification catalog), so a route listed after uq
        costs no uq runs."""
        calls = []
        for name in ("run_rcd_iht", "run_ihta", "enumerate_catalog"):
            original = getattr(l0rcd.cli, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(l0rcd.cli, name, counted)
        cfg = write_config(
            tmp_path,
            f"[problem]\nkind = ls\nm = 6\nn = 12\nseed = 13\nlambda = 0.5\n{blocks}\n"
            f"[solvers]\n{solvers}\n[starts]\ntrials = 20\n[sweep]\nlambdas = 0.3, 0.5\n",
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err
        assert calls == []

    @pytest.mark.parametrize("command", ["solve", "enumerate", "tournament", "benchmark"])
    @pytest.mark.parametrize("lam,n", [("1e308", 12), ("3e307", 5), ("1e307", 12)])
    def test_huge_penalty(self, tmp_path, command, lam, n):
        """lambda = 1e308 on 12 coordinates makes the full support's penalty
        overflow: one error line, exit 2. A finite full-support penalty runs with
        nothing on stderr, no numpy warning included (3e307 on n = 5 overflows
        2 lambda M_i in the class bounds, which are then +inf). Run in a child
        process (``run_child``)."""
        cfg = write_config(
            tmp_path,
            f"[problem]\nkind = ls\nm = 6\nn = {n}\nseed = 13\nlambda = {lam}\n"
            f"[solvers]\nlist = uq, ue, ihta\n[sweep]\nlambdas = {lam}\n",
        )
        proc = run_child(command, cfg, tmp_path / "o")
        if lam == "1e308":
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
            assert "sum of lam_i * n_i, overflows" in proc.stderr
        else:
            assert (proc.returncode, proc.stderr) == (0, "")

    NUMPY_OOM = (
        "Unable to allocate 18.6 GiB for an array with shape (50000, 50000) and data type float64"
    )

    @pytest.mark.parametrize(
        "command,message,line",
        [
            ("solve", NUMPY_OOM, f"error: out of memory: {NUMPY_OOM}\n"),
            ("solve", "", "error: out of memory\n"),
            ("solve", "two\nlines", "error: out of memory: two lines\n"),
            ("enumerate", NUMPY_OOM, f"error: out of memory: {NUMPY_OOM}\n"),
        ],
        ids=["numpy", "empty", "multiline", "enumerate"],
    )
    def test_out_of_memory_is_a_one_line_error(
        self, tmp_path, capsys, monkeypatch, command, message, line
    ):
        """A size the machine cannot hold (``spectral_lipschitz`` at 50x50,000
        asks numpy for 18.6 GiB) is one error line, exit 2. The allocation
        fails here by a stub, so nothing is allocated. ``ihta`` and
        ``enumerate`` read L_f, so they reach the stub."""

        def refuse(self):
            raise MemoryError(message)

        monkeypatch.setattr(l0rcd.LeastSquaresObjective, "spectral_lipschitz", refuse)
        cfg = write_config(
            tmp_path, "[problem]\nkind = ls\nm = 5\nn = 6\nlambda = 0.3\n[solve]\nsolver = ihta\n"
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize(
        "command,solvers,calls",
        [
            ("solve", "uq", 0),
            ("solve", "ue", 0),
            ("benchmark", "uq,ue", 0),
            ("solve", "ihta", 1),
            ("benchmark", "uq,ue,ihta", 1),
            ("enumerate", "uq", 1),
            ("tournament", "uq,ue,ihta", 3),
        ],
    )
    def test_global_constant_is_computed_only_where_read(
        self, tmp_path, capsys, monkeypatch, command, solvers, calls
    ):
        """``spectral_lipschitz`` runs once per problem that reads L_f and on
        no other: the tournament builds one problem per lambda of its two
        and one for its catalog, and reads L_f on each for ``ihta``."""
        counted = []
        original = l0rcd.LeastSquaresObjective.spectral_lipschitz

        def counting(self):
            counted.append(self)
            return original(self)

        monkeypatch.setattr(l0rcd.LeastSquaresObjective, "spectral_lipschitz", counting)
        cfg = write_config(
            tmp_path,
            "[problem]\nkind = ls\nm = 4\nn = 6\nlambda = 0.3\n"
            f"[solvers]\nlist = {solvers}\n[solve]\nsolver = {solvers.split(',')[0]}\n"
            "[starts]\ntrials = 2\n[sweep]\nlambdas = 0.3, 0.5\n",
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(counted) == len({id(oracle) for oracle in counted}) == calls

    @pytest.fixture
    def overflowing_spectrum(self, tmp_path):
        """A 2x3 least-squares CSV whose ||A_j||^2 are finite and whose
        lambda_max(A^T A) overflows; [solve] solver and [solvers] list are
        the ``solver`` argument of the returned maker."""
        A, b = tmp_path / "A.csv", tmp_path / "b.csv"
        A.write_text("9e153,9e153,9e153\n8e153,-9e153,9e153\n")
        b.write_text("1\n2\n")

        def config(solver):
            return write_config(
                tmp_path,
                f"[problem]\nkind = ls\nmatrix_csv = {A}\nrhs_csv = {b}\nlambda = 0.3\n"
                f"[solvers]\nlist = {solver}\n[solve]\nsolver = {solver}\n"
                "[sweep]\nlambdas = 0.3\n",
            )

        return config

    @pytest.mark.parametrize("command", ["solve", "benchmark", "enumerate", "tournament"])
    def test_overflowing_global_constant_is_a_one_line_error(
        self, tmp_path, overflowing_spectrum, command
    ):
        """Every command that reads L_f (``ihta`` and the ``uq[M=Lf]`` column)
        computes it on that read and reports a bad one as one error line,
        exit 2, with no numpy warning. Run in a child process (``run_child``)."""
        proc = run_child(command, overflowing_spectrum("ihta"), tmp_path / "o")
        assert (proc.returncode, proc.stderr) == (
            2,
            "error: invalid problem configuration: "
            "global Lipschitz constant must be finite and positive\n",
        )

    @pytest.mark.parametrize("solver", ["uq", "ue"])
    def test_coordinate_routes_never_compute_the_global_constant(
        self, tmp_path, overflowing_spectrum, solver
    ):
        """``uq`` and ``ue`` need only the block constants, so the instance
        whose L_f overflows solves."""
        proc = run_child("solve", overflowing_spectrum(solver), tmp_path / "o")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(read_csv(tmp_path / "o" / "solution.csv")[2]) == 3

    @pytest.mark.parametrize("command", ["solve", "benchmark", "tournament"])
    def test_ihta_factor_that_rounds_away_is_a_one_line_error(self, tmp_path, capsys, command):
        """Entries near 1e-160 make L_f subnormal, where L_f * 1.0000001 rounds
        back to L_f: one error line naming ihta_factor, exit 2, before run_ihta
        would raise for M_f <= L_f."""
        rng = np.random.default_rng(0)
        A, b = tmp_path / "A.csv", tmp_path / "b.csv"
        np.savetxt(A, rng.uniform(-1e-160, 1e-160, size=(4, 3)), delimiter=",")
        np.savetxt(b, rng.uniform(-1e-160, 1e-160, size=4), delimiter=",")
        cfg = write_config(
            tmp_path,
            f"[problem]\nkind = ls\nmatrix_csv = {A}\nrhs_csv = {b}\nlambda = 1e-320\n"
            "[solvers]\nlist = ihta\nihta_factor = 1.0000001\n[solve]\nsolver = ihta\n"
            "[sweep]\nlambdas = 1e-320\n",
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [solvers] ihta_factor = 1.0000001 leaves M_f = ")
        assert err.count("\n") == 1

    HUGE_CURVATURE = {
        "ihta": "[problem]\nkind = ls\nm = 4\nn = 6\nseed = 1\nlambda = 0.3\n"
        "[solvers]\nlist = ihta\nihta_factor = 1e306\n[starts]\nvalue_range = 100\n"
        "[solve]\nsolver = ihta\nstart = random\n",
        "uq_blocks": "[problem]\nkind = ls\nm = 4\nn = 6\nseed = 1\nlambda = 0.3\n"
        "block_sizes = 2,2,2\n"
        "[solvers]\nlist = uq\nuq_factor = 1e306\n[starts]\nvalue_range = 100\n"
        "[solve]\nsolver = uq\nstart = random\n",
    }

    @pytest.mark.parametrize(
        "case,command,digests",
        [
            ("ihta", "solve", {"stdout": "d896eefc2399747b", "solution.csv": "ae17b46e553a5f25",
                               "trace.csv": "54012de16821627d"}),
            ("ihta", "benchmark", {"stdout": "862f86b2d41cd466",
                                   "benchmark.csv": "9ead4eee36f09264"}),
            ("uq_blocks", "solve", {"stdout": "0dbffa1f61dff89a",
                                    "solution.csv": "056c7a19af5059b3",
                                    "trace.csv": "fcc1a10701bca435"}),
            ("uq_blocks", "benchmark", {"stdout": "2b3657b5f43fd8de",
                                        "benchmark.csv": "cdb0a5a5a8ab7163"}),
        ],
        ids=["ihta_solve", "ihta_benchmark", "uq_blocks_solve", "uq_blocks_benchmark"],
    )
    def test_huge_curvature_warns_nothing(self, tmp_path, capsys, case, command, digests):
        """A curvature of 1e306 times L overflows the progress value (M/2) t t
        of the array step to inf, which keeps t, the right decision. The run
        raises no RuntimeWarning (the suite makes one an error) and its
        stdout and CSVs keep the bytes they had when numpy printed one."""
        cfg = write_config(tmp_path, self.HUGE_CURVATURE[case])
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
        printed = capsys.readouterr()
        assert printed.err == ""
        got = {"stdout": hashlib.sha256(printed.out.encode()).hexdigest()[:16]}
        for path in sorted(out.iterdir()):
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        assert got == digests

    def test_huge_beta_enumerates_without_warning(self, tmp_path, capsys):
        """ue_beta = 1e306 on least squares gives the exact class test the
        curvature ||A_j||^2 + beta, whose progress value overflows to inf:
        the right decision, with no RuntimeWarning."""
        cfg = write_config(
            tmp_path,
            "[problem]\nkind = ls\nm = 7\nn = 8\nseed = 39\nlambda = 1.0\n"
            "[solvers]\nue_beta = 1e306\n",
        )
        assert main(["enumerate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        printed = capsys.readouterr()
        assert printed.err == ""
        assert "Number of local minima  256    7         2         256" in printed.out

    @pytest.mark.parametrize("blocks", ["", "block_sizes = 2,3\n"], ids=["scalar", "blocks"])
    def test_logistic_constants_that_overflow_are_a_one_line_error(self, tmp_path, capsys, blocks):
        """Logistic data near 1e155 make every L_i overflow, on scalar blocks
        and on blocks of 2 and 3: one error line, exit 2, with no
        RuntimeWarning from the squares."""
        A, y = tmp_path / "A.csv", tmp_path / "y.csv"
        np.savetxt(A, np.arange(1.0, 21.0).reshape(4, 5) * 1e155, delimiter=",")
        np.savetxt(y, [0.0, 1.0, 1.0, 0.0], delimiter=",")
        cfg = write_config(
            tmp_path,
            f"[problem]\nkind = logistic\nmatrix_csv = {A}\nlabels_csv = {y}\nlambda = 0.1\n"
            + blocks,
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: invalid problem configuration: Lipschitz constants must be finite and positive\n"
        )

    def test_negative_seed_flag_is_a_one_line_error(self, tmp_path, capsys):
        cfg = toy_config(tmp_path, start="random")
        assert main(["solve", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])
