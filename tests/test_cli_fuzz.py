"""The command line on random configs: every run of every subcommand ends in
exit 0, 1 or 2, with nothing on stderr or exactly one ``error:`` line, and
raises no ``RuntimeWarning``.

A config is drawn key by key from ``cli.CONFIG_KEYS``: each present key gets a
value of its parser's type, most of them inside the key's range rule and
some outside it, with extreme penalties, ridge weights, betas and factors
(up to 1e306) and value ranges up to 1e3. A value that the key's parser or
rule rejects must end in exit 2. Sizes stay tiny (m <= 8, n <= 9,
``max_iters`` <= 200, ``trials`` <= 3, at most 3 sweep lambdas), so the
fixed example count runs in a few seconds.

An ``enumerate`` that exits 1 with inclusion-violation lines is ROADMAP
item 10's known defect (one class tolerance for every kind). Its examples
are recorded and their count reported, as ``measure.probe_known_defects``
reports its defects, instead of failing the test.
"""
import contextlib
import io
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from l0rcd import cli

COMMANDS = ("solve", "enumerate", "tournament", "benchmark", "gradcheck")
EXAMPLES = 200

PENALTIES = (1e-320, 1e-300, 1e-20, 0.01, 0.3, 1.0, 1e10, 1e300)
FACTORS = (1.0000001, 1.5, 2.0, 10.0, 1e10, 1e300, 1e306)
# the CSV files written once per test, by name: what each path key may name
MATRICES = {"A_plain.csv": 4, "A_tiny.csv": 3, "A_huge.csv": 5, "missing.csv": 0}  # name: n
VECTORS = ("b4.csv", "b5.csv", "missing.csv")
LABELS = ("y4.csv", "y5.csv", "y_bad.csv")


def write_data(directory):
    """The CSV instances the path keys name: a plain 5x4 matrix, a 4x3 one
    with entries near 1e-160 (a subnormal L_f), a 4x5 one near 1e155 (every
    ||A_j||^2 overflows), right-hand sides and labels of 4 and 5 rows, and
    labels that are not all 0 or 1."""
    rng = np.random.default_rng(0)
    arrays = {
        "A_plain.csv": rng.uniform(-1.0, 1.0, size=(5, 4)),
        "A_tiny.csv": rng.uniform(-1e-160, 1e-160, size=(4, 3)),
        "A_huge.csv": np.arange(1.0, 21.0).reshape(4, 5) * 1e155,
        "b4.csv": rng.uniform(-1.0, 1.0, size=4),
        "b5.csv": rng.uniform(-1.0, 1.0, size=5),
        "y4.csv": np.array([0.0, 1.0, 1.0, 0.0]),
        "y5.csv": np.array([1.0, 0.0, 1.0, 1.0, 0.0]),
        "y_bad.csv": np.array([0.0, 2.0, 1.0, 0.0]),
    }
    for name, values in arrays.items():
        np.savetxt(directory / name, values, delimiter=",")


def floats_text(values):
    return st.sampled_from(values).map(repr)


def list_text(element, min_size, max_size):
    return st.lists(element, min_size=min_size, max_size=max_size).map(",".join)


# Per ExperimentConfig field: (values inside the key's rule, values outside it
# or that the problem rejects), each strategy yielding the config text.
VALUES = {
    "problem_kind": (st.sampled_from(["least_squares", "ls", "logistic"]), st.just("quantile")),
    "m": (st.integers(1, 8).map(str), st.sampled_from(["0", "-2", "3.5"])),
    "n": (st.integers(1, 9).map(str), st.sampled_from(["0", "x"])),
    "instance_seed": (st.integers(0, 40).map(str), st.just("-1")),
    "nu": (floats_text((1e-300, 1e-17, 0.05, 0.5, 1e3, 1e300)), floats_text((0.0, -1.0))),
    "planted_density": (floats_text((0.0, 0.2, 1.0)), st.sampled_from(["1.5", "nan"])),
    "matrix_csv": (st.sampled_from(list(MATRICES)[:-1]), st.just("missing.csv")),
    "rhs_csv": (st.sampled_from(VECTORS[:-1]), st.just(VECTORS[-1])),
    "labels_csv": (st.sampled_from(LABELS[:-1]), st.just(LABELS[-1])),
    "lam": (floats_text(PENALTIES), floats_text((0.0, -0.5, 1e308))),
    "block_sizes": (list_text(st.integers(1, 5).map(str), 1, 5), st.sampled_from(["0,3", "-1,4"])),
    "solver_names": (
        list_text(st.sampled_from(["uq", "ue", "ihta"]), 1, 3), st.sampled_from(["", "uq,bogus"])
    ),
    "uq_factor": (floats_text(FACTORS), floats_text((1.0, 0.5, 1e308))),
    "ue_beta": (floats_text((1e-300, 1e-4, 1.0, 1e10, 1e300, 1e306)), floats_text((0.0, -1.0))),
    "ihta_factor": (floats_text(FACTORS), floats_text((1.0, 0.5, 1e308))),
    "max_iters": (st.integers(1, 200).map(str), st.just("-1")),
    "trials": (st.integers(1, 3).map(str), st.just("0")),
    "start_density": (floats_text((0.0, 0.5, 1.0)), st.just("1.5")),
    "value_range": (floats_text((0.0, 1.0, 10.0, 100.0, 1e3)), st.sampled_from(["-1", "inf"])),
    "master_seed": (st.integers(0, 5).map(str), st.just("-1")),
    "sweep": (list_text(floats_text(PENALTIES), 1, 3), st.sampled_from(["", "0.1,nan"])),
    "solve_solver": (st.sampled_from(["uq", "ue", "ihta"]), st.just("bogus")),
    "solve_start": (st.sampled_from(["zeros", "random"]), st.just("ones")),
}
# Keys that every config sets: max_iters bounds each run (its default, 0,
# picks 400 n iterations), and the others give a generated problem.
ALWAYS = {"problem_kind", "m", "n", "lam", "max_iters"}
# The key that names the CSV matrix, set in one config of four.
FILES = {"matrix_csv"}


@st.composite
def configs(draw):
    """{(section, key): text} for a random subset of ``CONFIG_KEYS``: every
    key of ``ALWAYS``, ``matrix_csv`` in one config of four and each other
    key in one of two. Where ``block_sizes`` is set, it is in three configs
    of four a partition of n (the matrix's column count where a CSV is
    named). In one config of three, one key set is given a bad value."""
    chosen = {}
    for section, key, name, _, _ in cli.CONFIG_KEYS:
        odds = 4 if name in FILES else 2
        if name in ALWAYS or draw(st.integers(0, odds - 1)) == 0:
            chosen[(section, key)] = draw(VALUES[name][0])
    n = MATRICES.get(chosen.get(("problem", "matrix_csv")), int(chosen[("problem", "n")]))
    if ("problem", "block_sizes") in chosen and draw(st.integers(0, 3)) > 0:
        cuts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
        edges = [0, *sorted(cuts), n]
        chosen[("problem", "block_sizes")] = ",".join(
            str(b - a) for a, b in zip(edges, edges[1:])
        )
    if draw(st.integers(0, 2)) == 0:
        section, key, name = draw(st.sampled_from([entry[:3] for entry in cli.CONFIG_KEYS
                                                   if entry[:2] in chosen]))
        chosen[(section, key)] = draw(VALUES[name][1])
    return chosen


def config_text(chosen, directory):
    sections = {}
    for (section, key), text in chosen.items():
        if key.endswith("_csv"):
            text = str(directory / text)
        sections.setdefault(section, []).append(f"{key} = {text}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


def rejected_by_a_key(chosen):
    """Whether some key's parser or range rule rejects its value."""
    for section, key, _, parse, rule in cli.CONFIG_KEYS:
        if (section, key) in chosen:
            try:
                value = parse(chosen[(section, key)])
            except ValueError:
                return True
            if rule and not rule[1](value):
                return True
    return False


def run(argv):
    """(exit code, stderr, RuntimeWarnings) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, err.getvalue(), runtime


def test_every_subcommand_on_random_configs(tmp_path, capsys):
    write_data(tmp_path)
    known_defects = []

    @settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None)
    @given(configs())
    def check(chosen):
        text = config_text(chosen, tmp_path)
        (tmp_path / "fuzz.ini").write_text(text)
        for command in COMMANDS:
            argv = [command, "--config", str(tmp_path / "fuzz.ini"),
                    "--out", str(tmp_path / "out"), "--no-timestamp"]
            code, err, runtime = run(argv)
            where = f"{command} on\n{text}"
            assert runtime == [], f"{where}: {[str(w.message) for w in runtime]}"
            if command == "enumerate" and code == 1 and err.startswith("inclusion violations:"):
                known_defects.append(where)  # ROADMAP item 10
                continue
            assert code in (0, 1, 2), where
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), (
                f"{where}: stderr {err!r}"
            )
            if rejected_by_a_key(chosen):
                assert code == 2, where

    check()
    with capsys.disabled():
        print(
            f"\nknown_defect.enumerate_inclusion_violation (ROADMAP item 10) = "
            f"{len(known_defects)} of {EXAMPLES} configs"
        )
