"""The CSV writer: pinned output bytes, agreement with ``csv.writer``, and
write errors.

The sha256 digests were recorded from the row-by-row ``csv.writer`` path
that the column writer replaced; every CSV each subcommand writes under
``--no-timestamp`` must keep them.
"""
import csv
import errno
import hashlib
import io
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from l0rcd import cli
from l0rcd.cli import OutputWriter, main

SOLVE_LS = """[problem]
kind = least_squares
m = 200
n = 500
seed = 1
lambda = 1.0

[solvers]
max_iters = 1000

[starts]
seed = 1

[solve]
solver = uq
start = zeros
"""

SOLVE_LOGISTIC = """[problem]
kind = logistic
m = 30
n = 20
seed = 2
nu = 0.05
lambda = 0.01

[starts]
seed = 4

[solve]
solver = ue
start = random
"""

ENUMERATE_8X11 = """[problem]
kind = least_squares
m = 8
n = 11
seed = 3
lambda = 0.3
"""

ENUMERATE_BLOCKS = """[problem]
kind = least_squares
m = 5
n = 12
seed = 2
lambda = 0.2
block_sizes = 3, 3, 2, 4
"""

TOURNAMENT = """[problem]
kind = least_squares
m = 6
n = 8
seed = 13

[solvers]
list = ihta, uq, ue
uq_factor = 2.0
max_iters = 600

[starts]
trials = 4

[sweep]
lambdas = 0.07, 0.35, 1.2
"""

BENCHMARK = """[problem]
kind = logistic
m = 20
n = 10
seed = 0
nu = 0.05
lambda = 0.01

[solvers]
list = uq, ue, ihta
max_iters = 800

[starts]
trials = 3
"""

GRADCHECK = """[problem]
kind = logistic
m = 12
n = 6
seed = 5
nu = 0.1
"""

# (test id, command, config text or None for --example2, {file name: sha256})
PINNED_CSV = [
    ("solve-ls-200x500", "solve", SOLVE_LS, {
        "solution.csv": "f2a532258c78b4ccb9b8eda05d757be33493543a2172ecb49fede6f67660d60b",
        "trace.csv": "2a2864a001a6b897ec169982b352d350e69b19f2733dc4148a5499ce81bbf03c",
    }),
    ("solve-logistic-ue", "solve", SOLVE_LOGISTIC, {
        "solution.csv": "1a9822f12dfb0f0657ada4112964fd1100db1cc392bd5e4c75b497f1200a2833",
        "trace.csv": "a779405c0a84ddc9c3e2e158888e9f5bd7637e87c515f1e6b3b528e4c62c2778",
    }),
    # 2048 supports: two of the enumeration's chunks
    ("enumerate-8x11", "enumerate", ENUMERATE_8X11, {
        "catalog.csv": "0d372b67f5ad5a033c9459c4614775edf871a67e93a1eb25681d5927ae56a8c5",
        "counts.csv": "ed3d5420e9a556388a8e2421b5f90bd9f18363968b215ab216677fca865cb1ef",
    }),
    ("enumerate-example2", "enumerate", None, {
        "catalog.csv": "4080013415581f77b6ac25201569e8cf773ff0ca61cd8412da67834d5f015a22",
        "counts.csv": "8e415af808d41d54304773d25b4bca5588539d4dbb742c9fb2b4aa45f076598e",
    }),
    ("enumerate-blocks", "enumerate", ENUMERATE_BLOCKS, {
        "catalog.csv": "0d366f2b7989ed967b4fc59889ca17b364c17363d425bbe4514b8081ccea46b2",
        "counts.csv": "a082d9e80478179512ce0c86b57313784cf5f4cace5b8515cf5b82c383a5bad0",
    }),
    ("tournament", "tournament", TOURNAMENT, {
        "tournament.csv": "238473876a21f1bfd912f78e3c6c078829433c504141033a213bf9bad9530ff9",
    }),
    ("benchmark", "benchmark", BENCHMARK, {
        "benchmark.csv": "a782fe39a4e28dc157a6f5a578c6949f1b245d0fa5fa0dd2d14ccaf1ff6693c6",
    }),
    ("gradcheck", "gradcheck", GRADCHECK, {
        "gradcheck.csv": "4c9dc97ef0b0f44953482a43db073374200e506bdb42466f30ced9bac998c83e",
    }),
]


def run_command(tmp_path, command, config):
    """Run a subcommand under --no-timestamp; returns (exit code, {CSV name: sha256})."""
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--no-timestamp"]
    if config is None:
        argv.append("--example2")
    else:
        path = tmp_path / "exp.ini"
        path.write_text(config)
        argv += ["--config", str(path)]
    code = main(argv)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    return code, digests


@pytest.mark.parametrize(
    "command,config,expected", [c[1:] for c in PINNED_CSV], ids=[c[0] for c in PINNED_CSV]
)
def test_csv_bytes_are_pinned(tmp_path, capsys, command, config, expected):
    assert run_command(tmp_path, command, config) == (cli.EXIT_OK, expected)


# ---------------------------------------------------------------------------
# the writer against csv.writer

CHUNK = 8  # stands in for cli._CSV_CHUNK, so that tables span chunks

REPR_EDGES = [
    0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 0.1, 1.0,
]


def float_bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


# any bit pattern, so every nan payload too
FLOAT_BITS = st.one_of(
    st.sampled_from(REPR_EDGES).map(float_bits),
    st.floats().map(float_bits),
    st.integers(-(2**63), 2**63 - 1),
)
INT64 = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, -1, 0]), st.integers(-(2**63), 2**63 - 1))
TEXT = st.text(st.sampled_from(list(',"\r\n ab1;\'\t')), max_size=6)


@st.composite
def float_column(draw, n):
    """float64 column of n values from a pool of up to n, so values repeat in runs
    and scattered."""
    pool = draw(st.lists(FLOAT_BITS, min_size=1, max_size=max(n, 1)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return np.array([pool[i] for i in sorted(picks)[: n // 2] + picks[n // 2 :]]).view(np.float64)


def int_column(n):
    return st.lists(INT64, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))


def bool_column(n):
    return st.lists(st.booleans(), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=bool))


def str_column(n):
    return st.lists(TEXT, min_size=n, max_size=n)


COLUMNS = {"float": float_column, "int": int_column, "bool": bool_column, "str": str_column}


@st.composite
def tables(draw):
    n = draw(st.sampled_from([0, 1, CHUNK - 1, CHUNK + 1]))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=4))
    return [draw(COLUMNS[kind](n)) for kind in kinds]


def csv_writer_text(writer, header, columns):
    """What csv.writer writes for the table, from its rows of Python values."""
    fh = io.StringIO()
    out = csv.writer(fh)
    out.writerows(writer.meta_lines())
    out.writerow(header)
    values = [
        c if isinstance(c, list) else c.astype(int).tolist() if c.dtype == bool else c.tolist()
        for c in columns
    ]
    out.writerows(zip(*values))
    return fh.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tables())
@example(
    [  # every repr edge, with the signed zeros repeated: 18 rows, three chunks
        np.array(REPR_EDGES + REPR_EDGES[:2]),
        np.array([-(2**63), 2**63 - 1, -1, 0, 1, 0, 0, 7, 7] * 2, dtype=np.int64),
        np.arange(18) % 3 == 0,
        ["", ",", '"', 'a"b', "\r", "\n", "a b", "", "x,y"] * 2,
    ]
)
def test_writer_matches_csv_writer(columns):
    header = [f"c{j}" for j in range(len(columns))]
    with tempfile.TemporaryDirectory() as out, mock.patch.object(cli, "_CSV_CHUNK", CHUNK):
        writer = OutputWriter(out, "hash", True)
        path = writer.write_csv("t.csv", header, columns)
        with open(path, newline="") as fh:
            assert fh.read() == csv_writer_text(writer, header, columns)


# ---------------------------------------------------------------------------
# write errors


class FullDisk:
    """A text file whose writes after the first ``room`` raise ENOSPC."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, text):
        if self.room == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= 1
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_full_disk_while_rows_are_written_is_a_one_line_error(tmp_path, monkeypatch, capsys):
    """The failed write leaves neither a partial table, which would read as a
    complete empty one, nor its temporary file; an old table keeps its bytes."""
    # room for the three meta lines and the header, not for the rows
    monkeypatch.setattr(cli, "open", lambda *a, **k: FullDisk(open(*a, **k), 4), raising=False)
    path = tmp_path / "catalog.csv"
    for old in (None, b"#config_hash,old\r\nsupport_bitmask,F\r\n0,1.5\r\n"):
        if old is not None:
            path.write_bytes(old)
        code = main(["enumerate", "--example2", "--out", str(tmp_path), "--no-timestamp"])
        assert code == cli.EXIT_USAGE
        error = f"error: cannot write {path}: {os.strerror(errno.ENOSPC)}\n"
        assert capsys.readouterr().err == error
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["catalog.csv"])
        if old is not None:
            assert path.read_bytes() == old


class Interrupted(FullDisk):
    """A text file whose writes after the first ``room`` raise KeyboardInterrupt."""

    def write(self, text):
        if self.room == 0:
            raise KeyboardInterrupt
        return super().write(text)


@pytest.mark.parametrize("failure", ["float32", "interrupt"])
def test_failed_write_other_than_oserror_leaves_no_temporary(tmp_path, monkeypatch, failure):
    """A column with no CSV format raises TypeError, and an interrupt during the
    rows propagates; either way no ``.tmp`` is left and an old table keeps its bytes."""
    columns = [np.arange(3), np.linspace(0.0, 1.0, 3)]
    if failure == "float32":
        columns[1] = columns[1].astype(np.float32)
        expected = TypeError
    else:
        monkeypatch.setattr(
            cli, "open", lambda *a, **k: Interrupted(open(*a, **k), 4), raising=False
        )
        expected = KeyboardInterrupt
    path = tmp_path / "t.csv"
    path.write_bytes(b"old\r\n")
    writer = OutputWriter(tmp_path, "hash", True)
    with pytest.raises(expected):
        writer.write_csv("t.csv", ["k", "v"], columns)
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert path.read_bytes() == b"old\r\n"
