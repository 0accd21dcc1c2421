"""README.md's two Python examples run and print what their comments state,
and its ``enumerate --example2`` block is what that command prints. The
documents that describe the command line (README.md and config.schema.ini)
name the keys and subcommands that the code declares."""
import argparse
import contextlib
import dataclasses
import io
import re
from pathlib import Path

from l0rcd.cli import CONFIG_KEYS, ExperimentConfig, _build_parser, _parse_config_file, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SCHEMA = ROOT / "config.schema.ini"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def printed_lines(code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    return out.getvalue().splitlines()


def test_readme_has_two_python_examples():
    assert len(python_blocks()) == 2


def test_quickstart_solve():
    code = python_blocks()[0]
    final_F, support, kappa = printed_lines(code)
    assert "# 0.4225..." in code and final_F.startswith("0.4225")
    assert "# [0, 5, 7, 9]" in code and support == "[0, 5, 7, 9]"
    assert int(kappa) >= 0


def test_enumerate_bundled_example():
    code = python_blocks()[1]
    counts, best = printed_lines(code)
    expected = "{'ue[beta=1e-4]': 69, 'uq[M=Li]': 69, 'uq[M=Lf]': 82, 'basic': 128}"
    assert "# " + expected in code and counts == expected
    assert "# [4, 5, 6] 3.0954..." in code and best.startswith("[4, 5, 6] 3.0954")


def test_enumerate_example2_cli_block(tmp_path, capsys):
    text = README.read_text()
    (block,) = re.findall(r"l0rcd enumerate --example2 [^\n]*\n```\n\n```\n(.*?)```", text, re.S)
    assert main(["enumerate", "--example2", "--out", str(tmp_path), "--no-timestamp"]) == 0
    printed = capsys.readouterr().out
    assert [line.rstrip() for line in printed.splitlines()] == block.splitlines()


def schema_keys():
    """(section, key) of every ``key =`` or ``# key =`` line under a section header."""
    keys, section = [], None
    for line in SCHEMA.read_text().splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line):
            section = header[1]
        elif section and (key := re.match(r"#?\s*(\w+)\s*=", line)):
            keys.append((section, key[1]))
    return keys


def test_schema_names_exactly_the_config_keys():
    rows = [(section, key) for section, key, *_ in CONFIG_KEYS]
    assert len(set(rows)) == len(rows) == len(set(schema_keys())) == 23
    assert set(schema_keys()) == set(rows)
    # every ExperimentConfig field but the hash is filled by one key
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"config_hash"}
    assert sorted(name for _, _, name, *_ in CONFIG_KEYS) == sorted(fields)


def test_schema_parses():
    cfg = _parse_config_file(str(SCHEMA))
    assert cfg.solver_names == ("uq", "ue", "ihta")
    assert (cfg.m, cfg.n, cfg.trials) == (6, 12, 100)
    assert len(cfg.sweep) == 9


def test_tournament_ini_block_parses(tmp_path):
    (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "tournament.ini"
    path.write_text(block)
    cfg = _parse_config_file(str(path))
    assert cfg.solver_names == ("ihta", "uq", "ue")
    assert (cfg.m, cfg.n, cfg.instance_seed, cfg.uq_factor, cfg.max_iters) == (6, 12, 13, 2.0, 2400)
    assert cfg.trials == 100 and len(cfg.sweep) == 9


def test_subcommand_table_lists_the_parser_subcommands():
    (action,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    listed = re.findall(r"^\| `(\w+)` +\|", README.read_text(), re.M)
    assert listed == list(action.choices)
