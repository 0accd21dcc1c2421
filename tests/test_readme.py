"""README.md's two Python examples run and print what their comments state,
and its ``enumerate --example2`` block is what that command prints."""
import contextlib
import io
import re
from pathlib import Path

from l0rcd.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


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
