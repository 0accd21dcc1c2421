"""Math that depends on the objective or on the model's kind lives in ``approx``.

No other module of the package compares a ``.kind`` with ``==`` or ``!=``,
or asks an oracle for its optional ``coord_curvature`` or
``coord_curvature_floor`` through ``getattr`` or ``hasattr``: they take a
resolved ``Model`` from ``approx.resolve`` instead.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "l0rcd"
OPTIONAL_CURVATURE = {"coord_curvature", "coord_curvature_floor"}


def offences(source: str, filename: str) -> list[str]:
    """``file:line: what`` for each forbidden construct in ``source``, by line."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            if any(isinstance(e, ast.Attribute) and e.attr == "kind" for e in operands):
                found.append((node.lineno, "compares .kind"))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in OPTIONAL_CURVATURE
        ):
            found.append((node.lineno, f"{node.func.id} {node.args[1].value}"))
    return [f"{filename}:{line}: {what}" for line, what in sorted(found)]


def test_only_approx_resolves_models():
    found = [
        offence
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "approx.py"
        for offence in offences(path.read_text(), path.name)
    ]
    assert found == []


def test_the_check_finds_each_construct():
    source = "\n".join(
        [
            'if model.kind == "ue":',
            "    floor = getattr(oracle, 'coord_curvature_floor', None)",
            'same = "uq" != spec.kind',
            'fixed = hasattr(oracle, "coord_curvature")',
            'allowed = spec.kind in ("uq", "uQ") or getattr(oracle, "restricted_minimize", None)',
            'label = {"approx": spec.kind}',
        ]
    )
    assert offences(source, "m.py") == [
        "m.py:1: compares .kind",
        "m.py:2: getattr coord_curvature_floor",
        "m.py:3: compares .kind",
        "m.py:4: hasattr coord_curvature",
    ]
