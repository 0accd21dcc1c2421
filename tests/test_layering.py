"""Each decision of the package lives in one module.

Math that depends on the objective or on the model's kind lives in
``approx``. No other module of the package compares a ``.kind`` with ``==``
or ``!=``, or asks an oracle for its optional ``coord_curvature``,
``coord_curvature_floor`` or ``coord_curvature_floor_near`` through
``getattr`` or ``hasattr``: they take a resolved ``Model`` from
``approx.resolve`` instead. Nor does one call ``.mu``, ``.curvature_bound``
or ``.validate_for_solver`` with an argument: those are the ``ApproxSpec``
forms, and the ``Model`` forms are attributes or take none.

How a change of the zero pattern moves the support I(x) and the penalty
lives in ``core``: no other module assigns a ``.support`` or ``.penalty``
attribute. The stepping code passes the toggled bits to
``IterateState.flip`` instead.

How an oracle's constants become a partition lives in ``core`` too: no
other module calls ``.block_lipschitz``, ``.spectral_lipschitz`` or
``.column_lipschitz`` or even names them (a bound method passed on is a
call deferred), or constructs a ``BlockPartition`` (directly or by
``BlockPartition.scalar``). They call ``L0Problem.from_oracle`` instead.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "l0rcd"
OPTIONAL_CURVATURE = {"coord_curvature", "coord_curvature_floor", "coord_curvature_floor_near"}
SUPPORT_BOOKS = {"support", "penalty"}
SPEC_CONSTANTS = {"mu", "curvature_bound", "validate_for_solver"}
ORACLE_CONSTANTS = {"block_lipschitz", "spectral_lipschitz", "column_lipschitz"}


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


def spec_constant_calls(source: str, filename: str) -> list[str]:
    """``file:line: calls .name(...)`` for each call of an ``ApproxSpec`` constant
    method, one that passes an argument."""
    found = [
        (node.lineno, node.func.attr)
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SPEC_CONSTANTS
        and (node.args or node.keywords)
    ]
    return [f"{filename}:{line}: calls .{name}(...)" for line, name in sorted(found)]


def test_only_approx_derives_spec_constants():
    found = [
        offence
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "approx.py"
        for offence in spec_constant_calls(path.read_text(), path.name)
    ]
    assert found == []


def test_the_spec_constant_check_finds_each_construct():
    source = "\n".join(
        [
            "mu = spec.mu(partition)",
            "bound = config.approx.curvature_bound(partition=p)",
            "spec.validate_for_solver(problem.partition)",
            "mu = model.mu",
            "bound = model.curvature_bound * lam",
            "model.validate_for_solver()",
            "check = model.validate_for_solver",
            "mu(partition)",
        ]
    )
    assert spec_constant_calls(source, "m.py") == [
        "m.py:1: calls .mu(...)",
        "m.py:2: calls .curvature_bound(...)",
        "m.py:3: calls .validate_for_solver(...)",
    ]


def _targets(node):
    """The expressions ``node`` assigns to, tuple and starred targets unpacked."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return []
    found = []
    while stack:
        e = stack.pop()
        if isinstance(e, (ast.Tuple, ast.List)):
            stack.extend(e.elts)
        elif isinstance(e, ast.Starred):
            stack.append(e.value)
        else:
            found.append(e)
    return found


def book_writes(source: str, filename: str) -> list[str]:
    """``file:line: assigns .name`` for each write of ``.support`` or ``.penalty``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        for e in _targets(node):
            if isinstance(e, ast.Attribute) and e.attr in SUPPORT_BOOKS:
                found.append((node.lineno, e.attr))
        if (
            isinstance(node, ast.Call)
            and (
                isinstance(node.func, ast.Name) and node.func.id == "setattr"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"
            )
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in SUPPORT_BOOKS
        ):
            found.append((node.lineno, node.args[1].value))
    return [f"{filename}:{line}: assigns .{name}" for line, name in sorted(found)]


def test_only_core_keeps_the_support_books():
    found = [
        offence
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "core.py"
        for offence in book_writes(path.read_text(), path.name)
    ]
    assert found == []


def test_the_book_check_finds_each_construct():
    source = "\n".join(
        [
            "state.support = 0",
            "state.penalty += lam",
            "x, (state.support, *rest) = pair",
            "state.penalty: float = 0.0",
            "setattr(state, 'support', 0)",
            'object.__setattr__(state, "penalty", 0.0)',
            "before = state.support",
            "entry = CatalogEntry(support=s, penalty=p)",
            "state.flip(problem, bits)",
        ]
    )
    assert book_writes(source, "m.py") == [
        "m.py:1: assigns .support",
        "m.py:2: assigns .penalty",
        "m.py:3: assigns .support",
        "m.py:4: assigns .penalty",
        "m.py:5: assigns .support",
        "m.py:6: assigns .penalty",
    ]


def partition_builds(source: str, filename: str) -> list[str]:
    """``file:line: what`` for each use of an oracle's constant method and
    each construction of a ``BlockPartition``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Attribute) and node.attr in ORACLE_CONSTANTS:
            found.append((node.lineno, f"uses .{node.attr}"))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "BlockPartition":
            found.append((node.lineno, "constructs BlockPartition"))
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "BlockPartition"
        ):
            found.append((node.lineno, f"constructs BlockPartition.{func.attr}"))
    return [f"{filename}:{line}: {what}" for line, what in sorted(found)]


def test_only_core_builds_partitions_from_oracles():
    found = [
        offence
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "core.py"
        for offence in partition_builds(path.read_text(), path.name)
    ]
    assert found == []


def test_the_partition_check_finds_each_construct():
    source = "\n".join(
        [
            "L = oracle.block_lipschitz(sizes)",
            "L_f = _construct(problem.smooth.spectral_lipschitz)()",
            "p = BlockPartition(sizes, lam, L)",
            "q = BlockPartition.scalar(lam, oracle.column_lipschitz())",
            "problem = L0Problem.from_oracle(oracle, lam, sizes)",
            "bound = partition.global_lipschitz * problem.partition.lipschitz[0]",
            "method = oracle.block_lipschitz",
            "def build(p: BlockPartition) -> BlockPartition: ...",
        ]
    )
    assert partition_builds(source, "m.py") == [
        "m.py:1: uses .block_lipschitz",
        "m.py:2: uses .spectral_lipschitz",
        "m.py:3: constructs BlockPartition",
        "m.py:4: constructs BlockPartition.scalar",
        "m.py:4: uses .column_lipschitz",
        "m.py:7: uses .block_lipschitz",
    ]
