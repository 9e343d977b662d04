"""Checks on the package source itself, built on ``ast`` (no linter is a
dependency)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import negtype

PACKAGE = Path(negtype.__file__).parent

# bench/tracer.py wraps these bindings, and bench/test_bench.py requires them
PINNED_UNUSED = {("glue.py", "refined_solve"), ("ultrametric.py", "refined_solve")}


def unused_imports(source: str) -> list[str]:
    """Names that an import binds and no name expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def private_definitions(source: str) -> set[str]:
    """Private module-level names that a source defines: functions, classes
    and constants, but not dunders."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def names_read(source: str) -> set[str]:
    """Names and attribute names that a source reads."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def tolerance_messages(source: str) -> list[tuple[int, bool]]:
    """The line of each ``raise ToleranceFailure(...)`` in a source, and
    whether its message states a value and its threshold: an f-string with
    at least one interpolated value whose constant text names a limit, a
    bound, a slack or "not above"."""
    raises = []
    for node in ast.walk(ast.parse(source)):
        call = node.exc if isinstance(node, ast.Raise) else None
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "ToleranceFailure"):
            continue
        message = call.args[0] if call.args else None
        parts = message.values if isinstance(message, ast.JoinedStr) else []
        text = "".join(p.value for p in parts if isinstance(p, ast.Constant))
        valued = any(isinstance(p, ast.FormattedValue) for p in parts)
        named = any(word in text for word in ("limit", "bound", "slack", "not above"))
        raises.append((node.lineno, valued and named))
    return raises


def test_tolerance_messages_are_checked():
    source = (
        "def f(x, limit):\n"
        "    if x > limit:\n"
        "        raise ToleranceFailure(f'x {x} exceeds limit {limit}')\n"
        "    if x < 0:\n"
        "        raise ToleranceFailure(f'x {x:.3g} is negative')\n"
        "    if x == 1:\n"
        "        raise ToleranceFailure('x is not above limit 1')\n"
        "    if x == 2:\n"
        "        raise ToleranceFailure(message)\n"
        "    if x == 3:\n"
        "        raise ToleranceFailure(\n"
        "            f'x {x} lies outside'\n"
        "            f' [0, 1], relative slack {1e-9:g}'\n"
        "        ) from None\n"
        "    raise ValueError(f'x {x} is above its bound')\n"
        "try:\n    f(0, 1)\nexcept ToleranceFailure as exc:\n    print(exc)\n"
    )
    assert tolerance_messages(source) == [
        (3, True), (5, False), (7, False), (9, False), (11, True)
    ]


def test_every_tolerance_failure_states_its_value_and_threshold():
    raises = {
        (p.name, line): ok
        for p in PACKAGE.glob("*.py")
        for line, ok in tolerance_messages(p.read_text(encoding="utf-8"))
    }
    assert len(raises) >= 11
    assert sorted(where for where, ok in raises.items() if not ok) == []


def test_the_cli_raises_no_tolerance_failure():
    # every exit 3 is decided by a check of the library
    assert tolerance_messages((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def reads_or_imports(source: str, name: str) -> bool:
    """Whether a source reads ``name`` (as a name or an attribute) or imports it."""
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return name in names_read(source) | imported


def test_reads_and_imports_are_found():
    assert reads_or_imports("from .gap import CONTAINMENT_RTOL\n", "CONTAINMENT_RTOL")
    assert reads_or_imports("x = gap.CONTAINMENT_RTOL\n", "CONTAINMENT_RTOL")
    assert reads_or_imports("def f(x):\n    return x * CONTAINMENT_RTOL\n", "CONTAINMENT_RTOL")
    assert not reads_or_imports("CONTAINMENT_RTOL = 1e-9\n", "CONTAINMENT_RTOL")
    assert not reads_or_imports("RTOL = 1e-9\nx = 'CONTAINMENT_RTOL'\n", "CONTAINMENT_RTOL")


def test_only_gap_reads_the_containment_slack():
    # gap._check_containment is the one containment test of an exact gap
    readers = [
        p.name for p in sorted(PACKAGE.glob("*.py"))
        if reads_or_imports(p.read_text(encoding="utf-8"), "CONTAINMENT_RTOL")
    ]
    assert readers == ["gap.py"]


def _numeric_literal(node: ast.expr | None) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def nonliteral_powers(source: str) -> list[tuple[str, int]]:
    """The innermost enclosing function ("" at module level) and the line of
    each power whose exponent is not a numeric literal: ``**``, ``**=``,
    ``pow``, ``math.pow`` and ``np.power``."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            exponent = node.value
        elif isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "pow"
            or isinstance(node.func, ast.Attribute) and node.func.attr in ("pow", "power")
        ):
            exponent = node.args[1] if len(node.args) > 1 else None
        else:
            continue
        if not _numeric_literal(exponent):
            owners = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            found.append((max(owners, key=lambda f: f.lineno).name if owners else "", node.lineno))
    return sorted(found, key=lambda where: where[1])


def test_nonliteral_powers_are_found():
    source = (
        "import math\nimport numpy as np\n"
        "def f(x, p):\n"
        "    y = x ** 2 + x ** -0.5 + pow(x, 3) + np.power(x, 2.0) + x ** 1e3\n"
        "    y **= p\n"
        "    return y ** p + pow(x, p) + math.pow(x, p) + np.power(x, p)\n"
        "def g(x):\n"
        "    def h(q):\n"
        "        return x ** q\n"
        "    return h(2.0)\n"
        "z = 2 ** len('ab')\n"
    )
    assert nonliteral_powers(source) == [
        ("f", 5), ("f", 6), ("f", 6), ("f", 6), ("f", 6), ("h", 9), ("", 11)
    ]


def test_every_power_of_a_distance_is_the_array_power():
    # metric._powers is numpy's array power, which builds D_p; Python's and a
    # numpy scalar's power differ from it in the last bit on some distances
    found = [
        (p.name, function)
        for p in sorted(PACKAGE.glob("*.py"))
        for function, _ in nonliteral_powers(p.read_text(encoding="utf-8"))
    ]
    assert found == [("metric.py", "_powers")]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom math import inf, log\n"
        "def f(x: np.ndarray) -> float:\n"
        "    return log(x.sum())\n"
    )
    assert unused_imports(source) == ["inf", "os"]


@pytest.mark.parametrize(
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_import(name):
    # __init__.py re-exports the public names, so it is not checked
    unused = unused_imports((PACKAGE / name).read_text(encoding="utf-8"))
    pinned = sorted(n for module, n in PINNED_UNUSED if module == name)
    assert unused == pinned


def test_unread_private_names_are_found():
    source = (
        "import numpy as np\n"
        "_CAP = 3\n_LIMIT: float = 1.0\n__version__ = '1'\n"
        "class _Dead:\n    pass\n"
        "def _used(x):\n    _local = x\n    return _local + np._NoValue\n"
        "def _stale():\n    _stale = 1\n"
        "def public():\n    return _used(_CAP)\n"
    )
    defined = private_definitions(source)
    assert defined == {"_CAP", "_LIMIT", "_Dead", "_used", "_stale"}
    assert sorted(defined - names_read(source)) == ["_Dead", "_LIMIT", "_stale"]


def test_every_private_name_is_read():
    # a helper that a refactor leaves behind is read by no module of the package
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    read = set().union(*(names_read(source) for source in sources.values()))
    unread = sorted(
        f"{module}:{name}"
        for module, source in sources.items()
        for name in private_definitions(source) - read
    )
    assert unread == []
