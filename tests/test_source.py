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
