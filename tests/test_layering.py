"""The package's import layering: every module imports at its top, so the
import graph is the one the module headers show, with no cycle hidden in a
function body."""

from __future__ import annotations

import ast
from pathlib import Path

import cpodrift

SOURCES = sorted(Path(cpodrift.__file__).parent.glob("*.py"))


def _function_imports(path: Path) -> list[str]:
    """``file:line`` of each import inside a function body of ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend(f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return found


def test_no_module_imports_inside_a_function():
    assert SOURCES
    assert [site for path in SOURCES for site in _function_imports(path)] == []

