"""Single-field rules live on the annotations: a config section's
``__post_init__`` holds only the rules that relate two or more values, and
``check_fields`` enforces every range and choice a field declares."""

from __future__ import annotations

import ast
from pathlib import Path

import cpodrift

SOURCES = sorted(Path(cpodrift.__file__).parent.glob("*.py"))


def _is_constant(node: ast.AST) -> bool:
    """No name in ``node`` but module constants (UPPER_CASE)."""
    return all(n.id.isupper() for n in ast.walk(node) if isinstance(n, ast.Name))


def _is_self_field(node: ast.AST) -> bool:
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _section_post_inits(tree: ast.AST):
    """The ``__post_init__`` of every class that calls ``check_fields`` there."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                        and any(isinstance(c, ast.Call)
                                and getattr(c.func, "id", None) == "check_fields"
                                for c in ast.walk(fn))):
                    yield cls.name, fn


def _single_field_checks(path: Path) -> tuple[list[str], list[str]]:
    """The sections of ``path``, and ``file:line`` of each comparison in
    their ``__post_init__`` of one ``self.<field>`` against constants only."""
    sections, found = [], []
    for name, fn in _section_post_inits(ast.parse(path.read_text(), str(path))):
        sections.append(name)
        for node in ast.walk(fn):
            if (not isinstance(node, ast.Compare)
                    or any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)):
                continue    # `is None` tests an optional field, not its range
            operands = [node.left, *node.comparators]
            variable = [o for o in operands if not _is_constant(o)]
            if len(variable) == 1 and _is_self_field(variable[0]):
                found.append(f"{path.name}:{node.lineno}")
    return sections, found


def test_no_section_checks_a_single_field_range_by_hand():
    results = [_single_field_checks(path) for path in SOURCES]
    sections = [name for names, _ in results for name in names]
    assert "RunConfig" in sections and len(sections) >= 9
    assert [site for _, sites in results for site in sites] == []
