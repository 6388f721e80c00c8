"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "maxgenus"


def test_no_assert_statements():
    # Checks in the package raise typed errors; ``python -O`` strips every
    # assert statement, and a check written as one would vanish there.
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules under {SRC}"
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
