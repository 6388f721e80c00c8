"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
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


def test_private_module_names_are_used():
    # a module-level _helper whose last caller was deleted is dead code
    def names(node):
        return {getattr(n, "id", None) or getattr(n, "attr", None)
                or getattr(n, "name", None) for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}

    stmts = [(path, stmt) for path in sorted(SRC.rglob("*.py"))
             for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    used = [names(stmt) for _, stmt in stmts]
    unused = [
        f"{path.relative_to(SRC)}:{stmt.name}"
        for i, (path, stmt) in enumerate(stmts)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and not any(stmt.name in u for j, u in enumerate(used) if j != i)
    ]
    assert unused == []


def test_cli_import_starts_no_process_machinery():
    # the CLI runs everything in its own process; importing it must not
    # pull in a process pool, which would slow every start-up
    script = (
        "import sys\n"
        "import maxgenus.cli\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "    if m.split('.')[0] in ('multiprocessing', 'concurrent'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
