"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from collections import Counter
from dataclasses import is_dataclass
from importlib import import_module
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


def test_graph_maps_are_written_only_in_graph_module():
    # a MultiGraph's maps keep ascending dart order because only graph.py
    # writes them; any other module must go through its methods
    def is_map_subscript(node):
        while isinstance(node, ast.Subscript):
            node = node.value
            if isinstance(node, ast.Attribute) and node.attr in ("_edges",
                                                                 "_inc"):
                return True
        return False

    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "graph.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno}"
                      for target in targets for t in ast.walk(target)
                      if is_map_subscript(t)]
    assert found == []


def test_private_module_names_are_used():
    # a module-level _helper or a _method of a class that nothing outside
    # its own body references is dead code: its last caller was deleted
    def names(node):
        return Counter(getattr(n, "id", None) or getattr(n, "attr", None)
                       or getattr(n, "name", None) for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))

    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))}
    used = sum((names(tree) for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        defs = [("", stmt) for stmt in tree.body]
        defs += [(f"{stmt.name}.", item) for stmt in tree.body
                 if isinstance(stmt, ast.ClassDef) for item in stmt.body]
        unused += [
            f"{path.relative_to(SRC)}:{owner}{node.name}"
            for owner, node in defs
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and used[node.name] == names(node)[node.name]
        ]
    assert unused == []


def _fresh_output(script: str) -> list[str]:
    """The words ``script`` prints, run in a fresh interpreter that imports
    this package copy."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def _modules_after(statement: str) -> list[str]:
    """The ``maxgenus`` submodules loaded after ``statement`` runs in a
    fresh interpreter."""
    return _fresh_output(
        "import sys\n"
        f"{statement}\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "    if m.startswith('maxgenus.'))))\n")


def test_cli_import_starts_no_process_machinery():
    # the CLI runs everything in its own process; importing it must not
    # pull in a process pool, which would slow every start-up
    assert _fresh_output(
        "import sys\n"
        "import maxgenus.cli\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "    if m.split('.')[0] in ('multiprocessing', 'concurrent'))))\n"
    ) == []


# the modules ``import maxgenus`` loads: what certifying runs
CERTIFY_PATH = ("connectivity", "embedding", "graph", "greedy", "pipeline",
                "preprocess", "report")


def test_package_import_loads_only_the_certify_path():
    # the exact oracles, the generators, the bench harness and the
    # Euler-tour backend load on first use, so a start-up compiles only
    # what certifying runs
    assert _modules_after("import maxgenus") == [
        f"maxgenus.{name}" for name in CERTIFY_PATH]


def test_cli_import_loads_no_oracle_and_no_bench():
    loaded = _modules_after("import maxgenus.cli")
    assert "maxgenus.oracle" not in loaded
    assert "maxgenus.bench" not in loaded
    assert "maxgenus.generators" not in loaded
    assert "maxgenus.dynamic" not in loaded


def test_certify_path_records_are_named_tuples():
    # a dataclass generates and compiles its methods when its module
    # loads; the records that need no dataclass machinery are NamedTuples
    modules = [import_module(f"maxgenus.{name}") for name in CERTIFY_PATH]
    found = {name for module in modules for name, obj in vars(module).items()
             if isinstance(obj, type) and is_dataclass(obj)
             and obj.__module__ == module.__name__}
    assert found == {"PairSet", "GreedyStats", "BackendStats", "RunReport"}


def test_dynamic_backend_loads_on_first_use():
    # the Euler-tour backend's module loads only when the greedy asks for
    # it, and gives the pairs of the default backend
    assert _fresh_output(
        "import sys\n"
        "import maxgenus\n"
        "g = maxgenus.gen_random_connected_multigraph(12, 30, seed=3)\n"
        "dfs = maxgenus.greedy_max_genus(g, policy='edge-id')\n"
        "print('maxgenus.dynamic' in sys.modules)\n"
        "dyn = maxgenus.greedy_max_genus(g, policy='edge-id',\n"
        "                                backend='dynamic')\n"
        "print('maxgenus.dynamic' in sys.modules, dyn.pairs == dfs.pairs,\n"
        "      len(dfs.pairs) > 0)\n"
        "from maxgenus import dynamic\n"
        "print(maxgenus.DynamicBackend is dynamic.DynamicBackend)\n"
    ) == ["False", "True", "True", "True", "True"]


def test_every_export_resolves():
    # ``import *`` reads every name of ``__all__``, the lazy ones included;
    # an unknown name is an AttributeError, so a submodule import falls back
    # to loading the submodule
    assert _fresh_output(
        "from maxgenus import *\n"
        "import maxgenus\n"
        "from maxgenus import bench, oracle\n"
        "print(' '.join(n for n in maxgenus.__all__ if n not in globals()))\n"
        "print(hasattr(maxgenus, 'no_such_name'), bench.__name__,\n"
        "      LimitExceededError is oracle.LimitExceededError)\n"
    ) == ["False", "maxgenus.bench", "True"]


def test_sources_parse_as_python_3_10():
    # pyproject promises Python >= 3.10; a newer syntax anywhere in the
    # repository's Python files would break there first
    root = SRC.parents[1]
    paths = sorted(p for top in ("src", "tests", "perfbench", "scripts")
                   for p in (root / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
