#!/usr/bin/env python3
"""Mutant catalogue: one-line faults that the tests must catch.

Each entry of ``MUTANTS`` names a file, a text in it, the text that
replaces it and a pytest selection.  For each entry the script unpacks
the checkout's files that git does not ignore (``git archive`` of the
working tree as it stands) into a temporary directory, applies the entry
there, runs the selection with that copy's ``src`` on the path and
prints ``killed`` (a test failed) or ``survived`` (all passed).  It
prints ``stale`` when the old text is not in its file exactly once, and
``error`` when pytest ends in any other way (no test collected, a
collection error).  The exit code is 1 unless every entry is killed.
The checkout itself is never modified, and the entries run one at a
time, one pytest process each.

    python scripts/mutants.py                  # every entry
    python scripts/mutants.py scan-loop-twice  # the named entries only

To add an entry, append a ``Mutant`` to ``MUTANTS``: a unique name, the
file relative to the repository root, the exact old text (unique in the
file; take a whole line with its indentation), the new text, and the
smallest pytest selection that kills it.  Run the script on the entry:
it must print ``killed``.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


SCAN = "src/maxgenus/graph.py"
ORACLE = "src/maxgenus/oracle.py"
GREEDY = "src/maxgenus/greedy.py"
EMBED = "src/maxgenus/embedding.py"

MUTANTS = [
    # graph.cut_scan: a loop adds 1 to its piece's cycle rank, once
    Mutant("scan-loop-twice", SCAN,
           "rank[x] += d & 1  # a loop: one of its two darts",
           "rank[x] += 1  # a loop: one of its two darts",
           ("tests/test_graph.py::TestCutScan",)),
    # a count of 1 names the only covering edge; more name none
    Mutant("scan-cover-count", SCAN,
           "                    if c == 1:\n",
           "                    if c >= 1:\n",
           ("tests/test_graph.py::TestCutScan",)),
    # the XOR of the edges leaving a subtree adds up the tree
    Mutant("scan-xor-dropped", SCAN,
           "                    xor[p] ^= xor[x]\n",
           "",
           ("tests/test_graph.py::TestCactus",)),
    # spanning_trees lists exactly ``limit`` trees before it refuses
    Mutant("trees-limit-off-by-one", ORACLE,
           "            if count > limit:\n",
           "            if count >= limit:\n",
           ("tests/test_oracle.py::TestSpanningTrees",)),
    # the tree oracle refuses only when both count bounds pass the limit
    Mutant("tree-count-either-bound", ORACLE,
           "    return product > limit and binom > limit\n",
           "    return product > limit or binom > limit\n",
           ("tests/test_oracle.py::TestXuong",)),
    # a text holding a # has its lines cut at the first one
    Mutant("parse-comment-cut-dropped", SCAN,
           '    if "#" in text:\n'
           '        lines = [raw.split("#", 1)[0] for raw in lines]\n',
           "",
           ("tests/test_graph.py::test_property_parse_matches_the_reference",)),
    # the family check refuses f when an earlier pair holds it
    Mutant("pair-check-f-duplicate", GREEDY,
           "        if f in seen:\n"
           '            return seen, f"duplicate-edge:{f}"\n',
           "",
           ("tests/test_greedy.py::TestVerify",)),
    # the leftover edges are neither tree nor pair edges
    Mutant("leftover-keeps-pair-edges", EMBED,
           "sorted(edges.keys() - tree - pair_edges)",
           "sorted(edges.keys() - tree)",
           ("tests/test_embedding.py::TestBuildEmbedding",)),
    # the second edge's far-end dart links back from its successor
    Mutant("pair-splice-prev-link", EMBED,
           "        sp[cv] = d1\n",
           "        sp[cv] = p\n",
           ("tests/test_embedding.py::TestBuildEmbedding",)),
]


def checkout_files() -> bytes:
    """A tar of the working tree's files that git does not ignore.

    They are staged in a throwaway index, so the checkout's own index,
    refs and files stay as they are, and ``git archive`` packs the tree
    that index writes."""
    with tempfile.TemporaryDirectory(prefix="mutant-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp, "index"))}

        def git(*args: str) -> bytes:
            return subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                                  check=True, capture_output=True).stdout

        git("add", "-A")
        return git("archive", git("write-tree").decode().strip())


def run(m: Mutant, archive: bytes) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        path = Path(tmp, m.file)
        text = path.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            return "stale"
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src"))}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x",
             "-p", "no:cacheprovider", *m.tests],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="entries to run (default all)")
    args = ap.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown entries: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or MUTANTS
    archive = checkout_files()
    bad = 0
    for m in chosen:
        verdict = run(m, archive)
        bad += verdict != "killed"
        print(f"{verdict:8} {m.name}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
