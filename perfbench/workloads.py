"""Seeded inputs for the certify-path benchmark.

A workload turns one ``random.Random`` stream into a sequence of edge-list
texts, so a seed always yields the same inputs in the same order.  Inputs
are built outside the timed region; the program under test only ever
receives the text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial
from typing import Callable

# The rotation oracle enumerates up to its default limit of 10^6 rotation
# systems, about 10 s for one graph near the limit.  A single such draw
# would decide a run's throughput, so the exact workload redraws graphs
# whose rotation count lies between this cap and the limit.  Graphs above
# the limit stay: the oracle refuses them at once, and that refusal is part
# of what the workload measures.
ROTATION_CAP = 20_000
ROTATION_LIMIT = 1_000_000


@dataclass(frozen=True)
class Input:
    text: str
    n_edges: int


@dataclass(frozen=True)
class Workload:
    """A named input family.

    ``make(mg, rng, i)`` builds input ``i`` of a run from the run's random
    stream.  The first ``prefix`` inputs are completed by every run, however
    long it takes; certificate digests, operation counts and answer quality
    come from them alone, so they repeat exactly for one seed.
    """

    name: str
    make: Callable[[object, random.Random, int], Input]
    prefix: int
    exact: bool = False
    params: dict = field(default_factory=dict)


def circulant_text(n: int, rng: random.Random) -> str:
    """The circulant C_n(1, 2), in which vertex i joins i+1 and i+2 mod n,
    as edge-list text with edge order and orientation drawn from rng.

    Labels are numbered by first appearance when parsed, so the order also
    fixes the vertex and edge ids the greedy's ``edge-id`` policy follows.
    """
    edges = [(i, (i + d) % n) for d in (1, 2) for i in range(n)]
    rng.shuffle(edges)
    lines = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"{u} {v}\n")
    return "".join(lines)


def rotation_count(degrees) -> int:
    """Rotation systems with the first dart pinned at every vertex."""
    total = 1
    for d in degrees:
        total *= factorial(max(d - 1, 0))
    return total


def _random_graph(n: int, m: int, **probs):
    def make(mg, rng: random.Random, i: int) -> Input:
        g = mg.gen_random_connected_multigraph(
            n, m, seed=rng.randrange(2**32), **probs)
        return Input(mg.format_edge_list(g), m)
    return make


def _circulant(n: int):
    def make(mg, rng: random.Random, i: int) -> Input:
        return Input(circulant_text(n, rng), 2 * n)
    return make


def _small_graph(mg, rng: random.Random, i: int) -> Input:
    # m cycles through 8..16 so every run draws the same mix of sizes.
    m = 8 + i % 9
    while True:
        n = rng.randint(m // 3 + 1, m // 2 + 2)
        g = mg.gen_random_connected_multigraph(n, m, seed=rng.randrange(2**32))
        count = rotation_count(g.degree(v) for v in g.vertices())
        if not ROTATION_CAP < count <= ROTATION_LIMIT:
            return Input(mg.format_edge_list(g), m)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("random", _random_graph(512, 1024), prefix=8,
                 params={"generator": "gen_random_connected_multigraph",
                         "n": 512, "m": 1024}),
        Workload("circulant", _circulant(512), prefix=8,
                 params={"graph": "C_n(1,2)", "n": 512, "m": 1024}),
        Workload("bundles",
                 _random_graph(128, 2048, loop_prob=0.3, parallel_prob=0.5),
                 prefix=12,
                 params={"generator": "gen_random_connected_multigraph",
                         "n": 128, "m": 2048, "loop_prob": 0.3,
                         "parallel_prob": 0.5}),
        Workload("exact", _small_graph, prefix=500, exact=True,
                 params={"m": "8..16 in turn", "n": "m//3+1..m//2+2",
                         "rotation_cap": ROTATION_CAP}),
    )
}
