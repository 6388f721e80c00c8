"""Linear-time reduction of parallel bundles before the greedy search.

Two parallel edges between the same endpoints form a removable adjacent
pair whenever at least one further edge keeps the endpoints joined, and a
pair of loops at one vertex is always removable.  Harvesting those pairs
up front shrinks heavy multigraphs to at most two parallel edges per
endpoint pair and at most one loop per vertex, which caps the quadratic
per-vertex candidate budget the greedy pays on dense stars.

Every harvested pair lowers the cycle rank by exactly 2, so genus bounds
and maximality transfer: a maximal family on the reduced graph, merged
with the harvested pairs, is maximal on the original graph.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import DisconnectedError, GraphError, MultiGraph, is_connected
from .greedy import AdjacentPair, PairSet


class PreprocessResult(NamedTuple):
    """Reduced graph plus the pairs harvested on the way down.

    ``reduced`` is a copy; the input graph is untouched.  Edge ids are
    preserved verbatim: every edge of ``reduced`` keeps its id and its
    endpoints from the input.
    """

    reduced: MultiGraph
    pairs: PairSet


def reduce_multiedges(g: MultiGraph) -> PreprocessResult:
    """Harvest pairs from parallel classes and loop bundles.

    A parallel class of size s keeps 2 edges if s is even, 1 if s is odd
    (removal stops as soon as at most two remain, so the endpoints stay
    joined throughout).  A loop bundle of size t keeps t mod 2 loops.
    Pairs are taken lowest ids first; the whole pass is deterministic.
    """
    if not is_connected(g):
        raise DisconnectedError("preprocess requires a connected graph")
    pairs: list[AdjacentPair] = []
    classes: dict[tuple[int, int], list[int]] = {}
    loops: dict[int, list[int]] = {}
    edges = g._edges
    for eid in sorted(edges):
        u, v = edges[eid]
        if u == v:
            loops.setdefault(u, []).append(eid)
        else:
            key = (u, v) if u < v else (v, u)
            classes.setdefault(key, []).append(eid)

    # a class of s keeps 2 - s % 2 edges, a bundle of t loops t % 2
    for (u, _v), ids in sorted(c for c in classes.items() if len(c[1]) > 2):
        for i in range(0, len(ids) - 2 + len(ids) % 2, 2):
            pairs.append(AdjacentPair(ids[i], ids[i + 1], u))
    for v, ids in sorted(c for c in loops.items() if len(c[1]) > 1):
        for i in range(0, len(ids) - len(ids) % 2, 2):
            pairs.append(AdjacentPair(ids[i], ids[i + 1], v))

    harvested = {eid for e, f, _ in pairs for eid in (e, f)}
    return PreprocessResult(g.copy(without=harvested), PairSet(pairs))


def merge_pairs(first: PairSet, second: PairSet) -> PairSet:
    """Concatenate two pair families, refusing any shared edge id."""
    clash = set(first.edge_ids()) & set(second.edge_ids())
    if clash:
        raise GraphError(f"pair families share edge ids {sorted(clash)}")
    return PairSet(list(first.pairs) + list(second.pairs))
