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

from dataclasses import dataclass

from .graph import DisconnectedError, GraphError, MultiGraph, is_connected
from .greedy import AdjacentPair, PairSet


@dataclass(frozen=True)
class PreprocessResult:
    """Reduced graph plus the pairs harvested on the way down.

    ``reduced`` is a copy; the input graph is untouched.  Edge ids are
    preserved verbatim: every edge of ``reduced`` keeps its id and its
    endpoints from the input.  ``ops`` counts grouping and removal steps
    and stays linear in the edge count.
    """

    reduced: MultiGraph
    pairs: PairSet
    ops: int

    def accounting_ok(self, original: MultiGraph) -> bool:
        return (
            self.reduced.n_edges + 2 * len(self.pairs.pairs)
            == original.n_edges
        )


def reduce_multiedges(g: MultiGraph) -> PreprocessResult:
    """Harvest pairs from parallel classes and loop bundles.

    A parallel class of size s keeps 2 edges if s is even, 1 if s is odd
    (removal stops as soon as at most two remain, so the endpoints stay
    joined throughout).  A loop bundle of size t keeps t mod 2 loops.
    Pairs are taken lowest ids first; the whole pass is deterministic.
    """
    if not is_connected(g):
        raise DisconnectedError("preprocess requires a connected graph")
    reduced = g.copy()
    pairs: list[AdjacentPair] = []
    ops = 0

    classes: dict[tuple[int, int], list[int]] = {}
    loops: dict[int, list[int]] = {}
    for eid in reduced.edge_ids():
        ops += 1
        u, v = reduced.endpoints(eid)
        if u == v:
            loops.setdefault(u, []).append(eid)
        else:
            key = (u, v) if u < v else (v, u)
            classes.setdefault(key, []).append(eid)

    for (u, _v), ids in sorted(classes.items()):
        while len(ids) > 2:
            e, f = ids[0], ids[1]
            ids = ids[2:]
            reduced.delete_edges((e, f))
            pairs.append(AdjacentPair(e, f, u))
            ops += 1
    for v, ids in sorted(loops.items()):
        while len(ids) > 1:
            e, f = ids[0], ids[1]
            ids = ids[2:]
            reduced.delete_edges((e, f))
            pairs.append(AdjacentPair(e, f, v))
            ops += 1

    return PreprocessResult(reduced, PairSet(pairs), ops)


def merge_pairs(first: PairSet, second: PairSet) -> PairSet:
    """Concatenate two pair families, refusing any shared edge id."""
    clash = set(first.edge_ids()) & set(second.edge_ids())
    if clash:
        raise GraphError(f"pair families share edge ids {sorted(clash)}")
    return PairSet(list(first.pairs) + list(second.pairs))
