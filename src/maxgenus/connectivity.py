"""Connectivity backends for the greedy's pair-removal probe.

Each backend answers one question about its own copy of a graph,
``probe(e, f)``: does deleting the adjacent pair {e, f} keep the ends of
e and f joined?  A true answer leaves the pair deleted; a false one
restores it.  Both backends give identical answers; only the cost model
differs.  The greedy defaults to :class:`DfsBackend`, and the pipeline
and the CLI use nothing else.  The Euler-tour backend,
:class:`~maxgenus.dynamic.DynamicBackend`, lives in its own module,
which ``BACKENDS["dynamic"]`` imports on first use.

* :class:`DfsBackend` searches a ``MultiGraph`` copy on every probe,
  O(1) per deletion; loops stay in it, and a search passes over them, as
  a loop's far end is a vertex already reached.  The search starts from
  every endpoint of the pair in lockstep, one vertex expansion per side
  in turn (Even and Shiloach, J. ACM 28(1), 1981): a side that runs dry
  proves the answer false at a cost of O(smaller side), and sides that
  meet merge, so a true answer costs the search until the last meeting.
  Visited vertices live in a dict, so no probe pays O(n) up front.  A
  failed probe's rollback appends the pair's darts, so the copy's maps
  leave dart order; neither the search nor the cut scan needs that order
  for its answer.

Only :class:`DfsBackend` keeps a cut memo, ``bridges`` and ``cut_key``;
its probe says what they hold and why its answers from them are exact.
A failed search adds the bridge its dry side shows, if any.  Once failed
searches since the last scan have expanded ``SCAN_FACTOR`` times n + m
vertices, the probe runs :func:`~maxgenus.graph.cut_scan`
(``scan_cuts``) and keeps its bridges and its cut pairs: each tree edge
covered by exactly one non-tree edge, with that edge.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass

from .graph import GraphError, MultiGraph, cut_scan


@dataclass
class BackendStats:
    queries: int = 0
    deletes: int = 0
    inserts: int = 0
    memo_answers: int = 0  # probes answered from the cut memo
    scans: int = 0  # cut scans run (DfsBackend.scan_cuts)


# A DfsBackend scans for cuts once failed searches have expanded this many
# vertices per vertex and edge of the graph since its last scan.
SCAN_FACTOR = 8


def _pair_ends(ends, present, e: int, f: int):
    """The ends of e and f in ``ends``; raises :class:`GraphError` unless
    e and f are distinct edges in ``present`` that share an endpoint."""
    if e == f:
        raise GraphError("pair must consist of two distinct edges")
    if e not in present or f not in present:
        raise GraphError(f"edge {e} or {f} is not present")
    ue, uf = ends[e], ends[f]
    if ue[0] not in uf and ue[1] not in uf:
        raise GraphError(f"edges {e} and {f} do not share an endpoint")
    return ue, uf


# ---------------------------------------------------------------------------
# DFS backend
# ---------------------------------------------------------------------------

class DfsBackend:
    """Traversal-per-probe backend over its own copy of the graph minus
    the edges in ``without``."""

    def __init__(self, g: MultiGraph, without: AbstractSet[int] = frozenset()):
        self._g = g.copy(without)
        self.stats = BackendStats(inserts=self._g.n_edges)
        self.bridges: set[int] = set()
        self.cut_key: dict[int, int] = {}
        self._dry_work = 0  # vertices failed searches expanded since a scan

    def _dry_side(self, ends) -> frozenset[int] | None:
        """None if the vertices in ``ends`` lie in one component, else the
        ends inside the first side that ran dry.

        Each distinct end starts a breadth-first side: the list of vertices
        it reached, in reach order, and the index of the next one to
        expand.  The sides expand one vertex each in turn.  A side that
        reaches a vertex of another absorbs it: the other side's vertices
        are relabelled and its unexpanded tail is appended.  A side with
        nothing left to expand while others remain is a whole component
        that misses some end.
        """
        starts = list(dict.fromkeys(ends))
        if len(starts) < 2:
            return None
        sides = [[x] for x in starts]
        heads = [0] * len(sides)
        owner = {x: side for x, side in zip(starts, sides)}
        get = owner.get
        inc = self._g._inc
        expanded = 0
        i = 0
        while True:
            if i >= len(sides):
                i = 0
            side = sides[i]
            head = heads[i]
            if head == len(side):
                self._dry_work += expanded
                return frozenset(x for x in starts if owner[x] is side)
            heads[i] = head + 1
            expanded += 1
            for w in inc[side[head]].values():
                other = get(w)
                if other is None:
                    owner[w] = side
                    side.append(w)
                elif other is not side:
                    j = 0
                    while sides[j] is not other:
                        j += 1
                    del sides[j]
                    tail = other[heads.pop(j):]
                    if j < i:
                        i -= 1
                    if len(sides) == 1:
                        return None
                    for y in other:
                        owner[y] = side
                    side.extend(tail)
            i += 1

    def probe(self, e: int, f: int) -> bool:
        """Delete the present adjacent pair {e, f} and return True if its
        ends stay joined; else return False with the graph as before, the
        pair linked back by ``_link``.  Raises :class:`GraphError`, with
        nothing counted or changed, unless e and f are distinct present
        edges that share an endpoint.

        The answer is about the component C of the graph that holds e and
        f; the graph may have other components.  Every component of C
        minus {e, f} holds an endpoint of e or f, so C stays connected iff
        those endpoints are still mutually joined; that is the one search
        the probe makes.

        The cut memo answers some pairs False, counted as one query (and
        one memo answer) with no delete or insert: a pair holding an edge
        in ``bridges``, a pair with an edge whose ``cut_key`` is in
        ``bridges``, and a pair whose two edges share a ``cut_key``.
        ``bridges`` holds edges proved to be bridges, and ``cut_key`` maps
        both edges of a proved cut pair {t, b} to b; the greedy seeds it
        with the cut pairs of the scan that found its core.  Each entry
        stands for a vertex set S whose boundary in the graph it was found
        on is the bridge alone, or the cut pair.  Deleting edges shrinks
        every such boundary to its present part, and over GF(2)
        boundaries add: records {e, b} and {f, b} give a set whose
        boundary is {e, f}, and record {e, b} with bridge b gives one
        whose boundary is {e}.  A nonempty boundary inside C means C minus
        it is disconnected, so the memo stays exact while edges are
        deleted; the only insertion, the rollback, restores the graph it
        was proved on.

        A failed search adds a bridge: the side that ran dry is a whole
        component S of the graph minus {e, f}, and e and f are the only
        edges that can leave S.  If exactly one of them has exactly one
        end in S, that edge alone joins S to the rest, so it is a bridge.
        After a failed probe the backend may also rescan its cuts.
        """
        g = self._g
        ue, uf = _pair_ends(g._edges, g._edges, e, f)
        stats = self.stats
        stats.queries += 1
        bridges = self.bridges
        ke = self.cut_key.get(e)
        kf = self.cut_key.get(f)
        if (e in bridges or f in bridges or ke in bridges or kf in bridges
                or (ke is not None and ke == kf)):
            stats.memo_answers += 1
            return False
        g._unlink((e, f))
        stats.deletes += 2
        side = self._dry_side((*ue, *uf))
        if side is None:
            return True
        g._link(f, *uf)
        g._link(e, *ue)
        stats.inserts += 2
        crossing = [eid for eid, (a, b) in ((e, ue), (f, uf))
                    if (a in side) != (b in side)]
        if len(crossing) == 1:
            bridges.add(crossing[0])
        if self._dry_work >= SCAN_FACTOR * (g.n_vertices + g.n_edges):
            self.scan_cuts()
        return False

    def scan_cuts(self) -> None:
        """Replace ``bridges`` and ``cut_key`` by the records of
        :func:`~maxgenus.graph.cut_scan` on the present graph."""
        self.stats.scans += 1
        self._dry_work = 0
        self.bridges, self.cut_key, _, _ = cut_scan(self._g)


# ---------------------------------------------------------------------------
# Backend table
# ---------------------------------------------------------------------------

def _dynamic_backend(g: MultiGraph, without: AbstractSet[int] = frozenset()):
    """A :class:`~maxgenus.dynamic.DynamicBackend`, its module imported on
    first use."""
    from .dynamic import DynamicBackend
    return DynamicBackend(g, without)


# perfbench/certify.py times the greedy on "dynamic" while it is listed here.
BACKENDS = {"dfs": DfsBackend, "dynamic": _dynamic_backend}
