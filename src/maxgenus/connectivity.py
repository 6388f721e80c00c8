"""Connectivity backends for the greedy's pair-removal probe.

Each backend answers one question about its own copy of a graph,
``probe(e, f)``: does deleting the adjacent pair {e, f} keep the ends of
e and f joined?  A true answer leaves the pair deleted; a false one
restores it.  Both backends give identical answers; only the cost model
differs.  The greedy defaults to :class:`DfsBackend`, and the pipeline
and the CLI use nothing else.  :class:`DynamicBackend` is slower on
every benchmark workload; it stays only for the certify benchmark's
traced comparison run.

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
* :class:`DynamicBackend` keeps a hierarchy of Euler-tour spanning
  forests, one per level ``0..ceil(log2 n)``.  The forest at level i spans
  the components induced by edges of level >= i, and a level-i tree
  component never exceeds ``n / 2^i`` vertices.  Deleting a tree edge
  searches for a replacement level by level, promoting scanned edges one
  level up; each edge can rise at most ``ceil(log2 n)`` times, which is the
  amortization argument behind the O(log^2 n) update bound.  The total
  number of promotions is counted in its ``promotions`` and tests assert
  the ``inserts * ceil(log2 n)`` budget.  Loop edges never enter its
  forests: they cannot affect connectivity, so they are tracked only for
  existence.

Only :class:`DfsBackend` keeps a cut memo, ``bridges`` and ``cut_key``;
its probe says what they hold and why its answers from them are exact.
A failed search adds the bridge its dry side shows, if any.  Once failed
searches since the last scan have expanded ``SCAN_FACTOR`` times n + m
vertices, the probe runs :func:`~maxgenus.graph.cut_scan`
(``scan_cuts``): one iterative DFS, O(n + m), that records every bridge
and every tree edge covered by exactly one non-tree edge.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from math import ceil, log2

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
        self.bridges, self.cut_key = cut_scan(self._g)


# ---------------------------------------------------------------------------
# Splay-tree Euler tours
# ---------------------------------------------------------------------------

class _Arc:
    """One direction of a tree edge inside an Euler-tour sequence."""

    __slots__ = ("left", "right", "parent", "size", "edge", "tail", "head")

    def __init__(self, edge: int, tail: int, head: int):
        self.left = self.right = self.parent = None
        self.size = 1
        self.edge = edge
        self.tail = tail
        self.head = head


def _size(x):
    return x.size if x is not None else 0


def _update(x):
    x.size = 1 + _size(x.left) + _size(x.right)


def _rotate(x):
    p = x.parent
    gp = p.parent
    if p.left is x:
        p.left = x.right
        if x.right is not None:
            x.right.parent = p
        x.right = p
    else:
        p.right = x.left
        if x.left is not None:
            x.left.parent = p
        x.left = p
    p.parent = x
    x.parent = gp
    if gp is not None:
        if gp.left is p:
            gp.left = x
        else:
            gp.right = x
    _update(p)
    _update(x)


def _splay(x):
    while x.parent is not None:
        p = x.parent
        gp = p.parent
        if gp is not None:
            if (gp.left is p) == (p.left is x):
                _rotate(p)
            else:
                _rotate(x)
        _rotate(x)
    return x


def _join(a, b):
    if a is None:
        return b
    if b is None:
        return a
    r = a
    while r.right is not None:
        r = r.right
    _splay(r)
    r.right = b
    b.parent = r
    _update(r)
    return r


def _inorder(root):
    out = []
    stack = []
    x = root
    while stack or x is not None:
        while x is not None:
            stack.append(x)
            x = x.left
        x = stack.pop()
        out.append(x)
        x = x.right
    return out


class _EulerForest:
    """Euler tours (arc sequences) of one forest level.

    The tour of a tree with k >= 2 vertices is a closed walk of its
    2(k - 1) directed arcs; a rotation of the sequence is again a valid
    tour, which keeps reroot/link/cut to a handful of splits and joins.
    Single-vertex components own no arcs and are implicit.
    """

    __slots__ = ("arcs", "inc")

    def __init__(self):
        self.arcs: dict[int, tuple[_Arc, _Arc]] = {}
        self.inc: dict[int, set[int]] = {}

    def _arc_with_tail(self, v: int):
        ids = self.inc.get(v)
        if not ids:
            return None
        eid = next(iter(ids))
        fwd, bwd = self.arcs[eid]
        return fwd if fwd.tail == v else bwd

    def connected(self, u: int, v: int) -> bool:
        if u == v:
            return True
        au = self._arc_with_tail(u)
        av = self._arc_with_tail(v)
        if au is None or av is None:
            return False
        _splay(au)
        _splay(av)
        return au.parent is not None  # au ended up under av's root

    def component_size(self, v: int) -> int:
        a = self._arc_with_tail(v)
        if a is None:
            return 1
        _splay(a)
        return a.size // 2 + 1

    def component_arcs(self, v: int) -> list[_Arc]:
        a = self._arc_with_tail(v)
        if a is None:
            return []
        _splay(a)
        return _inorder(a)

    def _reroot(self, v: int):
        """Rotate v's tour to start with an arc leaving v; returns the root."""
        a = self._arc_with_tail(v)
        if a is None:
            return None
        _splay(a)
        left = a.left
        if left is None:
            return a
        a.left = None
        left.parent = None
        _update(a)
        return _join(a, left)

    def link(self, eid: int, u: int, v: int) -> None:
        fwd = _Arc(eid, u, v)
        bwd = _Arc(eid, v, u)
        tu = self._reroot(u)
        tv = self._reroot(v)
        _join(_join(_join(fwd, tv), bwd), tu)
        self.inc.setdefault(u, set()).add(eid)
        self.inc.setdefault(v, set()).add(eid)
        self.arcs[eid] = (fwd, bwd)

    def cut(self, eid: int) -> None:
        fwd, bwd = self.arcs.pop(eid)
        for v in (fwd.tail, fwd.head):
            ids = self.inc[v]
            ids.discard(eid)
            if not ids:
                del self.inc[v]
        _splay(fwd)
        r_fwd = _size(fwd.left)
        _splay(bwd)
        r_bwd = _size(bwd.left)
        first, second = (fwd, bwd) if r_fwd < r_bwd else (bwd, fwd)
        # S = A first M second C; the cut components are M and A+C.
        _splay(first)
        a = first.left
        if a is not None:
            first.left = None
            a.parent = None
            _update(first)
        _splay(second)
        c = second.right
        if c is not None:
            second.right = None
            c.parent = None
            _update(second)
        _splay(first)
        rest = first.right
        if rest is not None:
            first.right = None
            rest.parent = None
            _update(first)
        _splay(second)
        between = second.left
        if between is not None:
            second.left = None
            between.parent = None
            _update(second)
        _join(a, c)


# ---------------------------------------------------------------------------
# Dynamic backend (hierarchical Euler-tour forests)
# ---------------------------------------------------------------------------

class DynamicBackend:
    """Fully dynamic connectivity with O(log^2 n) amortized updates."""

    def __init__(self, g: MultiGraph, without: AbstractSet[int] = frozenset()):
        n = g.n_vertices
        self._endpoints = {e: uv for e, uv in g._edges.items()
                           if e not in without}
        self._max_level = ceil(log2(n)) if n >= 2 else 0
        self._forests = [_EulerForest() for _ in range(self._max_level + 1)]
        # per level: vertex -> set of non-tree edge ids of exactly that level
        self._nontree: list[dict[int, set[int]]] = [
            dict() for _ in range(self._max_level + 1)
        ]
        self._level: dict[int, int] = {}
        self._tree: set[int] = set()
        self._loops: set[int] = set()
        self._present: set[int] = set()
        self.stats = BackendStats()
        self.promotions = 0
        for eid in sorted(self._endpoints):
            self.insert_edge(eid)

    def probe(self, e: int, f: int) -> bool:
        """Delete the present adjacent pair {e, f} and return True if its
        ends stay joined in forest 0; else re-insert f, then e, and return
        False.  Raises :class:`GraphError` as :meth:`DfsBackend.probe`
        does."""
        ue, uf = _pair_ends(self._endpoints, self._present, e, f)
        self.delete_edge(e)
        self.delete_edge(f)
        self.stats.queries += 1
        first, *rest = (*ue, *uf)
        forest = self._forests[0]
        if all(forest.connected(first, x) for x in rest):
            return True
        self.insert_edge(f)
        self.insert_edge(e)
        return False

    def insert_edge(self, eid: int) -> None:
        u, v = self._endpoints[eid]
        self._present.add(eid)
        self.stats.inserts += 1
        if u == v:
            self._loops.add(eid)
            return
        self._level[eid] = 0
        if self._forests[0].connected(u, v):
            self._nontree[0].setdefault(u, set()).add(eid)
            self._nontree[0].setdefault(v, set()).add(eid)
        else:
            self._tree.add(eid)
            self._forests[0].link(eid, u, v)

    def delete_edge(self, eid: int) -> None:
        u, v = self._endpoints[eid]
        self._present.remove(eid)
        self.stats.deletes += 1
        if eid in self._loops:
            self._loops.remove(eid)
            return
        lvl = self._level.pop(eid)
        if eid not in self._tree:
            self._drop_nontree(eid, lvl, u, v)
            return
        self._tree.remove(eid)
        for i in range(lvl, -1, -1):
            self._forests[i].cut(eid)
        self._replace(u, v, lvl)

    def _drop_nontree(self, eid: int, lvl: int, u: int, v: int) -> None:
        for x in (u, v):
            ids = self._nontree[lvl].get(x)
            if ids is not None:
                ids.discard(eid)
                if not ids:
                    del self._nontree[lvl][x]

    def _replace(self, u: int, v: int, lvl: int) -> None:
        """Search levels lvl..0 for a replacement of the cut tree edge."""
        for i in range(lvl, -1, -1):
            forest = self._forests[i]
            side = u if forest.component_size(u) <= forest.component_size(v) else v
            arcs = forest.component_arcs(side)
            verts = {side}
            promote_tree: set[int] = set()
            for arc in arcs:
                verts.add(arc.tail)
                if self._level[arc.edge] == i:
                    promote_tree.add(arc.edge)
            for e2 in sorted(promote_tree):
                self._promote_tree_edge(e2, i)
            nt = self._nontree[i]
            for x in sorted(verts):
                for e2 in sorted(nt.get(x, set())):
                    a, b = self._endpoints[e2]
                    other = b if x == a else a
                    if other in verts:
                        self._promote_nontree_edge(e2, i)
                    else:
                        # reconnects the two sides: becomes a tree edge at
                        # its level and enters every forest below it.
                        self._drop_nontree(e2, i, a, b)
                        self._tree.add(e2)
                        for j in range(i + 1):
                            self._forests[j].link(e2, a, b)
                        return

    def _promote_tree_edge(self, eid: int, i: int) -> None:
        if i + 1 > self._max_level:
            raise AssertionError("level overflow: size invariant violated")
        a, b = self._endpoints[eid]
        self._level[eid] = i + 1
        self._forests[i + 1].link(eid, a, b)
        self.promotions += 1

    def _promote_nontree_edge(self, eid: int, i: int) -> None:
        if i + 1 > self._max_level:
            raise AssertionError("level overflow: size invariant violated")
        a, b = self._endpoints[eid]
        if self._level.get(eid) != i:
            return  # already moved via its other endpoint
        self._drop_nontree(eid, i, a, b)
        self._level[eid] = i + 1
        self._nontree[i + 1].setdefault(a, set()).add(eid)
        self._nontree[i + 1].setdefault(b, set()).add(eid)
        self.promotions += 1


# ---------------------------------------------------------------------------
# Backend table
# ---------------------------------------------------------------------------

# perfbench/certify.py times the greedy on "dynamic" while it is listed here.
BACKENDS = {"dfs": DfsBackend, "dynamic": DynamicBackend}
