"""Connectivity backends for the tentative-removal loop.

Both backends answer the same questions about an attached graph while
edges are deleted and re-inserted: ``connected(u, v)``,
``connected_all()`` and ``still_connected(ends)``, the question behind
the greedy's pair-removal probe.  They are interchangeable; only the cost
model differs.

* :class:`DfsBackend` searches on every query, O(1) per update.
  ``connected_all`` is one full traversal, O(m).  ``connected`` and
  ``still_connected`` search from every endpoint in lockstep, one vertex
  expansion per side in turn (Even and Shiloach, J. ACM 28(1), 1981): a
  side that runs dry proves the answer false at a cost of O(smaller side),
  and sides that meet merge, so a true answer costs the search until the
  last meeting.  Visited vertices live in a dict, so no query pays O(n)
  up front.
* :class:`DynamicBackend` keeps a hierarchy of Euler-tour spanning
  forests, one per level ``0..ceil(log2 n)``.  The forest at level i spans
  the components induced by edges of level >= i, and a level-i tree
  component never exceeds ``n / 2^i`` vertices.  Deleting a tree edge
  searches for a replacement level by level, promoting scanned edges one
  level up; each edge can rise at most ``ceil(log2 n)`` times, which is the
  amortization argument behind the O(log^2 n) update bound.  The total
  number of promotions is counted and tests assert the
  ``inserts * ceil(log2 n)`` budget.

Loop edges never enter the dynamic structure: they cannot affect
connectivity, so they are tracked only for existence.  ``connected_all``
on the dynamic backend is an incrementally maintained component counter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import ceil, log2

from .graph import GraphError, MultiGraph


@dataclass
class BackendStats:
    queries: int = 0
    deletes: int = 0
    inserts: int = 0
    promotions: int = 0


# ---------------------------------------------------------------------------
# DFS backend
# ---------------------------------------------------------------------------

class DfsBackend:
    """Traversal-per-query backend; the from-scratch reference."""

    kind = "dfs"

    def __init__(self, g: MultiGraph):
        self._n = g.n_vertices
        self._endpoints = {e: g.endpoints(e) for e in g.edge_ids()}
        self._present: set[int] = set(self._endpoints)
        # vertex -> {edge id -> other endpoint}; loops are omitted (they
        # never carry connectivity) but stay in the present set.
        self._adj: list[dict[int, int]] = [dict() for _ in range(self._n)]
        for eid, (u, v) in self._endpoints.items():
            if u != v:
                self._adj[u][eid] = v
                self._adj[v][eid] = u
        self.stats = BackendStats(inserts=len(self._present))

    def endpoints(self, eid: int) -> tuple[int, int]:
        try:
            return self._endpoints[eid]
        except KeyError:
            raise GraphError(f"edge {eid} unknown to backend") from None

    def has_edge(self, eid: int) -> bool:
        return eid in self._present

    def delete_edge(self, eid: int) -> None:
        u, v = self.endpoints(eid)
        if eid not in self._present:
            raise GraphError(f"edge {eid} is not present")
        self._present.remove(eid)
        self.stats.deletes += 1
        if u != v:
            del self._adj[u][eid]
            del self._adj[v][eid]

    def insert_edge(self, eid: int) -> None:
        u, v = self.endpoints(eid)
        if eid in self._present:
            raise GraphError(f"edge {eid} already present")
        self._present.add(eid)
        self.stats.inserts += 1
        if u != v:
            self._adj[u][eid] = v
            self._adj[v][eid] = u

    def connected(self, u: int, v: int) -> bool:
        self.stats.queries += 1
        return self._joined((u, v))

    def still_connected(self, ends) -> bool:
        """Whether the graph is still connected, given that it was before
        the last deletions and ``ends`` holds every endpoint of the deleted
        edges: each component then holds one of ``ends``."""
        self.stats.queries += 1
        return self._joined(ends)

    def _joined(self, ends) -> bool:
        """True iff the vertices in ``ends`` lie in one component.

        Each end starts a breadth-first side; the sides expand one vertex
        each in turn.  A side that reaches a vertex of another merges with
        it, and a side whose queue empties while others remain is a whole
        component that misses some end.
        """
        starts = list(dict.fromkeys(ends))
        # vertex -> id of the side that reached it; side id -> id of the
        # merged side it now belongs to; merged side id -> its queue.
        owner = {x: i for i, x in enumerate(starts)}
        merged = list(range(len(starts)))
        queues = {i: deque([x]) for i, x in enumerate(starts)}
        adj = self._adj
        while len(queues) > 1:
            for sid in list(queues):
                queue = queues.get(sid)
                if queue is None:
                    continue  # merged into another side this round
                if not queue:
                    return False
                for w in adj[queue.popleft()].values():
                    other = owner.get(w)
                    if other is None:
                        owner[w] = sid
                        queue.append(w)
                        continue
                    other = merged[other]
                    if other != sid:
                        queue.extend(queues.pop(other))
                        merged = [sid if m == other else m for m in merged]
                        if len(queues) == 1:
                            return True
        return True

    def connected_all(self) -> bool:
        self.stats.queries += 1
        seen = bytearray(self._n)
        seen[0] = 1
        reached = 1
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for w in self._adj[x].values():
                if not seen[w]:
                    seen[w] = 1
                    reached += 1
                    queue.append(w)
        return reached == self._n


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

    kind = "dynamic"

    def __init__(self, g: MultiGraph):
        self._n = g.n_vertices
        self._endpoints = {e: g.endpoints(e) for e in g.edge_ids()}
        self._max_level = ceil(log2(self._n)) if self._n >= 2 else 0
        self._forests = [_EulerForest() for _ in range(self._max_level + 1)]
        # per level: vertex -> set of non-tree edge ids of exactly that level
        self._nontree: list[dict[int, set[int]]] = [
            dict() for _ in range(self._max_level + 1)
        ]
        self._level: dict[int, int] = {}
        self._tree: set[int] = set()
        self._loops: set[int] = set()
        self._present: set[int] = set()
        self._comps = self._n
        self.stats = BackendStats()
        for eid in sorted(self._endpoints):
            self.insert_edge(eid)

    # -- interface ----------------------------------------------------------

    def endpoints(self, eid: int) -> tuple[int, int]:
        try:
            return self._endpoints[eid]
        except KeyError:
            raise GraphError(f"edge {eid} unknown to backend") from None

    def has_edge(self, eid: int) -> bool:
        return eid in self._present

    def connected(self, u: int, v: int) -> bool:
        self.stats.queries += 1
        return self._forests[0].connected(u, v)

    def connected_all(self) -> bool:
        self.stats.queries += 1
        return self._comps == 1

    def still_connected(self, ends) -> bool:
        # The component counter answers for the whole graph at once.
        self.stats.queries += 1
        return self._comps == 1

    def insert_edge(self, eid: int) -> None:
        u, v = self.endpoints(eid)
        if eid in self._present:
            raise GraphError(f"edge {eid} already present")
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
            self._comps -= 1

    def delete_edge(self, eid: int) -> None:
        u, v = self.endpoints(eid)
        if eid not in self._present:
            raise GraphError(f"edge {eid} is not present")
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
        self._comps += 1
        self._replace(u, v, lvl)

    # -- internals ----------------------------------------------------------

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
                        self._comps -= 1
                        return

    def _promote_tree_edge(self, eid: int, i: int) -> None:
        if i + 1 > self._max_level:
            raise AssertionError("level overflow: size invariant violated")
        a, b = self._endpoints[eid]
        self._level[eid] = i + 1
        self._forests[i + 1].link(eid, a, b)
        self.stats.promotions += 1

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
        self.stats.promotions += 1


# ---------------------------------------------------------------------------
# Factories and the shared removal probe
# ---------------------------------------------------------------------------

def dfs_backend(g: MultiGraph) -> DfsBackend:
    return DfsBackend(g)


def dynamic_backend(g: MultiGraph) -> DynamicBackend:
    return DynamicBackend(g)


BACKENDS = {"dfs": dfs_backend, "dynamic": dynamic_backend}


def pair_removal_keeps_connected(backend, e: int, f: int) -> bool:
    """Probe whether deleting the adjacent pair {e, f} keeps the graph
    connected.

    The backend's graph must be connected before the probe.  Every
    component of the graph minus {e, f} then holds an endpoint of e or f,
    so the graph stays connected iff those endpoints are still mutually
    joined; that is the one query the probe makes.

    On success the backend is left with both edges deleted; on failure they
    are re-inserted in reverse order and the backend state is
    indistinguishable from before the probe.  The two edges must be
    distinct, present, and share an endpoint.
    """
    if e == f:
        raise GraphError("pair must consist of two distinct edges")
    ue = backend.endpoints(e)
    uf = backend.endpoints(f)
    if not set(ue) & set(uf):
        raise GraphError(f"edges {e} and {f} do not share an endpoint")
    backend.delete_edge(e)
    try:
        backend.delete_edge(f)
    except GraphError:
        backend.insert_edge(e)
        raise
    ok = backend.still_connected((*ue, *uf))
    if not ok:
        backend.insert_edge(f)
        backend.insert_edge(e)
    return ok
