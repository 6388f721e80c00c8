"""The Euler-tour connectivity backend, :class:`DynamicBackend`.

It answers the same ``probe(e, f)`` as
:class:`~maxgenus.connectivity.DfsBackend`, with identical answers, and
is slower on every benchmark workload; it stays only for the certify
benchmark's traced comparison run.  ``BACKENDS["dynamic"]`` imports this
module on first use, so the certify path never compiles it.

It keeps a hierarchy of Euler-tour spanning forests, one per level
``0..ceil(log2 n)``.  The forest at level i spans the components induced
by edges of level >= i, and a level-i tree component never exceeds
``n / 2^i`` vertices.  Deleting a tree edge searches for a replacement
level by level, promoting scanned edges one level up; each edge can rise
at most ``ceil(log2 n)`` times, which is the amortization argument behind
the O(log^2 n) update bound.  The total number of promotions is counted
in its ``promotions`` and tests assert the ``inserts * ceil(log2 n)``
budget.  Loop edges never enter its forests: they cannot affect
connectivity, so they are tracked only for existence.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from math import ceil, log2

from .connectivity import BackendStats, _pair_ends
from .graph import MultiGraph


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
        False.  Raises :class:`~maxgenus.graph.GraphError` as
        :meth:`~maxgenus.connectivity.DfsBackend.probe` does."""
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
