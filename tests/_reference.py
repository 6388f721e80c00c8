"""From-scratch references: connectivity over a set of present edge ids
for checking the backends' probes (:class:`MirrorGraph`, which never
deletes from or restores into a ``MultiGraph``), pair insertion for checking
``EmbeddingState``'s corner list, the corner list's merge step on one
flat list for checking its blocks, and plain forms of the pair check,
the edge-list parser, the bridges (a component count per deleted edge),
the pair oracle (recursive, over a :class:`MirrorGraph`), the rotation
oracle (traced by ``genus_of``'s face count) and the rotation check (by
sorting each vertex's darts) for checking the faster ones."""

from __future__ import annotations

from collections import deque
from itertools import permutations, product

from maxgenus import (
    AdjacentPair,
    MultiGraph,
    PairSet,
    ParseError,
    GraphError,
    RotationSystem,
)
from maxgenus.embedding import _face_count, surface_genus
from maxgenus.graph import bfs_tree
from maxgenus.greedy import candidate_pairs


class MirrorGraph:
    """The present edges of a graph under pair probes, and under the
    deletes and inserts of the reference searches, answering by plain
    traversal.  It keeps a set of present edge ids and, per vertex, the
    ids of the edges at it by the original endpoints; a delete or insert
    only updates the set.  No package graph code runs after construction,
    so the traversal shares none with the package's."""

    def __init__(self, g: MultiGraph):
        self.n = g.n_vertices
        self.ends = {eid: g.endpoints(eid) for eid in g.edge_ids()}
        self.present = set(self.ends)
        self.at: list[list[int]] = [[] for _ in range(self.n)]
        for eid, (u, v) in self.ends.items():  # ascending ids
            self.at[u].append(eid)
            if v != u:
                self.at[v].append(eid)

    def delete_edge(self, eid: int) -> None:
        self.present.remove(eid)

    def insert_edge(self, eid: int) -> None:
        if eid in self.present or eid not in self.ends:
            raise KeyError(eid)
        self.present.add(eid)

    def has_edge(self, eid: int) -> bool:
        return eid in self.present

    def edge_ids(self) -> list[int]:
        return sorted(self.present)

    def edges_at(self, v: int) -> list[int]:
        """The present edges at v, ascending; a loop appears once."""
        return [eid for eid in self.at[v] if eid in self.present]

    def _reach(self, u: int) -> set[int]:
        seen = {u}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for eid in self.edges_at(x):
                a, b = self.ends[eid]
                w = b if a == x else a
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    def connected(self, u: int, v: int) -> bool:
        return v in self._reach(u)

    def components(self) -> int:
        left, count = set(range(self.n)), 0
        while left:
            left -= self._reach(left.pop())
            count += 1
        return count

    def connected_all(self) -> bool:
        return len(self._reach(0)) == self.n

    def probe(self, e: int, f: int) -> bool:
        """The backends' probe: delete e and f and return True if their
        ends stay joined; else restore both and return False."""
        self.delete_edge(e)
        self.delete_edge(f)
        first, *rest = (*self.ends[e], *self.ends[f])
        if self._reach(first).issuperset(rest):
            return True
        self.present |= {e, f}
        return False


def brute_bridges(g: MultiGraph) -> set[int]:
    """The edges of g whose deletion adds a component, by a plain count
    of the components left, one edge at a time."""
    mirror = MirrorGraph(g)
    whole = mirror.components()
    out = set()
    for eid in g.edge_ids():
        mirror.delete_edge(eid)
        if mirror.components() > whole:
            out.add(eid)
        mirror.insert_edge(eid)
    return out


class ReferenceEmbedding:
    """Rotation maps grown like ``build_embedding`` grows them, with each
    pair's merge corner found by tracing the whole face of the witness
    dart's successor.  It keeps its own maps and shares no code with
    ``EmbeddingState``, so it checks the corner list's answers."""

    def __init__(self, g: MultiGraph, tree_edges):
        self.g = g
        self.next: dict[int, int] = {}
        self.prev: dict[int, int] = {}
        self.first: dict[int, int] = {}
        at = {v: [] for v in g.vertices()}
        for eid in tree_edges:
            u, v = g.endpoints(eid)
            at[u].append(2 * eid)
            at[v].append(2 * eid + 1)
        for v, darts in at.items():
            darts.sort()
            for i, d in enumerate(darts):
                self._link(d, darts[(i + 1) % len(darts)])
            if darts:
                self.first[v] = darts[0]

    def _link(self, d: int, e: int) -> None:
        self.next[d] = e
        self.prev[e] = d

    def _put(self, d: int, v: int, ref: int | None) -> None:
        if ref is None:
            self._link(d, d)
            self.first[v] = d
        else:
            self._link(self.prev[ref], d)
            self._link(d, ref)

    def insert_edge(self, eid: int, corner_u, corner_v) -> None:
        """Edge ``eid`` before the given corners (None: a bare end)."""
        u, v = self.g.endpoints(eid)
        self._put(2 * eid, u, corner_u)
        if corner_v is None and u == v:
            corner_v = 2 * eid
        self._put(2 * eid + 1, v, corner_v)

    def face(self, d: int) -> list[int]:
        out = [d]
        x = self.next[d ^ 1]
        while x != d:
            out.append(x)
            x = self.next[x ^ 1]
        return out

    def insert_pair(self, pair) -> None:
        """The first edge at the first darts of its ends; the second at
        the first dart of its far end (the witness dart's successor for
        a loop) and, at the witness, before whichever of the witness dart
        and its successor lies on the other face."""
        w = pair.witness
        eu, ev = self.g.endpoints(pair.e)
        fu, fv = self.g.endpoints(pair.f)
        self.insert_edge(pair.e, self.first.get(eu), self.first.get(ev))
        d_w = 2 * pair.e + (0 if eu == w else 1)
        after = self.next[d_w]
        b = fv if fu == w else fu
        z = after if b == w else self.first[b]
        ref_w = d_w if z in self.face(after) else after
        self.insert_edge(pair.f, *((ref_w, z) if fu == w else (z, ref_w)))

    def rotation_text(self) -> str:
        order = {}
        for v in self.g.vertices():
            cyc = []
            if v in self.first:
                d = self.first[v]
                while not cyc or d != cyc[0]:
                    cyc.append(d)
                    d = self.next[d]
                i = cyc.index(min(cyc))
                cyc = cyc[i:] + cyc[:i]
            order[v] = tuple(cyc)
        return RotationSystem(order).to_text()


def merge_corners(c: list[int], x: int, y: int, z: int) -> bool:
    """``EmbeddingState._merge_corners`` on one flat list ``c``: whether z
    lies on the arc [y, x), and ``c`` updated by swapping the two arcs
    of the three cuts that do not wrap around its end."""
    i, j, k = c.index(x), c.index(y), c.index(z)
    lo, mid, hi = sorted((i, j, k))
    c[lo:hi] = c[mid:hi] + c[lo:mid]
    return j < k < i or k < i < j or i < j < k


def reference_rotation_text(g: MultiGraph, pairs) -> str:
    """The rotation text ``build_embedding(g, pairs)`` should emit: tree,
    then the pairs by :class:`ReferenceEmbedding`, then each leftover
    edge at the first darts of its ends."""
    pair_edges = {eid for p in pairs for eid in (p.e, p.f)}
    tree = bfs_tree(g, pair_edges)
    ref = ReferenceEmbedding(g, tree)
    for p in pairs:
        ref.insert_pair(p)
    for eid in g.edge_ids():
        if eid not in tree and eid not in pair_edges:
            u, v = g.endpoints(eid)
            ref.insert_edge(eid, ref.first.get(u), ref.first.get(v))
    return ref.rotation_text()


def pair_edge_set(g: MultiGraph, pairs) -> tuple[set[int], str | None]:
    """``greedy._pair_edge_set`` through the public graph queries: the
    pair edge ids and the first failed check's reason, or None."""
    seen: set[int] = set()
    for p in pairs:
        for eid in (p.e, p.f):
            if not g.has_edge(eid):
                return seen, f"missing-edge:{eid}"
            if eid in seen:
                return seen, f"duplicate-edge:{eid}"
            seen.add(eid)
        ue = set(g.endpoints(p.e))
        uf = set(g.endpoints(p.f))
        if p.witness not in (ue & uf):
            return seen, f"not-adjacent:{p.e},{p.f}@{p.witness}"
    return seen, None


def reference_parse_edge_list(text: str) -> MultiGraph:
    """``graph.parse_edge_list`` as a plain line-by-line loop: every line
    cut at its first ``#`` and numbered as it is read, then one
    ``add_edge`` call per edge."""
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError(
                f"expected two vertex labels, got {len(parts)}", line_no
            )
        a, b = parts
        u = index.setdefault(a, len(index))
        edges.append((u, index.setdefault(b, len(index))))
    if not index:
        raise ParseError("empty graph: no edges or vertices")
    g = MultiGraph(len(index))
    for u, v in edges:
        g.add_edge(u, v)
    g.labels = {i: label for label, i in index.items()}
    return g


def exact_max_genus_pairs(g: MultiGraph) -> tuple[int, PairSet]:
    """``oracle.exact_max_genus_pairs`` as a recursive branch and bound
    over ``AdjacentPair`` candidates, with no edge limit; it recurses
    once per chosen pair.  It stops early only at floor(beta/2), not at
    the bridge bound: the three package oracles share ``bridge_bound``,
    so a cap below gamma_M would show only against a search without it.
    It has no node bound on purpose: it visits every family below every
    node, so a node bound in the package oracle that closes a node
    holding a better family shows here."""
    seen_pairs: set[tuple[int, int]] = set()
    cands: list[AdjacentPair] = []
    for v in g.vertices():
        for e, f in candidate_pairs(g, v, ()):
            if (e, f) not in seen_pairs:
                seen_pairs.add((e, f))
                cands.append(AdjacentPair(e, f, v))
    cands.sort(key=lambda p: (g.degree(p.witness), p.e, p.f))

    n = g.n_vertices
    cap = (g.n_edges - n + 1) // 2
    work = MirrorGraph(g)
    best_k = 0
    best: list[AdjacentPair] = []
    chosen: list[AdjacentPair] = []

    def search(start: int) -> bool:
        """Returns True once the global cap was reached (stop everything)."""
        nonlocal best_k, best
        k = len(chosen)
        if k > best_k:
            best_k = k
            best = list(chosen)
            if best_k == cap:
                return True
        for i in range(start, len(cands)):
            p = cands[i]
            if not (work.has_edge(p.e) and work.has_edge(p.f)):
                continue
            work.delete_edge(p.e)
            work.delete_edge(p.f)
            done = False
            if work.connected_all():
                chosen.append(p)
                done = search(i + 1)
                chosen.pop()
            work.insert_edge(p.e)
            work.insert_edge(p.f)
            if done:
                return True
        return False

    search(0)
    return best_k, PairSet(list(best))


def exact_max_genus_rotations(g: MultiGraph) -> int:
    """``oracle.exact_max_genus_rotations`` as a product over every
    vertex's orders (first dart pinned), each rotation's faces counted by
    ``_face_count``, the count ``genus_of`` makes, with no rotation limit
    and no rotation check: every combination is built from g's own
    darts.  Like :func:`exact_max_genus_pairs`, it stops early only at
    floor(beta/2), not at the package oracles' shared ``bridge_bound``.
    It is unpruned on purpose: it traces every rotation, so a face bound
    in the package oracle that cuts off an optimal subtree shows here."""
    per_vertex: list[list[tuple[int, ...]]] = []
    for v in g.vertices():
        darts = sorted(g._inc[v])
        if len(darts) <= 1:
            per_vertex.append([tuple(darts)])
        else:
            head, rest = darts[0], darts[1:]
            per_vertex.append([(head,) + p for p in permutations(rest)])
    best = 0
    cap = (g.n_edges - g.n_vertices + 1) // 2
    for combo in product(*per_vertex):
        sigma_next = {d: nxt for cyc in combo
                      for d, nxt in zip(cyc, cyc[1:] + cyc[:1])}
        genus = surface_genus(g, _face_count(sigma_next, sigma_next))
        if genus > best:
            best = genus
            if best == cap:
                break
    return best


def validate_rotation(g: MultiGraph, rot: RotationSystem) -> None:
    """``RotationSystem.validate`` as a sort per vertex: the vertex sets
    match and each vertex's cycle, sorted, is its darts.  Raises
    :class:`GraphError`."""
    if set(rot.order) != set(g.vertices()):
        raise GraphError("rotation vertex set does not match graph")
    for v, cyc in rot.order.items():
        if sorted(cyc) != sorted(g._inc[v]):
            raise GraphError(f"rotation at vertex {v} is not a "
                             "permutation of its darts")
