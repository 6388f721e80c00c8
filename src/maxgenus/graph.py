"""Undirected multigraphs with stable edge identity.

Vertices are dense integers ``0..n-1``.  Edges carry immutable integer ids
assigned at insertion and never reused, so external references (pair
certificates, rotation systems) stay meaningful in every copy and
subgraph.  Loops and parallel edges are allowed everywhere.

Each edge ``e`` owns two darts (edge ends) encoded as the integers ``2*e``
and ``2*e + 1``; the twin of a dart ``d`` is ``d ^ 1``.  A loop contributes
both of its darts to its single vertex, which is why a loop adds 2 to the
degree and the handshake identity sum(deg) = 2m holds unconditionally.
Each vertex keeps a map from dart to far end in ascending dart order, so
traversals walk it as it stands and meet lower edge ids first, where
lower ids must win.

Text format: one edge per line as two whitespace-separated vertex labels,
``#`` starts a comment, blank lines are ignored, repeated lines denote
parallel edges and identical endpoints denote a loop.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Set as AbstractSet


class GraphError(Exception):
    """Base class for errors raised by this package."""


class ParseError(GraphError):
    """Malformed edge-list or rotation text.  Carries the 1-based line
    number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class DisconnectedError(GraphError):
    """An operation that requires a connected graph got a disconnected one."""


class CertificationError(GraphError):
    """Independent computations that must agree on a result did not."""


class LimitExceededError(GraphError):
    """Instance exceeds the configured search limit of an exact oracle."""


# the exact oracles' default limits: pair-search edges, trees, rotations
DEFAULT_PAIRS_EDGE_LIMIT = 16
DEFAULT_TREE_LIMIT = 100_000
DEFAULT_ROTATION_LIMIT = 1_000_000


# ---------------------------------------------------------------------------
# Darts
# ---------------------------------------------------------------------------

def format_dart(d: int) -> str:
    """Text form ``edgeId.end`` used in rotation-system output."""
    return f"{d >> 1}.{d & 1}"


def parse_dart(text: str) -> int:
    """Inverse of :func:`format_dart`; the edge id is an ASCII decimal."""
    eid, sep, end = text.partition(".")
    if not (sep and end in ("0", "1") and eid.isascii() and eid.isdigit()):
        raise ValueError(f"bad dart {text!r}, expected edgeId.end")
    return (int(eid) << 1) | int(end)


# ---------------------------------------------------------------------------
# MultiGraph
# ---------------------------------------------------------------------------

class MultiGraph:
    """Mutable multigraph over vertices ``0..n-1``.

    Incidence is stored per vertex as a map from each dart to the far end
    of its edge.  A graph grows only by ``add_edge``, which appends a
    fresh, larger id, or by a bulk build in ascending id order
    (:func:`parse_edge_list`, :meth:`copy`), and shrinks only by
    ``_unlink`` or ``copy(without=)``, so every map is in ascending dart
    order by construction.  The writers out of that order put an edge
    back into a private work copy through ``_link``: ``DfsBackend``'s
    probe rollback and the exact oracles' searches.  Single-writer: no
    concurrent mutation.
    """

    __slots__ = ("_n", "_edges", "_inc", "_next_id", "labels")

    def __init__(self, n_vertices: int):
        if n_vertices < 1:
            raise GraphError("graph must have at least one vertex")
        self._n = n_vertices
        self._edges: dict[int, tuple[int, int]] = {}
        # dart -> far end of its edge (a loop's own vertex), ordered
        self._inc: list[dict[int, int]] = [dict() for _ in range(n_vertices)]
        self._next_id = 0
        self.labels: dict[int, str] | None = None

    # -- construction -------------------------------------------------------

    def add_edge(self, u: int, v: int) -> int:
        """Insert an edge (loop if ``u == v``) and return its fresh id."""
        self._check_vertex(u)
        self._check_vertex(v)
        eid = self._next_id
        self._next_id += 1
        self._link(eid, u, v)
        return eid

    def _link(self, eid: int, u: int, v: int) -> None:
        """Insert edge ``eid`` = (u, v) with no checks, appending its darts
        to the maps of u and v."""
        self._edges[eid] = (u, v)
        self._inc[u][2 * eid] = v
        self._inc[v][2 * eid + 1] = u

    def copy(self, without: AbstractSet[int] = frozenset()) -> "MultiGraph":
        """A copy minus the edges in ``without``, built from the edges it
        keeps in ascending id order, so its maps are in dart order."""
        g = MultiGraph(self._n)
        if without:
            edges, inc = self._edges, g._inc
            g._edges = {e: edges[e] for e in sorted(edges.keys() - without)}
            for eid, (u, v) in g._edges.items():
                inc[u][2 * eid] = v
                inc[v][2 * eid + 1] = u
        else:
            g._edges = dict(self._edges)
            g._inc = [dict(m) for m in self._inc]
        g._next_id = self._next_id
        g.labels = self.labels
        return g

    # -- basic queries ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def vertices(self) -> range:
        return range(self._n)

    def edge_ids(self) -> list[int]:
        return sorted(self._edges)

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    def endpoints(self, eid: int) -> tuple[int, int]:
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphError(f"unknown edge id {eid}") from None

    def is_loop(self, eid: int) -> bool:
        u, v = self.endpoints(eid)
        return u == v

    def degree(self, v: int) -> int:
        """Incident dart count; a loop counts twice."""
        self._check_vertex(v)
        return len(self._inc[v])

    # -- shrinking ----------------------------------------------------------

    def _unlink(self, eids: Iterable[int]) -> None:
        """Delete the present, distinct edges ``eids`` with no checks."""
        edges, inc = self._edges, self._inc
        for eid in eids:
            u, v = edges.pop(eid)
            del inc[u][2 * eid]
            del inc[v][2 * eid + 1]

    # -- equality -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        # dict equality: the same darts and far ends, in any order
        return (self._n, self._edges, self._inc) == \
            (other._n, other._edges, other._inc)

    def __hash__(self):  # mutable; identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return f"MultiGraph(n={self._n}, m={self.n_edges})"

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} out of range 0..{self._n - 1}")


# ---------------------------------------------------------------------------
# Parsing / formatting
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> MultiGraph:
    """Parse the edge-list text format.

    Labels are arbitrary whitespace-free strings mapped to dense ints in
    first-appearance order; the mapping is kept on ``graph.labels``.
    Raises :class:`ParseError` (with line number) on malformed lines and on
    empty input, since an empty graph has no embedding.

    One loop over the lines of ``str.splitlines``, each split into labels
    by ``str.split``; only a text holding a ``#`` has its lines cut at
    the first one first.  The endpoint ids go into one flat list, u and v
    of edge e at 2·e and 2·e + 1, the dart order.  The first malformed
    line is found again by ``list.index`` for its line number: every line
    before it that reads the same would have failed first.
    """
    index: dict[str, int] = {}
    ends: list[int] = []
    add = ends.append
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    for raw in lines:
        parts = raw.split()
        if len(parts) == 2:
            a, b = parts
            add(index.setdefault(a, len(index)))
            add(index.setdefault(b, len(index)))
        elif parts:
            raise ParseError(f"expected two vertex labels, got {len(parts)}",
                             lines.index(raw) + 1)
    if not index:
        raise ParseError("empty graph: no edges or vertices")
    # the ids come from ``index``, so they are in range: no add_edge checks
    g = MultiGraph(len(index))
    pairs = iter(ends)
    g._edges = edges = dict(enumerate(zip(pairs, pairs)))
    g._next_id = len(edges)
    inc = g._inc
    d = 0
    for u, v in edges.values():
        inc[u][d] = v
        inc[v][d + 1] = u
        d += 2
    g.labels = dict(enumerate(index))
    return g


def format_edge_list(g: MultiGraph) -> str:
    """Inverse of :func:`parse_edge_list`, one edge per line by ascending id.
    Raises :class:`GraphError` if g has no edge or a vertex of no edge,
    which the text cannot carry."""
    if not g.n_edges or not all(map(g.degree, g.vertices())):
        raise GraphError("an edge list cannot carry a vertex with no edge")
    names = g.labels or {}
    lines = []
    for eid in g.edge_ids():
        u, v = g.endpoints(eid)
        lines.append(f"{names.get(u, u)} {names.get(v, v)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Connectivity, cycle rank, cactus test
# ---------------------------------------------------------------------------

def _component_count(g: MultiGraph) -> int:
    seen = bytearray(g.n_vertices)
    count = 0
    for s in range(g.n_vertices):
        if seen[s]:
            continue
        count += 1
        seen[s] = 1
        queue = [s]
        for v in queue:
            for w in g._inc[v].values():
                if not seen[w]:
                    seen[w] = 1
                    queue.append(w)
    return count


def is_connected(g: MultiGraph) -> bool:
    """True iff every vertex (including isolated ones) is reachable."""
    return _component_count(g) == 1


def bfs_tree(g: MultiGraph, excluded: Container[int] = ()) -> set[int]:
    """Spanning tree by BFS from vertex 0 over the edges not in
    ``excluded``, lowest ids first; loops are never tree edges.  Raises
    :class:`DisconnectedError` if those edges do not span g."""
    seen = bytearray(g.n_vertices)
    seen[0] = 1
    tree: set[int] = set()
    queue = [0]  # grows while it is read, so it is read in BFS order
    for v in queue:
        # the map is in dart order, so lower ids win
        for d, w in g._inc[v].items():
            if not seen[w] and d >> 1 not in excluded:
                seen[w] = 1
                tree.add(d >> 1)
                queue.append(w)
    if len(queue) != g.n_vertices:
        raise DisconnectedError("the edges left do not span the graph")
    return tree


def cut_scan(g: MultiGraph) -> tuple[set[int], dict[int, int], int, int]:
    """Every bridge of g, every cut pair {tree edge, its only covering
    edge} of one DFS forest, the number of 2-edge-connected pieces of odd
    cycle rank and the number of components, by one iterative DFS from
    each unreached root, O(n + m).

    For the tree edge above x, the non-tree edges that leave x's subtree
    for a proper ancestor are counted (and their ids XORed): +1 at each
    end below, -1 at each end above, summed up the tree.  A count of 0
    makes the tree edge a bridge; a count of 1 makes it and the covering
    edge, whose id the XOR is, the boundary of x's subtree.  Such a pair
    {t, b} is recorded as ``cut_key[t] = b`` and ``cut_key[b] = b``.
    Only the tree edge's own id is skipped on the way back, so a parallel
    copy covers it.  A second sum counts each non-tree edge once, at its
    lower end, and a loop once, up to the next bridge: the cycle rank of
    a piece.  Each subtree cut off by a bridge, and each root's piece,
    adds its parity to ``odd_pieces``, Nebeský's xi at the bridges.
    Returns ``(bridges, cut_key, odd_pieces, components)``.
    """
    inc = g._inc
    n = g.n_vertices
    # 0: unreached, 1: on the DFS path, 2: finished
    state = bytearray(n)
    count = [0] * n
    xor = [0] * n
    rank = [0] * n  # non-tree edges of the piece met so far
    bridges: set[int] = set()
    cut_key: dict[int, int] = {}
    odd = components = 0
    for root in range(n):
        if state[root]:
            continue
        components += 1
        state[root] = 1
        stack = [(root, -1, iter(inc[root].items()))]
        while stack:
            x, up, it = stack[-1]
            for d, w in it:
                if w == x:
                    rank[x] += d & 1  # a loop: one of its two darts
                    continue
                eid = d >> 1
                if eid == up:
                    continue
                seen = state[w]
                if not seen:
                    state[w] = 1
                    stack.append((w, eid, iter(inc[w].items())))
                    break
                # a reached neighbour is an ancestor while it is on the
                # path, and a descendant once it is finished
                count[x] += 1 if seen == 1 else -1
                rank[x] += seen & 1  # 1 at the lower end, 0 at the upper
                xor[x] ^= eid
            else:
                stack.pop()
                state[x] = 2
                c = count[x]
                if stack and c:
                    if c == 1:
                        cut_key[up] = cut_key[xor[x]] = xor[x]
                    p = stack[-1][0]
                    count[p] += c
                    xor[p] ^= xor[x]
                    rank[p] += rank[x]
                else:  # the root, or the tree edge above x is a bridge
                    odd += rank[x] & 1
                    if stack:
                        bridges.add(up)
    return bridges, cut_key, odd, components


def cycle_rank(g: MultiGraph) -> int:
    """First Betti number m - n + c; the pair count can never exceed half."""
    return g.n_edges - g.n_vertices + _component_count(g)


def is_cactus(g: MultiGraph) -> bool:
    """True iff no vertex lies on two distinct cycles: for connected g,
    maximum genus 0 (Nordhaus, Ringeisen, Stewart and White, 1972).  A loop
    is a one-edge cycle and a parallel pair a two-edge one, so a second
    loop at a vertex, a loop on a cycle or a third parallel edge fails.

    Read from one :func:`cut_scan`: every non-loop edge must be a bridge or
    keyed, and no vertex may meet two keys, a loop keying itself.  Then the
    fundamental cycles are vertex-disjoint, each keyed by its non-tree
    edge.  Raises :class:`DisconnectedError` if the scan counts two
    components or more.
    """
    bridges, cut_key, _, components = cut_scan(g)
    if components != 1:
        raise DisconnectedError("is_cactus requires a connected graph")
    for v, darts in enumerate(g._inc):
        cycles = set()
        for d, w in darts.items():
            eid = d >> 1
            if w == v:
                cycles.add(eid)
            elif eid in cut_key:
                cycles.add(cut_key[eid])
            elif eid not in bridges:
                return False
        if len(cycles) > 1:
            return False
    return True
