"""Exact maximum-genus oracles for desk-scale instances.

Three independent routes, used to cross-check each other and to validate
the greedy's bounds:

* :func:`exact_max_genus_pairs` searches over families of disjoint
  adjacent pairs whose removal keeps the graph connected; the optimum
  family size equals the maximum genus.  A candidate pair at witness v
  is tested by one search from v that stops once it meets the pair's
  other ends.  A node is closed when its pairs plus the bridge bound of
  the graph left there cannot beat the best family found.
* :func:`xuong_max_genus` minimizes, over all spanning trees, the number
  of cotree components with an odd edge count; the maximum genus is
  ``(beta - min_odd) / 2``.  It tries Kruskal's tree by ascending id
  first and enumerates only when that tree falls short of the bound.
* :func:`exact_max_genus_rotations` maximizes the genus over rotation
  systems (first dart per vertex pinned) by branch and bound: the faces
  that a partial rotation already closes bound every completion's
  genus.  It traces faces itself, apart from :mod:`.embedding`.

All three are exponential; each takes an explicit limit and raises
:class:`LimitExceededError` beyond it rather than running away; the
tree and rotation oracles check it before they search (the rotation
oracle's limit counts every rotation system, pruned or not).
Each search stops once its best value reaches :func:`bridge_bound`,
Nebeský's upper bound at the bridges, tight on most small graphs, read
from :func:`.graph.cut_scan`, the package's one low-link DFS.  Each
search keeps the first optimum it meets, so the bound (and the pair
search's node bound, the same scan of the graph left at a node) only
ends a search sooner and leaves the witnesses as they are.  The pair and
tree oracles take the scan's component count as their connectivity check.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from itertools import combinations, permutations
from math import factorial

from .graph import (
    DEFAULT_PAIRS_EDGE_LIMIT,
    DEFAULT_ROTATION_LIMIT,
    DEFAULT_TREE_LIMIT,
    CertificationError,
    DisconnectedError,
    GraphError,
    LimitExceededError,
    MultiGraph,
    cut_scan,
    is_connected,
)
from .greedy import AdjacentPair, PairSet


class _UnionFind:
    """Union by size with no path compression, so ``undo`` can take back
    the last union that joined two sets; a find costs O(log n)."""

    __slots__ = ("parent", "size", "joined")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.joined: list[int] = []  # the root each union put below another

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        size = self.size
        if size[ra] > size[rb]:
            ra, rb = rb, ra
        self.parent[ra] = rb
        size[rb] += size[ra]
        self.joined.append(ra)
        return True

    def undo(self) -> None:
        ra = self.joined.pop()
        self.size[self.parent[ra]] -= self.size[ra]
        self.parent[ra] = ra


def nebesky_bound(g: MultiGraph, cut: Collection[int]) -> int:
    """Upper bound on the maximum genus of connected g from the edge set
    ``cut``, by one union-find pass over the other edges.

    Nebeský (Czech. Math. J. 31, 1981): ``gamma_M = (beta - max_A xi_A)
    / 2`` with ``xi_A = c + b - |A| - 1``, where c counts the components
    of g minus A and b those of odd cycle rank.  So every A gives
    ``(beta - xi_A) // 2 >= gamma_M``, and some A attains it.  The empty
    set gives ``floor(beta / 2)``; the bridges make xi the number of
    2-edge-connected pieces of odd cycle rank, the bound that
    :func:`bridge_bound` reads from one scan with no cut set given.
    Ids in ``cut`` that are not edges of g are ignored.  Raises
    :class:`DisconnectedError` if g is not connected.
    """
    n, m = g.n_vertices, g.n_edges
    uf = _UnionFind(n)
    kept = [0] * n  # kept edges, at the root each was counted under
    for eid, (u, v) in g._edges.items():
        if eid not in cut:
            uf.union(u, v)
            kept[uf.find(u)] += 1
    rank = [1] * n  # per component, at its root: edges - vertices + 1
    for v in range(n):
        rank[uf.find(v)] += kept[v] - 1
    roots = [v for v in range(n) if uf.parent[v] == v]
    odd = sum(rank[r] % 2 for r in roots)
    # the cut's edges join the components back into one iff g is connected
    if len(roots) - sum(uf.union(*g._edges[e]) for e in cut
                        if e in g._edges) != 1:
        raise DisconnectedError("the bound needs a connected graph")
    xi = len(roots) + odd - (m - sum(kept)) - 1
    return (m - n + 1 - xi) // 2


def bridge_bound(g: MultiGraph) -> int:
    """``nebesky_bound(g, bridges of g)`` = ``(beta - odd_pieces) // 2``
    from one :func:`.graph.cut_scan`, which also checks g connected."""
    _, _, odd_pieces, components = cut_scan(g)
    if components != 1:
        raise DisconnectedError("the bound needs a connected graph")
    return (g.n_edges - g.n_vertices + 1 - odd_pieces) // 2


# ---------------------------------------------------------------------------
# Route 1: optimal adjacent-pair family (depth-first search)
# ---------------------------------------------------------------------------

def exact_max_genus_pairs(
    g: MultiGraph, *, max_edges: int = DEFAULT_PAIRS_EDGE_LIMIT
) -> tuple[int, PairSet]:
    """Maximum number of disjoint removable adjacent pairs, with a witness.

    Depth-first search over pair subsets in a fixed global pair order
    (ascending witness degree, then edge ids; low-degree witnesses first
    reaches loop-heavy optima quickly).  A pair of parallel edges is taken
    once, at its lower end.  No family exceeds :func:`bridge_bound`: the
    search stops as soon as it has chosen that many pairs.  A node
    holding k > 0 pairs, entered with a best family of more than k, is
    closed at once when k plus the bridge bound of the work graph W (g
    minus the k pairs) is at most the best: every family below it is the
    k pairs plus a removable pair family of the connected graph W, so it
    holds at most k + gamma_M(W) pairs.  The search keeps the first
    optimum it meets, so the node bound changes no value or witness.  It
    runs on an explicit stack, one entry per chosen pair, so its depth is
    not bounded by the interpreter's recursion limit.  The pairs chosen
    and the one tested are unlinked from a copy of g, and linked back, e
    before f, as the search leaves them.
    """
    cap = bridge_bound(g)  # raises DisconnectedError first
    if g.n_edges > max_edges:
        raise LimitExceededError(
            f"m={g.n_edges} exceeds pair-search limit {max_edges}"
        )
    # (witness degree, e, f, witness), each pair once, as plain tuples
    cands: list[tuple[int, int, int, int]] = []
    for v, darts in enumerate(g._inc):
        far = {d >> 1: w for d, w in darts.items()}
        deg = len(darts)
        for e, f in combinations(sorted(far), 2):
            if far[e] == far[f] < v:
                continue  # parallel edges, met at their lower end
            cands.append((deg, e, f, v))
    cands.sort()

    work = g.copy()
    edges, inc, link = work._edges, work._inc, work._link
    ends = g._edges
    mark = [0] * g.n_vertices
    stamp = 0

    def reaches(v: int, a: int, b: int) -> bool:
        nonlocal stamp
        stamp += 1
        mark[v] = stamp
        stack = [v]
        while stack:
            for y in inc[stack.pop()].values():
                if mark[y] != stamp:
                    mark[y] = stamp
                    if mark[a] == mark[b] == stamp:
                        return True
                    stack.append(y)
        return False

    best_k = 0
    best: list[tuple[int, int, int, int]] = []
    chosen: list[tuple[int, int, int, int]] = []
    starts: list[int] = []  # each open node's next candidate index
    start = 0
    while True:
        # enter the node of ``chosen``, whose candidates begin at start
        k = len(chosen)
        if k > best_k:
            best_k, best = k, list(chosen)
        if best_k == cap:
            break
        if best_k > k > 0 and k + bridge_bound(work) <= best_k:
            start = len(cands)  # no family below beats best: no child
        starts.append(start)
        # the next child of the innermost open node, closing each node
        # that has none left.  The work graph is connected at every node,
        # so every piece of it minus {e, f} holds an end of e or f.
        while starts:
            for i in range(starts[-1], len(cands)):
                c = cands[i]
                _, e, f, v = c
                if not (e in edges and f in edges):
                    continue
                work._unlink((e, f))
                a = ends[e][ends[e][0] == v]  # the far ends from v
                b = ends[f][ends[f][0] == v]
                if a == b == v or reaches(v, a, b):
                    break
                link(e, *ends[e])
                link(f, *ends[f])
            else:
                starts.pop()
                if chosen:
                    _, e, f, _ = chosen.pop()
                    link(e, *ends[e])
                    link(f, *ends[f])
                continue
            starts[-1] = start = i + 1
            chosen.append(c)
            break
        else:
            break
    return best_k, PairSet([AdjacentPair(e, f, v) for _, e, f, v in best])


# ---------------------------------------------------------------------------
# Route 2: spanning-tree enumeration (odd cotree components)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XuongCertificate:
    """Optimal spanning tree with its odd-component count."""

    tree_edges: frozenset[int]
    odd_components: int


def odd_components(g: MultiGraph, tree_edges: frozenset[int] | set[int]) -> int:
    """Number of components of g minus the tree's edges that have an odd
    edge count.

    Vertex-only components have zero edges and count as even.  A loop is a
    cotree edge of its own vertex's component.  Errors if ``tree_edges``
    is not a spanning tree of g.
    """
    tree_edges = frozenset(tree_edges)
    n = g.n_vertices
    if len(tree_edges) != n - 1:
        raise GraphError("not a spanning tree: wrong edge count")
    uf = _UnionFind(n)
    for eid in tree_edges:
        if not g.has_edge(eid):
            raise GraphError(f"tree edge {eid} not in graph")
        u, v = g.endpoints(eid)
        if u == v or not uf.union(u, v):
            raise GraphError("not a spanning tree: contains a cycle or loop")
    return _odd_cotree(g, tree_edges)


def _odd_cotree(g: MultiGraph, tree_edges: Collection[int]) -> int:
    """:func:`odd_components` for a ``tree_edges`` known to be a
    spanning tree of g, which it does not check."""
    n = g.n_vertices
    cot = _UnionFind(n)
    edge_count = [0] * n
    for eid, (u, v) in g._edges.items():
        if eid not in tree_edges:
            cot.union(u, v)
            edge_count[cot.find(u)] += 1
    totals = [0] * n  # edge count per component, at its root
    for v in range(n):
        totals[cot.find(v)] += edge_count[v]
    return sum(c % 2 for c in totals)


def spanning_trees(g: MultiGraph, *, limit: int = DEFAULT_TREE_LIMIT):
    """Yield every spanning tree (as a frozenset of edge ids) exactly once.

    Deletion/contraction on the lowest-id undecided edge, contraction
    first, so the trees come in lexicographic order of sorted edge ids.
    The deletion branch unlinks the edge from a copy of g, which keeps
    every contracted edge, and is taken only when the copy stays
    connected, so every leaf of the search is a distinct tree.  The
    contracted edges live in one union-find, whose last union the delete
    branch undoes, so the first tree costs O(m log n).  The search runs
    on an explicit stack, so its depth (one level per decided edge) is
    not bounded by the interpreter's recursion limit.

    The search is also the connectivity check.  Only the first descent,
    Kruskal's tree, can run out of edges, and only when g is
    disconnected: every later branch keeps the work graph connected, so
    an undecided edge there still joins two contracted sets.  The first
    ``next()`` then raises :class:`DisconnectedError`.
    """
    n = g.n_vertices
    edges = [e for e in g.edge_ids() if not g.is_loop(e)]
    work = g.copy()  # g minus the deleted edges
    count = 0

    # Stack entries are (step, edge, index of the first undecided edge).
    # VISIT branches on a node.  Once the contract branch of ``edge`` is
    # exhausted, DELETE takes the edge back out of the tree (undoing its
    # union, the last one left) and tries the delete branch; RESTORE ends
    # that.
    VISIT, DELETE, RESTORE = 0, 1, 2
    uf = _UnionFind(n)  # the contracted edges
    chosen: list[int] = []
    stack = [(VISIT, -1, 0)]
    while stack:
        step, eid, i = stack.pop()
        if step == RESTORE:
            work._link(eid, *g.endpoints(eid))
            continue
        if step == DELETE:
            chosen.pop()
            uf.undo()
            work._unlink((eid,))
            if is_connected(work):
                stack.append((RESTORE, eid, i))
                stack.append((VISIT, -1, i + 1))
            else:
                work._link(eid, *g.endpoints(eid))
            continue
        # every contracted edge joined two components
        if len(chosen) == n - 1:
            count += 1
            if count > limit:
                raise LimitExceededError(
                    f"spanning-tree count exceeds limit {limit}"
                )
            yield frozenset(chosen)
            continue
        while True:
            if i == len(edges):
                raise DisconnectedError(
                    "exact oracles require a connected graph")
            eid = edges[i]
            u, v = g.endpoints(eid)
            if work.has_edge(eid) and uf.find(u) != uf.find(v):
                break
            i += 1
        # contract branch first: eid in the tree
        uf.union(u, v)
        chosen.append(eid)
        stack.append((DELETE, eid, i))
        stack.append((VISIT, -1, i + 1))


def _tree_count_exceeds(g: MultiGraph, limit: int) -> bool:
    """Whether two upper bounds on the spanning-tree count of connected
    g both exceed ``limit``.

    Rooted at a vertex of largest degree, a tree gives every other vertex
    the edge to its parent, and distinct trees give distinct choices, so
    the product of the other vertices' non-loop degrees bounds the count.
    A tree is also n - 1 of the m' non-loop edges: C(m', n - 1) =
    C(m', k), k = min(n - 1, m' - n + 1), is exact on a cycle, where the
    product doubles per vertex.  Neither shrinks as its factors go in
    (k <= m' / 2), so each stops growing once it passes ``limit``.
    """
    n = g.n_vertices
    degrees = sorted([len(darts) - list(darts.values()).count(v)
                      for v, darts in enumerate(g._inc)])
    m = sum(degrees) // 2
    k = min(n - 1, m - n + 1)
    product = binom = 1
    for i, d in enumerate(degrees[:-1]):
        if product <= limit:
            product *= d
        if binom <= limit and i < k:
            binom = binom * (m - i) // (i + 1)  # C(m', i + 1)
    return product > limit and binom > limit


def xuong_max_genus(
    g: MultiGraph, *, limit: int = DEFAULT_TREE_LIMIT
) -> tuple[int, XuongCertificate]:
    """Maximum genus via spanning-tree enumeration.

    ``gamma = (beta - min_T odd(G - E(T))) / 2``; returns the minimizing
    tree as a certificate, the first tree that reaches the minimum in
    enumeration order.  The parity of the odd count always matches the
    parity of beta, so the genus is integral.

    The first tree in enumeration order, Kruskal's by ascending edge id,
    is tried before anything else: it answers if it reaches the bridge
    bound (where the search stops) and ``limit`` >= 1.  Only then does
    :func:`_tree_count_exceeds` refuse, before any search, so every graph
    on which the search would list more than ``limit`` trees is refused.
    """
    beta = g.n_edges - g.n_vertices + 1
    least_odd = beta - 2 * bridge_bound(g)  # raises DisconnectedError
    uf = _UnionFind(g.n_vertices)
    first = frozenset(e for e in g.edge_ids() if uf.union(*g._edges[e]))
    if limit >= 1 and _odd_cotree(g, first) == least_odd:
        return (beta - least_odd) // 2, XuongCertificate(first, least_odd)
    if _tree_count_exceeds(g, limit):
        raise LimitExceededError(
            f"spanning-tree count bound exceeds limit {limit}")
    best_odd = None
    best_tree = None
    for tree in spanning_trees(g, limit=limit):
        odd = _odd_cotree(g, tree)
        if best_odd is None or odd < best_odd:
            best_odd = odd
            best_tree = tree
            if odd == least_odd:
                break  # cannot do better than the bridge bound
    if best_odd is None or (beta - best_odd) % 2:
        raise CertificationError(
            f"tree search gave odd count {best_odd} for beta={beta}")
    return (beta - best_odd) // 2, XuongCertificate(best_tree, best_odd)


# ---------------------------------------------------------------------------
# Route 3: branch and bound over rotation systems
# ---------------------------------------------------------------------------

def rotation_count(g: MultiGraph) -> int:
    """Number of rotation systems with the first dart pinned per vertex."""
    total = 1
    for v in g.vertices():
        d = g.degree(v)
        if d > 1:
            total *= factorial(d - 1)
    return total


def exact_max_genus_rotations(
    g: MultiGraph, *, limit: int = DEFAULT_ROTATION_LIMIT
) -> int:
    """Maximum genus over all rotation systems of g, by branch and bound.

    Cyclic orders are counted once by pinning the first dart at every
    vertex.  Raises :class:`LimitExceededError` when the rotation count
    exceeds ``limit``, before any search.  Vertices of degree <= 2 have
    one rotation, written once; the others are assigned one at a time,
    highest degree first, each through the permutations of its darts
    after the first, on an explicit stack.  Assigned darts write their
    face successors, ``phi[d] = sigma_next[d ^ 1]``, into one flat list.
    An orbit of ``phi`` that closes is a face of every completion, and
    an unassigned vertex's darts lie on at least one more, so with c
    closed faces no completion has genus above ``(2 - n + m - c - 1) //
    2``; a subtree is entered only while that beats the best genus found.

    The count comes first.  A graph it refuses gets one connectivity
    pass, so a disconnected one raises :class:`DisconnectedError`, not
    :class:`LimitExceededError`; a graph it admits is checked by the
    scan of :func:`bridge_bound`, its one whole-graph pass.
    """
    if rotation_count(g) > limit:
        if not is_connected(g):
            raise DisconnectedError("exact oracles require a connected graph")
        raise LimitExceededError(
            f"rotation-system count exceeds limit {limit}")
    cap = bridge_bound(g)
    n, m = g.n_vertices, g.n_edges
    top = 2 - n + m
    phi = [-1] * (2 * g._next_id)  # -1: the successor is not yet set
    todo = [False] * len(phi)

    def closed(twins) -> int:
        """Orbits that the entries at ``twins``, just set, closed."""
        for t in twins:
            todo[t] = True
        faces = 0
        for t in twins:
            if todo[t]:  # not met on an orbit walked before
                d = phi[t]
                while d != t and d >= 0:
                    todo[d] = False
                    d = phi[d]
                faces += d == t
        return faces

    levels = []  # (first dart, the others, their twins) per vertex
    fixed = []
    for v in sorted(range(n), key=lambda v: -len(g._inc[v])):
        darts = sorted(g._inc[v])
        if len(darts) <= 2:  # one rotation: written once
            for i, d in enumerate(darts):
                phi[d ^ 1] = darts[i - 1]  # the other dart, or d itself
                fixed.append(d ^ 1)
        else:
            levels.append((darts[0], darts[1:], [d ^ 1 for d in darts]))
    best = 0
    c = closed(fixed)
    orders: list = []  # per open level: the faces closed above, its orders
    while best < cap:
        # enter the node of the levels on ``orders``, with c closed faces
        depth = len(orders)
        if (top - c - (depth < len(levels))) // 2 > best:
            if depth == len(levels):
                chi = n - m + c
                if chi > 2 or chi % 2:
                    raise CertificationError(
                        f"Euler characteristic {chi} is odd or > 2")
                best = (2 - chi) // 2
            else:
                orders.append((c, permutations(levels[depth][1])))
        # the next order of the innermost open level, closing each level
        # that has none left
        while orders:
            p = next(orders[-1][1], None)
            if p is not None:
                break
            orders.pop()
            for t in levels[len(orders)][2]:
                phi[t] = -1
        else:
            break
        head, _, twins = levels[len(orders) - 1]
        prev = head
        for d in p:
            phi[prev ^ 1] = d
            prev = d
        phi[prev ^ 1] = head
        c = orders[-1][0] + closed(twins)
    return best
