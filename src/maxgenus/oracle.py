"""Exact maximum-genus oracles for desk-scale instances.

Three independent routes, used to cross-check each other and to validate
the greedy's bounds:

* :func:`exact_max_genus_pairs` searches over families of disjoint
  adjacent pairs whose removal keeps the graph connected; the optimum
  family size equals the maximum genus.
* :func:`xuong_max_genus` minimizes, over all spanning trees, the number
  of cotree components with an odd edge count; the maximum genus is
  ``(beta - min_odd) / 2``.
* :func:`exact_max_genus_rotations` enumerates rotation systems (first
  dart per vertex pinned) and maximizes the genus of the traced
  embedding.

All three are exponential; each takes an explicit limit and raises
:class:`LimitExceededError` beyond it rather than running away.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .graph import (
    CertificationError,
    DisconnectedError,
    GraphError,
    MultiGraph,
    is_connected,
)
from .greedy import AdjacentPair, PairSet, candidate_pairs

DEFAULT_PAIRS_EDGE_LIMIT = 16
DEFAULT_TREE_LIMIT = 100_000
DEFAULT_ROTATION_LIMIT = 1_000_000


class LimitExceededError(GraphError):
    """Instance exceeds the configured search limit of an exact oracle."""


def _require_connected(g: MultiGraph) -> None:
    if not is_connected(g):
        raise DisconnectedError("exact oracles require a connected graph")


# ---------------------------------------------------------------------------
# Route 1: optimal adjacent-pair family (branch and bound)
# ---------------------------------------------------------------------------

def exact_max_genus_pairs(
    g: MultiGraph, *, max_edges: int = DEFAULT_PAIRS_EDGE_LIMIT
) -> tuple[int, PairSet]:
    """Maximum number of disjoint removable adjacent pairs, with a witness.

    Branch and bound over pair subsets in a fixed global pair order
    (ascending witness degree, then edge ids; low-degree witnesses first
    reaches loop-heavy optima quickly).  Each node's bound is
    ``chosen + floor(beta_residual / 2)``; since removing a pair always
    lowers the residual cycle rank by exactly 2, the bound can only prune
    once an optimal incumbent exists, so the search additionally stops as
    soon as the incumbent hits ``floor(beta / 2)``.
    """
    _require_connected(g)
    if g.n_edges > max_edges:
        raise LimitExceededError(
            f"m={g.n_edges} exceeds pair-search limit {max_edges}"
        )
    seen_pairs: set[tuple[int, int]] = set()
    cands: list[AdjacentPair] = []
    for v in g.vertices():
        for e, f in candidate_pairs(g, v):
            if (e, f) not in seen_pairs:
                seen_pairs.add((e, f))
                cands.append(AdjacentPair(e, f, v))
    cands.sort(key=lambda p: (g.degree(p.witness), p.e, p.f))

    n = g.n_vertices
    beta0 = g.n_edges - n + 1
    cap = beta0 // 2
    work = g.copy()
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
        beta = work.n_edges - n + 1
        if k + beta // 2 <= best_k:
            return False
        for i in range(start, len(cands)):
            p = cands[i]
            if not (work.has_edge(p.e) and work.has_edge(p.f)):
                continue
            removed = work.delete_edges((p.e, p.f))
            done = False
            if is_connected(work):
                chosen.append(p)
                done = search(i + 1)
                chosen.pop()
            work.restore_edges(removed)
            if done:
                return True
        return False

    search(0)
    return best_k, PairSet(list(best))


# ---------------------------------------------------------------------------
# Route 2: spanning-tree enumeration (odd cotree components)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XuongCertificate:
    """Optimal spanning tree with its odd-component count."""

    tree_edges: frozenset[int]
    odd_components: int
    genus: int


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


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
    cot = _UnionFind(n)
    edge_count = [0] * n
    for eid in g.edge_ids():
        if eid in tree_edges:
            continue
        u, v = g.endpoints(eid)
        cot.union(u, v)
        edge_count[cot.find(u)] += 1
    totals: dict[int, int] = {}
    for v in range(n):
        totals[cot.find(v)] = 0
    for v in range(n):
        totals[cot.find(v)] += edge_count[v]
    return sum(1 for c in totals.values() if c % 2 == 1)


def spanning_trees(g: MultiGraph, *, limit: int = DEFAULT_TREE_LIMIT):
    """Yield every spanning tree (as a frozenset of edge ids) exactly once.

    Deletion/contraction on the lowest-id undecided edge; the deletion
    branch is taken only when the edge is not a bridge of the contracted
    remainder, so every leaf of the search is a distinct tree.  The search
    runs on an explicit stack, so its depth (one level per decided edge)
    is not bounded by the interpreter's recursion limit.
    """
    _require_connected(g)
    n = g.n_vertices
    edges = [e for e in g.edge_ids() if not g.is_loop(e)]
    count = 0

    def connects(uf_parent: list[int], skip: set[int], extra_skip: int) -> bool:
        uf = _UnionFind(n)
        uf.parent = list(uf_parent)
        comps = len({uf.find(v) for v in range(n)})
        for eid in edges:
            if eid in skip or eid == extra_skip:
                continue
            u, v = g.endpoints(eid)
            if uf.union(u, v):
                comps -= 1
        return comps == 1

    # Stack entries are (step, union-find of the contracted edges, edge,
    # index of the first undecided edge).  VISIT branches on a node.  Once
    # the contract branch of ``edge`` is exhausted, DELETE takes the edge
    # back out of the tree and tries the delete branch; RESTORE ends that.
    VISIT, DELETE, RESTORE = 0, 1, 2
    chosen: list[int] = []
    removed: set[int] = set()
    stack = [(VISIT, _UnionFind(n), -1, 0)]
    while stack:
        step, uf, eid, i = stack.pop()
        if step == RESTORE:
            removed.remove(eid)
            continue
        if step == DELETE:
            chosen.pop()
            if connects(uf.parent, removed, eid):
                removed.add(eid)
                stack.append((RESTORE, uf, eid, i))
                stack.append((VISIT, uf, -1, i + 1))
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
            eid = edges[i]
            if eid not in removed and uf.find(g.endpoints(eid)[0]) != uf.find(
                g.endpoints(eid)[1]
            ):
                break
            i += 1
        u, v = g.endpoints(eid)
        # contract branch first: eid in the tree
        sub = _UnionFind(n)
        sub.parent = list(uf.parent)
        sub.union(u, v)
        chosen.append(eid)
        stack.append((DELETE, uf, eid, i))
        stack.append((VISIT, sub, -1, i + 1))


def xuong_max_genus(
    g: MultiGraph, *, limit: int = DEFAULT_TREE_LIMIT
) -> tuple[int, XuongCertificate]:
    """Maximum genus via spanning-tree enumeration.

    ``gamma = (beta - min_T odd(G - E(T))) / 2``; returns the minimizing
    tree as a certificate.  The parity of the odd count always matches the
    parity of beta, so the genus is integral.
    """
    _require_connected(g)
    beta = g.n_edges - g.n_vertices + 1
    best_odd = None
    best_tree = None
    for tree in spanning_trees(g, limit=limit):
        odd = odd_components(g, tree)
        if best_odd is None or odd < best_odd:
            best_odd = odd
            best_tree = tree
            if odd == beta % 2:
                break  # cannot do better than the parity floor
    if best_odd is None or (beta - best_odd) % 2:
        raise CertificationError(
            f"tree search gave odd count {best_odd} for beta={beta}")
    genus = (beta - best_odd) // 2
    return genus, XuongCertificate(best_tree, best_odd, genus)


# ---------------------------------------------------------------------------
# Route 3: rotation-system enumeration
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
    """Maximum genus over all rotation systems of g.

    Cyclic orders are counted once by pinning the first dart at every
    vertex.  Raises :class:`LimitExceededError` when the rotation count
    exceeds ``limit``.
    """
    from itertools import permutations, product

    from .embedding import genus_of

    _require_connected(g)
    total = rotation_count(g)
    if total > limit:
        raise LimitExceededError(
            f"{total} rotation systems exceed limit {limit}"
        )
    per_vertex: list[list[tuple[int, ...]]] = []
    verts = list(g.vertices())
    for v in verts:
        darts = sorted(g.darts_at(v))
        if len(darts) <= 1:
            per_vertex.append([tuple(darts)])
        else:
            head, rest = darts[0], darts[1:]
            per_vertex.append([(head,) + p for p in permutations(rest)])
    best = 0
    cap = (g.n_edges - g.n_vertices + 1) // 2
    for combo in product(*per_vertex):
        rot = {v: order for v, order in zip(verts, combo)}
        genus = genus_of(g, rot, validate=False)
        if genus > best:
            best = genus
            if best == cap:
                break
    return best
