"""Greedy adjacent-pair removal: a 2-approximation of maximum genus.

The maximum genus of a connected multigraph equals the largest number of
pairwise disjoint adjacent edge pairs whose joint removal leaves the graph
connected and spanning.  The greedy below removes such pairs until no
removable pair remains anywhere; any maximal family of k pairs satisfies

    k <= gamma_max <= 2k      and      gamma_max <= floor(beta / 2),

with beta the cycle rank, so the reported interval
``[k, min(2k, beta // 2)]`` always contains the maximum genus.  Crucially,
deleting edges only ever shrinks connectivity, so a pair that once failed
the removal probe can never succeed later.  One pass over the vertices,
testing every pair at each vertex once, therefore leaves a maximal family:
any pair still present at the end was tested and failed on a supergraph of
the residual.  The pass stops once beta < 2: a connected graph with cycle
rank 0 or 1 has no pair whose removal keeps it connected.

The default policy, ``tree-first``, runs two phases.  Phase 1 fixes a BFS
spanning tree T and splits each component of the cotree (the edges
outside T, loops included) into adjacent pairs with no probe: removing
edges outside T never disconnects the graph.  Kotzig (1957) showed that a
connected graph with an even number of edges splits into adjacent pairs,
so phase 1 leaves one edge per odd cotree component and takes exactly
(beta - xi(T)) / 2 pairs, where xi(T) counts the odd components.  Xuong
(1979) showed gamma_max = (beta - min_T xi(T)) / 2, so phase 1 alone is
exact whenever T attains that minimum.  Phase 2 is the ``edge-id`` pass
on what is left.  Phase 1 only deletes edges, so the argument above
covers it: every pair present at the end was still tested by phase 2.

The pass (phase 2, or the only pass of the other policies) probes only
the core: the residual R it starts on minus the bridges B of R, the
first field of one :func:`~maxgenus.graph.cut_scan`.  A bridge lies on
no cycle, and deleting edges creates none, so a pair holding one can
never be removed; the pass builds its candidates from core edges only.
Dropping an edge before pairing keeps the relative order of the pairs
left, so the deterministic orders are those of R.  For a pair {e, f}
of core edges the answer is the same on the core as on R: R minus a set
F is connected iff F holds no nonempty cut of R, and the cuts are the
edge sets orthogonal over GF(2) to every cycle.  Every cycle of R avoids
B, so R and the core have the same cycle space, and a set of core edges
is a cut of R iff it is a cut (a separating boundary) of the core.  The
backend is therefore built from the core's edges alone, in one pass, and
only when the pass starts with beta >= 2, since otherwise it makes no
probe.  A probe then searches only the core component that holds the
pair (2-edge-connected when the pass starts), and every cut the backend
memoises is a cut of R as well.  The same argument runs the other way
for the cut pairs the scan records: neither edge of one is a bridge, so
each is a cut of the core, and they seed a ``dfs`` backend's cut memo
(the ``dynamic`` backend keeps none).  Bridges that later deletions
create are not dropped; their probes fail as before.  The pass visits
only core vertices, where two core edges meet, in the policy's order; a
``random`` pass shuffles the sorted core vertices, then each vertex's
core candidates.  A vertex costs C(core degree, 2), whatever bridges it holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Container, NamedTuple

from .connectivity import BACKENDS, BackendStats
from .graph import (
    DisconnectedError,
    GraphError,
    MultiGraph,
    bfs_tree,
    cut_scan,
    is_connected,
)

POLICIES = ("edge-id", "random", "loops-first", "central-vertex-first",
            "tree-first")
DEFAULT_POLICY = "tree-first"


class AdjacentPair(NamedTuple):
    """Two distinct edges e < f sharing the witness vertex.  Producers
    build it in that order; the family checks, not the constructor,
    reject a pair naming one edge twice."""

    e: int
    f: int
    witness: int


@dataclass
class PairSet:
    """Ordered list of adjacent pairs, meant edge-disjoint; nothing is
    checked until :func:`verify_pair_set` or ``build_embedding``."""

    pairs: list[AdjacentPair] = field(default_factory=list)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def edge_ids(self) -> list[int]:
        return [eid for e, f, _ in self.pairs for eid in (e, f)]


class GenusBounds(NamedTuple):
    lower: int
    upper: int

    @classmethod
    def from_pairs(cls, k: int, beta: int) -> "GenusBounds":
        return cls(lower=k, upper=min(2 * k, beta // 2))


class VerifyResult(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


@dataclass
class GreedyStats:
    """Operation counters for reports and complexity property tests.
    No bridge enters the backend: its ``inserts`` are the core's edges
    plus probe rollbacks, and its ``deletes`` are probe deletions."""

    candidate_pairs: int = 0
    tests: int = 0
    removed: int = 0
    candidate_budget: int = 0  # sum of C(deg, 2) over visited core vertices
    tree_pairs: int = 0  # tree-first phase-1 pairs, taken with no probe
    core_bridges: int = 0  # bridges of the residual the pass starts on
    final_pass_tests: int = 0  # always 0, no final pass; readers name it


class GreedyResult(NamedTuple):
    pairs: PairSet
    bounds: GenusBounds
    residual: MultiGraph
    stats: GreedyStats
    backend_stats: object


def candidate_pairs(g: MultiGraph, v: int,
                    skip: Container[int]) -> list[tuple[int, int]]:
    """Pairs of distinct edges at v outside ``skip``, as (min id, max id).

    Dart pairs collapse to edge pairs: a loop meets every other incident
    edge once and every other loop once, and never pairs with itself.
    """
    # the map is in dart order, so the edges come in ascending id order
    edges = dict.fromkeys(d >> 1 for d in g._inc[v])
    return list(combinations([e for e in edges if e not in skip], 2))


def _pair_edge_set(g: MultiGraph, pairs: PairSet) -> tuple[set[int], str | None]:
    """The edge ids of ``pairs``, and the reason of the first existence,
    disjointness or adjacency check they fail (None if they pass all).
    One pass over the pairs, each checking e and then f, written out:
    a family that passes needs no further check to be inserted pair by
    pair."""
    edges = g._edges
    seen: set[int] = set()
    add = seen.add
    for e, f, w in pairs:
        if e not in edges:
            return seen, f"missing-edge:{e}"
        if e in seen:
            return seen, f"duplicate-edge:{e}"
        add(e)
        if f not in edges:
            return seen, f"missing-edge:{f}"
        if f in seen:
            return seen, f"duplicate-edge:{f}"
        add(f)
        if not (w in edges[e] and w in edges[f]):
            return seen, f"not-adjacent:{e},{f}@{w}"
    return seen, None


def _pair_family_tree(
    g: MultiGraph, pairs: PairSet
) -> tuple[set[int], set[int] | None, str | None]:
    """The edge ids of ``pairs``, then either a BFS spanning tree of g
    that avoids them and None, or None and the reason of the first check
    the family fails: :func:`_pair_edge_set`'s, or ``disconnected`` when
    the edges left do not span g."""
    pair_edges, reason = _pair_edge_set(g, pairs)
    if reason is None:
        try:
            return pair_edges, bfs_tree(g, pair_edges), None
        except DisconnectedError:
            reason = "disconnected"
    return pair_edges, None, reason


def verify_pair_set(g: MultiGraph, pairs: PairSet) -> VerifyResult:
    """From-scratch check that ``pairs`` certifies genus >= len(pairs).

    Validates existence, edge-disjointness, per-pair adjacency at the
    recorded witness, and connectivity of the graph minus all pair edges
    (over the full vertex set).  Removing the pairs one by one can only
    pass through supergraphs of that final graph, so prefix connectivity
    follows for free.
    """
    reason = _pair_family_tree(g, pairs)[2]
    return VerifyResult(reason is None, reason)


def _pair_order_key(policy: str, g: MultiGraph):
    if policy == "loops-first":  # pairs holding a loop first
        return lambda pair: (not (g.is_loop(pair[0]) or g.is_loop(pair[1])),
                             pair)
    return None  # candidate_pairs already gives the lexicographic order


def _vertex_key(policy: str, g: MultiGraph):
    if policy == "central-vertex-first":
        return lambda v: (-g.degree(v), v)
    if policy == "loops-first":
        return lambda v: (0 if v in g._inc[v].values() else 1, v)
    return None  # edge-id: ascending vertex ids


def _pair_cotree_edges(residual: MultiGraph, pairs: PairSet) -> None:
    """Phase 1 of ``tree-first``: split every component of the cotree of
    the BFS tree T into adjacent pairs and delete them with no probe.

    One iterative DFS over the cotree gives each edge it does not follow
    (loops included) to the vertex that scans it.  Then, children first,
    each vertex pairs the edges it holds: an odd count takes in the
    vertex's DFS parent edge too, an even one hands that edge up to the
    parent.  Every held edge meets its holder, so each pair is adjacent
    there, and only a DFS root can be left holding one edge, which happens
    exactly when its component has an odd edge count.  That is Kotzig's
    splitting, and it takes (beta - xi(T)) / 2 pairs.
    """
    scanned = bfs_tree(residual)  # the DFS never follows a tree edge
    inc = residual._inc
    n = residual.n_vertices
    seen = [False] * n
    up: list[tuple[int, int] | None] = [None] * n  # DFS parent edge, parent
    held: list[list[int]] = [[] for _ in range(n)]
    order = []  # DFS preorder, so every child comes after its parent
    for root in residual.vertices():
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        stack = [(root, iter(inc[root].items()))]
        while stack:
            v, darts = stack[-1]
            for d, w in darts:
                e = d >> 1
                if e in scanned:
                    continue
                scanned.add(e)
                if seen[w]:
                    held[v].append(e)
                    continue
                seen[w] = True
                up[w] = (e, v)
                order.append(w)
                stack.append((w, iter(inc[w].items())))
                break
            else:
                stack.pop()
    taken = []
    for v in reversed(order):
        mine = held[v]
        if up[v] is not None:
            e, parent = up[v]
            (mine if len(mine) % 2 else held[parent]).append(e)
        for e, f in zip(mine[0::2], mine[1::2]):
            taken += (e, f)
            pairs.pairs.append(AdjacentPair(e, f, v) if e < f
                               else AdjacentPair(f, e, v))
    residual._unlink(taken)


def check_policy(policy: str) -> None:
    """Raise :class:`GraphError` unless ``policy`` is in ``POLICIES``."""
    if policy not in POLICIES:
        raise GraphError(f"unknown policy {policy!r}; known: {', '.join(POLICIES)}")


def greedy_max_genus(
    g: MultiGraph,
    *,
    backend: str = "dfs",
    policy: str = DEFAULT_POLICY,
    seed: int = 0,
) -> GreedyResult:
    """Remove disjoint adjacent pairs until none is removable.

    ``policy`` fixes the vertex and pair processing order: ``tree-first``
    (the default) splits the cotree into pairs with no probe and runs the
    ``edge-id`` pass, ``edge-id`` is lexicographic, ``random`` shuffles
    with ``seed``, ``loops-first`` favours loop-bearing vertices and loop
    pairs, and ``central-vertex-first`` processes highest-degree vertices
    first (the adversarial order on the doubled-star family).  ``backend``
    names the connectivity structure in ``BACKENDS``; both give the same
    pairs.  Identical inputs and options give identical results.  Raises
    on disconnected input.
    """
    check_policy(policy)
    if backend not in BACKENDS:
        raise GraphError(f"unknown backend {backend!r}")
    if policy != "tree-first" and not is_connected(g):
        raise DisconnectedError("greedy requires a connected graph")

    residual = g.copy()
    stats = GreedyStats()
    pairs = PairSet()
    pass_policy = policy
    if policy == "tree-first":
        try:  # phase 1's BFS tree is the connectivity check
            _pair_cotree_edges(residual, pairs)
        except DisconnectedError:
            raise DisconnectedError("greedy requires a connected graph") from None
        stats.tree_pairs = stats.removed = len(pairs)
        pass_policy = "edge-id"

    beta = residual.n_edges - residual.n_vertices + 1
    edges, inc = residual._edges, residual._inc
    be, bridges, order = None, set(), []
    if beta >= 2:  # else the pass makes no probe
        # the pass probes only the core: the residual minus its bridges
        bridges, cut_key, _, _ = cut_scan(residual)
        be = BACKENDS[backend](residual, bridges)
        if backend == "dfs":  # the scan's cut pairs hold no bridge
            be.cut_key = cut_key
        # two core edges meet at v: core degree > 2, or 2 but not one loop
        deg = [len(m) for m in inc]
        for b in bridges:
            for x in edges[b]:
                deg[x] -= 1
        core = {v for v, d in enumerate(deg)
                if d > 2 or d == 2 and v not in inc[v].values()}
        order = sorted(core, key=_vertex_key(pass_policy, residual))
        if pass_policy == "random":
            rng = random.Random(seed)
            rng.shuffle(order)
    stats.core_bridges = len(bridges)
    pkey = _pair_order_key(pass_policy, residual)

    for v in order:
        if beta < 2:
            break
        cands = candidate_pairs(residual, v, bridges)
        if pass_policy == "random":
            rng.shuffle(cands)
        elif pkey is not None:
            cands.sort(key=pkey)
        deg_v = len(inc[v])
        stats.candidate_budget += deg_v * (deg_v - 1) // 2
        stats.candidate_pairs += len(cands)
        for e, f in cands:
            if beta < 2:
                break
            if not (e in edges and f in edges):
                continue  # a member was removed by an earlier pair at v
            stats.tests += 1
            if be.probe(e, f):
                residual._unlink((e, f))
                pairs.pairs.append(AdjacentPair(e, f, v))
                stats.removed += 1
                beta -= 2

    bounds = GenusBounds.from_pairs(len(pairs), g.n_edges - g.n_vertices + 1)
    return GreedyResult(pairs, bounds, residual, stats,
                        be.stats if be is not None else BackendStats())
