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
the residual.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .connectivity import BACKENDS, pair_removal_keeps_connected
from .graph import DisconnectedError, GraphError, MultiGraph, is_connected

POLICIES = ("edge-id", "random", "loops-first", "central-vertex-first")


@dataclass(frozen=True)
class AdjacentPair:
    """Two distinct edges sharing the witness vertex."""

    e: int
    f: int
    witness: int

    def __post_init__(self):
        if self.e == self.f:
            raise GraphError("adjacent pair needs two distinct edges")
        if self.e > self.f:
            lo, hi = self.f, self.e
            object.__setattr__(self, "e", lo)
            object.__setattr__(self, "f", hi)

    def edges(self) -> tuple[int, int]:
        return (self.e, self.f)


@dataclass
class PairSet:
    """Ordered list of edge-disjoint adjacent pairs."""

    pairs: list[AdjacentPair] = field(default_factory=list)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __bool__(self):
        return bool(self.pairs)

    def edge_ids(self) -> list[int]:
        out = []
        for p in self.pairs:
            out.append(p.e)
            out.append(p.f)
        return out


@dataclass(frozen=True)
class GenusBounds:
    lower: int
    upper: int

    @classmethod
    def from_pairs(cls, k: int, beta: int) -> "GenusBounds":
        return cls(lower=k, upper=min(2 * k, beta // 2))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


@dataclass
class GreedyStats:
    """Operation counters for reports and complexity property tests."""

    candidate_pairs: int = 0
    tests: int = 0
    removed: int = 0
    candidate_budget: int = 0  # sum of C(deg, 2) over processed vertices
    # Always 0: the single pass has no final pass.  Kept because report
    # and benchmark readers still name the field.
    final_pass_tests: int = 0


@dataclass
class GreedyResult:
    pairs: PairSet
    bounds: GenusBounds
    residual: MultiGraph
    stats: GreedyStats
    policy: str
    seed: int
    backend_kind: str
    backend_stats: object


def candidate_pairs(g: MultiGraph, v: int) -> list[tuple[int, int]]:
    """Unordered pairs of distinct edges at v, as (min id, max id) tuples.

    Dart pairs collapse to edge pairs: a loop meets every other incident
    edge once and every other loop once, and never pairs with itself.
    """
    edges = g.incident_edges(v)
    return [(a, b) for a, b in combinations(edges, 2)]


def verify_pair_set(g: MultiGraph, pairs: PairSet) -> VerifyResult:
    """From-scratch check that ``pairs`` certifies genus >= len(pairs).

    Validates existence, edge-disjointness, per-pair adjacency at the
    recorded witness, and connectivity of the graph minus all pair edges
    (over the full vertex set).  Removing the pairs one by one can only
    pass through supergraphs of that final graph, so prefix connectivity
    follows for free.
    """
    seen: set[int] = set()
    for p in pairs:
        for eid in (p.e, p.f):
            if not g.has_edge(eid):
                return VerifyResult(False, f"missing-edge:{eid}")
            if eid in seen:
                return VerifyResult(False, f"duplicate-edge:{eid}")
            seen.add(eid)
        ue = set(g.endpoints(p.e))
        uf = set(g.endpoints(p.f))
        if p.witness not in (ue & uf):
            return VerifyResult(False, f"not-adjacent:{p.e},{p.f}@{p.witness}")
    work = g.copy()
    work.delete_edges(sorted(seen))
    if not is_connected(work):
        return VerifyResult(False, "disconnected")
    return VerifyResult(True)


def _pair_order_key(policy: str, g: MultiGraph):
    if policy == "loops-first":
        def key(pair):
            has_loop = g.is_loop(pair[0]) or g.is_loop(pair[1])
            return (0 if has_loop else 1, pair)
        return key
    return lambda pair: pair


def _vertex_key(policy: str, g: MultiGraph):
    if policy == "central-vertex-first":
        return lambda v: (-g.degree(v), v)
    if policy == "loops-first":
        return lambda v: (0 if g.loops_at(v) else 1, v)
    return None  # edge-id: ascending vertex ids


def greedy_max_genus(
    g: MultiGraph,
    *,
    backend: str = "dfs",
    policy: str = "edge-id",
    seed: int = 0,
) -> GreedyResult:
    """Remove disjoint adjacent pairs until none is removable.

    ``policy`` fixes the vertex and pair processing order: ``edge-id`` is
    the lexicographic default, ``random`` shuffles with ``seed``,
    ``loops-first`` favours loop-bearing vertices and loop pairs, and
    ``central-vertex-first`` processes highest-degree vertices first (the
    adversarial order on the doubled-star family).  Identical inputs and
    options give identical results.  Raises on disconnected input.
    """
    if policy not in POLICIES:
        raise GraphError(f"unknown policy {policy!r}; known: {', '.join(POLICIES)}")
    if backend not in BACKENDS:
        raise GraphError(f"unknown backend {backend!r}")
    if not is_connected(g):
        raise DisconnectedError("greedy requires a connected graph")

    residual = g.copy()
    be = BACKENDS[backend](residual)
    rng = random.Random(seed)
    order = list(residual.vertices())
    if policy == "random":
        rng.shuffle(order)
    else:
        order.sort(key=_vertex_key(policy, residual))
    pkey = _pair_order_key(policy, residual)

    stats = GreedyStats()
    pairs = PairSet()
    beta = residual.n_edges - residual.n_vertices + 1
    n_edges0 = g.n_edges

    for v in order:
        if beta == 0:
            break
        cands = candidate_pairs(residual, v)
        if policy == "random":
            rng.shuffle(cands)
        else:
            cands.sort(key=pkey)
        deg = residual.degree(v)
        stats.candidate_budget += deg * (deg - 1) // 2
        stats.candidate_pairs += len(cands)
        for e, f in cands:
            if beta == 0:
                break
            if not (residual.has_edge(e) and residual.has_edge(f)):
                continue  # a member was removed by an earlier pair at v
            stats.tests += 1
            if pair_removal_keeps_connected(be, e, f):
                residual.delete_edges((e, f))
                pairs.pairs.append(AdjacentPair(e, f, v))
                stats.removed += 1
                beta -= 2

    bounds = GenusBounds.from_pairs(len(pairs), n_edges0 - g.n_vertices + 1)
    return GreedyResult(
        pairs=pairs,
        bounds=bounds,
        residual=residual,
        stats=stats,
        policy=policy,
        seed=seed,
        backend_kind=backend,
        backend_stats=be.stats,
    )
