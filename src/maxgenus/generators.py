"""Deterministic graph families for tests and benchmarks.

Every generator is a pure function of its parameters (plus seed), including
edge-id assignment, so a family name and the parameters :func:`generate`
takes fully determine the resulting graph.  :data:`FAMILIES` is the one
table of the families, the size parameter each takes and the vertex and
edge counts that size gives, which :func:`generate` checks against
:data:`MAX_SIZE` before it builds anything.
"""

from __future__ import annotations

import random

from .graph import GraphError, MultiGraph


def gen_tight_star(n: int) -> MultiGraph:
    """Doubled star with a loop per leaf: the family where the greedy
    sandwich is tight.

    Center is vertex 0, leaves are ``1..2n``.  Every center-leaf edge is
    doubled and each leaf carries one loop, so m = 6n and the cycle rank is
    4n.  The maximum genus is 2n: pairing each loop with a parallel edge at
    its leaf realises it, while pairing the central edges with each other
    yields only n disjoint removable pairs.
    """
    if n <= 0:
        raise GraphError(f"family parameter must be positive, got {n}")
    g = MultiGraph(2 * n + 1)
    for leaf in range(1, 2 * n + 1):
        g.add_edge(0, leaf)
        g.add_edge(0, leaf)
    for leaf in range(1, 2 * n + 1):
        g.add_edge(leaf, leaf)
    return g


def check_probabilities(loop_prob: float, parallel_prob: float) -> None:
    """Raise :class:`GraphError` unless both probabilities lie in [0, 1]
    and sum to at most 1."""
    for name, p in (("loop_prob", loop_prob),
                    ("parallel_prob", parallel_prob)):
        if not 0 <= p <= 1:
            raise GraphError(f"{name} must lie in [0, 1], got {p}")
    if loop_prob + parallel_prob > 1:
        raise GraphError(f"loop_prob + parallel_prob must be at most 1, "
                         f"got {loop_prob} + {parallel_prob}")


def gen_random_connected_multigraph(
    n: int,
    m: int,
    *,
    loop_prob: float = 0.15,
    parallel_prob: float = 0.15,
    seed: int = 0,
    simple: bool = False,
) -> MultiGraph:
    """Random connected multigraph with exactly ``m`` edges.

    A random spanning tree is laid down first (vertex i attaches to a
    uniform earlier vertex), then ``m - n + 1`` extra edges are drawn: with
    ``loop_prob`` a loop at a random vertex, with ``parallel_prob`` a
    duplicate of a uniformly chosen existing edge, otherwise a uniform
    non-loop pair.  ``simple=True`` disables loops/parallels and resamples
    collisions instead.  Errors if ``m < n - 1`` (cannot connect) or on
    probabilities that :func:`check_probabilities` rejects.
    """
    check_probabilities(loop_prob, parallel_prob)
    if n < 1:
        raise GraphError("need at least one vertex")
    if m < n - 1:
        raise GraphError(f"m={m} cannot connect n={n} vertices")
    if simple and m > n * (n - 1) // 2:
        raise GraphError(f"m={m} exceeds simple-graph capacity for n={n}")
    rng = random.Random(seed)
    g = MultiGraph(n)
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v)
    seen = {tuple(sorted(g.endpoints(e))) for e in g.edge_ids()}
    for _ in range(m - (n - 1)):
        if simple:
            while True:
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u != v and tuple(sorted((u, v))) not in seen:
                    break
            seen.add(tuple(sorted((u, v))))
            g.add_edge(u, v)
            continue
        r = rng.random()
        if n == 1 or r < loop_prob:
            v = rng.randrange(n)
            g.add_edge(v, v)
        elif r < loop_prob + parallel_prob and g.n_edges > 0:
            # ids are 0..m-1 here; randrange(k) draws as choice does
            u, v = g.endpoints(rng.randrange(g.n_edges))
            g.add_edge(u, v)
        else:
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            g.add_edge(u, v)
    return g


def gen_bouquet(k: int) -> MultiGraph:
    """One vertex with k loops; maximum genus is floor(k/2)."""
    if k < 0:
        raise GraphError("loop count must be non-negative")
    g = MultiGraph(1)
    for _ in range(k):
        g.add_edge(0, 0)
    return g


def gen_dipole(k: int) -> MultiGraph:
    """Two vertices joined by k parallel edges; maximum genus floor((k-1)/2)."""
    if k < 1:
        raise GraphError("dipole needs at least one edge")
    g = MultiGraph(2)
    for _ in range(k):
        g.add_edge(0, 1)
    return g


def gen_complete(n: int) -> MultiGraph:
    """Simple complete graph on n vertices."""
    if n < 1:
        raise GraphError("need at least one vertex")
    g = MultiGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def gen_circulant(n: int) -> MultiGraph:
    """The circulant C_n(1, 2) in natural edge order: vertex i joins
    i + 1 and i + 2 mod n, edges 2i and 2i + 1.

    It is 4-regular with cycle rank n + 1 (for n < 5 through loops and
    parallel edges).  In this order the ``edge-id`` greedy's successful
    probes must search most of the way round, which makes it the
    adversarial input for the connectivity probe.
    """
    if n <= 0:
        raise GraphError(f"family parameter must be positive, got {n}")
    g = MultiGraph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
        g.add_edge(i, (i + 2) % n)
    return g


# family -> (generator, the size parameter it takes, its vertex and edge
# counts from that size s and m); ``random`` also takes m, the edge count,
# and the probabilities and seed
FAMILIES = {
    "tight-star": (gen_tight_star, "n", lambda s, m: (2 * s + 1, 6 * s)),
    "random": (gen_random_connected_multigraph, "n", lambda s, m: (s, m)),
    "bouquet": (gen_bouquet, "k", lambda s, m: (1, s)),
    "dipole": (gen_dipole, "k", lambda s, m: (2, s)),
    "complete": (gen_complete, "n", lambda s, m: (s, s * (s - 1) // 2)),
    "circulant": (gen_circulant, "n", lambda s, m: (s, 2 * s)),
}

# The most vertices, and the most edges, :func:`generate` builds: at about
# 0.9 KB per edge through the certify path, 2^22 edges take a few GB.
MAX_SIZE = 2 ** 22


def check_size(family: str, size: int, m: int | None) -> None:
    """Raise :class:`GraphError` if ``family`` at ``size`` (and ``m``)
    has more than :data:`MAX_SIZE` vertices or edges, computed from the
    parameters: nothing is built."""
    _, size_name, counts = FAMILIES[family]
    for count, what in zip(counts(max(size, 0), m), ("vertices", "edges")):
        if count > MAX_SIZE:
            raise GraphError(
                f"family {family!r} at {size_name}={size} has {count} "
                f"{what}, above the cap of 2^22 = {MAX_SIZE}")


def generate(family: str, *, n: int | None = None, m: int | None = None,
             k: int | None = None, seed: int = 0, loop_prob: float = 0.15,
             parallel_prob: float = 0.15) -> MultiGraph:
    """The graph of ``family`` (a key of :data:`FAMILIES`) at the size
    given by its size parameter; the probabilities are checked for every
    family, as :func:`check_probabilities` does, and the size as
    :func:`check_size` does, before anything is built.  A parameter the
    family does not take (``m`` but for ``random``, the other of ``n``
    and ``k``) is refused, not ignored."""
    check_probabilities(loop_prob, parallel_prob)
    if family not in FAMILIES:
        raise GraphError(
            f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    make, size_name, _ = FAMILIES[family]
    size = n if size_name == "n" else k
    if size is None:
        raise GraphError(f"family {family!r} requires parameter {size_name}")
    if family == "random" and m is None:
        raise GraphError(f"family {family!r} requires parameter m")
    takes = (size_name, "m") if family == "random" else (size_name,)
    for name, value in (("n", n), ("m", m), ("k", k)):
        if value is not None and name not in takes:
            raise GraphError(f"family {family!r} takes parameter "
                             f"{' and '.join(takes)}, not {name}")
    check_size(family, size, m)
    if family != "random":
        return make(size)
    return make(size, m, loop_prob=loop_prob, parallel_prob=parallel_prob,
                seed=seed)
