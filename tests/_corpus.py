"""Test corpora: exhaustive small multigraphs, seeded random instances and
shuffled circulants, and digests of what the package computes on them.

The exhaustive corpus holds every connected multigraph with at most
``max_edges`` edges, one representative per isomorphism class.  It is
built by edge augmentation: every connected multigraph with m >= 1 edges
arises from one with m - 1 by adding an edge between existing vertices
(loops and parallels included) or hanging a pendant edge on a fresh
vertex, because deleting a pendant edge, a cycle edge or a loop of any
connected multigraph keeps it connected.

Isomorphism classes are keyed by a canonical form: the minimum relabeled
edge multiset over all vertex bijections that preserve the iterated
degree/loop refinement.  The refinement is isomorphism-invariant, every
automorphism preserves it, and a shared minimum between two graphs is
itself an isomorphism, so the key is sound in both directions.
"""

from __future__ import annotations

import hashlib
import random
from itertools import permutations, product

from maxgenus import (
    CertificationError,
    LimitExceededError,
    MultiGraph,
    build_embedding,
    exact_max_genus_pairs,
    exact_max_genus_rotations,
    gen_circulant,
    gen_random_connected_multigraph,
    genus_of,
    parse_edge_list,
    run_pipeline,
    verify_pair_set,
    xuong_max_genus,
)

Edges = tuple[tuple[int, int], ...]


def _refine(n: int, edges: Edges) -> list[list[int]]:
    """Vertex classes under iterated neighbor-color refinement, in a
    deterministic class order shared by isomorphic graphs."""
    deg = [0] * n
    loops = [0] * n
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            loops[u] += 1
            deg[u] += 2
        else:
            deg[u] += 1
            deg[v] += 1
            nbrs[u].append(v)
            nbrs[v].append(u)
    color = [0] * n
    key = [(deg[v], loops[v]) for v in range(n)]
    for _ in range(n):
        ranks = {k: i for i, k in enumerate(sorted(set(key)))}
        new = [ranks[key[v]] for v in range(n)]
        if new == color:
            break
        color = new
        key = [
            (color[v], tuple(sorted(color[u] for u in nbrs[v])), loops[v])
            for v in range(n)
        ]
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(color[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def canonical_form(n: int, edges: Edges) -> tuple:
    classes = _refine(n, edges)
    best = None
    for perm_parts in product(*(permutations(c) for c in classes)):
        relabel = [0] * n
        pos = 0
        for part in perm_parts:
            for v in part:
                relabel[v] = pos
                pos += 1
        cand = tuple(sorted(
            (relabel[u], relabel[v]) if relabel[u] <= relabel[v]
            else (relabel[v], relabel[u])
            for u, v in edges
        ))
        if best is None or cand < best:
            best = cand
    return (n, best)


def _successors(n: int, edges: Edges):
    for u in range(n):
        for v in range(u, n):
            yield n, edges + ((u, v),)
    for u in range(n):
        yield n + 1, edges + ((u, n),)


def connected_multigraphs_upto(max_edges: int) -> list[MultiGraph]:
    """One representative per isomorphism class, K1 included, ordered by
    edge count."""
    seen: set[tuple] = {canonical_form(1, ())}
    out: list[tuple[int, Edges]] = [(1, ())]
    level: list[tuple[int, Edges]] = [(1, ())]
    for _ in range(max_edges):
        nxt: list[tuple[int, Edges]] = []
        for n, edges in level:
            for n2, edges2 in _successors(n, edges):
                key = canonical_form(n2, edges2)
                if key not in seen:
                    seen.add(key)
                    nxt.append((n2, edges2))
        out.extend(nxt)
        level = nxt
    graphs = []
    for n, edges in out:
        g = MultiGraph(n)
        for u, v in edges:
            g.add_edge(u, v)
        graphs.append(g)
    return graphs


def random_corpus(count: int = 500) -> list[MultiGraph]:
    """Seeded connected multigraphs with n <= 8 and m <= 12."""
    graphs = []
    for seed in range(count):
        n = 2 + seed % 7
        m = min(12, (n - 1) + 1 + seed % (12 - (n - 1)))
        heavy = seed % 3 == 2
        graphs.append(gen_random_connected_multigraph(
            n, m,
            loop_prob=0.4 if heavy else 0.15,
            parallel_prob=0.4 if heavy else 0.15,
            seed=seed,
        ))
    return graphs


def circulant_shuffled_ids(n: int, seed: int) -> MultiGraph:
    """C_n(1,2) with its edge ids in seeded random order; vertex ids and
    edge orientations stay those of ``gen_circulant``."""
    g = gen_circulant(n)
    edges = [g.endpoints(e) for e in g.edge_ids()]
    random.Random(seed).shuffle(edges)
    out = MultiGraph(n)
    for uv in edges:
        out.add_edge(*uv)
    return out


def circulant_from_shuffled_text(n: int, seed: int) -> MultiGraph:
    """C_n(1, 2) as edge-list text with edge order and orientation drawn
    from ``seed``, parsed, so vertex and edge ids follow that order."""
    rng = random.Random(seed)
    edges = [(i, (i + d) % n) for d in (1, 2) for i in range(n)]
    rng.shuffle(edges)
    return parse_edge_list("".join(
        f"{v} {u}\n" if rng.random() < 0.5 else f"{u} {v}\n"
        for u, v in edges))


def certify_digest(graphs: list[MultiGraph]) -> str:
    """SHA-256 over the certify path of each graph: the pairs of
    ``run_pipeline``, the rotation text of ``build_embedding`` and the
    genus ``genus_of`` traces from it.  A pair family that fails
    ``verify_pair_set`` raises ``CertificationError``.  Nothing here is an
    ``assert``, so it checks the same under ``python -O``."""
    h = hashlib.sha256()
    for g in graphs:
        pairs = run_pipeline(g).pairs
        res = verify_pair_set(g, pairs)
        if not res:
            raise CertificationError(f"pair family fails: {res.reason}")
        emb = build_embedding(g, pairs)
        genus = genus_of(g, emb.rotation)
        triples = [(p.e, p.f, p.witness) for p in pairs]
        h.update(f"{triples}\n{emb.rotation.to_text()}{genus}\n".encode())
    return h.hexdigest()


def oracle_values(graphs: list[MultiGraph]) -> list[str]:
    """The three exact oracles' values at their default limits, one
    ``pairs/xuong/rotations`` token per graph (``skipped`` where a limit
    is hit), then a SHA-256 over the pair oracle's witnesses and the
    Xuong oracle's trees, in the same order.  Like
    :func:`certify_digest`, it checks nothing itself."""
    h = hashlib.sha256()
    tokens = []
    for g in graphs:
        values = []
        for oracle in (exact_max_genus_pairs, xuong_max_genus,
                       exact_max_genus_rotations):
            try:
                out = oracle(g)
            except LimitExceededError:
                values.append("skipped")
                continue
            if oracle is exact_max_genus_pairs:
                h.update(f"{[(p.e, p.f, p.witness) for p in out[1]]}\n"
                         .encode())
            elif oracle is xuong_max_genus:
                h.update(f"{sorted(out[1].tree_edges)}\n".encode())
            values.append(str(out if isinstance(out, int) else out[0]))
        tokens.append("/".join(values))
    return tokens + [h.hexdigest()]
