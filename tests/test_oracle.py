import hashlib
import random
from itertools import chain, combinations, permutations

import pytest
from hypothesis import given, strategies as st

from maxgenus import (
    DisconnectedError,
    GraphError,
    LimitExceededError,
    MultiGraph,
    bridge_bound,
    cycle_rank,
    exact_max_genus_pairs,
    exact_max_genus_rotations,
    gen_bouquet,
    gen_complete,
    gen_dipole,
    gen_tight_star,
    gen_random_connected_multigraph,
    is_connected,
    nebesky_bound,
    odd_components,
    parse_edge_list,
    spanning_trees,
    verify_pair_set,
    xuong_max_genus,
)
from maxgenus import graph, oracle
from maxgenus.oracle import rotation_count

import _reference
from _corpus import connected_multigraphs_upto, oracle_values, random_corpus


def cycle(n):
    g = MultiGraph(n)
    for v in range(n):
        g.add_edge(v, (v + 1) % n)
    return g


def without_edge(g, eid):
    """A copy of g without edge ``eid``: its edge ids have a gap, so
    ``_next_id`` exceeds the edge count."""
    return g.copy(without={eid})


def heavy_multigraphs():
    """Loop-heavy and parallel-heavy multigraphs with m <= 14, and copies
    with an edge id gap."""
    graphs = []
    for seed in range(24):
        n, m = 2 + seed % 5, 8 + seed % 7
        loops = 0.5 if seed % 2 else 0.3
        graphs.append(gen_random_connected_multigraph(
            n, m, loop_prob=loops, parallel_prob=0.8 - loops, seed=seed))
    gaps = [without_edge(g, g.n_edges // 2) for g in graphs[:8]]
    return graphs + [h for h in gaps if is_connected(h)]


def exact_shaped(count, sizes, seed):
    """Graphs drawn as the benchmark's exact workload draws them: m
    cycles through ``sizes``, and n is uniform in m//3+1..m//2+2."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        m = sizes[i % len(sizes)]
        n = rng.randint(m // 3 + 1, m // 2 + 2)
        graphs.append(gen_random_connected_multigraph(
            n, m, seed=rng.randrange(2**32)))
    return graphs


@pytest.fixture(scope="module")
def exact_shapes():
    """450 graphs of the exact workload's shapes, each with the recursive
    reference's pair value and witness."""
    graphs = exact_shaped(450, range(8, 17), seed=5)
    return [(g, _reference.exact_max_genus_pairs(g)) for g in graphs]


FROZEN = [
    # (graph builder, expected maximum genus)
    (lambda: gen_complete(4), 1),
    (lambda: gen_bouquet(2), 1),
    (lambda: gen_bouquet(4), 2),
    (lambda: gen_dipole(3), 1),
    (lambda: parse_edge_list("a b\nb c\nc a\na d\nd e\ne a\n"), 1),  # bowtie
    (lambda: gen_tight_star(1), 2),
    (lambda: cycle(5), 0),
]


class TestFrozenValues:
    @pytest.mark.parametrize("build,expected", FROZEN)
    def test_three_routes_agree(self, build, expected):
        g = build()
        assert xuong_max_genus(g)[0] == expected
        k, witness = exact_max_genus_pairs(g)
        assert k == expected
        assert verify_pair_set(g, witness)
        assert len(witness.pairs) == k
        if rotation_count(g) <= 10_000:
            assert exact_max_genus_rotations(g, limit=10_000) == expected


class TestSpanningTrees:
    def test_counts(self):
        assert sum(1 for _ in spanning_trees(gen_complete(4))) == 16
        assert sum(1 for _ in spanning_trees(gen_complete(5))) == 125
        assert sum(1 for _ in spanning_trees(gen_dipole(4))) == 4
        assert sum(1 for _ in spanning_trees(cycle(6))) == 6

    def test_tree_has_single_tree(self):
        g = MultiGraph(4)
        for v in range(3):
            g.add_edge(v, v + 1)
        trees = list(spanning_trees(g))
        assert trees == [frozenset({0, 1, 2})]

    def test_bouquet_has_empty_tree(self):
        trees = list(spanning_trees(gen_bouquet(3)))
        assert trees == [frozenset()]

    def test_all_distinct_and_valid(self):
        g = gen_random_connected_multigraph(6, 10, seed=12)
        trees = list(spanning_trees(g))
        assert len(trees) == len(set(trees))
        for t in trees:
            odd_components(g, t)  # raises if not a spanning tree

    def test_lexicographic_order(self, exhaustive_corpus):
        # exactly the spanning (n - 1)-subsets of non-loop edges, in
        # lexicographic order of their sorted ids: Xuong's witness tree
        # is the first optimum in this order
        for g in exhaustive_corpus:
            ids = [e for e in g.edge_ids() if not g.is_loop(e)]
            expected = [
                frozenset(c) for c in combinations(ids, g.n_vertices - 1)
                if is_connected(g.copy(without=set(g.edge_ids()) - set(c)))]
            assert list(spanning_trees(g)) == expected

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            list(spanning_trees(gen_complete(5), limit=10))

    def test_limit_is_the_most_trees_listed(self):
        # a 5-cycle has exactly 5 trees: a limit of 5 lists them all, and
        # only a limit below the count refuses
        assert len(list(spanning_trees(cycle(5), limit=5))) == 5
        with pytest.raises(LimitExceededError, match="limit 4$"):
            list(spanning_trees(cycle(5), limit=4))

    def test_rejects_a_disconnected_graph(self):
        triangle_and_isolated = MultiGraph(4)
        for v in range(3):
            triangle_and_isolated.add_edge(v, (v + 1) % 3)
        two_loops = MultiGraph(2)
        two_loops.add_edge(0, 0)
        two_loops.add_edge(1, 1)
        for g in (MultiGraph(2), triangle_and_isolated, two_loops):
            trees = spanning_trees(g)
            with pytest.raises(DisconnectedError):
                next(trees)

    def test_first_tree_needs_no_connectivity_pass(self, monkeypatch):
        # the first descent finds a disconnected input by running out of
        # edges, so Kruskal's tree comes with no whole-graph pass
        def whole_graph_pass(g):
            raise AssertionError("is_connected ran")

        monkeypatch.setattr(oracle, "is_connected", whole_graph_pass)
        assert next(spanning_trees(gen_complete(4))) == frozenset({0, 1, 2})

    def test_search_deeper_than_recursion_limit(self):
        # one search level per decided edge: 3000 on the first tree
        g = cycle(3000)
        first = next(spanning_trees(g))
        assert first == frozenset(range(2999))
        assert xuong_max_genus(g)[0] == 0

    def test_one_union_find_per_search(self, monkeypatch):
        # a contraction is undone on the search's one union-find, not
        # copied into a new one per node
        built = []

        class Counted(oracle._UnionFind):
            __slots__ = ()

            def __init__(self, n):
                built.append(n)
                super().__init__(n)

        monkeypatch.setattr(oracle, "_UnionFind", Counted)
        assert sum(1 for _ in spanning_trees(gen_complete(5))) == 125
        assert next(spanning_trees(cycle(3000))) == frozenset(range(2999))
        assert built == [5, 3000]


class TestOddComponents:
    def test_cotree_of_k4_path_tree(self):
        g = gen_complete(4)
        # edges: 0=(0,1) 1=(0,2) 2=(0,3) 3=(1,2) 4=(1,3) 5=(2,3)
        # path tree 0-1-2-3 leaves cotree {0-2, 0-3, 1-3}, one 3-edge part
        assert odd_components(g, frozenset({0, 3, 5})) == 1

    def test_loops_count_as_cotree_edges(self):
        g = MultiGraph(2)
        g.add_edge(0, 1)
        g.add_edge(0, 0)
        assert odd_components(g, frozenset({0})) == 1
        g.add_edge(0, 0)
        assert odd_components(g, frozenset({0})) == 0

    def test_rejects_non_trees(self):
        g = gen_complete(4)
        with pytest.raises(GraphError):
            odd_components(g, frozenset({0, 1}))  # too few
        with pytest.raises(GraphError):
            odd_components(g, frozenset({0, 1, 3}))  # contains cycle 0-1-2
        with pytest.raises(GraphError):
            odd_components(g, frozenset({0, 1, 99}))  # unknown edge

    def test_rejects_loop_in_tree(self):
        g = MultiGraph(2)
        g.add_edge(0, 1)
        loop = g.add_edge(1, 1)
        with pytest.raises(GraphError):
            odd_components(g, frozenset({loop}))


def _forbid_search(monkeypatch):
    """Make the tree oracle's search fail if it starts."""
    def no_search(*args, **kwargs):
        raise AssertionError("spanning_trees ran")
    monkeypatch.setattr(oracle, "spanning_trees", no_search)


class TestXuong:
    def test_certificate_consistency(self):
        g = gen_tight_star(2)
        genus, cert = xuong_max_genus(g)
        assert genus == 4
        assert odd_components(g, cert.tree_edges) == cert.odd_components
        beta = cycle_rank(g)
        assert genus == (beta - cert.odd_components) // 2

    def test_limit_is_checked_before_any_search(self, monkeypatch):
        # 512 vertices, 1024 edges: listing trees up to the default limit
        # took minutes; the count bound refuses with no tree listed
        _forbid_search(monkeypatch)
        g = gen_random_connected_multigraph(512, 1024, seed=1)
        with pytest.raises(LimitExceededError, match="limit 100000$"):
            xuong_max_genus(g)

    def test_bound_refuses_every_count_above_the_limit(self, monkeypatch):
        # at a limit one below the tree count no search runs: the graph is
        # refused, or answered by its first tree exactly as the search
        # answers it, so a graph that the count refuses is refused
        graphs = random_corpus(200)
        counts = [sum(1 for _ in spanning_trees(g)) for g in graphs]
        expected = [xuong_max_genus(g) for g in graphs]
        # K8: 262144 trees, and the first of them reaches the bridge bound
        k8 = gen_complete(8)
        k8_search = xuong_max_genus(k8, limit=10**6)
        _forbid_search(monkeypatch)
        answered = 0
        for g, count, want in zip(graphs, counts, expected):
            try:
                got = xuong_max_genus(g, limit=count - 1)
            except LimitExceededError:
                continue
            assert got == want
            answered += 1
        assert 0 < answered < len(graphs)
        assert xuong_max_genus(k8) == k8_search

    def test_first_tree_answers_before_the_count(self, monkeypatch):
        # Kruskal's tree by ascending id reaches the bridge bound on K8
        # and on a cycle, so neither the count bound nor the search runs
        def no_count(*args):
            raise AssertionError("_tree_count_exceeds ran")

        _forbid_search(monkeypatch)
        monkeypatch.setattr(oracle, "_tree_count_exceeds", no_count)
        k8 = gen_complete(8)
        genus, cert = xuong_max_genus(k8)
        assert genus == 10 and cert.odd_components == 1
        assert cert.tree_edges == frozenset(range(7))  # the star at 0
        assert xuong_max_genus(cycle(3000)) == (0, oracle.XuongCertificate(
            frozenset(range(2999)), 1))

    @pytest.mark.parametrize("n,edges,limit", [
        # non-loop degrees 2, 2, 2: product 4 > 3, C(3, 1) = 3
        (3, [(0, 1), (0, 2), (0, 0), (2, 1)], 3),
        # non-loop degrees 2, 4, 4: product 8, C(5, 2) = 10 > 8
        (3, [(0, 1), (1, 2), (2, 0), (2, 0), (2, 0), (1, 1)], 8),
    ])
    def test_one_count_bound_within_the_limit_lets_the_search_run(
            self, n, edges, limit):
        # Kruskal's tree misses the bridge bound, and only one of the two
        # count bounds passes the limit: the tree count is at most the
        # other, so the search answers
        g = MultiGraph(n)
        for u, v in edges:
            g.add_edge(u, v)
        kruskal = next(spanning_trees(g))
        assert odd_components(g, kruskal) > cycle_rank(g) - 2 * bridge_bound(g)
        genus, cert = xuong_max_genus(g, limit=limit)
        assert genus == exact_max_genus_pairs(g)[0]
        assert cert.odd_components == cycle_rank(g) - 2 * genus

    def test_parity(self):
        for seed in range(25):
            g = gen_random_connected_multigraph(6, 6 + seed % 6, seed=seed)
            genus, cert = xuong_max_genus(g)
            assert (cycle_rank(g) - cert.odd_components) % 2 == 0
            assert 0 <= genus <= cycle_rank(g) // 2


class TestPairSearch:
    def test_edge_limit(self):
        g = gen_random_connected_multigraph(8, 20, seed=0)
        with pytest.raises(LimitExceededError):
            exact_max_genus_pairs(g)  # default limit is 16 edges
        exact_max_genus_pairs(g, max_edges=20)

    def test_matches_xuong(self):
        for seed in range(40):
            g = gen_random_connected_multigraph(7, 12, seed=seed)
            assert exact_max_genus_pairs(g)[0] == xuong_max_genus(g)[0]

    def test_witness_size_equals_value(self):
        g = gen_bouquet(5)
        k, witness = exact_max_genus_pairs(g)
        assert k == 2 and len(witness.pairs) == 2

    def test_same_value_and_witness_as_the_recursive_search(
            self, exhaustive_corpus, seeded_corpus):
        for g in exhaustive_corpus + seeded_corpus:
            k, witness = exact_max_genus_pairs(g)
            assert (k, witness) == _reference.exact_max_genus_pairs(g)

    def test_same_value_and_witness_on_heavy_multigraphs(self):
        for g in heavy_multigraphs():
            k, witness = exact_max_genus_pairs(g)
            assert (k, witness) == _reference.exact_max_genus_pairs(g)

    def test_same_value_and_witness_on_exact_workload_shapes(
            self, exact_shapes):
        # the reference closes no node, so a node bound that closes one
        # holding a better family than the best shows here
        cases = exact_shapes + [
            (g, _reference.exact_max_genus_pairs(g))
            for g in exact_shaped(12, [20], seed=6)]
        for g, want in cases:
            assert exact_max_genus_pairs(g, max_edges=20) == want

    def test_node_bound_closes_nodes(self, monkeypatch):
        # drawn by the exact workload's rule: gamma_M = the bridge bound
        # = 4, met late in pair order, so most nodes are entered with a
        # best above their own pair count
        g = parse_edge_list("0 1\n0 2\n1 3\n2 4\n4 2\n4 2\n"
                            "1 1\n0 3\n2 0\n4 0\n0 2\n0 3\n")
        tests = []
        unlink = graph.MultiGraph._unlink
        monkeypatch.setattr(graph.MultiGraph, "_unlink",
                            lambda self, eids: tests.append(eids)
                            or unlink(self, eids))
        k, witness = exact_max_genus_pairs(g)
        assert (k, witness) == _reference.exact_max_genus_pairs(g) and k == 4
        # one unlink per candidate test; 1279 with no node bound
        assert len(tests) == 101

    def test_one_whole_graph_connectivity_check(self, monkeypatch):
        # candidates are tested by a search from the witness; only the
        # input is checked for connectivity as a whole
        calls = []
        count = graph._component_count
        monkeypatch.setattr(graph, "_component_count",
                            lambda g: calls.append(1) or count(g))
        k, _ = exact_max_genus_pairs(
            gen_random_connected_multigraph(6, 14, seed=3))
        assert k == 4 and len(calls) <= 1

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # 1200 pairs deep, past the default limit of 1000 frames
        k, witness = exact_max_genus_pairs(gen_bouquet(2400),
                                           max_edges=100_000)
        assert k == 1200 and len(witness.pairs) == 1200


class TestRotations:
    def test_rotation_count(self):
        assert rotation_count(gen_dipole(3)) == 4      # (3-1)! squared / pin
        assert rotation_count(gen_bouquet(2)) == 6     # (4-1)!
        assert rotation_count(gen_complete(4)) == 16   # (3-1)! ** 4

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            exact_max_genus_rotations(gen_bouquet(6), limit=100)

    def test_every_rotation_within_bound(self):
        g = gen_dipole(3)
        assert exact_max_genus_rotations(g) == 1

    def test_same_value_as_the_genus_of_search(
            self, exhaustive_corpus, seeded_corpus):
        graphs = [gen_bouquet(k) for k in range(1, 5)]
        graphs += [gen_dipole(k) for k in range(2, 6)]
        graphs += [gen_complete(4), MultiGraph(1),
                   without_edge(gen_complete(4), 2),
                   without_edge(gen_tight_star(1), 0)]
        graphs += [g for g in exhaustive_corpus + seeded_corpus
                   if rotation_count(g) <= 10_000]
        for g in graphs:
            assert (exact_max_genus_rotations(g)
                    == _reference.exact_max_genus_rotations(g))

    def test_pruning_decides_where_the_bridge_bound_is_loose(
            self, full_corpus, corpus_gamma):
        # the search cannot stop at the bound on these graphs, so the
        # closed faces alone cut it short; the reference traces every
        # rotation
        loose = [g for g, gamma in zip(full_corpus, corpus_gamma)
                 if bridge_bound(g) > gamma]
        assert len(loose) == 5
        for g in loose:
            assert (exact_max_genus_rotations(g)
                    == _reference.exact_max_genus_rotations(g))

    def test_loose_graph_of_the_exact_workload(self):
        # n = 7, m = 12, drawn by the benchmark's exact workload
        g = parse_edge_list("0 1\n0 2\n0 3\n0 4\n4 5\n2 6\n"
                            "3 4\n0 3\n5 6\n2 2\n5 5\n0 1\n")
        assert rotation_count(g) == 17_280 and bridge_bound(g) == 3
        assert exact_max_genus_rotations(g) == 2
        assert _reference.exact_max_genus_rotations(g) == 2

    def test_depth_is_not_bounded_by_the_recursion_limit(self, monkeypatch):
        # one search level per vertex: 1200, past the default limit of
        # 1000 frames.  The first rotation already reaches the cap, so
        # each level is opened once; a search that leaves that path
        # fails here instead of running on through 6^1198 rotations.
        opened = []

        def orders(darts):
            opened.append(darts)
            assert len(opened) <= 1200, "the search left the first path"
            return permutations(darts)

        monkeypatch.setattr(oracle, "permutations", orders)
        g = dipole_chain(600)
        assert exact_max_genus_rotations(g, limit=rotation_count(g)) == 600
        assert len(opened) == 1200

    def test_a_searched_graph_makes_one_whole_graph_pass(self, monkeypatch):
        # within the limit, bridge_bound's scan is the connectivity check
        # and no component count runs; past it, one count tells a
        # disconnected graph from one that is too large
        counts, scans = [], []
        count, scan = graph._component_count, oracle.cut_scan
        monkeypatch.setattr(graph, "_component_count",
                            lambda g: counts.append(1) or count(g))
        monkeypatch.setattr(oracle, "cut_scan",
                            lambda g: scans.append(1) or scan(g))
        assert exact_max_genus_rotations(gen_complete(4)) == 1
        assert (len(counts), len(scans)) == (0, 1)
        bouquet_and_isolated = MultiGraph(2)  # 7! rotations at vertex 0
        for _ in range(4):
            bouquet_and_isolated.add_edge(0, 0)
        with pytest.raises(DisconnectedError):
            exact_max_genus_rotations(bouquet_and_isolated, limit=10)
        assert (len(counts), len(scans)) == (1, 1)
        with pytest.raises(DisconnectedError):
            exact_max_genus_rotations(bouquet_and_isolated)
        assert (len(counts), len(scans)) == (1, 2)

    def test_limit_is_checked_before_any_search(self, monkeypatch):
        def searched(*args):
            raise AssertionError("searched past the limit")

        # a bound or scan run before the limit check fails here too
        monkeypatch.setattr(oracle, "permutations", searched)
        monkeypatch.setattr(oracle, "nebesky_bound", searched)
        monkeypatch.setattr(oracle, "bridge_bound", searched)
        monkeypatch.setattr(oracle, "cut_scan", searched)
        monkeypatch.setattr(graph, "cut_scan", searched)
        g = dipole_chain(600)
        with pytest.raises(LimitExceededError):
            exact_max_genus_rotations(g, limit=rotation_count(g) - 1)


def dipole_chain(k):
    """k dipoles of three parallel edges, each joined to the next by a
    bridge: cycle rank 2 per dipole, so gamma_M = k = the bridge bound."""
    g = MultiGraph(2 * k)
    for i in range(k):
        for _ in range(3):
            g.add_edge(2 * i, 2 * i + 1)
        if i:
            g.add_edge(2 * i - 1, 2 * i)
    return g


def two_k4s_and_a_bridge():
    g = MultiGraph(8)
    for base in (0, 4):
        for u, v in combinations(range(base, base + 4), 2):
            g.add_edge(u, v)
    g.add_edge(3, 4)
    return g


def two_pass_bound(g):
    """The bridge bound in two passes, the reference for the one-pass
    :func:`bridge_bound`: the bridges by ``cut_scan``, then Nebesky's
    bound at them by ``nebesky_bound``'s union-find pass.  Both read the
    same scan's bridges, so this checks the scan's piece parities
    against the union-find's."""
    return nebesky_bound(g, graph.cut_scan(g)[0])


class TestNebeskyBound:
    def test_max_over_every_edge_set_is_the_maximum_genus(self):
        # Nebesky's theorem: the best edge set attains gamma_M
        for g in connected_multigraphs_upto(6):
            ids = g.edge_ids()
            subsets = chain.from_iterable(
                combinations(ids, r) for r in range(len(ids) + 1))
            assert (min(nebesky_bound(g, set(a)) for a in subsets)
                    == xuong_max_genus(g)[0])

    def test_empty_set_gives_half_the_cycle_rank(self, exhaustive_corpus):
        for g in exhaustive_corpus:
            assert nebesky_bound(g, ()) == cycle_rank(g) // 2

    def test_bridge_bound_is_an_upper_bound(
            self, exhaustive_corpus, seeded_corpus):
        # the recursive reference keeps floor(beta/2) as its cap, so a
        # bound below gamma_M shows here
        for g in exhaustive_corpus + seeded_corpus + heavy_multigraphs():
            assert bridge_bound(g) >= _reference.exact_max_genus_pairs(g)[0]

    def test_bridge_between_two_k4s(self):
        # each K4 has cycle rank 3, odd: floor(6/2) = 3, but the bound is 2
        g = two_k4s_and_a_bridge()
        assert cycle_rank(g) == 6
        assert nebesky_bound(g, ()) == 3
        assert bridge_bound(g) == 2
        assert xuong_max_genus(g)[0] == 2
        assert exact_max_genus_pairs(g)[0] == 2
        assert exact_max_genus_rotations(g) == 2

    def test_four_cycle_with_three_loops(self):
        # beta = 4 and the bridge bound is 2, but A = the four cycle edges
        # leaves four pieces, three of odd cycle rank (a loop each), so
        # xi_A = 4 + 3 - |A| - 1 = 2 and the bound is (4 - 2) / 2 = 1
        g = cycle(4)
        for v in range(3):
            g.add_edge(v, v)
        assert g.n_edges == 7 and bridge_bound(g) == 2
        assert nebesky_bound(g, set(range(4))) == 1
        assert xuong_max_genus(g)[0] == 1
        assert exact_max_genus_pairs(g)[0] == 1
        assert exact_max_genus_rotations(g) == 1

    def test_ids_outside_the_graph_are_ignored(self):
        g = two_k4s_and_a_bridge()
        assert nebesky_bound(g, {12, 99}) == bridge_bound(g) == 2

    def test_rejects_a_disconnected_graph(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        with pytest.raises(DisconnectedError):
            nebesky_bound(g, ())
        with pytest.raises(DisconnectedError):
            nebesky_bound(g, {0})


class TestBridgeBound:
    def test_equals_the_two_pass_bound(
            self, exhaustive_corpus, seeded_corpus, exact_shapes):
        graphs = (exhaustive_corpus + seeded_corpus + heavy_multigraphs()
                  + [g for g, _ in exact_shapes])
        for g in graphs:
            assert bridge_bound(g) == two_pass_bound(g)

    @pytest.mark.parametrize("loops,bound", [(1, 0), (2, 1), (3, 1)])
    def test_loops_at_one_vertex(self, loops, bound):
        g = gen_bouquet(loops)
        assert bridge_bound(g) == two_pass_bound(g) == bound

    def test_a_loop_at_each_end_of_a_bridge(self):
        # two pieces of cycle rank 1: xi = 2, so the bound is 0, not 1
        g = parse_edge_list("a a\na b\nb b\n")
        assert bridge_bound(g) == two_pass_bound(g) == 0

    def test_parallel_pair_beside_a_bridge(self):
        # 0=1 with the loop at 0 is one piece of cycle rank 2, not two of
        # rank 1 split by the tree edge its parallel copy covers; 1-2 is
        # the bridge, and 2 carries a piece of cycle rank 2
        g = parse_edge_list("0 1\n1 0\n0 0\n1 2\n2 2\n2 2\n")
        assert graph.cut_scan(g)[0] == {3}
        assert bridge_bound(g) == two_pass_bound(g) == 2

    def test_deeper_than_the_recursion_limit(self):
        # a DFS path of 1200 vertices
        assert bridge_bound(dipole_chain(600)) == 600

    def test_rejects_a_disconnected_graph(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        with pytest.raises(DisconnectedError):
            bridge_bound(g)
        g = MultiGraph(2)
        g.add_edge(1, 1)
        with pytest.raises(DisconnectedError):
            bridge_bound(g)  # vertex 0 is the isolated one

    def test_the_oracles_make_no_second_pass(self, monkeypatch,
                                             exact_shapes):
        # every oracle takes its bridge bound from one scan: the union-find
        # pass of the two-pass form fails if it runs, and each bound is
        # exactly one cut_scan
        def second_pass(*args):
            raise AssertionError("a two-pass bound ran")

        bounds, scans = [], []
        one_pass, scan = oracle.bridge_bound, graph.cut_scan

        def counted(g):
            scans.append(1)
            return scan(g)

        def calls():
            made = (len(bounds), len(scans))
            bounds.clear()
            scans.clear()
            return made

        monkeypatch.setattr(oracle, "bridge_bound",
                            lambda g: bounds.append(1) or one_pass(g))
        monkeypatch.setattr(graph, "cut_scan", counted)
        monkeypatch.setattr(oracle, "cut_scan", counted)
        monkeypatch.setattr(oracle, "nebesky_bound", second_pass)
        refused = 0
        for g, (gamma, _) in exact_shapes:
            assert exact_max_genus_pairs(g)[0] == gamma
            made_bounds, made_scans = calls()
            assert made_bounds == made_scans >= 1
            assert xuong_max_genus(g)[0] == gamma
            assert calls() == (1, 1)
            try:
                assert exact_max_genus_rotations(g) == gamma
            except LimitExceededError:
                refused += 1
                assert calls() == (0, 0)
            else:
                assert calls() == (1, 1)
        assert refused < len(exact_shapes)


def test_values_and_witnesses_pinned():
    # values, pair witnesses and Xuong trees of the oracles as they were
    # when each search stopped only at floor(beta/2)
    tokens = oracle_values(random_corpus(500))
    assert tokens[-1] == ("cd1378b0f330e7f8055dd4796117583f"
                          "d438e8e6ae422ce5843a30535bad809a")
    assert hashlib.sha256("\n".join(tokens[:-1]).encode()).hexdigest() == (
        "fe9ef462006a101f474376acaa230c9a94dd36e44a9744460d2e6e4b23dc28fa")
    assert sum("skipped" in t for t in tokens[:-1]) == 106


@given(st.integers(0, 300))
def test_property_oracle_agreement(seed):
    n = 2 + seed % 5
    g = gen_random_connected_multigraph(n, n + seed % 6, seed=seed)
    gx, _ = xuong_max_genus(g)
    gp, witness = exact_max_genus_pairs(g)
    assert gx == gp
    assert verify_pair_set(g, witness)
    if rotation_count(g) <= 5_000:
        assert exact_max_genus_rotations(g, limit=5_000) == gx
