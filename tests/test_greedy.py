import hashlib
import inspect
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from maxgenus import (
    AdjacentPair,
    BackendStats,
    CertificationError,
    DfsBackend,
    DisconnectedError,
    GenusBounds,
    GraphError,
    MultiGraph,
    PairSet,
    POLICIES,
    cycle_rank,
    gen_bouquet,
    gen_circulant,
    gen_complete,
    gen_tight_star,
    gen_random_connected_multigraph,
    greedy_max_genus,
    is_connected,
    odd_components,
    verify_pair_set,
)
from maxgenus import bench, cli, greedy, pipeline
from maxgenus.graph import bfs_tree, cut_scan
from maxgenus.greedy import DEFAULT_POLICY, candidate_pairs

from _corpus import circulant_from_shuffled_text, random_corpus
import _reference
from _reference import MirrorGraph, brute_bridges


def has_removable_pair(g):
    """Brute-force maximality check."""
    for v in g.vertices():
        for e, f in candidate_pairs(g, v, ()):
            if is_connected(g.copy(without={e, f})):
                return True
    return False


class TestCandidatePairs:
    def test_star_center(self):
        g = MultiGraph(4)
        for leaf in (1, 2, 3):
            g.add_edge(0, leaf)
        assert candidate_pairs(g, 0, ()) == [(0, 1), (0, 2), (1, 2)]
        assert candidate_pairs(g, 1, ()) == []

    def test_loop_collapses_to_one_edge(self):
        g = MultiGraph(2)
        g.add_edge(0, 1)
        g.add_edge(0, 0)
        # the loop pairs with the edge once, never with itself
        assert candidate_pairs(g, 0, ()) == [(0, 1)]

    def test_skip_drops_edges_before_pairing(self):
        g = MultiGraph(5)
        for leaf in (1, 2, 3, 4):
            g.add_edge(0, leaf)
        assert candidate_pairs(g, 0, {1}) == [(0, 2), (0, 3), (2, 3)]
        assert candidate_pairs(g, 0, {0, 1, 3}) == []


class TestVerify:
    def test_accepts_valid(self):
        g = gen_bouquet(2)
        ps = PairSet([AdjacentPair(0, 1, 0)])
        assert verify_pair_set(g, ps)

    def test_missing_edge(self):
        g = gen_bouquet(2)
        res = verify_pair_set(g, PairSet([AdjacentPair(0, 9, 0)]))
        assert not res and res.reason.startswith("missing-edge")

    def test_duplicate_edge(self):
        g = gen_bouquet(3)
        # one edge in two pairs, and one edge named twice in one pair
        for family in ([AdjacentPair(0, 1, 0), AdjacentPair(1, 2, 0)],
                       [AdjacentPair(1, 1, 0)]):
            res = verify_pair_set(g, PairSet(family))
            assert not res and res.reason == "duplicate-edge:1"

    def test_not_adjacent(self):
        g = MultiGraph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        g.add_edge(1, 2)
        res = verify_pair_set(g, PairSet([AdjacentPair(0, 1, 0)]))
        assert not res and res.reason.startswith("not-adjacent")

    def test_disconnecting_family(self):
        g = gen_tight_star(1)
        # removing both parallel edges of one leaf cuts it off
        res = verify_pair_set(g, PairSet([AdjacentPair(0, 1, 0)]))
        assert not res and res.reason == "disconnected"

    def test_pair_check_matches_the_reference(self):
        # corrupt greedy families: a missing e, a missing f, an edge
        # shared by two pairs, a wrong witness, and two of these at once
        rng = random.Random(0)
        reasons = set()
        for seed in range(40):
            n = 4 + seed % 17
            g = gen_random_connected_multigraph(
                n, 2 * n + seed % 9, seed=seed, loop_prob=0.2,
                parallel_prob=0.2)
            pairs = greedy_max_genus(g, seed=seed).pairs.pairs
            assert len(pairs) >= 2
            for faults in ([0], [1], [2], [3], rng.sample(range(4), 2)):
                family = list(pairs)
                for kind in faults:
                    i = rng.randrange(len(family))
                    p = family[i]
                    if kind == 0:
                        p = AdjacentPair(-1 - i, p.f, p.witness)
                    elif kind == 1:
                        p = AdjacentPair(p.e, g._next_id + i, p.witness)
                    elif kind == 2:
                        other = family[(i + 1) % len(family)]
                        p = AdjacentPair(p.e, other.f, p.witness)
                    else:
                        common = set(g._edges.get(p.e, ())) & set(
                            g._edges.get(p.f, ()))
                        p = AdjacentPair(p.e, p.f, rng.choice(
                            [v for v in range(-1, n + 1) if v not in common]))
                    family[i] = p
                family = PairSet(family)
                seen, reason = greedy._pair_edge_set(g, family)
                assert (seen, reason) == _reference.pair_edge_set(g, family)
                assert reason is not None
                reasons.add(reason.split(":")[0])
        assert reasons == {"missing-edge", "duplicate-edge", "not-adjacent"}


class TestGreedy:
    def test_k4(self):
        r = greedy_max_genus(gen_complete(4))
        assert len(r.pairs.pairs) == 1
        assert r.bounds == GenusBounds(1, 1)  # beta = 3, upper = 1

    def test_bouquet(self):
        r = greedy_max_genus(gen_bouquet(5))
        assert len(r.pairs.pairs) == 2
        assert r.bounds.lower == 2 and r.bounds.upper == 2

    def test_tree_yields_nothing(self):
        g = MultiGraph(4)
        for v in range(3):
            g.add_edge(v, v + 1)
        r = greedy_max_genus(g)
        assert len(r.pairs.pairs) == 0
        assert r.bounds == GenusBounds(0, 0)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 14, 20])
    def test_tight_family_policy_gap(self, n):
        g = gen_tight_star(n)
        best = greedy_max_genus(g, policy="loops-first")
        worst = greedy_max_genus(g, policy="central-vertex-first")
        assert len(best.pairs.pairs) == 2 * n
        assert len(worst.pairs.pairs) == n
        # both are maximal families despite the factor-2 gap
        assert not has_removable_pair(best.residual)
        assert not has_removable_pair(worst.residual)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_certificates_verify(self, policy):
        for seed in range(6):
            g = gen_random_connected_multigraph(9, 18, seed=seed)
            r = greedy_max_genus(g, policy=policy, seed=seed)
            assert verify_pair_set(g, r.pairs)
            assert not has_removable_pair(r.residual)

    def test_deterministic(self):
        g = gen_random_connected_multigraph(10, 22, seed=3)
        a = greedy_max_genus(g, policy="random", seed=42)
        b = greedy_max_genus(g, policy="random", seed=42)
        assert [(p.e, p.f, p.witness) for p in a.pairs] == \
               [(p.e, p.f, p.witness) for p in b.pairs]

    def test_residual_accounting(self):
        g = gen_random_connected_multigraph(8, 20, seed=1)
        r = greedy_max_genus(g)
        k = len(r.pairs.pairs)
        assert r.residual.n_edges == g.n_edges - 2 * k
        assert is_connected(r.residual)
        assert r.stats.removed == k
        assert r.stats.tests <= r.stats.candidate_pairs

    def test_backend_stats_attached(self):
        g = gen_complete(4)
        r = greedy_max_genus(g)
        assert r.backend_stats.queries == r.stats.tests

    def test_pipeline_probe_count_mismatch_is_typed(self, monkeypatch):
        real = pipeline.greedy_max_genus

        def skewed(*args, **kwargs):
            res = real(*args, **kwargs)
            res.backend_stats.queries += 1
            return res

        monkeypatch.setattr(pipeline, "greedy_max_genus", skewed)
        with pytest.raises(CertificationError):
            pipeline.run_pipeline(gen_complete(4))

    def test_rejects_disconnected(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        for policy in POLICIES:  # tree-first's check is phase 1's BFS
            with pytest.raises(DisconnectedError,
                               match="greedy requires a connected graph"):
                greedy_max_genus(g, policy=policy)

    def test_rejects_unknown_options(self):
        g = gen_complete(4)
        with pytest.raises(GraphError):
            greedy_max_genus(g, policy="fastest")
        with pytest.raises(GraphError):
            greedy_max_genus(g, backend="oracle")

    def test_upper_bound_formula(self):
        g = gen_random_connected_multigraph(7, 16, seed=9)
        r = greedy_max_genus(g)
        k = len(r.pairs.pairs)
        assert r.bounds.lower == k
        assert r.bounds.upper == min(2 * k, cycle_rank(g) // 2)


@given(st.integers(0, 500), st.integers(2, 9), st.integers(0, 10))
def test_property_greedy_contract(seed, n, extra):
    g = gen_random_connected_multigraph(n, n - 1 + extra, seed=seed)
    r = greedy_max_genus(g, policy=POLICIES[seed % len(POLICIES)], seed=seed)
    assert verify_pair_set(g, r.pairs)
    assert not has_removable_pair(r.residual)
    assert r.bounds.lower <= r.bounds.upper or r.bounds.lower == 0


# SHA-256 of "e,f,witness;..." as the worklist greedy with a final full
# pass produced them; a change of processing order or probe shows here.
PINNED_PAIRS = {
    "random-512-1024": {
        "edge-id": "08c79c0a7a29beeb41b118ec8950e430f528202f9d7c697f655bed6dfefebbbd",
        "loops-first": "3f12115ab13e197b5d82ca383e16a2242983f48f12c4d02784b75184cc1a767a",
        "central-vertex-first": "5d22258f376d3beec7a3aa591ffb980922272dcbf7c81671fd7bcb39e6900b80",
        "tree-first": "663323d1b4a8092b468a73626c1beb80c5e145ad71f8be2a79ef748bfb6f3a28",
    },
    "circulant-64": {
        "edge-id": "94e7cfad57dc71b45c676af71a1b66a88c1235228ed88c0c81ddd7d902e52b28",
        "loops-first": "94e7cfad57dc71b45c676af71a1b66a88c1235228ed88c0c81ddd7d902e52b28",
        "central-vertex-first": "94e7cfad57dc71b45c676af71a1b66a88c1235228ed88c0c81ddd7d902e52b28",
        "tree-first": "4c430ca3f6b3e2a97d468678332ba7dc4a18e159ac76556ffa0bc171358334e6",
    },
}


@pytest.mark.parametrize("graph", sorted(PINNED_PAIRS))
@pytest.mark.parametrize("policy",
                         ["edge-id", "loops-first", "central-vertex-first",
                          "tree-first"])
def test_deterministic_policies_keep_their_certificates(graph, policy):
    g = (gen_random_connected_multigraph(512, 1024, seed=1)
         if graph == "random-512-1024" else gen_circulant(64))
    r = greedy_max_genus(g, policy=policy)
    text = ";".join(f"{p.e},{p.f},{p.witness}" for p in r.pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PINNED_PAIRS[graph][policy]


def test_cut_scans_keep_the_certificate():
    # Failed probes on the shuffled circulant pay for cut scans, whose
    # records then answer probes; the pairs are those of the search alone.
    r = greedy_max_genus(circulant_from_shuffled_text(512, 1),
                         policy="edge-id")
    text = ";".join(f"{p.e},{p.f},{p.witness}" for p in r.pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "813f59badb199649f69247d2882d7c89d045f52e74689ce9420dc42429cc25ed"
    assert r.backend_stats.scans >= 1


class TestTreeFirst:
    def test_is_the_default(self):
        assert DEFAULT_POLICY == "tree-first"
        # on K5 the tree-first pairs differ from every other policy's
        g = gen_complete(5)
        default = greedy_max_genus(g).pairs
        assert [p for p in POLICIES
                if greedy_max_genus(g, policy=p).pairs == default] == \
            ["tree-first"]
        assert bench.BenchConfig().policies == ("tree-first",)
        assert cli.build_parser().parse_args(["greedy"]).policy == \
            "tree-first"

    @pytest.mark.parametrize("n", [64, 4096])
    def test_circulant_pairs_need_no_probe(self, n):
        r = greedy_max_genus(gen_circulant(n))
        assert len(r.pairs) == n // 2
        assert r.stats.tree_pairs == n // 2
        assert r.stats.tests == 0
        assert r.backend_stats.queries == 0

    def test_only_phase_two_probes(self, monkeypatch):
        calls = []
        real = DfsBackend.probe

        def counted(be, e, f):
            calls.append((e, f))
            return real(be, e, f)

        monkeypatch.setattr(DfsBackend, "probe", counted)
        g = gen_random_connected_multigraph(64, 160, seed=3)
        r = greedy_max_genus(g)
        assert r.stats.tree_pairs > 0 and r.stats.tests > 0
        assert len(calls) == r.stats.tests == r.backend_stats.queries

    @pytest.mark.parametrize("seed", range(8))
    def test_phase_one_pairs_cotree_edges(self, seed):
        g = gen_random_connected_multigraph(12, 30, seed=seed,
                                            loop_prob=0.2, parallel_prob=0.2)
        r = greedy_max_genus(g)
        k = len(r.pairs)
        assert r.stats.removed == k
        assert r.stats.tree_pairs <= k
        tree = bfs_tree(g)
        for p in r.pairs.pairs[:r.stats.tree_pairs]:
            assert p.e not in tree and p.f not in tree
        assert verify_pair_set(g, r.pairs)
        assert not has_removable_pair(r.residual)


def kotzig_pair_count(g):
    """(beta - xi(T)) / 2 for T the BFS tree: phase 1's exact pair count."""
    return (cycle_rank(g) - odd_components(g, bfs_tree(g))) // 2


class TestKotzigPhaseOne:
    def test_pair_count_on_the_corpus(self):
        for g in random_corpus():
            assert greedy_max_genus(g).stats.tree_pairs == \
                kotzig_pair_count(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_pair_count_with_loops_and_parallel_edges(self, seed):
        g = gen_random_connected_multigraph(200, 600, seed=seed,
                                            loop_prob=0.3, parallel_prob=0.3)
        r = greedy_max_genus(g)
        assert r.stats.tree_pairs == kotzig_pair_count(g)
        assert verify_pair_set(g, r.pairs)

    @pytest.mark.parametrize("n", [*range(1, 11), 64])
    def test_tight_star_reaches_two_n(self, n):
        r = greedy_max_genus(gen_tight_star(n))
        assert len(r.pairs) == r.stats.tree_pairs == 2 * n
        assert r.stats.tests == 0

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_shuffled_circulant_needs_no_probe(self, seed):
        g = circulant_from_shuffled_text(512, seed)
        r = greedy_max_genus(g)
        assert len(r.pairs) == r.stats.tree_pairs == cycle_rank(g) // 2
        assert r.stats.tests == 0
        # beta < 2 after phase 1, so no backend is built
        assert r.backend_stats == BackendStats()

    def test_random_quality_bar(self):
        # 3790 with per-vertex cotree pairing; beta / 2 = 4096
        g = gen_random_connected_multigraph(8192, 16384, seed=1)
        assert len(greedy_max_genus(g).pairs) >= 3950

    def test_deep_cotree_needs_no_recursion(self):
        # The doubled path's cotree is one path, so the DFS is n deep
        n = 50_000
        g = MultiGraph(n)
        for v in range(n - 1):
            g.add_edge(v, v + 1)
            g.add_edge(v, v + 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            r = greedy_max_genus(g)
        finally:
            sys.setrecursionlimit(limit)
        assert len(r.pairs) == r.stats.tree_pairs == (n - 1) // 2


def test_pass_stops_below_cycle_rank_two():
    # K4 has beta = 3; after the first pair beta = 1 and no pair can go
    r = greedy_max_genus(gen_complete(4), policy="edge-id")
    assert len(r.pairs) == 1
    assert r.stats.tests == 1


def reference_pairs(g, policy, seed=0):
    """The single pass with no backend: each candidate pair is probed by
    deleting it from a ``MirrorGraph`` and traversing the whole graph.
    The orders are read from the residual the pass starts on, the
    candidates at v from the mirror's present edges when the pass
    reaches v.  A deterministic pass visits every vertex and probes
    every candidate, bridges included.  A ``random`` pass draws its
    stream as the greedy does: it shuffles the core vertices in
    ascending order, then at each the pairs of edges that are not
    bridges (by brute force) of the residual."""
    residual = g.copy()
    found = PairSet()
    pass_policy = policy
    if policy == "tree-first":
        greedy._pair_cotree_edges(residual, found)
        pass_policy = "edge-id"
    mirror = MirrorGraph(residual)
    bridges = set()
    order = sorted(residual.vertices(),
                   key=greedy._vertex_key(pass_policy, residual))
    if pass_policy == "random":
        bridges = brute_bridges(residual)
        order = [v for v in order
                 if len(set(mirror.edges_at(v)) - bridges) >= 2]
        rng = random.Random(seed)
        rng.shuffle(order)
    pkey = greedy._pair_order_key(pass_policy, residual)
    beta = cycle_rank(residual)
    for v in order:
        if beta < 2:
            break
        cands = list(combinations(
            [e for e in mirror.edges_at(v) if e not in bridges], 2))
        if pass_policy == "random":
            rng.shuffle(cands)
        else:
            cands.sort(key=pkey)
        for e, f in cands:
            if beta < 2:
                break
            if not (mirror.has_edge(e) and mirror.has_edge(f)):
                continue
            mirror.delete_edge(e)
            mirror.delete_edge(f)
            if mirror.connected_all():
                found.pairs.append(AdjacentPair(e, f, v))
                beta -= 2
            else:
                mirror.insert_edge(f)
                mirror.insert_edge(e)
    return found.pairs


def phase_two_residual(g, policy):
    residual = g.copy()
    if policy == "tree-first":
        greedy._pair_cotree_edges(residual, PairSet())
    return residual


# Multigraphs whose pendant trees carry loops and parallel edges, so the
# residual has many bridges next to cycles.
PENDANT_GRAPHS = [
    gen_random_connected_multigraph(40, 52, seed=s, loop_prob=0.3,
                                    parallel_prob=0.3)
    for s in range(24)
]


def hub_graph(n):
    """Vertex 0 with n pendant leaves and three triangles through it: six
    core edges at a hub of degree n + 6."""
    g = MultiGraph(n + 7)
    for a in (1, 3, 5):
        g.add_edge(0, a)
        g.add_edge(0, a + 1)
        g.add_edge(a, a + 1)
    for leaf in range(7, n + 7):
        g.add_edge(0, leaf)
    return g


# C(6, 2) pairs at the hub, plus the one pair at each triangle vertex a
# random pass may visit before the hub
HUB_CANDIDATES = 15 + 6


class TestCycleCore:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_pairs_match_a_reference_that_probes_everything(self, policy):
        for seed, g in enumerate(random_corpus() + PENDANT_GRAPHS):
            assert greedy_max_genus(g, policy=policy, seed=seed).pairs.pairs \
                == reference_pairs(g, policy, seed)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_no_probe_holds_a_bridge_of_the_residual(self, policy,
                                                     monkeypatch):
        probed = []
        real = DfsBackend.probe

        def recorded(be, e, f):
            probed.append((e, f))
            return real(be, e, f)

        monkeypatch.setattr(DfsBackend, "probe", recorded)
        skipped = 0
        for seed, g in enumerate(PENDANT_GRAPHS):
            probed.clear()
            residual = phase_two_residual(g, policy)
            cut = brute_bridges(residual)
            r = greedy_max_genus(g, policy=policy, seed=seed)
            assert len(probed) == r.stats.tests
            assert not any(e in cut or f in cut for e, f in probed)
            if cycle_rank(residual) >= 2:
                assert r.stats.core_bridges == len(cut)
                skipped += len(cut)
        assert skipped > 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_no_candidate_holds_a_bridge_of_the_residual(self, policy,
                                                         monkeypatch):
        built = []
        monkeypatch.setattr(greedy, "candidate_pairs", lambda *args: (
            built.append(candidate_pairs(*args)) or built[-1]))
        paired = 0
        for seed, g in enumerate(PENDANT_GRAPHS):
            built.clear()
            cut = brute_bridges(phase_two_residual(g, policy))
            greedy_max_genus(g, policy=policy, seed=seed)
            assert not any(e in cut or f in cut
                           for cands in built for e, f in cands)
            paired += sum(map(len, built))
        assert paired > 0

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("n", [1, 2000])
    def test_hub_pays_only_its_core_edges(self, policy, n, monkeypatch):
        # pairing all n + 6 edges at the hub would build C(n + 6, 2)
        sizes = []
        monkeypatch.setattr(greedy, "candidate_pairs", lambda *args: (
            sizes.append(len(cands := candidate_pairs(*args))) or cands))
        for seed in range(4):
            sizes.clear()
            r = greedy_max_genus(hub_graph(n), policy=policy, seed=seed)
            assert len(r.pairs) == 1
            assert sum(sizes) == r.stats.candidate_pairs <= HUB_CANDIDATES

    def test_random_pass_shuffles_only_the_core(self, monkeypatch):
        # the seven core vertices, then each one's core candidates; every
        # pass reaches the hub, the only vertex with a removable pair
        shuffled = []
        real = random.Random.shuffle
        monkeypatch.setattr(random.Random, "shuffle", lambda rng, x: (
            shuffled.append(len(x)) or real(rng, x)))
        r = greedy_max_genus(hub_graph(2000), policy="random", seed=1)
        assert r.pairs.pairs[0].witness == 0
        assert sum(shuffled) <= 7 + r.stats.candidate_pairs

    def test_bridge_scan_seeds_the_cut_memo(self):
        # the scan that finds the core's bridges also records cut pairs of
        # the core; they answer probes with no failed search and no rescan
        g = gen_random_connected_multigraph(64, 128, seed=7)
        r = greedy_max_genus(g)
        assert r.backend_stats.scans == 0
        assert r.backend_stats.memo_answers > 0
        assert r.pairs.pairs == \
            greedy_max_genus(g, backend="dynamic").pairs.pairs

    def test_phase_two_probes_only_the_core(self, monkeypatch):
        # 16172 phase-2 tests when every candidate was probed
        g = gen_random_connected_multigraph(8192, 16384, seed=1)
        built = []
        monkeypatch.setattr(greedy, "candidate_pairs", lambda h, v, skip: (
            built.append(v) or candidate_pairs(h, v, skip)))
        held = []  # the edge ids each backend is built on
        monkeypatch.setitem(greedy.BACKENDS, "dfs", lambda h, without: (
            held.append(set(h.edge_ids()) - without)
            or DfsBackend(h, without)))
        r = greedy_max_genus(g)
        assert r.stats.core_bridges > 0
        assert r.stats.tests <= 2500
        # candidates only where two edges outside the bridges meet
        residual = phase_two_residual(g, "tree-first")
        bridges = cut_scan(residual)[0]
        assert len(bridges) == r.stats.core_bridges
        core = {v for v in residual.vertices()
                if len({d >> 1 for d in residual._inc[v]} - bridges) >= 2}
        assert built and set(built) <= core
        # the backend never held a bridge: it knows only the core's edges
        (core_edges,) = held
        assert core_edges == set(residual.edge_ids()) - bridges
        assert r.backend_stats.inserts - r.backend_stats.deletes \
            == len(core_edges) - 2 * (r.stats.removed - r.stats.tree_pairs)
