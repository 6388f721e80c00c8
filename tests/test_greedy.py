import hashlib

import pytest
from hypothesis import given, strategies as st

from maxgenus import (
    AdjacentPair,
    DisconnectedError,
    GenusBounds,
    GraphError,
    MultiGraph,
    PairSet,
    POLICIES,
    cycle_rank,
    gen_bouquet,
    gen_complete,
    gen_tight_star,
    gen_random_connected_multigraph,
    greedy_max_genus,
    is_connected,
    verify_pair_set,
)
from maxgenus.greedy import candidate_pairs

from _corpus import circulant


def has_removable_pair(g):
    """Brute-force maximality check."""
    for v in g.vertices():
        for e, f in candidate_pairs(g, v):
            h = g.copy()
            h.delete_edges((e, f))
            if is_connected(h):
                return True
    return False


class TestAdjacentPair:
    def test_normalizes_order(self):
        p = AdjacentPair(7, 3, 0)
        assert (p.e, p.f) == (3, 7)

    def test_rejects_equal_edges(self):
        with pytest.raises(GraphError):
            AdjacentPair(3, 3, 0)


class TestCandidatePairs:
    def test_star_center(self):
        g = MultiGraph(4)
        for leaf in (1, 2, 3):
            g.add_edge(0, leaf)
        assert candidate_pairs(g, 0) == [(0, 1), (0, 2), (1, 2)]
        assert candidate_pairs(g, 1) == []

    def test_loop_collapses_to_one_edge(self):
        g = MultiGraph(2)
        g.add_edge(0, 1)
        g.add_edge(0, 0)
        # the loop pairs with the edge once, never with itself
        assert candidate_pairs(g, 0) == [(0, 1)]


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
        res = verify_pair_set(
            g, PairSet([AdjacentPair(0, 1, 0), AdjacentPair(1, 2, 0)])
        )
        assert not res and res.reason.startswith("duplicate-edge")

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
        r = greedy_max_genus(g, backend="dynamic")
        assert r.backend_kind == "dynamic"
        assert r.backend_stats.queries == r.stats.tests

    def test_rejects_disconnected(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        with pytest.raises(DisconnectedError):
            greedy_max_genus(g)

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
    r = greedy_max_genus(g, policy=POLICIES[seed % 4], seed=seed)
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
    },
    "circulant-64": {
        "edge-id": "94e7cfad57dc71b45c676af71a1b66a88c1235228ed88c0c81ddd7d902e52b28",
        "loops-first": "94e7cfad57dc71b45c676af71a1b66a88c1235228ed88c0c81ddd7d902e52b28",
        "central-vertex-first": "94e7cfad57dc71b45c676af71a1b66a88c1235228ed88c0c81ddd7d902e52b28",
    },
}


@pytest.mark.parametrize("graph", sorted(PINNED_PAIRS))
@pytest.mark.parametrize("policy",
                         ["edge-id", "loops-first", "central-vertex-first"])
def test_deterministic_policies_keep_their_certificates(graph, policy):
    g = (gen_random_connected_multigraph(512, 1024, seed=1)
         if graph == "random-512-1024" else circulant(64))
    r = greedy_max_genus(g, policy=policy)
    text = ";".join(f"{p.e},{p.f},{p.witness}" for p in r.pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PINNED_PAIRS[graph][policy]
