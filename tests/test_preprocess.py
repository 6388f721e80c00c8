import pytest
from hypothesis import given, strategies as st

from maxgenus import (
    AdjacentPair,
    DisconnectedError,
    GraphError,
    MultiGraph,
    PairSet,
    gen_random_connected_multigraph,
    greedy_max_genus,
    is_connected,
    merge_pairs,
    reduce_multiedges,
    verify_pair_set,
)
from test_greedy import has_removable_pair


def star_with(parallel_size, loop_size):
    """Two-vertex core with a fat parallel class, loops on vertex 1."""
    g = MultiGraph(3)
    for _ in range(parallel_size):
        g.add_edge(0, 1)
    g.add_edge(1, 2)  # keeps vertex 2 attached
    for _ in range(loop_size):
        g.add_edge(1, 1)
    return g


class TestReduction:
    @pytest.mark.parametrize("size", range(3, 10))
    def test_parallel_class_thins_out(self, size):
        g = star_with(size, 0)
        pre = reduce_multiedges(g)
        kept = [e for e in pre.reduced.edge_ids()
                if sorted(pre.reduced.endpoints(e)) == [0, 1]]
        assert len(kept) == (2 if size % 2 == 0 else 1)
        assert len(pre.pairs.pairs) == (size - len(kept)) // 2
        assert is_connected(pre.reduced)

    @pytest.mark.parametrize("size", range(2, 8))
    def test_loop_bundle_thins_out(self, size):
        g = star_with(2, size)
        pre = reduce_multiedges(g)
        red = pre.reduced
        loops = [e for e in red.edge_ids() if red.endpoints(e) == (1, 1)]
        assert len(loops) == size % 2
        assert is_connected(pre.reduced)

    def test_accounting_identity(self):
        g = star_with(9, 7)
        pre = reduce_multiedges(g)
        assert pre.reduced.n_edges + 2 * len(pre.pairs.pairs) == g.n_edges

    def test_ids_preserved(self):
        g = star_with(5, 3)
        pre = reduce_multiedges(g)
        for eid in pre.reduced.edge_ids():
            assert pre.reduced.endpoints(eid) == g.endpoints(eid)

    def test_input_untouched(self):
        g = star_with(6, 4)
        m0 = g.n_edges
        reduce_multiedges(g)
        assert g.n_edges == m0

    def test_pairs_verify_on_original(self):
        g = star_with(9, 7)
        pre = reduce_multiedges(g)
        assert verify_pair_set(g, pre.pairs)

    def test_rejects_disconnected(self):
        g = MultiGraph(2)
        with pytest.raises(DisconnectedError):
            reduce_multiedges(g)

    def test_untouched_when_thin(self):
        g = gen_random_connected_multigraph(8, 12, seed=7, simple=True)
        pre = reduce_multiedges(g)
        assert len(pre.pairs.pairs) == 0
        assert pre.reduced == g


class TestMergeAndMaximality:
    def test_merge_disjoint(self):
        a = PairSet([AdjacentPair(0, 1, 0)])
        b = PairSet([AdjacentPair(2, 3, 1)])
        merged = merge_pairs(a, b)
        assert len(merged.pairs) == 2

    def test_merge_rejects_overlap(self):
        a = PairSet([AdjacentPair(0, 1, 0)])
        b = PairSet([AdjacentPair(1, 2, 0)])
        with pytest.raises(GraphError):
            merge_pairs(a, b)

    def test_pipeline_maximality_transfers(self):
        for seed in range(8):
            g = gen_random_connected_multigraph(
                7, 18, seed=seed, loop_prob=0.35, parallel_prob=0.45
            )
            pre = reduce_multiedges(g)
            run = greedy_max_genus(pre.reduced)
            merged = merge_pairs(pre.pairs, run.pairs)
            assert verify_pair_set(g, merged)
            # the residual is shared, so maximality carries to the original
            assert not has_removable_pair(run.residual)


@given(st.integers(0, 400))
def test_property_reduction_invariants(seed):
    n = 2 + seed % 6
    g = gen_random_connected_multigraph(
        n, n + 2 + seed % 9, seed=seed, loop_prob=0.4, parallel_prob=0.5
    )
    pre = reduce_multiedges(g)
    assert pre.reduced.n_edges + 2 * len(pre.pairs.pairs) == g.n_edges
    assert is_connected(pre.reduced)
    assert verify_pair_set(g, pre.pairs)
    loop_ends = [u for u, v in map(pre.reduced.endpoints,
                                   pre.reduced.edge_ids()) if u == v]
    assert len(loop_ends) == len(set(loop_ends))
    classes = {}
    for e in pre.reduced.edge_ids():
        u, w = pre.reduced.endpoints(e)
        if u != w:
            classes.setdefault((min(u, w), max(u, w)), []).append(e)
    assert all(len(ids) <= 2 for ids in classes.values())
