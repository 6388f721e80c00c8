import math
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from maxgenus import (
    BackendStats,
    DfsBackend,
    DynamicBackend,
    GraphError,
    MultiGraph,
    gen_circulant,
    gen_random_connected_multigraph,
    is_connected,
    pair_removal_keeps_connected,
)
from maxgenus.greedy import candidate_pairs

from _reference import MirrorGraph


def path(n):
    g = MultiGraph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


@pytest.fixture(params=["dfs", "dynamic"])
def backend_factory(request):
    return {"dfs": DfsBackend, "dynamic": DynamicBackend}[request.param]


class TestBackendBasics:
    def test_bridge_deletion(self, backend_factory):
        be = backend_factory(path(4))
        assert be.connected_all()
        be.delete_edge(1)
        assert not be.connected_all()
        assert be.connected(0, 1)
        assert not be.connected(1, 2)
        be.insert_edge(1)
        assert be.connected_all()

    def test_loops_are_connectivity_neutral(self, backend_factory):
        g = path(3)
        loop = g.add_edge(1, 1)
        be = backend_factory(g)
        be.delete_edge(loop)
        assert be.connected_all()
        be.insert_edge(loop)
        assert be.connected_all()

    def test_validation(self, backend_factory):
        be = backend_factory(path(3))
        with pytest.raises(GraphError):
            be.delete_edge(99)
        be.delete_edge(0)
        with pytest.raises(GraphError):
            be.delete_edge(0)
        be.insert_edge(0)
        with pytest.raises(GraphError):
            be.insert_edge(0)

    def test_cut_side_on_a_disconnected_graph(self, backend_factory):
        # two triangles and an isolated vertex: the answer is about the
        # ends given, not about the whole graph
        g = MultiGraph(7)
        for a, b, c in ((0, 1, 2), (3, 4, 5)):
            g.add_edge(a, b)
            g.add_edge(b, c)
            g.add_edge(c, a)
        be = backend_factory(g)
        assert be.cut_side((0, 2)) is None
        assert be.cut_side((4, 3, 5, 4)) is None
        assert be.cut_side((0, 3)) is not None
        assert be.cut_side((3, 6)) is not None
        be.delete_edge(3)  # 3-4
        be.delete_edge(4)  # 4-5
        assert be.cut_side((3, 5)) is None
        assert be.cut_side((3, 4, 5)) is not None

    def test_query_counter(self, backend_factory):
        be = backend_factory(path(3))
        before = be.stats.queries
        be.connected(0, 2)
        be.connected_all()
        assert be.stats.queries == before + 2


class TestPairRemoval:
    def test_success_leaves_pair_deleted(self):
        g = MultiGraph(2)
        a = g.add_edge(0, 1)
        b = g.add_edge(0, 1)
        c = g.add_edge(0, 1)
        be = DfsBackend(g)
        assert pair_removal_keeps_connected(be, a, b)
        # third parallel edge still holds the graph together
        assert not be.has_edge(a) and not be.has_edge(b)
        assert be.connected_all()

    def test_failure_rolls_back(self):
        g = path(3)
        be = DfsBackend(g)
        assert not pair_removal_keeps_connected(be, 0, 1)
        assert be.has_edge(0) and be.has_edge(1)
        assert be.connected_all()

    def test_rejects_non_adjacent(self):
        g = path(4)
        be = DfsBackend(g)
        with pytest.raises(GraphError):
            pair_removal_keeps_connected(be, 0, 2)  # no shared endpoint

    def test_rejects_same_edge(self):
        g = path(3)
        be = DfsBackend(g)
        with pytest.raises(GraphError):
            pair_removal_keeps_connected(be, 0, 0)


def multigraph(n, edges):
    g = MultiGraph(n)
    for u, v in edges:
        g.add_edge(u, v)
    return g


@st.composite
def connected_multigraphs(draw):
    """Connected multigraphs on up to 7 vertices with loops and parallel
    edges, edge ids in a drawn order."""
    n = draw(st.integers(1, 7))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    return multigraph(n, draw(st.permutations(tree + extra)))


def check_every_probe(factory, g, *, keep_removals):
    """Probe every candidate pair at every vertex against a from-scratch
    connectivity check.  With ``keep_removals`` the probes share one
    backend and a successful removal stays, as in the greedy, so later
    probes meet ever sparser graphs; otherwise each probe gets a fresh
    backend on ``g``."""
    mirror = g.copy()
    be = factory(g)
    for v in g.vertices():
        for e, f in candidate_pairs(mirror, v, ()):
            if not (mirror.has_edge(e) and mirror.has_edge(f)):
                continue
            if not keep_removals:
                be = factory(g)
            before = be.stats.queries
            ok = pair_removal_keeps_connected(be, e, f)
            assert be.stats.queries == before + 1
            h = mirror.copy(without={e, f})
            assert ok == is_connected(h)
            if ok:
                assert not be.has_edge(e) and not be.has_edge(f)
                if keep_removals:
                    mirror = h
            else:
                assert be.has_edge(e) and be.has_edge(f)
                assert be.connected_all()


def run_probe_sequence(be, g, steps):
    """Run ``(action, pick)`` steps on ``be`` and on a mirror of ``g``:
    ``probe`` a picked candidate pair, ``reinsert`` a picked removed edge,
    or ``scan`` for cuts.  Every probe answer must match the mirror."""
    ref = MirrorGraph(g)
    removed = []
    for action, pick in steps:
        if action == "scan":
            be.scan_cuts()
            continue
        if action == "reinsert" and removed:
            eid = removed.pop(pick % len(removed))
            be.insert_edge(eid)
            ref.insert_edge(eid)
            continue
        pairs = [p for v in range(ref.n)
                 for p in combinations(ref.edges_at(v), 2)]
        if not pairs:
            continue
        e, f = pairs[pick % len(pairs)]
        ref.delete_edge(e)
        ref.delete_edge(f)
        expected = ref.connected_all()
        if expected:
            removed += [e, f]
        else:
            ref.insert_edge(f)
            ref.insert_edge(e)
        before = be.stats.queries
        assert pair_removal_keeps_connected(be, e, f) == expected
        assert be.stats.queries == before + 1
        assert be.has_edge(e) == be.has_edge(f) == (not expected)


class TestProbeContract:
    @given(connected_multigraphs())
    def test_property_every_pair(self, g):
        for factory in (DfsBackend, DynamicBackend):
            check_every_probe(factory, g, keep_removals=False)
            check_every_probe(factory, g, keep_removals=True)

    @pytest.mark.parametrize("edges", [
        [(0, 0), (0, 1)],                  # loop + bridge: fails
        [(0, 0), (0, 1), (0, 1)],          # loop + one of a parallel pair
        [(0, 0), (0, 0), (0, 1)],          # two loops: always removable
        [(0, 1), (0, 1)],                  # parallel pair, nothing else
        [(0, 1), (0, 1), (1, 2), (2, 0)],  # parallel pair on a cycle
        [(0, 1), (1, 0), (1, 2)],          # parallel pair, swapped ends
    ], ids=["loop-bridge", "loop-parallel", "two-loops", "parallel-only",
            "parallel-cycle", "parallel-swapped"])
    def test_far_endpoints_coincide(self, backend_factory, edges):
        g = multigraph(1 + max(max(e) for e in edges), edges)
        check_every_probe(backend_factory, g, keep_removals=False)
        check_every_probe(backend_factory, g, keep_removals=True)

    @pytest.mark.parametrize("g", [path(7), gen_circulant(16)],
                             ids=["path", "circulant"])
    def test_lockstep_sides_run_dry(self, backend_factory, g):
        # Every probe on the path fails, and the dfs lockstep finds the
        # first or the middle of its three sides dry; the removals on the
        # circulant leave probes where the last side runs dry too.
        check_every_probe(backend_factory, g, keep_removals=False)
        check_every_probe(backend_factory, g, keep_removals=True)


    @given(connected_multigraphs(),
           st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)),
                    max_size=30))
    def test_property_probe_sequences(self, g, steps):
        # Probes share one backend, so failed probes fill the bridge memo;
        # re-inserting removed edges in between must not leave it stale.
        steps = [("reinsert" if r else "probe", pick) for r, pick in steps]
        for factory in (DfsBackend, DynamicBackend):
            run_probe_sequence(factory(g), g, steps)

    def test_memo_answer_is_one_query_without_updates(self):
        # triangle 0-1-2 with the pendant edge 3 = (2, 3)
        g = multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        be = DfsBackend(g)
        assert not pair_removal_keeps_connected(be, 1, 3)
        assert be.bridges == {3}
        before = BackendStats(**vars(be.stats))
        assert not pair_removal_keeps_connected(be, 2, 3)
        assert be.stats == BackendStats(
            queries=before.queries + 1, deletes=before.deletes,
            inserts=before.inserts, memo_answers=before.memo_answers + 1)
        assert be.has_edge(2) and be.has_edge(3)
        be.delete_edge(1)
        with pytest.raises(GraphError):  # a memo hit still needs both edges
            pair_removal_keeps_connected(be, 1, 3)

    def test_insert_forgets_memoised_bridges(self):
        # edge 4 = (3, 0) closes a second cycle through the pendant edge 3
        g = multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
        be = DfsBackend(g)
        be.delete_edge(4)
        assert not pair_removal_keeps_connected(be, 1, 3)
        assert be.bridges == {3}
        be.insert_edge(4)  # edge 3 is no longer a bridge
        assert pair_removal_keeps_connected(be, 2, 3)
        assert be.connected_all()

    @pytest.mark.parametrize("scanned", [False, True],
                             ids=["learned", "scanned"])
    def test_failed_probe_keeps_the_memo(self, scanned):
        # K4 on 0..3 with edge 0-1 subdivided by vertex 4 (the scan's DFS
        # runs 0-4-1 from its root, so edges 0 and 1 form no recorded cut
        # pair), and the triangle 5-6-7 hung from 2 by the bridge 7 = (2, 5)
        g = multigraph(8, [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                           (2, 3), (2, 5), (5, 6), (6, 7), (7, 5)])
        be = DfsBackend(g)
        if scanned:
            be.scan_cuts()
            assert be.cut_key == {8: 10, 9: 10, 10: 10}
        else:
            assert not pair_removal_keeps_connected(be, 6, 7)
            assert be.cut_key == {}
        assert be.bridges == {7}
        before = BackendStats(**vars(be.stats))
        # isolates vertex 4: a search, rolled back, that shows no bridge
        assert not pair_removal_keeps_connected(be, 0, 1)
        assert be.stats.memo_answers == before.memo_answers
        assert be.stats.deletes == before.deletes + 2
        assert be.bridges == {7}
        assert be.cut_key == ({8: 10, 9: 10, 10: 10} if scanned else {})
        assert not pair_removal_keeps_connected(be, 4, 7)
        assert be.stats.memo_answers == before.memo_answers + 1
        assert be.stats.deletes == before.deletes + 2


class TestCutScan:
    """``DfsBackend.scan_cuts`` and the probe's answers from its records."""

    @given(connected_multigraphs(),
           st.lists(st.integers(0, 10**6), max_size=8),
           st.lists(st.integers(0, 10**6), max_size=8))
    def test_property_records_are_cuts(self, g, before, after):
        # A record must stay a cut while further edges are deleted; right
        # after the scan, the bridges must be every bridge.
        be = DfsBackend(g)
        ref = MirrorGraph(g)

        def delete(picks):
            for pick in picks:
                present = ref.edge_ids()
                if present:
                    eid = present[pick % len(present)]
                    be.delete_edge(eid)
                    ref.delete_edge(eid)

        def separates(*edges):
            for eid in edges:
                ref.delete_edge(eid)
            split = not ref.connected(*g.endpoints(edges[0]))
            for eid in reversed(edges):
                ref.insert_edge(eid)
            return split

        delete(before)
        be.scan_cuts()
        assert be.stats.scans == 1
        present = ref.edge_ids()
        assert be.bridges == {e for e in present if separates(e)}
        delete(after)
        present = set(ref.present)
        keyed = sorted((k, e) for e, k in be.cut_key.items() if e in present)
        for b in be.bridges & present:
            assert separates(b)
        for k, e in keyed:
            if k in be.bridges:
                assert separates(e)
        for (k, e), (k2, f) in combinations(keyed, 2):
            if k == k2:
                assert separates(e, f)

    @given(connected_multigraphs(),
           st.lists(st.tuples(st.sampled_from(["probe", "reinsert", "scan"]),
                              st.integers(0, 10**6)),
                    max_size=30))
    def test_property_probe_sequences_with_scans(self, g, steps):
        run_probe_sequence(DfsBackend(g), g, steps)

    def test_records_of_a_scan(self):
        # 4-cycle 0-1-2-3 with chord 4 = (0, 2) and pendant bridge 5 = (3, 4)
        g = multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)])
        be = DfsBackend(g)
        be.scan_cuts()
        assert be.bridges == {5}
        # The DFS from 0 walks the tree 0, 1, 2, 5.  Only edge 3 covers
        # tree edge 2, so {2, 3} is recorded.  The 2-edge cut {0, 1} is
        # not: both its tree edges are covered by 3 and 4.
        assert be.cut_key == {2: 3, 3: 3}

    def test_cut_key_answer_is_one_query_without_updates(self):
        g = multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        be = DfsBackend(g)
        be.scan_cuts()
        assert len(set(be.cut_key.values())) == 1 and len(be.cut_key) == 4
        before = BackendStats(**vars(be.stats))
        assert not pair_removal_keeps_connected(be, 0, 1)
        assert be.stats == BackendStats(
            queries=before.queries + 1, deletes=before.deletes,
            inserts=before.inserts, memo_answers=before.memo_answers + 1,
            scans=before.scans)
        assert be.has_edge(0) and be.has_edge(1)

    def test_insert_clears_cut_key(self):
        g = multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        be = DfsBackend(g)
        be.delete_edge(4)
        be.scan_cuts()
        assert len(be.cut_key) == 4
        be.insert_edge(4)  # the chord splits the cycle's one 4-edge class
        assert be.cut_key == {} and be.bridges == set()
        assert pair_removal_keeps_connected(be, 1, 2)

    def test_failed_searches_trigger_a_scan(self):
        # every probe on a path fails; the scan waits for enough work
        g = path(40)
        be = DfsBackend(g)
        budget = 8 * (g.n_vertices + g.n_edges)
        while be.stats.scans == 0:
            v = 1 + be.stats.queries % 38
            assert be.stats.queries < budget
            assert not pair_removal_keeps_connected(be, v - 1, v)
        assert be.bridges == set(g.edge_ids())


class TestDifferential:
    """Both backends against a mirror graph searched from scratch."""

    def test_randomized_ops_agree(self):
        rng = random.Random(99)
        n = 32
        g = gen_random_connected_multigraph(n, 70, seed=4)
        A = DfsBackend(g)
        B = DynamicBackend(g)
        ref = MirrorGraph(g)
        present = sorted(g.edge_ids())
        absent = []
        for _ in range(2000):
            roll = rng.random()
            if roll < 0.35 and present:
                e = present.pop(rng.randrange(len(present)))
                A.delete_edge(e)
                B.delete_edge(e)
                ref.delete_edge(e)
                absent.append(e)
            elif roll < 0.6 and absent:
                e = absent.pop(rng.randrange(len(absent)))
                A.insert_edge(e)
                B.insert_edge(e)
                ref.insert_edge(e)
                present.append(e)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                assert A.connected(u, v) == B.connected(u, v) == ref.connected(u, v)
                assert A.connected_all() == B.connected_all() == ref.connected_all()

    def test_promotion_budget(self):
        n = 64
        g = gen_random_connected_multigraph(n, 160, seed=8)
        be = DynamicBackend(g)
        rng = random.Random(5)
        ids = sorted(g.edge_ids())
        for _ in range(1500):
            e = rng.choice(ids)
            if be.has_edge(e):
                be.delete_edge(e)
            else:
                be.insert_edge(e)
        budget = be.stats.inserts * max(1, math.ceil(math.log2(n)))
        assert be.promotions <= budget

    @given(st.integers(0, 2**30), st.integers(4, 12))
    def test_property_small_graphs_agree(self, seed, n):
        rng = random.Random(seed)
        g = gen_random_connected_multigraph(n, n + 4, seed=seed % 1000)
        A = DfsBackend(g)
        B = DynamicBackend(g)
        ref = MirrorGraph(g)
        present = sorted(g.edge_ids())
        absent = []
        for _ in range(60):
            roll = rng.random()
            if roll < 0.4 and present:
                e = present.pop(rng.randrange(len(present)))
                A.delete_edge(e)
                B.delete_edge(e)
                ref.delete_edge(e)
                absent.append(e)
            elif roll < 0.6 and absent:
                e = absent.pop(rng.randrange(len(absent)))
                A.insert_edge(e)
                B.insert_edge(e)
                ref.insert_edge(e)
                present.append(e)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                assert A.connected(u, v) == B.connected(u, v) == ref.connected(u, v)
        assert A.connected_all() == B.connected_all() == ref.connected_all()
