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
)

from _reference import MirrorGraph


def path(n):
    g = MultiGraph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


def multigraph(n, edges):
    g = MultiGraph(n)
    for u, v in edges:
        g.add_edge(u, v)
    return g


BACKEND_FACTORIES = {"dfs": DfsBackend, "dynamic": DynamicBackend}


@pytest.fixture(params=list(BACKEND_FACTORIES))
def backend_factory(request):
    return BACKEND_FACTORIES[request.param]


class TestBackendBasics:
    def test_bridge_deletion(self, backend_factory):
        # path 0-1-2-3 with edge 3 doubling 1-2: every pair holds a bridge
        # of what is left, so each probe fails and changes nothing
        be = backend_factory(multigraph(4, [(0, 1), (1, 2), (2, 3), (1, 2)]))
        for e, f in ((0, 1), (1, 3), (1, 2), (2, 3), (0, 3), (1, 3)):
            assert not be.probe(e, f)
        assert be.stats.deletes == be.stats.inserts - 4  # all rolled back

    def test_loops_are_connectivity_neutral(self, backend_factory):
        g = path(3)
        loops = g.add_edge(1, 1), g.add_edge(1, 1)
        be = backend_factory(g)
        assert not be.probe(0, loops[0])  # edge 0 is a bridge
        assert be.probe(*loops)
        assert not be.probe(0, 1)

    def test_validation(self, backend_factory):
        # the 4-cycle 0-1-2-3 with edge 4 doubling 0-1: a backend built
        # without edge 4 refuses it and answers about the cycle alone
        g = multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 1)])
        assert backend_factory(g).probe(1, 4)
        be = backend_factory(g, {4})
        with pytest.raises(GraphError):
            be.probe(1, 4)
        assert be.stats.queries == 0
        assert not be.probe(0, 1)

    def test_cut_side_on_a_disconnected_graph(self, backend_factory):
        # triangle 0-1-2 with edge 3 doubling 0-1, triangle 3-4-5 and the
        # isolated vertex 6: the probe's search is about the component
        # holding the pair, not about the whole graph
        g = multigraph(7, [(0, 1), (1, 2), (2, 0), (0, 1),
                           (3, 4), (4, 5), (5, 3)])
        be = backend_factory(g)
        assert not be.probe(4, 5)  # isolates vertex 4
        assert be.probe(0, 3)  # 0-2-1 still joins the first triangle
        assert not be.probe(1, 2)

    def test_query_counter(self, backend_factory):
        be = backend_factory(multigraph(3, [(0, 1), (1, 2), (2, 0), (0, 1)]))
        before = be.stats.queries
        assert not be.probe(1, 2)
        assert be.probe(0, 3)
        assert be.stats.queries == before + 2


# a pendant edge 4 = (1, 3) on the triangle 0-1-2, with edge 3 doubling 0-1
PENDANT_TRIANGLE = [(0, 1), (1, 2), (2, 0), (0, 1), (1, 3)]


class TestPairRemoval:
    """Each backend's ``probe`` refuses, with no count, any pair but two
    distinct present edges that share an end."""

    @staticmethod
    def assert_refused(be, e, f):
        before = BackendStats(**vars(be.stats))
        with pytest.raises(GraphError):
            be.probe(e, f)
        assert be.stats == before

    def test_success_leaves_pair_deleted(self):
        g = MultiGraph(2)
        a = g.add_edge(0, 1)
        b = g.add_edge(0, 1)
        c = g.add_edge(0, 1)
        for factory in BACKEND_FACTORIES.values():
            be = factory(g)
            # the third parallel edge still holds the graph together
            assert be.probe(a, b)
            self.assert_refused(be, a, c)
            self.assert_refused(be, c, b)

    def test_failure_rolls_back(self):
        for factory in BACKEND_FACTORIES.values():
            be = factory(path(3))
            assert not be.probe(0, 1)
            assert be.stats.deletes == be.stats.inserts - 2 == 2
            assert not be.probe(1, 0)  # both edges are back

    def test_rejects_non_adjacent(self):
        for factory in BACKEND_FACTORIES.values():
            self.assert_refused(factory(path(4)), 0, 2)

    def test_rejects_same_edge(self):
        for factory in BACKEND_FACTORIES.values():
            self.assert_refused(factory(path(3)), 0, 0)

    def test_rejects_unknown_edge(self):
        for factory in BACKEND_FACTORIES.values():
            be = factory(path(3))
            self.assert_refused(be, 0, 99)
            self.assert_refused(be, 99, 0)

    def test_rejects_removed_edge(self):
        for factory in BACKEND_FACTORIES.values():
            be = factory(multigraph(4, PENDANT_TRIANGLE))
            assert not be.probe(1, 4)  # isolates vertex 3
            if factory is DfsBackend:
                assert be.bridges == {4}
            assert be.probe(0, 3)
            # a memo hit on the bridge still needs both edges present
            self.assert_refused(be, 0, 4)
            self.assert_refused(be, 4, 3)
            self.assert_refused(be, 0, 1)


@st.composite
def connected_multigraphs(draw):
    """Connected multigraphs on up to 7 vertices with loops and parallel
    edges, edge ids in a drawn order."""
    n = draw(st.integers(1, 7))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    return multigraph(n, draw(st.permutations(tree + extra)))


def seeded_multigraphs():
    """Seeded random connected multigraphs on 4 to 12 vertices with four
    more edges than a tree."""
    return st.builds(
        lambda n, seed: gen_random_connected_multigraph(n, n + 4, seed=seed),
        st.integers(4, 12), st.integers(0, 999))


def check_every_probe(factory, g, *, keep_removals):
    """Probe every candidate pair at every vertex against a
    ``MirrorGraph``.  With ``keep_removals`` the probes share one backend
    and a successful removal stays, as in the greedy, so later probes
    meet ever sparser graphs; otherwise each probe gets a fresh backend
    on ``g`` and the mirror restores the pair."""
    ref = MirrorGraph(g)
    be = factory(g)
    for v in g.vertices():
        for e, f in combinations(ref.edges_at(v), 2):
            if not (ref.has_edge(e) and ref.has_edge(f)):
                continue
            if not keep_removals:
                be = factory(g)
            before = be.stats.queries
            ok = be.probe(e, f)
            assert be.stats.queries == before + 1
            assert ok == ref.probe(e, f)
            if ok:
                with pytest.raises(GraphError):  # the pair is gone
                    be.probe(e, f)
                if not keep_removals:
                    ref.insert_edge(e)
                    ref.insert_edge(f)


def run_probe_sequence(be, g, steps):
    """Run ``(action, pick)`` steps on ``be`` and on a mirror of ``g``:
    ``probe`` a picked candidate pair, or ``scan`` for cuts.  Every probe
    answer must match the mirror's and count one query, and a removed
    pair must be refused."""
    ref = MirrorGraph(g)
    for action, pick in steps:
        if action == "scan":
            be.scan_cuts()
            continue
        pairs = [p for v in range(ref.n)
                 for p in combinations(ref.edges_at(v), 2)]
        if not pairs:
            continue
        e, f = pairs[pick % len(pairs)]
        before = be.stats.queries
        ok = be.probe(e, f)
        assert ok == ref.probe(e, f)
        if ok:
            with pytest.raises(GraphError):
                be.probe(e, f)
        assert be.stats.queries == before + 1


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


    @given(connected_multigraphs() | seeded_multigraphs(),
           st.lists(st.integers(0, 10**6), max_size=30))
    def test_property_probe_sequences(self, g, picks):
        # Probes share one backend, so failed probes fill the bridge memo
        # and successful ones leave ever sparser graphs.
        steps = [("probe", pick) for pick in picks]
        for factory in (DfsBackend, DynamicBackend):
            run_probe_sequence(factory(g), g, steps)

    def test_memo_answer_is_one_query_without_updates(self):
        # triangle 0-1-2 with the pendant edge 3 = (2, 3)
        g = multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        be = DfsBackend(g)
        assert not be.probe(1, 3)
        assert be.bridges == {3}
        before = BackendStats(**vars(be.stats))
        assert not be.probe(2, 3)
        assert be.stats == BackendStats(
            queries=before.queries + 1, deletes=before.deletes,
            inserts=before.inserts, memo_answers=before.memo_answers + 1)

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
            assert not be.probe(6, 7)
            assert be.cut_key == {}
        assert be.bridges == {7}
        before = BackendStats(**vars(be.stats))
        # isolates vertex 4: a search, rolled back, that shows no bridge
        assert not be.probe(0, 1)
        assert be.stats.memo_answers == before.memo_answers
        assert be.stats.deletes == before.deletes + 2
        assert be.bridges == {7}
        assert be.cut_key == ({8: 10, 9: 10, 10: 10} if scanned else {})
        assert not be.probe(4, 7)
        assert be.stats.memo_answers == before.memo_answers + 1
        assert be.stats.deletes == before.deletes + 2


class TestCutScan:
    """``DfsBackend.scan_cuts`` and the probe's answers from its records."""

    @given(connected_multigraphs(),
           st.lists(st.integers(0, 10**6), max_size=8),
           st.lists(st.integers(0, 10**6), max_size=8))
    def test_property_records_are_cuts(self, g, before, after):
        # A record must stay a cut while probes remove further pairs;
        # right after the scan, the bridges must be every bridge.
        ref = MirrorGraph(g)
        for pick in before:
            present = ref.edge_ids()
            if present:
                ref.delete_edge(present[pick % len(present)])
        be = DfsBackend(g, set(ref.ends) - ref.present)

        def remove(pick):
            pairs = [p for v in range(ref.n)
                     for p in combinations(ref.edges_at(v), 2)]
            for i in range(len(pairs)):
                e, f = pairs[(pick + i) % len(pairs)]
                if ref.probe(e, f):
                    assert be.probe(e, f)
                    return

        def separates(*edges):
            for eid in edges:
                ref.delete_edge(eid)
            split = not ref.connected(*g.endpoints(edges[0]))
            for eid in reversed(edges):
                ref.insert_edge(eid)
            return split

        be.scan_cuts()
        assert be.stats.scans == 1
        present = ref.edge_ids()
        assert be.bridges == {e for e in present if separates(e)}
        for pick in after:
            remove(pick)
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
           st.lists(st.tuples(st.sampled_from(["probe", "scan"]),
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
        assert not be.probe(0, 1)
        assert be.stats == BackendStats(
            queries=before.queries + 1, deletes=before.deletes,
            inserts=before.inserts, memo_answers=before.memo_answers + 1,
            scans=before.scans)

    def test_failed_searches_trigger_a_scan(self):
        # every probe on a path fails; the scan waits for enough work
        g = path(40)
        be = DfsBackend(g)
        budget = 8 * (g.n_vertices + g.n_edges)
        while be.stats.scans == 0:
            v = 1 + be.stats.queries % 38
            assert be.stats.queries < budget
            assert not be.probe(v - 1, v)
        assert be.bridges == set(g.edge_ids())


class TestDifferential:
    """The Euler-tour backend's update bound, under probes."""

    def test_promotion_budget(self):
        n = 64
        g = gen_random_connected_multigraph(n, 160, seed=8)
        be = DynamicBackend(g)
        rng = random.Random(5)
        run_probe_sequence(be, g, [("probe", rng.randrange(10**6))
                                   for _ in range(1500)])
        budget = be.stats.inserts * max(1, math.ceil(math.log2(n)))
        assert 0 < be.promotions <= budget
