import math
import random

import pytest
from hypothesis import given, strategies as st

from maxgenus import (
    GraphError,
    MultiGraph,
    dfs_backend,
    dynamic_backend,
    gen_random_connected_multigraph,
    is_connected,
    pair_removal_keeps_connected,
)
from maxgenus.greedy import candidate_pairs

from _corpus import circulant


def path(n):
    g = MultiGraph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


@pytest.fixture(params=["dfs", "dynamic"])
def backend_factory(request):
    return {"dfs": dfs_backend, "dynamic": dynamic_backend}[request.param]


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
        be = dfs_backend(g)
        assert pair_removal_keeps_connected(be, a, b)
        # third parallel edge still holds the graph together
        assert not be.has_edge(a) and not be.has_edge(b)
        assert be.connected_all()

    def test_failure_rolls_back(self):
        g = path(3)
        be = dfs_backend(g)
        assert not pair_removal_keeps_connected(be, 0, 1)
        assert be.has_edge(0) and be.has_edge(1)
        assert be.connected_all()

    def test_rejects_non_adjacent(self):
        g = path(4)
        be = dfs_backend(g)
        with pytest.raises(GraphError):
            pair_removal_keeps_connected(be, 0, 2)  # no shared endpoint

    def test_rejects_same_edge(self):
        g = path(3)
        be = dfs_backend(g)
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
        for e, f in candidate_pairs(mirror, v):
            if not (mirror.has_edge(e) and mirror.has_edge(f)):
                continue
            if not keep_removals:
                be = factory(g)
            before = be.stats.queries
            ok = pair_removal_keeps_connected(be, e, f)
            assert be.stats.queries == before + 1
            h = mirror.copy()
            h.delete_edges((e, f))
            assert ok == is_connected(h)
            if ok:
                assert not be.has_edge(e) and not be.has_edge(f)
                if keep_removals:
                    mirror.delete_edges((e, f))
            else:
                assert be.has_edge(e) and be.has_edge(f)
                assert be.connected_all()


class TestProbeContract:
    @given(connected_multigraphs())
    def test_property_every_pair(self, g):
        for factory in (dfs_backend, dynamic_backend):
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

    @pytest.mark.parametrize("g", [path(7), circulant(16)],
                             ids=["path", "circulant"])
    def test_lockstep_sides_run_dry(self, backend_factory, g):
        # Every probe on the path fails, and the dfs lockstep finds the
        # first or the middle of its three sides dry; the removals on the
        # circulant leave probes where the last side runs dry too.
        check_every_probe(backend_factory, g, keep_removals=False)
        check_every_probe(backend_factory, g, keep_removals=True)


class TestDifferential:
    def test_randomized_ops_agree(self):
        rng = random.Random(99)
        n = 32
        g = gen_random_connected_multigraph(n, 70, seed=4)
        A = dfs_backend(g)
        B = dynamic_backend(g)
        present = sorted(g.edge_ids())
        absent = []
        for _ in range(2000):
            roll = rng.random()
            if roll < 0.35 and present:
                e = present.pop(rng.randrange(len(present)))
                A.delete_edge(e)
                B.delete_edge(e)
                absent.append(e)
            elif roll < 0.6 and absent:
                e = absent.pop(rng.randrange(len(absent)))
                A.insert_edge(e)
                B.insert_edge(e)
                present.append(e)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                assert A.connected(u, v) == B.connected(u, v)
                assert A.connected_all() == B.connected_all()

    def test_promotion_budget(self):
        n = 64
        g = gen_random_connected_multigraph(n, 160, seed=8)
        be = dynamic_backend(g)
        rng = random.Random(5)
        ids = sorted(g.edge_ids())
        for _ in range(1500):
            e = rng.choice(ids)
            if be.has_edge(e):
                be.delete_edge(e)
            else:
                be.insert_edge(e)
        budget = be.stats.inserts * max(1, math.ceil(math.log2(n)))
        assert be.stats.promotions <= budget

    @given(st.integers(0, 2**30), st.integers(4, 12))
    def test_property_small_graphs_agree(self, seed, n):
        rng = random.Random(seed)
        g = gen_random_connected_multigraph(n, n + 4, seed=seed % 1000)
        A = dfs_backend(g)
        B = dynamic_backend(g)
        present = sorted(g.edge_ids())
        absent = []
        for _ in range(60):
            roll = rng.random()
            if roll < 0.4 and present:
                e = present.pop(rng.randrange(len(present)))
                A.delete_edge(e)
                B.delete_edge(e)
                absent.append(e)
            elif roll < 0.6 and absent:
                e = absent.pop(rng.randrange(len(absent)))
                A.insert_edge(e)
                B.insert_edge(e)
                present.append(e)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                assert A.connected(u, v) == B.connected(u, v)
        assert A.connected_all() == B.connected_all()
