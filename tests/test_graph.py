import random

import pytest
from hypothesis import given, strategies as st

from maxgenus import (
    DisconnectedError,
    GraphError,
    MultiGraph,
    ParseError,
    cycle_rank,
    format_edge_list,
    gen_bouquet,
    is_cactus,
    is_connected,
    parse_edge_list,
    xuong_max_genus,
)
from maxgenus import graph
from maxgenus.graph import bfs_tree, cut_scan, format_dart, parse_dart
from maxgenus.oracle import nebesky_bound

import _reference


def triangle():
    g = MultiGraph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 0)
    return g


class TestDarts:
    def test_encoding(self):
        assert format_dart(10) == "5.0" and format_dart(11) == "5.1"
        assert parse_dart("5.0") == 10 and parse_dart("5.1") == 11

    @given(st.integers(min_value=0, max_value=10**6), st.integers(0, 1))
    def test_text_round_trip(self, eid, end):
        d = 2 * eid + end
        assert parse_dart(format_dart(d)) == d

    def test_parse_rejects_garbage(self):
        for bad in ("3", "3.", ".1", "3.2", "a.0", "3.0x", "².0", "٣.0"):
            with pytest.raises(ValueError):
                parse_dart(bad)


class TestMultiGraph:
    def test_loops_and_parallels_allowed(self):
        g = MultiGraph(2)
        e0 = g.add_edge(0, 1)
        e1 = g.add_edge(0, 1)
        e2 = g.add_edge(1, 1)
        assert e0 != e1
        assert g.degree(0) == 2
        assert g.degree(1) == 4  # loop counts twice
        assert g.is_loop(e2) and not g.is_loop(e0)
        assert sorted(g._inc[1]) == [2 * e0 + 1, 2 * e1 + 1, 2 * e2, 2 * e2 + 1]

    def test_handshake(self):
        g = MultiGraph(4)
        for uv in ((0, 1), (1, 2), (2, 2), (3, 0), (1, 3)):
            g.add_edge(*uv)
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.n_edges

    def test_edge_ids_stable_across_delete(self):
        g = triangle().copy(without={1})
        e3 = g.add_edge(0, 1)
        assert e3 == 3  # ids never reused
        assert sorted(g.edge_ids()) == [0, 2, 3]

    def test_unknown_edge_errors(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.endpoints(99)

    def test_copy_is_independent(self):
        g = triangle()
        h = g.copy()
        h.add_edge(0, 0)
        assert not g.has_edge(3)
        h = g.copy(without={0})
        assert g.has_edge(0)
        assert not h.has_edge(0)


class TestParsing:
    def test_round_trip(self):
        text = "a b\nb c\nc a\nc c\na b\n"
        g = parse_edge_list(text)
        assert g.n_vertices == 3
        assert g.n_edges == 5
        assert format_edge_list(g) == text

    def test_vertex_without_edge_cannot_be_written(self):
        with pytest.raises(GraphError):
            format_edge_list(MultiGraph(1))
        g = MultiGraph(3)
        g.add_edge(0, 1)
        with pytest.raises(GraphError):
            format_edge_list(g)

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n\nx y  # trailing\n")
        assert g.n_edges == 1

    def test_line_numbers_in_errors(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("a b\n\na b c\n")
        assert exc.value.line_no == 3

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_list("# nothing\n")

    def test_first_appearance_indexing(self):
        g = parse_edge_list("v u\nu w\n")
        # v=0, u=1, w=2
        assert g.endpoints(0) == (0, 1)
        assert g.endpoints(1) == (1, 2)
        assert g.labels == {0: "v", 1: "u", 2: "w"}


def _parse(parse, text):
    """Everything ``parse`` gives for ``text`` that can be compared: the
    edge and incidence maps in insertion order and the labels, or the
    parse error's message and line number."""
    try:
        g = parse(text)
    except ParseError as exc:
        return str(exc), exc.line_no
    return (list(g._edges.items()), [list(d.items()) for d in g._inc],
            g._next_id, g.labels)


LABELS = st.sampled_from(["a", "b", "c", "a1", "\u00e9", "7"])
SEPARATORS = st.sampled_from([" ", "\t", "  ", "\u2003", " \t\u2003"])
# line boundaries of str.splitlines; \x0b, \x0c and \x1c are whitespace
# to str.split as well
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
                             "\u2028"])


@st.composite
def edge_list_lines(draw, comments):
    kind = draw(st.sampled_from(["edge", "edge", "edge", "loop", "blank",
                                 "comment", "bad"]))
    sep = draw(SEPARATORS)
    if kind in ("edge", "loop"):
        u = draw(LABELS)
        words = [u, u if kind == "loop" else draw(LABELS)]
    elif kind == "bad":
        words = draw(st.lists(LABELS, min_size=1, max_size=3).filter(
            lambda w: len(w) != 2))
    else:
        words = []
    line = draw(st.sampled_from(["", sep])) + sep.join(words)
    if comments and (kind == "comment" or draw(st.booleans())):
        line += draw(st.sampled_from(["#", " # x y", "\t#a b c"]))
    return line + draw(st.sampled_from(["", sep]))


@given(st.booleans().flatmap(lambda comments: st.lists(
    st.tuples(edge_list_lines(comments), LINE_ENDS, st.integers(1, 2)),
    max_size=12)))
def test_property_parse_matches_the_reference(lines):
    # each drawn line appears once or twice, so repeats are common; about
    # half the texts hold no "#", so the parser skips its comment cut
    text = "".join((line + end) * times for line, end, times in lines)
    assert _parse(parse_edge_list, text) == _parse(
        _reference.reference_parse_edge_list, text)


class TestConnectivity:
    def test_connected(self):
        assert is_connected(triangle())
        g = MultiGraph(3)
        g.add_edge(0, 1)
        assert not is_connected(g)  # vertex 2 isolated

    def test_cycle_rank(self):
        assert cycle_rank(triangle()) == 1
        g = MultiGraph(2)
        g.add_edge(0, 1)
        assert cycle_rank(g) == 0
        g.add_edge(0, 1)
        g.add_edge(1, 1)
        assert cycle_rank(g) == 2

    def test_single_vertex_connected(self):
        assert is_connected(MultiGraph(1))


def disjoint_union(*graphs):
    g = MultiGraph(sum(h.n_vertices for h in graphs))
    base = 0
    for h in graphs:
        for eid in h.edge_ids():
            u, v = h.endpoints(eid)
            g.add_edge(base + u, base + v)
        base += h.n_vertices
    return g


def two_k4s_a_bridge_and_a_lone_vertex():
    g = MultiGraph(9)
    for base in (0, 4):
        for u in range(base, base + 4):
            for v in range(u + 1, base + 4):
                g.add_edge(u, v)
    g.add_edge(3, 4)
    return g


def parallel_pair():
    g = MultiGraph(2)
    g.add_edge(0, 1)
    g.add_edge(1, 0)
    return g


def check_cuts(g):
    """cut_scan's bridges are those found by brute force, and each of its
    cut pairs is two edges, neither a bridge, whose deletion splits a
    component, keyed by the one that is its own key."""
    bridges, cut_key, _, components = cut_scan(g)
    assert bridges == _reference.brute_bridges(g)
    mirror = _reference.MirrorGraph(g)
    for t, b in cut_key.items():
        assert cut_key[b] == b and not {t, b} & bridges
        if t != b:
            mirror.delete_edge(t)
            mirror.delete_edge(b)
            assert mirror.components() > components
            mirror.insert_edge(t)
            mirror.insert_edge(b)


class TestCutScan:
    # (graph, components, odd pieces); the two K4s have cycle rank 3 each
    SHAPES = [
        (two_k4s_a_bridge_and_a_lone_vertex, 2, 2),
        (lambda: gen_bouquet(2), 1, 0),
        (parallel_pair, 1, 1),
        (lambda: disjoint_union(two_k4s_a_bridge_and_a_lone_vertex(),
                                gen_bouquet(2), parallel_pair()), 4, 3),
        (lambda: disjoint_union(parallel_pair(), gen_bouquet(1),
                                MultiGraph(1), triangle()), 4, 3),
    ]

    @pytest.mark.parametrize("make,components,odd", SHAPES)
    def test_disconnected_multigraphs(self, make, components, odd):
        g = make()
        _, _, odd_pieces, count = cut_scan(g)
        assert (count == 1) == is_connected(g)
        assert count == components and odd_pieces == odd
        check_cuts(g)

    def test_odd_pieces_are_nebeskys_xi_at_the_bridges(
            self, exhaustive_corpus, seeded_corpus):
        for g in exhaustive_corpus + seeded_corpus:
            bridges, _, odd_pieces, components = cut_scan(g)
            assert components == 1
            assert odd_pieces == cycle_rank(g) - 2 * nebesky_bound(g, bridges)
            check_cuts(g)


class TestCactus:
    def test_positives(self):
        assert is_cactus(MultiGraph(1))
        path = MultiGraph(3)
        path.add_edge(0, 1)
        path.add_edge(1, 2)
        assert is_cactus(path)
        assert is_cactus(triangle())
        one_loop = MultiGraph(1)
        one_loop.add_edge(0, 0)
        assert is_cactus(one_loop)
        # two triangles joined by a path: cycles are vertex-disjoint
        g = parse_edge_list(
            "a b\nb c\nc a\nc d\nd e\ne f\nf g\ng e\n"
        )
        assert is_cactus(g)

    def test_negatives(self):
        bowtie = parse_edge_list("a b\nb c\nc a\na d\nd e\ne a\n")
        assert not is_cactus(bowtie)
        two_loops = MultiGraph(1)
        two_loops.add_edge(0, 0)
        two_loops.add_edge(0, 0)
        assert not is_cactus(two_loops)
        theta = MultiGraph(2)
        for _ in range(3):
            theta.add_edge(0, 1)
        assert not is_cactus(theta)
        loop_on_cycle = triangle()
        loop_on_cycle.add_edge(0, 0)
        assert not is_cactus(loop_on_cycle)

    def test_disconnected_raises(self):
        g = MultiGraph(2)
        with pytest.raises(DisconnectedError):
            is_cactus(g)

    def test_takes_connectivity_from_the_scan(self, monkeypatch):
        graphs = [tree_of_cycles(seed) for seed in range(100)]
        graphs += [MultiGraph(1), gen_bouquet(1), gen_bouquet(2),
                   parallel_pair()]
        verdicts = [is_cactus(g) for g in graphs]

        def second_pass(g):
            raise AssertionError("is_cactus made a connectivity pass")

        monkeypatch.setattr(graph, "is_connected", second_pass)
        monkeypatch.setattr(graph, "_component_count", second_pass)
        assert [is_cactus(g) for g in graphs] == verdicts
        with pytest.raises(DisconnectedError):
            is_cactus(two_k4s_a_bridge_and_a_lone_vertex())

    def test_agrees_with_exact_genus_zero_on_trees_of_cycles(self):
        graphs = [tree_of_cycles(seed) for seed in range(400)]
        verdicts = [is_cactus(g) for g in graphs]
        assert verdicts == [xuong_max_genus(g)[0] == 0 for g in graphs]
        assert 100 < sum(verdicts) < 300


def tree_of_cycles(seed):
    """A cactus grown from one vertex by pendant edges, loops, parallel
    pairs and cycles of length 3 or 4, each cycle hung at a vertex on no
    cycle yet; half get one extra random edge, which may be a second loop,
    a loop on a cycle, a third parallel edge or a chord.  Edge ids and
    vertex labels are shuffled, so DFS trees vary."""
    rng = random.Random(seed)
    edges = []
    free = [True]  # vertex not on a cycle
    for _ in range(rng.randint(1, 6)):
        n = len(free)
        spots = [v for v in range(n) if free[v]]
        length = rng.choice((0, 1, 2, 3, 4))
        if length == 0 or not spots:
            edges.append((rng.randrange(n), n))
            free.append(True)
            continue
        ring = [rng.choice(spots), *range(n, n + length - 1)]
        free += [True] * (length - 1)
        for i, v in enumerate(ring):
            free[v] = False
            edges.append((v, ring[(i + 1) % length]))
    n = len(free)
    if rng.random() < 0.5:
        edges.append((rng.randrange(n), rng.randrange(n)))
    rng.shuffle(edges)
    label = list(range(n))
    rng.shuffle(label)
    g = MultiGraph(n)
    for u, v in edges:
        g.add_edge(label[u], label[v])
    return g


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                min_size=1, max_size=12))
def test_property_handshake_and_rank(edges):
    n = max(max(u, v) for u, v in edges) + 1
    g = MultiGraph(n)
    for u, v in edges:
        g.add_edge(u, v)
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.n_edges
    # beta = m - n + c is non-negative and zero exactly for forests
    assert cycle_rank(g) >= 0


def check_far_ends(h):
    # each dart at x maps to its edge's other end; == sees only darts
    for x in h.vertices():
        for d, w in h._inc[x].items():
            ends = h.endpoints(d >> 1)
            assert (ends[d & 1], ends[1 - (d & 1)]) == (x, w)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=2, max_size=10),
       st.data())
def test_property_delete_restore_identity(edges, data):
    # a copy without some edges keeps every other edge under its id and
    # leaves the original as it was
    n = 5
    g = MultiGraph(n)
    for u, v in edges:
        g.add_edge(u, v)
        check_far_ends(g)
    snapshot = g.copy()
    check_far_ends(snapshot)
    ids = data.draw(st.permutations(list(g.edge_ids())))
    half = set(ids[: len(ids) // 2])
    h = g.copy(without=half)
    check_far_ends(h)
    assert h.edge_ids() == sorted(set(ids) - half)
    assert all(h.endpoints(e) == g.endpoints(e) for e in h.edge_ids())
    assert g == snapshot


@given(st.data())
def test_property_maps_stay_in_dart_order(data):
    # adds and copies without drawn edges, loops included; each map must
    # stay ascending, and the graph must equal, order and all, one built
    # by the same adds and one copy without every dropped edge
    n = 5
    vertex = st.integers(0, n - 1)
    g = MultiGraph(n)
    added, dropped = [], set()
    for _ in range(data.draw(st.integers(1, 25))):
        if data.draw(st.booleans()) or not g.n_edges:
            added.append((data.draw(vertex), data.draw(vertex)))
            g.add_edge(*added[-1])
        else:
            without = set(data.draw(st.lists(
                st.sampled_from(g.edge_ids()), min_size=1)))
            g = g.copy(without)
            dropped |= without
        assert all(list(m) == sorted(m) for m in g._inc)
    fresh = MultiGraph(n)
    for u, v in added:
        fresh.add_edge(u, v)
    fresh = fresh.copy(dropped)
    assert [list(m.items()) for m in g._inc] == \
        [list(m.items()) for m in fresh._inc]
    if is_connected(g):
        assert bfs_tree(g) == bfs_tree(fresh)
