"""Rotation systems, face tracing, and the certified embedding build."""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from maxgenus import (
    POLICIES,
    AdjacentPair,
    CertificationError,
    DisconnectedError,
    EmbeddingState,
    GraphError,
    MultiGraph,
    ParseError,
    RotationSystem,
    build_embedding,
    gen_bouquet,
    gen_circulant,
    gen_dipole,
    genus_of,
    greedy_max_genus,
    gen_random_connected_multigraph,
    gen_tight_star,
    run_pipeline,
    trace_faces,
    verify_pair_set,
    xuong_max_genus,
)
from maxgenus.embedding import surface_genus
from maxgenus.graph import bfs_tree

from _corpus import circulant_shuffled_ids
from _reference import merge_corners, reference_rotation_text, validate_rotation


def path_graph(n):
    g = MultiGraph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


def k4():
    g = MultiGraph(4)
    for u in range(4):
        for v in range(u + 1, 4):
            g.add_edge(u, v)
    return g


class TestRotationText:
    def test_round_trip(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 2)
        rot = RotationSystem(order={0: (0,), 1: (1, 2), 2: (3, 4, 5)})
        rot.validate(g)
        text = rot.to_text()
        back = RotationSystem.from_text(text)
        assert back == rot

    def test_dart_syntax(self):
        text = "0: 0.0\n1: 0.1 1.0\n2: 1.1 2.0 2.1\n"
        rot = RotationSystem.from_text(text)
        assert rot.order[2] == (3, 4, 5)

    def test_comments_and_blanks(self):
        text = "# a rotation\n\n0: 0.0\n\n1: 0.1\n"
        rot = RotationSystem.from_text(text)
        assert set(rot.order) == {0, 1}

    def test_isolated_vertex_line(self):
        g = MultiGraph(2)
        g.add_edge(0, 0)
        rot = RotationSystem(order={0: (0, 1), 1: ()})
        rot.validate(g)
        back = RotationSystem.from_text(rot.to_text())
        assert back.order[1] == ()

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphError):
            RotationSystem.from_text("0: 0.0\n0: 0.1\n")

    def test_bad_dart_rejected(self):
        with pytest.raises(GraphError):
            RotationSystem.from_text("0: 0.2\n")
        with pytest.raises(GraphError):
            RotationSystem.from_text("0: zero.0\n")

    def test_missing_colon_rejected(self):
        with pytest.raises(GraphError):
            RotationSystem.from_text("0 0.0\n")

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            RotationSystem.from_text("# nothing here\n")

    @pytest.mark.parametrize("text, line", [
        ("0 0.0\n", 1),
        ("0: 0.0\nx: 0.1\n", 2),
        ("0: 0.0\n0: 0.1\n", 2),
        ("0: 0.0\n1: 0.2\n", 2),
        ("²: 0.0\n", 1),
        ("٣: 0.0\n", 1),
        ("0: ².0\n", 1),
        ("# nothing here\n", None),
    ], ids=["missing-colon", "bad-vertex", "repeated-vertex", "bad-dart",
            "superscript-vertex", "arabic-indic-vertex", "superscript-dart",
            "empty"])
    def test_syntax_errors_are_parse_errors(self, text, line):
        with pytest.raises(ParseError) as info:
            RotationSystem.from_text(text)
        assert info.value.line_no == line

    def test_validate_wrong_vertices(self):
        g = MultiGraph(2)
        g.add_edge(0, 1)
        rot = RotationSystem(order={0: (0,)})
        with pytest.raises(GraphError):
            rot.validate(g)

    def test_validate_wrong_darts(self):
        g = MultiGraph(2)
        g.add_edge(0, 1)
        # dart 1 lives at vertex 1, not 0
        rot = RotationSystem(order={0: (0, 1), 1: ()})
        with pytest.raises(GraphError):
            rot.validate(g)


def _perturbed_rotation(g, rng, how):
    """A shuffled rotation of g, then broken as ``how`` says."""
    cycles = {v: rng.sample(sorted(g._inc[v]), g.degree(v))
              for v in g.vertices()}

    def put(d, v=None):
        cyc = cycles[rng.choice(list(cycles)) if v is None else v]
        cyc.insert(rng.randrange(len(cyc) + 1), d)

    def take():
        v = rng.choice([v for v in cycles if cycles[v]])
        return cycles[v].pop(rng.randrange(len(cycles[v]))), v

    if how == "drop":
        take()
    elif how == "repeat":
        put(rng.choice([d for cyc in cycles.values() for d in cyc]))
    elif how == "repeat-and-drop":
        take()
        put(rng.choice([d for cyc in cycles.values() for d in cyc]))
    elif how == "move":
        d, v = take()
        put(d, rng.choice([w for w in cycles if w != v]))
    elif how == "foreign":
        put(2 * g._next_id + rng.randrange(4))
    elif how == "negative":
        put(-rng.randrange(1, 5))
    elif how == "drop-vertex":
        del cycles[rng.choice(list(cycles))]
    elif how == "add-vertex":
        cycles[g.n_vertices + rng.randrange(3)] = []
    return RotationSystem({v: tuple(cyc) for v, cyc in cycles.items()})


def _accepts(check):
    try:
        check()
    except GraphError:
        return False
    return True


class TestValidateParity:
    """``RotationSystem.validate``'s one pass accepts exactly the
    rotations the plain per-vertex sort accepts."""

    @pytest.mark.parametrize("how", [
        "none", "drop", "repeat", "repeat-and-drop", "move", "foreign",
        "negative", "drop-vertex", "add-vertex"])
    @given(seed=st.integers(0, 10_000))
    def test_same_verdict_as_sorting(self, how, seed):
        rng = random.Random(seed)
        n = 2 + seed % 5
        g = gen_random_connected_multigraph(
            n, n + seed % 6, seed=seed, loop_prob=0.2, parallel_prob=0.3)
        rot = _perturbed_rotation(g, rng, how)
        accepted = _accepts(lambda: validate_rotation(g, rot))
        assert accepted == (how == "none")
        assert _accepts(lambda: rot.validate(g)) == accepted
        if accepted:
            assert rot.validate(g) == {
                d: cyc[(i + 1) % len(cyc)]
                for cyc in rot.order.values() for i, d in enumerate(cyc)}


class TestTraceFaces:
    def test_triangle_planar(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 0)
        rot = RotationSystem({0: (0, 5), 1: (1, 2), 2: (3, 4)})
        faces = trace_faces(g, rot)
        assert faces == ((0, 2, 4), (1, 5, 3))
        assert genus_of(g, rot) == 0

    def test_face_sizes_sum(self):
        g = gen_random_connected_multigraph(6, 10, seed=3, loop_prob=0.2, parallel_prob=0.2)
        rng = random.Random(9)
        order = {}
        for v in range(g.n_vertices):
            darts = sorted(g._inc[v])
            rng.shuffle(darts)
            order[v] = tuple(darts)
        faces = trace_faces(g, RotationSystem(order))
        assert sum(map(len, faces)) == 2 * g.n_edges

    def test_disconnected_rejected(self):
        g = MultiGraph(2)
        with pytest.raises(DisconnectedError):
            genus_of(g, RotationSystem({0: (), 1: ()}))

    def test_single_vertex_no_edges(self):
        g = MultiGraph(1)
        assert genus_of(g, RotationSystem({0: ()})) == 0

    def test_euler_check_is_typed(self):
        # two vertices, no edge, one face: n - m + f = 3 has no genus
        with pytest.raises(CertificationError):
            surface_genus(MultiGraph(2), 1)


class TestEmbeddingState:
    def test_tree_single_face(self):
        g = path_graph(5)
        emb = build_embedding(g, [], check=True)
        assert emb.n_faces == 1
        assert emb.genus == 0
        (face,) = trace_faces(g, emb.rotation)
        assert len(face) == 2 * g.n_edges

    def test_tree_rejects_nontree(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 0)
        with pytest.raises(GraphError):
            EmbeddingState.tree_embedding(g, set(g.edge_ids()))
        g2 = MultiGraph(2)
        loop = g2.add_edge(0, 0)
        with pytest.raises(GraphError):
            EmbeddingState.tree_embedding(g2, {loop})

    def test_first_loop_on_isolated_vertex(self):
        # a leftover loop on the bare vertex: its darts sit side by side
        g = MultiGraph(1)
        g.add_edge(0, 0)
        emb = build_embedding(g, [], check=True)
        assert emb.rotation.order == {0: (0, 1)}
        assert emb.n_faces == len(trace_faces(g, emb.rotation)) == 2
        assert emb.genus == 0

    def test_spanning_tree_state_is_planar(self):
        g = k4()
        state = EmbeddingState.tree_embedding(g, bfs_tree(g))
        assert state.n_faces == 1
        assert g.n_vertices - state.m_emb + state.n_faces == 2


class TestInsertAdjacentPair:
    """One pair through ``build_embedding``, with no edge left over."""

    def test_doubled_star_pair(self):
        # the tight star's doubled spokes without its loops: the tree takes
        # one copy of each spoke, and the other two copies are the pair
        g = MultiGraph(3)
        for v in (1, 1, 2, 2):
            g.add_edge(0, v)
        emb = build_embedding(g, [AdjacentPair(1, 3, 0)], check=True)
        assert emb.n_faces == len(trace_faces(g, emb.rotation)) == 1
        assert emb.genus == 1

    def test_loop_pair_bouquet(self):
        # the first loop starts on the bare vertex
        g = MultiGraph(1)
        g.add_edge(0, 0)
        g.add_edge(0, 0)
        emb = build_embedding(g, [AdjacentPair(0, 1, 0)], check=True)
        assert emb.n_faces == len(trace_faces(g, emb.rotation)) == 1
        assert emb.genus == 1


def _path_plus(*extra):
    """Path 0-1-2 (edges 0, 1) plus ``extra`` edges from id 2 on."""
    g = path_graph(3)
    for uv in extra:
        g.add_edge(*uv)
    return g


def _witness_corner(rot, g, pair):
    """Which corner flanking the witness dart d_w took the second edge,
    read from the rotation at the witness: ``"after"`` (between d_w and
    its successor) or ``"d_w"`` (before d_w)."""
    w = pair.witness
    d_w = 2 * pair.e + (g.endpoints(pair.e)[0] != w)
    f_w = 2 * pair.f + (g.endpoints(pair.f)[0] != w)
    cyc = rot.order[w]
    i = cyc.index(f_w)
    if cyc[i - 1] == d_w:
        return "after"
    assert cyc[(i + 1) % len(cyc)] == d_w
    return "d_w"


class TestCornerRule:
    """The second edge's far end sits at ``first_dart[x]``; its witness
    end goes to whichever corner beside d_w lies on the other face.  The
    pair goes in by ``build_embedding`` over the tree {0, 1}, with no
    edge left over."""

    @pytest.mark.parametrize("extra, witness, corner", [
        # first_dart[x] lies on d_w's own face: enter after d_w
        (((0, 2), (0, 1)), 0, "after"),
        (((1, 1), (1, 0)), 1, "after"),
        # first_dart[x] lies on the face after d_w: enter before d_w
        (((0, 2), (1, 2)), 2, "d_w"),
        (((1, 2), (1, 0)), 1, "d_w"),
    ], ids=["own-face-chord", "own-face-loop-first", "other-face-chord",
            "other-face-at-middle"])
    def test_far_end_face_picks_witness_corner(self, extra, witness, corner):
        g = _path_plus(*extra)
        pair = AdjacentPair(2, 3, witness)
        emb = build_embedding(g, [pair], check=True)
        assert _witness_corner(emb.rotation, g, pair) == corner
        assert emb.n_faces == len(trace_faces(g, emb.rotation)) == 1
        assert emb.genus == 1

    @pytest.mark.parametrize("extra", [
        ((0, 1), (0, 1)),  # parallel pair
        ((1, 1), (1, 0)),  # loop + edge
        ((1, 0), (1, 1)),  # edge + loop
        ((1, 1), (1, 1)),  # two loops
    ], ids=["parallel", "loop+edge", "edge+loop", "two-loops"])
    def test_pair_shapes_raise_genus_by_one(self, extra):
        g = _path_plus(*extra)
        emb = build_embedding(g, [AdjacentPair(2, 3, 1)], check=True)
        assert emb.n_faces == len(trace_faces(g, emb.rotation)) == 1
        assert emb.genus == 1
        assert genus_of(g, emb.rotation) == 1


class TestFinalChecks:
    def test_wrong_corner_fails_the_final_trace(self, monkeypatch):
        # pair insertion keeps one face by the corner rule alone; if the
        # corner choice were wrong, only the final trace could tell
        blocked = EmbeddingState._merge_corners
        monkeypatch.setattr(EmbeddingState, "_merge_corners",
                            lambda self, *a: not blocked(self, *a))
        g = gen_random_connected_multigraph(32, 64, seed=1)
        pairs = greedy_max_genus(g).pairs
        assert pairs
        with pytest.raises(CertificationError, match="below"):
            build_embedding(g, pairs)

    def test_audit_failure_is_typed(self):
        g = k4()
        state = EmbeddingState.tree_embedding(g, bfs_tree(g))
        state._audit()
        d = state.first_dart[0]
        state.sigma_prev[d] = d
        with pytest.raises(CertificationError, match="sigma_prev"):
            state._audit()

    def test_final_audit_sees_a_stale_corner_list(self, monkeypatch):
        # beta = 64 and tree-first pairs every cotree edge, so no leftover
        # edge clears the corner list before the final audit
        g = gen_circulant(63)
        pairs = greedy_max_genus(g).pairs
        assert 2 * len(pairs) == g.n_edges - g.n_vertices + 1
        insert = EmbeddingState._insert_pair

        def stale(self, *args):
            insert(self, *args)
            if self.m_emb == g.n_edges:  # after the last pair only
                # the first darts of the first two blocks trade places
                a, b = self.corners[0], self.corners[1]
                a[0], b[0] = b[0], a[0]
        monkeypatch.setattr(EmbeddingState, "_insert_pair", stale)
        with pytest.raises(CertificationError, match="corner list"):
            build_embedding(g, pairs, check=True)

    def test_dart_spliced_at_the_wrong_end_fails_its_insertion(
            self, monkeypatch):
        # the engine inserts the first pair with f's ends swapped, so each
        # dart of f goes in before a corner at f's other end; the audit of
        # that insertion reads the dart's vertex from the graph
        g = gen_random_connected_multigraph(32, 64, seed=1)
        pairs = greedy_max_genus(g).pairs
        first_f = pairs.pairs[0].f
        assert not g.is_loop(first_f)
        insert = EmbeddingState._insert_pair
        inserted = []

        def crossed(self, e, f, w):
            inserted.append(f)
            ends = self.ends
            if len(inserted) == 1:
                self.ends = {**ends, f: ends[f][::-1]}
            insert(self, e, f, w)
            self.ends = ends
        monkeypatch.setattr(EmbeddingState, "_insert_pair", crossed)
        with pytest.raises(CertificationError, match="leaves its vertex"):
            build_embedding(g, pairs, check=True)
        assert inserted == [first_f]

    def test_checked_build_audits_o_m_darts(self, monkeypatch):
        audited = []
        audit_darts = EmbeddingState._audit_darts

        def counted(self, darts):
            audited.append(len(darts))
            audit_darts(self, darts)
        monkeypatch.setattr(EmbeddingState, "_audit_darts", counted)
        g = gen_random_connected_multigraph(1024, 2048, seed=1)
        build_embedding(g, greedy_max_genus(g).pairs, check=True)
        # 6 darts around each inserted edge, then all 2m once
        assert sum(audited) <= 8 * g.n_edges

    @pytest.mark.parametrize("n, m, loop_prob, parallel_prob", [
        (1024, 2048, 0.0, 0.0), (128, 2048, 0.3, 0.5)],
        ids=["random", "bundles"])
    def test_one_corner_trace_per_build(self, monkeypatch, n, m, loop_prob,
                                        parallel_prob):
        traces = []
        trace = EmbeddingState._trace_corners

        def counted(self):
            traces.append(self.m_emb)
            return trace(self)
        monkeypatch.setattr(EmbeddingState, "_trace_corners", counted)
        g = gen_random_connected_multigraph(
            n, m, seed=1, loop_prob=loop_prob, parallel_prob=parallel_prob)
        pairs = greedy_max_genus(g).pairs
        assert len(pairs) > 100
        build_embedding(g, pairs)
        # the tree's trace serves every pair; none retraces
        assert traces == [g.n_vertices - 1]

class TestBlockedCorners:
    """The corner list's blocks against the flat list they stand for."""

    @staticmethod
    def _assert_blocks(state, flat):
        assert [d for block in state.corners for d in block] == flat
        for block in state.corners:
            assert 0 < len(block) <= state.block_cap
            for d in block:
                assert state.where[d] is block

    @staticmethod
    def _triple(rng, blocks, flat, shape):
        """Three distinct first darts: anywhere, all in one block, or at
        block starts as far as there are blocks."""
        if shape == "one-block":
            full = [b for b in blocks if len(b) >= 3]
            if full:
                return rng.sample(rng.choice(full), 3)
        if shape == "starts":
            starts = [b[0] for b in blocks]
            picked = rng.sample(starts, min(3, len(starts)))
            rest = [d for d in flat if d not in picked]
            return rng.sample(picked + rng.sample(rest, 3 - len(picked)), 3)
        return rng.sample(flat, 3)

    def test_merge_matches_the_flat_list(self):
        rng = random.Random(16)
        seen = {"single block": 0, "one-block": 0, "starts": 0}
        for n in range(1, 301):
            state = EmbeddingState(gen_circulant(n))  # n vertices, 4n darts
            flat = rng.sample(range(2 * n), n)
            state._set_corners(list(flat))
            self._assert_blocks(state, flat)
            for _ in range(20 if n >= 3 else 0):
                shape = rng.choice(["any", "one-block", "starts"])
                x, y, z = self._triple(rng, state.corners, flat, shape)
                holders = {id(state.where[d]) for d in (x, y, z)}
                seen["single block"] += len(state.corners) == 1
                seen["one-block"] += (len(state.corners) > 1
                                      and len(holders) == 1)
                seen["starts"] += (len(state.corners) >= 3 and all(
                    state.where[d][0] == d for d in (x, y, z)))
                side = merge_corners(flat, x, y, z)
                assert state._merge_corners(x, y, z) == side
                self._assert_blocks(state, flat)
        assert min(seen.values()) > 100, seen


def _assert_certified_embedding(g, policy):
    pairs = run_pipeline(g, policy=policy, seed=3).pairs
    emb = build_embedding(g, pairs, check=True)
    assert emb.genus >= len(pairs.pairs)
    assert genus_of(g, emb.rotation) == emb.genus


class TestBuildEmbedding:
    def test_k4_certificate(self):
        g = k4()
        res = greedy_max_genus(g)
        emb = build_embedding(g, res.pairs, check=True)
        # tree + pair reach genus 1 on one face; the leftover chord splits it
        assert emb.genus == 1
        assert emb.n_faces == 2
        assert len(res.pairs) == 1
        assert g.n_vertices - g.n_edges + emb.n_faces == 2 - 2 * emb.genus

    def test_empty_pair_list_planar_lower_bound(self):
        g = path_graph(4)
        emb = build_embedding(g, [], check=True)
        assert emb.genus == 0

    @pytest.mark.parametrize("edges", [
        [(0, 1)] * 4,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    ], ids=["dipole", "k4"])
    def test_leftover_edges_at_first_darts(self, edges):
        # with no pairs, the leftover edges at first_dart of both ends
        # still reach the maximum genus of these two graphs
        g = MultiGraph(max(max(uv) for uv in edges) + 1)
        for uv in edges:
            g.add_edge(*uv)
        emb = build_embedding(g, [], check=True)
        assert emb.genus == 1 == xuong_max_genus(g)[0]

    def test_rejects_bad_certificate(self):
        g = k4()
        with pytest.raises(GraphError, match="duplicate-edge"):
            build_embedding(g, [AdjacentPair(0, 0, 0)])

    def test_genus_meets_euler(self):
        g = gen_tight_star(2)
        res = greedy_max_genus(g, policy="loops-first")
        emb = build_embedding(g, res.pairs, check=True)
        assert emb.genus >= len(res.pairs)
        assert g.n_vertices - g.n_edges + emb.n_faces == 2 - 2 * emb.genus
        rot = RotationSystem.from_text(emb.rotation.to_text())
        assert genus_of(g, rot) == emb.genus

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("n, m, seed", [(24, 64, 11), (96, 256, 12)],
                             ids=["m64", "m256"])
    def test_seeded_multigraphs(self, policy, n, m, seed):
        g = gen_random_connected_multigraph(
            n, m, seed=seed, loop_prob=0.2, parallel_prob=0.2)
        _assert_certified_embedding(g, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("shuffled", [False, True],
                             ids=["natural", "shuffled"])
    def test_circulant_edge_orders(self, policy, shuffled):
        g = circulant_shuffled_ids(64, 64) if shuffled else gen_circulant(64)
        _assert_certified_embedding(g, policy)

    def test_planar_k4_exists(self):
        # sanity on the face tracer: K4 admits both a planar and a toroidal
        # rotation, so the greedy certificate is not the only embedding
        g = k4()
        seen = set()
        rng = random.Random(0)
        for _ in range(200):
            order = {}
            for v in range(4):
                darts = sorted(g._inc[v])
                rng.shuffle(darts)
                order[v] = tuple(darts)
            seen.add(genus_of(g, RotationSystem(order)))
        assert seen == {0, 1}


class TestCornerListMatchesFullTraces:
    """``build_embedding`` emits the rotations of a reference that finds
    each pair's merge corner by tracing the whole face."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_seeded_multigraphs(self, policy):
        n_pairs = 0
        for seed in range(300):
            n = 2 + seed % 15
            heavy = seed % 3 == 0
            g = gen_random_connected_multigraph(
                n, n + 1 + seed % 40, seed=seed,
                loop_prob=0.3 if heavy else 0.1,
                parallel_prob=0.3 if heavy else 0.1)
            pairs = greedy_max_genus(g, policy=policy, seed=seed).pairs
            n_pairs += len(pairs)
            assert (build_embedding(g, pairs).rotation.to_text()
                    == reference_rotation_text(g, pairs)), seed
        assert n_pairs > 2000

    @pytest.mark.parametrize("policy", ["tree-first", "edge-id"])
    def test_shuffled_circulant(self, policy):
        g = circulant_shuffled_ids(512, 1)
        pairs = greedy_max_genus(g, policy=policy).pairs
        assert (build_embedding(g, pairs).rotation.to_text()
                == reference_rotation_text(g, pairs))

    @staticmethod
    def _assert_same(g, pairs):
        text = reference_rotation_text(g, pairs)
        assert build_embedding(g, pairs).rotation.to_text() == text
        assert build_embedding(g, pairs, check=True).rotation.to_text() == text

    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    def test_bouquet(self, k):
        # one vertex: the first loop of the first pair starts bare
        g = gen_bouquet(k)
        pairs = greedy_max_genus(g).pairs
        assert len(pairs) == k // 2
        self._assert_same(g, pairs)

    @pytest.mark.parametrize("k", [1, 2, 9, 40])
    def test_dipole(self, k):
        # parallel pairs, whose far end needs no corner lookup
        g = gen_dipole(k)
        pairs = greedy_max_genus(g).pairs
        assert len(pairs) == (k - 1) // 2
        self._assert_same(g, pairs)


# SHA-256 of build_embedding(g, greedy pairs).rotation.to_text() and the
# embedding's genus.  Leftover edges go in at first_dart of both ends;
# pair corners follow the one-face corner rule.
PINNED_ROTATIONS = {
    "random-512-1024": {
        "edge-id": ("57aeae4bf80b6c170b6b847ac2201c8af8305a708b19170e55bc1f376d76769e", 232),
        "random": ("7e1f2647247fbe571953ecfafe2278ef8ea076fcbb7aeaf7c4e03e366f4d8b51", 237),
        "loops-first": ("3d31e86fe31ea91b8f3531ea04cecfe61a419a433eeac3869dd2614a0500a594", 248),
        "central-vertex-first": ("e15d5367269c86b17e5fdd8c4c32d5eab0f672e2c0c4d022de78b8dae40cff1a", 230),
        "tree-first": ("83ec38315b87aea262a4c2d5bd932a0174d90bab24a315ef9a239a8569589b9e", 249),
    },
    "circulant-64": {
        "edge-id": ("209e281cb0cc9193f362225ef44077f770631316a580d1a451d3a536faad5f36", 32),
        "random": ("ea185fbf8b36699ac40b060a2f25d67fec3338da2b51ab90a77938809a28693f", 30),
        "loops-first": ("209e281cb0cc9193f362225ef44077f770631316a580d1a451d3a536faad5f36", 32),
        "central-vertex-first": ("209e281cb0cc9193f362225ef44077f770631316a580d1a451d3a536faad5f36", 32),
        "tree-first": ("8bd180a12652c46448a4be5948efbe15191a03a808b51acb8b446a0eb4b81bcc", 32),
    },
}


@pytest.mark.parametrize("graph", sorted(PINNED_ROTATIONS))
@pytest.mark.parametrize("policy", POLICIES)
def test_rotations_are_pinned(graph, policy):
    g = (gen_random_connected_multigraph(512, 1024, seed=1)
         if graph == "random-512-1024" else gen_circulant(64))
    pairs = greedy_max_genus(g, policy=policy).pairs
    emb = build_embedding(g, pairs)
    digest = hashlib.sha256(emb.rotation.to_text().encode()).hexdigest()
    assert (digest, emb.genus) == PINNED_ROTATIONS[graph][policy]


@given(seed=st.integers(0, 10_000))
def test_random_rotation_euler(seed):
    rng = random.Random(seed)
    n = 2 + seed % 5
    m = n + seed % 6
    g = gen_random_connected_multigraph(n, m, seed=seed, loop_prob=0.2, parallel_prob=0.3)
    order = {}
    for v in range(g.n_vertices):
        darts = sorted(g._inc[v])
        rng.shuffle(darts)
        order[v] = tuple(darts)
    rot = RotationSystem(order)
    faces = trace_faces(g, rot)
    genus = genus_of(g, rot)
    assert g.n_vertices - g.n_edges + len(faces) == 2 - 2 * genus
    assert 0 <= genus <= (g.n_edges - g.n_vertices + 1) // 2
    assert sum(map(len, faces)) == 2 * g.n_edges


@given(seed=st.integers(0, 10_000))
def test_greedy_certificate_embeds(seed):
    n = 2 + seed % 5
    m = n + seed % 7
    g = gen_random_connected_multigraph(n, m, seed=seed, loop_prob=0.25, parallel_prob=0.3)
    res = greedy_max_genus(g, policy="edge-id")
    assert verify_pair_set(g, res.pairs).ok
    emb = build_embedding(g, res.pairs, check=True)
    assert emb.genus >= len(res.pairs)
