import pytest
from hypothesis import given, strategies as st

from maxgenus import (
    FAMILIES,
    GraphError,
    cycle_rank,
    gen_bouquet,
    gen_circulant,
    gen_complete,
    gen_dipole,
    gen_tight_star,
    gen_random_connected_multigraph,
    generate,
    is_connected,
)
from maxgenus.generators import MAX_SIZE, check_size


class TestTightFamily:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_shape(self, n):
        g = gen_tight_star(n)
        assert g.n_vertices == 2 * n + 1
        assert g.n_edges == 6 * n
        assert cycle_rank(g) == 4 * n
        assert g.degree(0) == 4 * n
        for leaf in range(1, 2 * n + 1):
            assert g.degree(leaf) == 4  # two center edges + one loop
            assert [g.endpoints(e) for e in g.edge_ids()
                    if g.is_loop(e)].count((leaf, leaf)) == 1
        assert is_connected(g)

    def test_edge_id_layout(self):
        # parallels first (two per leaf), then one loop per leaf
        g = gen_tight_star(2)
        for leaf in (1, 2, 3, 4):
            base = 2 * (leaf - 1)
            assert g.endpoints(base) == (0, leaf)
            assert g.endpoints(base + 1) == (0, leaf)
            assert g.endpoints(8 + leaf - 1) == (leaf, leaf)

    def test_rejects_nonpositive(self):
        with pytest.raises(GraphError):
            gen_tight_star(0)


class TestRandom:
    def test_connected_and_sized(self):
        g = gen_random_connected_multigraph(10, 25, seed=3)
        assert g.n_vertices == 10
        assert g.n_edges == 25
        assert is_connected(g)

    def test_deterministic_per_seed(self):
        a = gen_random_connected_multigraph(8, 16, seed=5)
        b = gen_random_connected_multigraph(8, 16, seed=5)
        c = gen_random_connected_multigraph(8, 16, seed=6)
        assert a == b
        assert a != c

    def test_simple_mode(self):
        g = gen_random_connected_multigraph(9, 20, seed=1, simple=True)
        seen = set()
        for e in g.edge_ids():
            u, v = g.endpoints(e)
            assert u != v
            key = (min(u, v), max(u, v))
            assert key not in seen
            seen.add(key)

    def test_too_few_edges_rejected(self):
        with pytest.raises(GraphError):
            gen_random_connected_multigraph(5, 3, seed=0)

    def test_simple_capacity_rejected(self):
        with pytest.raises(GraphError):
            gen_random_connected_multigraph(4, 7, seed=0, simple=True)

    @pytest.mark.parametrize("probs, match", [
        ({"loop_prob": 2.0}, "loop_prob must lie"),
        ({"parallel_prob": float("nan")}, "parallel_prob must lie"),
    ], ids=["loop-above", "parallel-nan"])
    def test_probabilities_checked(self, probs, match):
        # the check lives in the function that uses the probabilities
        with pytest.raises(GraphError, match=match):
            gen_random_connected_multigraph(4, 8, **probs)

    @given(st.integers(2, 12), st.integers(0, 15), st.integers(0, 100))
    def test_property_always_connected(self, n, extra, seed):
        g = gen_random_connected_multigraph(n, n - 1 + extra, seed=seed)
        assert is_connected(g)
        assert g.n_edges == n - 1 + extra


class TestNamedFamilies:
    def test_bouquet(self):
        g = gen_bouquet(3)
        assert g.n_vertices == 1
        assert g.n_edges == 3
        assert all(g.is_loop(e) for e in g.edge_ids())

    def test_dipole(self):
        g = gen_dipole(4)
        assert g.n_vertices == 2
        assert g.n_edges == 4
        assert all(sorted(g.endpoints(e)) == [0, 1] for e in g.edge_ids())

    def test_complete(self):
        g = gen_complete(5)
        assert g.n_vertices == 5
        assert g.n_edges == 10
        assert cycle_rank(g) == 6

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16])
    def test_circulant(self, n):
        g = gen_circulant(n)
        assert g.n_vertices == n
        assert g.n_edges == 2 * n
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert is_connected(g)
        assert cycle_rank(g) == n + 1
        assert g == gen_circulant(n)
        # natural order: the edges at vertex i are 2i and 2i + 1
        assert [g.endpoints(e) for e in g.edge_ids()] == \
            [(i, (i + d) % n) for i in range(n) for d in (1, 2)]

    def test_circulant_rejects_nonpositive(self):
        with pytest.raises(GraphError):
            gen_circulant(0)


class TestGeneratorSpec:
    """:func:`generate` and :data:`FAMILIES`, its table of each family's
    generator and size parameter."""

    def test_dispatch(self):
        assert generate("tight-star", n=2) == gen_tight_star(2)
        assert generate("bouquet", k=3) == gen_bouquet(3)
        assert generate("dipole", k=3) == gen_dipole(3)
        assert generate("complete", n=4) == gen_complete(4)
        assert generate("circulant", n=6) == gen_circulant(6)
        r = generate("random", n=6, m=10, seed=2)
        assert r == gen_random_connected_multigraph(6, 10, seed=2)

    def test_missing_parameter(self):
        with pytest.raises(GraphError, match="requires parameter m"):
            generate("random", n=6)
        with pytest.raises(GraphError, match="requires parameter k"):
            generate("bouquet")
        with pytest.raises(GraphError, match="requires parameter n"):
            generate("circulant", k=4)

    @pytest.mark.parametrize("family, params, named", [
        ("complete", {"n": 4, "m": 100}, "takes parameter n, not m"),
        ("bouquet", {"n": 5, "k": 3}, "takes parameter k, not n"),
        ("dipole", {"k": 3, "m": 3}, "takes parameter k, not m"),
        ("circulant", {"n": 6, "k": 2}, "takes parameter n, not k"),
        ("random", {"n": 6, "m": 10, "k": 2},
         "takes parameter n and m, not k"),
    ])
    def test_parameter_the_family_does_not_take(self, family, params,
                                                named):
        with pytest.raises(GraphError, match=f"'{family}' {named}$"):
            generate(family, **params)

    def test_unknown_family(self):
        with pytest.raises(GraphError, match="known: tight-star, random"):
            generate("petersen", n=10)

    def test_family_registry(self):
        assert set(FAMILIES) == {
            "tight-star", "random", "bouquet", "dipole", "complete",
            "circulant",
        }

    @pytest.mark.parametrize("probs, match", [
        ({"loop_prob": 2.0}, "loop_prob must lie"),
        ({"loop_prob": -0.1}, "loop_prob must lie"),
        ({"parallel_prob": 1.5}, "parallel_prob must lie"),
        ({"parallel_prob": float("nan")}, "parallel_prob must lie"),
        ({"loop_prob": 0.6, "parallel_prob": 0.6}, "at most 1"),
    ], ids=["loop-above", "loop-below", "parallel-above", "parallel-nan",
            "sum-above"])
    def test_probabilities_rejected(self, probs, match):
        with pytest.raises(GraphError, match=match):
            generate("random", n=4, m=4, **probs)

    def test_probability_bounds_accepted(self):
        g = generate("random", n=4, m=8, loop_prob=1.0, parallel_prob=0.0)
        assert sum(map(g.is_loop, g.edge_ids())) == 5

    # per family: the largest size whose graph fits under MAX_SIZE; the
    # counts are computed, so no test builds a graph near the cap
    @pytest.mark.parametrize("family, largest, m", [
        ("tight-star", MAX_SIZE // 6, None),  # 6n edges
        ("random", MAX_SIZE, MAX_SIZE),
        ("bouquet", MAX_SIZE, None),
        ("dipole", MAX_SIZE, None),
        ("complete", 2896, None),  # C(2897, 2) > 2^22 >= C(2896, 2)
        ("circulant", MAX_SIZE // 2, None),
    ])
    def test_size_cap(self, family, largest, m):
        check_size(family, largest, m)
        with pytest.raises(GraphError, match=r"above the cap of 2\^22"):
            check_size(family, largest + 1, m)
        size_name = FAMILIES[family][1]
        with pytest.raises(GraphError, match=f"{size_name}={largest + 1} "):
            generate(family, m=m, **{size_name: largest + 1})

    def test_edge_count_cap(self):
        with pytest.raises(GraphError, match=f"has {MAX_SIZE + 1} edges"):
            generate("random", n=8, m=MAX_SIZE + 1)

