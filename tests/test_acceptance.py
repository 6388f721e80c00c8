"""Acceptance suite: ten exact-tolerance checks over the shared corpus.

Each test appends one PASS or FAIL line to ``ACCEPTANCE_LINES``; the
conftest terminal-summary hook prints them after the run.  Criterion 9
additionally reports fitted runtime slopes, of the greedy per backend and
of ``build_embedding`` on the ``dfs`` greedy's pairs, as INFO lines, on
a short size grid that keeps the suite fast; ``maxgenus bench
scripts/slopes_random.conf`` times the full grid up to 2**15 edges.
"""

import functools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import maxgenus
from maxgenus import (
    DfsBackend,
    DynamicBackend,
    MultiGraph,
    POLICIES,
    build_embedding,
    cycle_rank,
    exact_max_genus_pairs,
    exact_max_genus_rotations,
    fit_loglog_slope,
    gen_random_connected_multigraph,
    gen_tight_star,
    greedy_max_genus,
    is_cactus,
    is_connected,
    merge_pairs,
    reduce_multiedges,
    verify_pair_set,
    xuong_max_genus,
)
from maxgenus.oracle import rotation_count

from _corpus import certify_digest, oracle_values, random_corpus
from _reference import MirrorGraph

ACCEPTANCE_LINES: list[str] = []

# (policy, seed) sweeps shared by criteria 2, 4, 6 and 7; the random
# policy runs under two seeds so "every policy" is not a single shuffle
SWEEPS = [("edge-id", 0), ("loops-first", 0), ("central-vertex-first", 0),
          ("random", 0), ("random", 1), ("tree-first", 0)]

CORPUS_ROTATION_LIMIT = 50_000


def _record(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_LINES.append(f"FAIL criterion {num}: {name}")
                raise
            ACCEPTANCE_LINES.append(f"PASS criterion {num}: {name}")
            return out
        return wrapper
    return deco


@pytest.fixture(scope="module")
def greedy_runs(full_corpus):
    """One greedy result per (sweep, instance), with the build time."""
    t0 = time.perf_counter()
    runs = {
        (policy, seed): [
            greedy_max_genus(g, policy=policy, seed=seed)
            for g in full_corpus
        ]
        for policy, seed in SWEEPS
    }
    return runs, time.perf_counter() - t0


def _assert_ordered_at_witness(g, pairs):
    """Every producer builds a pair with e < f, its witness an end of
    both edges; the pair type itself checks nothing."""
    for e, f, w in pairs:
        assert e < f and w in g.endpoints(e) and w in g.endpoints(f)


@_record(1, "tight-star family: policy gap and exact values")
def test_criterion_1():
    t0 = time.perf_counter()
    for n in range(1, 11):
        g = gen_tight_star(n)
        good = greedy_max_genus(g, policy="loops-first")
        bad = greedy_max_genus(g, policy="central-vertex-first")
        assert len(good.pairs) == 2 * n
        assert len(bad.pairs) == n
        assert verify_pair_set(g, good.pairs).ok
        assert verify_pair_set(g, bad.pairs).ok
    for n in (1, 2, 3):
        g = gen_tight_star(n)
        assert xuong_max_genus(g)[0] == 2 * n
        k, cert = exact_max_genus_pairs(g, max_edges=6 * n)
        assert k == 2 * n
        assert verify_pair_set(g, cert).ok
    assert exact_max_genus_rotations(gen_tight_star(1)) == 2
    assert time.perf_counter() - t0 < 10.0


@_record(2, "greedy sandwich k <= gamma_M <= 2k on the full corpus")
def test_criterion_2(full_corpus, corpus_gamma, exhaustive_corpus,
                     seeded_corpus, greedy_runs):
    t0 = time.perf_counter()
    assert len(seeded_corpus) >= 500
    for g in seeded_corpus:
        assert g.n_vertices <= 8 and g.n_edges <= 12 and is_connected(g)
    assert all(g.n_edges <= 7 for g in exhaustive_corpus)
    runs, build_elapsed = greedy_runs
    assert {p for p, _ in SWEEPS} == set(POLICIES)
    for results in runs.values():
        for g, res, gamma in zip(full_corpus, results, corpus_gamma):
            k = len(res.pairs)
            assert k <= gamma <= 2 * k
            assert res.bounds.lower == k
            assert res.bounds.upper == min(2 * k, cycle_rank(g) // 2)
            assert gamma <= res.bounds.upper
            _assert_ordered_at_witness(g, res.pairs)
    assert build_elapsed + (time.perf_counter() - t0) < 300.0


@_record(3, "independent exact oracles agree on every instance")
def test_criterion_3(full_corpus, corpus_gamma):
    covered = 0
    for g, gamma in zip(full_corpus, corpus_gamma):
        k, cert = exact_max_genus_pairs(g, max_edges=12)
        assert k == gamma
        assert verify_pair_set(g, cert).ok
        _assert_ordered_at_witness(g, cert)
        _assert_ordered_at_witness(g, reduce_multiedges(g).pairs)
        if rotation_count(g) <= CORPUS_ROTATION_LIMIT:
            assert exact_max_genus_rotations(
                g, limit=CORPUS_ROTATION_LIMIT) == gamma
            covered += 1
    # the rotation oracle must actually participate, not be skipped away
    assert covered >= len(full_corpus) // 2


@_record(4, "gamma_M = 0, cactus, and empty greedy output coincide")
def test_criterion_4(full_corpus, corpus_gamma, greedy_runs):
    runs, _ = greedy_runs
    cactus = [is_cactus(g) for g in full_corpus]
    for gamma, flat in zip(corpus_gamma, cactus):
        assert flat == (gamma == 0)
    for results in runs.values():
        for res, gamma, flat in zip(results, corpus_gamma, cactus):
            assert (len(res.pairs) == 0) == flat == (gamma == 0)
            assert is_cactus(res.residual)


@_record(5, "deleting one non-bridge edge lowers gamma_M by at most one")
def test_criterion_5(exhaustive_corpus):
    checked = 0
    for g in exhaustive_corpus:
        gamma = xuong_max_genus(g)[0]
        for eid in g.edge_ids():
            h = g.copy()
            h.delete_edge(eid)
            if not is_connected(h):
                continue
            sub = xuong_max_genus(h)[0]
            assert gamma - 1 <= sub <= gamma
            checked += 1
    assert checked > 5000


@_record(6, "every greedy certificate embeds at its claimed genus")
def test_criterion_6(full_corpus, corpus_gamma, greedy_runs):
    runs, _ = greedy_runs
    for results in runs.values():
        for g, res, gamma in zip(full_corpus, results, corpus_gamma):
            emb = build_embedding(g, res.pairs, check=True)
            assert len(res.pairs) <= emb.genus <= gamma
            chi = emb.n_vertices - emb.n_edges + emb.n_faces
            assert chi == 2 - 2 * emb.genus


@_record(7, "both backends agree with a from-scratch traversal under churn")
def test_criterion_7(full_corpus):
    g = gen_random_connected_multigraph(
        64, 160, seed=7, loop_prob=0.1, parallel_prob=0.15)
    A = DfsBackend(g)
    B = DynamicBackend(g)
    ref = MirrorGraph(g)
    rng = random.Random(2024)
    present = sorted(g.edge_ids())
    absent: list[int] = []
    ops = 0
    while ops < 10_500:
        roll = rng.random()
        if roll < 0.40 and present:
            e = present.pop(rng.randrange(len(present)))
            A.delete_edge(e)
            B.delete_edge(e)
            ref.delete_edge(e)
            absent.append(e)
        elif roll < 0.65 and absent:
            e = absent.pop(rng.randrange(len(absent)))
            A.insert_edge(e)
            B.insert_edge(e)
            ref.insert_edge(e)
            present.append(e)
        else:
            u = rng.randrange(64)
            v = rng.randrange(64)
            assert A.connected(u, v) == B.connected(u, v) == ref.connected(u, v)
        ops += 1
        if ops % 500 == 0:
            assert A.connected_all() == B.connected_all() == ref.connected_all()
    assert ops >= 10_000
    # same greedy answer on every corpus instance, not just same speed
    for policy, seed in (("edge-id", 0), ("loops-first", 0), ("random", 3),
                         ("tree-first", 0)):
        for g in full_corpus:
            r1 = greedy_max_genus(g, backend="dfs", policy=policy, seed=seed)
            r2 = greedy_max_genus(g, backend="dynamic", policy=policy,
                                  seed=seed)
            assert len(r1.pairs) == len(r2.pairs)
            assert r1.pairs.pairs == r2.pairs.pairs


def _fat_instance(parallel_size, loop_size):
    g = MultiGraph(3)
    for _ in range(parallel_size):
        g.add_edge(0, 1)
    g.add_edge(1, 2)
    for _ in range(loop_size):
        g.add_edge(1, 1)
    return g


@_record(8, "parallel/loop thinning keeps counts, ids and certificates")
def test_criterion_8():
    instances = [
        _fat_instance(par, lo) for par in range(1, 10) for lo in range(0, 8)
    ]
    for seed in range(12):
        instances.append(gen_random_connected_multigraph(
            3 + seed % 5, 10 + seed, seed=seed,
            loop_prob=0.45, parallel_prob=0.45))
    for g in instances:
        pre = reduce_multiedges(g)
        red = pre.reduced
        classes: dict[tuple[int, int], int] = {}
        loops: dict[int, int] = {}
        for eid in red.edge_ids():
            u, v = red.endpoints(eid)
            if u == v:
                loops[u] = loops.get(u, 0) + 1
            else:
                key = (min(u, v), max(u, v))
                classes[key] = classes.get(key, 0) + 1
        assert all(c <= 2 for c in classes.values())
        assert all(c <= 1 for c in loops.values())
        assert red.n_edges + 2 * len(pre.pairs) == g.n_edges
        assert pre.accounting_ok(g)
        res = greedy_max_genus(red, policy="loops-first")
        merged = merge_pairs(pre.pairs, res.pairs)
        assert verify_pair_set(g, merged).ok


@_record(9, "operation counters meet their budgets; slopes reported")
def test_criterion_9():
    shapes = [(5, 8), (8, 16), (12, 30), (16, 40), (20, 60), (24, 100)]
    for n, m in shapes:
        for seed in (0, 1, 2):
            g = gen_random_connected_multigraph(n, m, seed=seed, simple=True)
            sq = sum(g.degree(v) ** 2 for v in g.vertices())
            assert sq <= m * (2 * m / (n - 1) + n - 2)
            res = greedy_max_genus(g)
            st = res.stats
            # one pass: each pair is probed at most once, at one vertex
            assert st.final_pass_tests == 0
            assert (st.tests <= st.candidate_pairs <= st.candidate_budget
                    <= sum(math.comb(g.degree(v), 2) for v in g.vertices()))
    grids = {
        "dfs": [2 ** p for p in range(10, 13)],
        "dynamic": [2 ** p for p in range(10, 14)],
    }
    for backend, sizes in grids.items():
        points = []
        embed_points = []
        for m in sizes:
            g = gen_random_connected_multigraph(m // 2, m, seed=1)
            t0 = time.perf_counter()
            pairs = greedy_max_genus(g, backend=backend).pairs
            t1 = time.perf_counter()
            points.append((float(m), t1 - t0))
            if backend == "dfs":
                build_embedding(g, pairs)
                embed_points.append((float(m), time.perf_counter() - t1))
        span = f"2^{int(math.log2(sizes[0]))}..2^{int(math.log2(sizes[-1]))}"
        ACCEPTANCE_LINES.append(
            f"INFO criterion 9: slope(elapsed~m, {backend}) = "
            f"{fit_loglog_slope(points):.2f} over m = {span}")
        if embed_points:
            ACCEPTANCE_LINES.append(
                f"INFO criterion 9: slope(embed~m) = "
                f"{fit_loglog_slope(embed_points):.2f} over m = {span}")


@_record(10, "the certify path and the oracles agree under python -O")
def test_criterion_10():
    # -O strips assert statements, so the child only prints; every
    # comparison is made here
    script = ("import sys\n"
              "from _corpus import certify_digest, oracle_values, "
              "random_corpus\n"
              "print(sys.flags.optimize, certify_digest(random_corpus(100)),"
              " *oracle_values(random_corpus(60)))\n")
    here = Path(__file__).resolve().parent
    src = Path(maxgenus.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), str(here), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    values = oracle_values(random_corpus(60))
    assert "skipped" in " ".join(values)  # a limit is hit, and reported
    assert proc.stdout.split() == [
        "1", certify_digest(random_corpus(100)), *values]
