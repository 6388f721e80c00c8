#!/usr/bin/env python3
"""Fit the greedy's and the embedding build's runtime slopes on large
instances.

The acceptance suite times a shortened grid so the tests stay quick; this
script runs the full one, m = 2**10 .. 2**15 by default, on any generator
family (``random`` by default; ``--family circulant`` is C_{m/2}(1,2) in
natural edge order, the probe's adversarial input).  Each greedy result
is turned into a certified embedding with ``build_embedding``, whose
emitted rotation ``genus_of`` then checks and traces (``verify``).
Per-size timings of the three phases and their fitted log-log slopes are
printed, with
the pairs ``tree-first`` took in phase 1 (``tree_pairs``, no probe) next
to the phase-2 probe count (``tests``) and the bridges of the residual
that phase 2 skips (``core_bridges``); the embed time is also given per
pair, so growth of the per-pair term shows across sizes.
Families with one vertex of degree about m (bouquet, dipole, tight-star)
have about m^2 / 2 candidate pairs there, so keep their sizes small.
"""

import argparse
import time
from math import isqrt

from maxgenus import (
    DEFAULT_POLICY,
    FAMILIES,
    POLICIES,
    GeneratorSpec,
    build_embedding,
    fit_loglog_slope,
    genus_of,
    greedy_max_genus,
)

# Family parameters that give a graph with about m edges.
PARAMS = {
    "random": lambda m: {"n": m // 2, "m": m},
    "circulant": lambda m: {"n": m // 2},
    "tight-star": lambda m: {"n": max(1, m // 6)},
    "complete": lambda m: {"n": (1 + isqrt(1 + 8 * m)) // 2},
    "bouquet": lambda m: {"k": m},
    "dipole": lambda m: {"k": m},
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-pow", type=int, default=10)
    ap.add_argument("--max-pow", type=int, default=15)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--policy", choices=POLICIES, default=DEFAULT_POLICY)
    ap.add_argument("--family", choices=FAMILIES, default="random")
    args = ap.parse_args()

    sizes = [2 ** p for p in range(args.min_pow, args.max_pow + 1)]
    points = []
    embed_points = []
    verify_points = []
    for size in sizes:
        g = GeneratorSpec(args.family, seed=args.seed,
                          **PARAMS[args.family](size)).build()
        m = g.n_edges
        t0 = time.perf_counter()
        res = greedy_max_genus(g, policy=args.policy)
        t1 = time.perf_counter()
        emb = build_embedding(g, res.pairs)
        t2 = time.perf_counter()
        genus = genus_of(g, emb.rotation)
        t3 = time.perf_counter()
        if genus != emb.genus:
            raise SystemExit(f"traced genus {genus} != embedding genus "
                             f"{emb.genus} at m={m}")
        points.append((float(m), t1 - t0))
        embed_points.append((float(m), t2 - t1))
        verify_points.append((float(m), t3 - t2))
        print(f"m={m:6d} k={len(res.pairs):5d} "
              f"tree_pairs={res.stats.tree_pairs:5d} "
              f"tests={res.stats.tests:8d} "
              f"core_bridges={res.stats.core_bridges:6d} "
              f"elapsed={t1 - t0:8.3f}s "
              f"genus={emb.genus:5d} embed={t2 - t1:8.3f}s "
              f"({1e6 * (t2 - t1) / max(1, len(res.pairs)):6.1f} us/pair) "
              f"verify={t3 - t2:8.3f}s",
              flush=True)
    if len(sizes) > 1:
        print(f"slope(elapsed ~ m) = {fit_loglog_slope(points):.3f}")
        print(f"slope(embed ~ m) = {fit_loglog_slope(embed_points):.3f}")
        print(f"slope(verify ~ m) = {fit_loglog_slope(verify_points):.3f}")


if __name__ == "__main__":
    main()
