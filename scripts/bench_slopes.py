#!/usr/bin/env python3
"""Fit the greedy's and the embedding build's runtime slopes on large
instances.

The acceptance suite times a shortened grid so the tests stay quick; this
script runs the full one, m = 2**10 .. 2**15 by default.  Each greedy
result is turned into a certified embedding with ``build_embedding``.
Per-size timings of both phases and their fitted log-log slopes are
printed.
"""

import argparse
import time

from maxgenus import (
    build_embedding,
    fit_loglog_slope,
    gen_random_connected_multigraph,
    greedy_max_genus,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-pow", type=int, default=10)
    ap.add_argument("--max-pow", type=int, default=15)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--policy", default="edge-id")
    args = ap.parse_args()

    sizes = [2 ** p for p in range(args.min_pow, args.max_pow + 1)]
    points = []
    embed_points = []
    for m in sizes:
        g = gen_random_connected_multigraph(m // 2, m, seed=args.seed)
        t0 = time.perf_counter()
        res = greedy_max_genus(g, policy=args.policy)
        t1 = time.perf_counter()
        emb = build_embedding(g, res.pairs)
        t2 = time.perf_counter()
        points.append((float(m), t1 - t0))
        embed_points.append((float(m), t2 - t1))
        print(f"m={m:6d} k={len(res.pairs):5d} "
              f"tests={res.stats.tests:8d} elapsed={t1 - t0:8.3f}s "
              f"genus={emb.genus:5d} embed={t2 - t1:8.3f}s", flush=True)
    print(f"slope(elapsed ~ m) = {fit_loglog_slope(points):.3f}")
    print(f"slope(embed ~ m) = {fit_loglog_slope(embed_points):.3f}")


if __name__ == "__main__":
    main()
