#!/usr/bin/env python3
"""Fit runtime slopes for both connectivity backends on large instances.

The acceptance suite times a shortened grid so the tests stay quick; this
script runs the full one, m = 2**10 .. 2**15 by default.  Per-size
timings and the fitted log-log slope are printed per backend.
"""

import argparse
import time

from maxgenus import (
    fit_loglog_slope,
    gen_random_connected_multigraph,
    greedy_max_genus,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-pow", type=int, default=10)
    ap.add_argument("--max-pow", type=int, default=15)
    ap.add_argument("--backends", default="dfs,dynamic")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--policy", default="edge-id")
    args = ap.parse_args()

    sizes = [2 ** p for p in range(args.min_pow, args.max_pow + 1)]
    for backend in args.backends.split(","):
        points = []
        for m in sizes:
            g = gen_random_connected_multigraph(m // 2, m, seed=args.seed)
            t0 = time.perf_counter()
            res = greedy_max_genus(g, backend=backend, policy=args.policy)
            dt = time.perf_counter() - t0
            points.append((float(m), dt))
            print(f"{backend:8s} m={m:6d} k={len(res.pairs):5d} "
                  f"tests={res.stats.tests:8d} elapsed={dt:8.3f}s",
                  flush=True)
        print(f"{backend:8s} slope(elapsed ~ m) = "
              f"{fit_loglog_slope(points):.3f}\n")


if __name__ == "__main__":
    main()
