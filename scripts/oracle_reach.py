#!/usr/bin/env python3
"""Reach of the exact oracles: how many seeded random graphs each decides
within a time budget.

For each edge count m of the grid, the graphs are
``gen_random_connected_multigraph(m // 2, m, seed=s)`` for s = 0..N-1.
Each oracle runs on each graph with its limit lifted as far as it goes,
so the alarm ends a search; a graph the tree oracle still refuses (more
than ``sys.maxsize`` trees by its count bound) is not decided.  A row
gives, per oracle, the graphs decided within the budget out of N and
the slowest decided time in seconds.  Two oracles that decide the same
graph must agree on its maximum genus; a disagreement exits 1.

    python scripts/oracle_reach.py --sizes 32,48,64 --graphs 10 --budget 2
"""

import argparse
import signal
import sys
import time

from maxgenus import (
    LimitExceededError,
    exact_max_genus_pairs,
    exact_max_genus_rotations,
    gen_random_connected_multigraph,
    xuong_max_genus,
)
from maxgenus.oracle import rotation_count

ORACLES = {
    "pairs": lambda g: exact_max_genus_pairs(g, max_edges=g.n_edges)[0],
    "xuong": lambda g: xuong_max_genus(g, limit=sys.maxsize)[0],
    "rotations": lambda g: exact_max_genus_rotations(
        g, limit=rotation_count(g)),
}


class OutOfTime(Exception):
    pass


def _alarm(signum, frame):
    raise OutOfTime


def timed(oracle, g, budget: float):
    """(value, seconds), or None if the oracle refuses g or the budget
    runs out."""
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        start = time.perf_counter()
        value = oracle(g)
        return value, time.perf_counter() - start
    except (OutOfTime, LimitExceededError):
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="16,24,32,48",
                    help="comma-separated edge counts m")
    ap.add_argument("--graphs", type=int, default=10,
                    help="seeded graphs per size")
    ap.add_argument("--budget", type=float, default=2.0,
                    help="seconds per oracle and graph")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _alarm)

    print(f"{'m':>4s}" + "".join(f" {name:>19s}" for name in ORACLES))
    for m in (int(s) for s in args.sizes.split(",")):
        decided = {name: 0 for name in ORACLES}
        slowest = {name: 0.0 for name in ORACLES}
        for seed in range(args.graphs):
            g = gen_random_connected_multigraph(m // 2, m, seed=seed)
            values = set()
            for name, oracle in ORACLES.items():
                got = timed(oracle, g, args.budget)
                if got is not None:
                    values.add(got[0])
                    decided[name] += 1
                    slowest[name] = max(slowest[name], got[1])
            if len(values) > 1:
                print(f"m={m} seed={seed}: the oracles disagree: "
                      f"{sorted(values)}", file=sys.stderr)
                return 1
        print(f"{m:4d}" + "".join(
            f" {decided[name]:>6d}/{args.graphs:<3d}{slowest[name]:8.3f}s"
            for name in ORACLES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
