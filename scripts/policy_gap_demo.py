#!/usr/bin/env python3
"""Show the policy gap on the doubled-star family.

For the tight-star graph with parameter n (center plus 2n leaves, every
center edge doubled, one loop per leaf) the maximum genus is 2n.  The
loops-first policy and the default tree-first policy find all 2n pairs:
tree-first splits the cotree of its BFS tree (the second copy of each
center edge plus the loops) into 2n pairs with no probe.  Processing the
center first locks every removal into a center-edge pair and stops at n,
the worst case the 2-approximation guarantee allows; loops-first and
central-vertex-first stay in the table as the two ends of that gap.
Small instances are cross-checked against the spanning-tree oracle.
"""

import argparse

from maxgenus import POLICIES, gen_tight_star, greedy_max_genus, xuong_max_genus


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=10)
    ap.add_argument("--oracle-max-n", type=int, default=3,
                    help="confirm gamma_M exactly up to this n")
    args = ap.parse_args()

    header = f"{'n':>3s} {'m':>4s}" + "".join(
        f" {p:>21s}" for p in POLICIES) + f" {'gamma_M':>8s}"
    print(header)
    for n in range(1, args.max_n + 1):
        g = gen_tight_star(n)
        row = f"{n:3d} {g.n_edges:4d}"
        for policy in POLICIES:
            k = len(greedy_max_genus(g, policy=policy).pairs)
            row += f" {k:21d}"
        if n <= args.oracle_max_n:
            row += f" {xuong_max_genus(g)[0]:8d}"
        else:
            row += f" {2 * n:7d}*"
        print(row)
    print("\n* closed form 2n, oracle not run at this size")


if __name__ == "__main__":
    main()
