#!/usr/bin/env python3
"""Census of gradient-like realizability over small partial orders.

Restricts the small-order census to gradient-shaped orders (first-generation
saddles touching at most two extremals per side, connected level graphs) and
runs the labelled dual-embedding decision on each, reporting how many are
realizable and at which genus the first witness appears.
"""

import argparse
import sys
import time
from collections import Counter

from smale_orders.census import iter_orders
from smale_orders.errors import DisconnectedGraph, NotGradientShape
from smale_orders.gradient import check_gradient_like, level_graphs

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=6)
    parser.add_argument("--max-genus", type=int, default=None)
    parser.add_argument(
        "--max-saddles",
        type=int,
        default=4,
        help="skip orders with more saddles (an order whose R - S + A is even is"
        " searched over rotation systems, whose count grows factorially)",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    shaped = realizable = 0
    genus_hist: Counter = Counter()
    skipped_big = 0
    for n in range(2, args.max_size + 1):
        for order in iter_orders(n):
            try:
                highest, _ = level_graphs(order)
            except NotGradientShape:
                continue
            if len(highest.edges) > args.max_saddles:
                skipped_big += 1
                continue
            try:
                verdict = check_gradient_like(order, args.max_genus)
            except DisconnectedGraph:
                continue
            shaped += 1
            if verdict.realizable:
                realizable += 1
                genus_hist[verdict.genus] += 1

    print(f"gradient-shaped connected orders      {shaped:>8}")
    print(f"  realizable by a gradient-like map   {realizable:>8}")
    print(f"  skipped (more than {args.max_saddles} saddles)       {skipped_big:>8}")
    print("first-witness genus histogram:")
    for g in sorted(genus_hist):
        print(f"  genus {g:>3}: {genus_hist[g]}")
    print(f"elapsed {time.time() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
