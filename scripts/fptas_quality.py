#!/usr/bin/env python3
"""Measure the bucketing oracle against brute force on random instances.

Prints one CSV row per instance: exact minimum ratio, bucketed ratio, their
quotient (never above 1+eps), the largest representative family kept
along the way next to its worst-case budget, the number of items at which
two partials shared a bucket (merged_items: the family grew to less than
twice its size), and the bucketed call's wall time (millis) and tracemalloc
peak (peak_kb, from a second, traced call).
Large m makes brute force the bottleneck; the bucketed route keeps going.

    PYTHONPATH=src python3 scripts/fptas_quality.py --n 2 --m 14 --count 5
"""

import argparse
import csv
import sys
import time
import tracemalloc

import numpy as np

from contract_forge.oracle import (
    SeparationInstance,
    min_ratio_bruteforce,
    min_ratio_fptas_stats,
)


def random_instance(rng, n, m):
    weights = rng.uniform(0.1, 1.0, size=n)
    return SeparationInstance(
        weights=tuple(weights / weights.sum()),
        mixtures=tuple(tuple(row) for row in rng.uniform(0.05, 0.95, size=(n, m))),
        reference=tuple(rng.uniform(0.05, 0.95, size=m)),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--m", type=int, default=10)
    parser.add_argument("--eps", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["trial", "exact", "bucketed", "quotient", "max_family", "budget", "merged_items", "millis", "peak_kb"]
    )
    worst = 0.0
    for trial in range(args.count):
        inst = random_instance(rng, args.n, args.m)
        exact = min_ratio_bruteforce(inst).ratio
        start = time.perf_counter()
        approx, stats = min_ratio_fptas_stats(inst, args.eps)
        millis = 1000.0 * (time.perf_counter() - start)
        tracemalloc.start()
        min_ratio_fptas_stats(inst, args.eps)
        peak_kb = tracemalloc.get_traced_memory()[1] / 1024.0
        tracemalloc.stop()
        counts = stats.family_counts
        merged = sum(kept < 2 * before for before, kept in zip((1,) + counts[:-1], counts))
        quotient = approx.ratio / exact if exact > 0 else 1.0
        worst = max(worst, quotient)
        writer.writerow(
            [
                trial,
                repr(exact),
                repr(approx.ratio),
                "%.6f" % quotient,
                max(counts),
                stats.family_budget,
                merged,
                "%.3f" % millis,
                "%.1f" % peak_kb,
            ]
        )
    print(f"worst quotient {worst:.6f} (allowed {1 + args.eps})", file=sys.stderr)


if __name__ == "__main__":
    main()
