#!/usr/bin/env python3
"""Measure the likelihood-ratio front and its payment LP at growing sizes.

    PYTHONPATH=src python3 scripts/front_scale.py
    PYTHONPATH=src python3 scripts/front_scale.py --sizes 4x13 4x40 --seeds 0 1

For each gen_random(n, m, seed) setting and each action it prints one CSV
row: the front's point count (`cap` past model.FRONT_CAP), the items whose
target probability is the smallest or largest of all actions (ordered
items, where oracle.ratio_front translates the front instead of filtering
it), the front's wall time and tracemalloc peak, the simplex pivots and
wall time of the payment LP over the front, or, past the cap with
m <= model.M_MAX_ENUMERATE, over every outcome (the LP columns are left
empty past the cap at larger m), and whether exact.min_payment builds this
front and solves this LP at all (`builds_front`: 0 when the LP's
right-hand side is nonnegative, so min_payment pays 0.0 without them; the
front and LP are still measured then, as reference data). Every column
except the two times is deterministic. The default sizes are n=4 with m in
{13, 40, 80}, n=3 with m=160, n in {6, 8} with m=20 and n=12 with m=16.
"""

import argparse
import csv
import sys
import time
import tracemalloc

import numpy as np

from contract_forge.errors import CapacityError
from contract_forge.exact import _ratio_columns, payment_lp, payment_rhs
from contract_forge.generators import gen_random
from contract_forge.model import M_MAX_ENUMERATE, MULTIPLICATIVE
from contract_forge.oracle import ratio_front

DEFAULT_SIZES = ("4x13", "4x40", "4x80", "3x160", "6x20", "8x20", "12x16")


def size(text: str):
    n, m = text.split("x")
    return int(n), int(m)


def capped_front(mix, ref):
    try:
        return ratio_front(mix, ref)
    except CapacityError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=size, nargs="+", default=[size(s) for s in DEFAULT_SIZES],
                        metavar="NxM", help="settings of N actions and M items")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args()

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "m", "seed", "action", "front_points", "ordered_items",
                     "front_ms", "front_peak_kb", "lp_pivots", "lp_ms", "builds_front"])
    for n, m in args.sizes:
        for seed in args.seeds:
            setting = gen_random(n, m, seed)
            for action in range(n):
                rivals = np.arange(n) != action
                mix, ref = setting.probs[rivals], setting.probs[action]
                ordered = int(((ref <= mix.min(axis=0, initial=1.0))
                               | (ref >= mix.max(axis=0, initial=0.0))).sum())
                start = time.perf_counter()
                front = capped_front(mix, ref)
                front_ms = 1e3 * (time.perf_counter() - start)
                tracemalloc.start()  # a second pass: tracing would slow the timed one
                capped_front(mix, ref)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                row = [n, m, seed, action, "cap" if front is None else len(front.outcomes),
                       ordered, "%.2f" % front_ms, peak // 1024]
                rhs = payment_rhs(setting, action, rivals, 0.0, MULTIPLICATIVE)
                builds_front = int(not (rhs >= 0.0).all())
                if front is not None:
                    ratios = front.ratios
                elif m <= M_MAX_ENUMERATE:  # exact enumerates the outcomes instead
                    ratios = _ratio_columns(setting, action, rivals)[1]
                else:
                    writer.writerow(row + ["", "", builds_front])
                    continue
                start = time.perf_counter()
                sol = payment_lp(ratios, rhs, 0.0, MULTIPLICATIVE)
                lp_ms = 1e3 * (time.perf_counter() - start)
                writer.writerow(row + [sol.iterations, "%.2f" % lp_ms, builds_front])
                sys.stdout.flush()


if __name__ == "__main__":
    main()
