#!/usr/bin/env python3
"""Check the benchmark's answers over a range of seeds, without timing them.

    PYTHONPATH=src python3 scripts/bench_answers.py --workload exact --seeds 1 80

Run from the root of a checkout. For every seed from A up to B (B left out)
it builds the workload's operations with perfbench/workloads.py, runs each
once and checks the answers with perfbench/worker.py's own check. Every round
of a benchmark run repeats the same seeded operations, so a seed reads wrong
here when a benchmark run with it would report `correct: false`. Prints one
line per seed with a wrong answer or a failed operation, then the wrong
seeds; exits 1 if there are any. Writes no file.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from worker import check, run_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("A", "B"),
                        help="check seeds A, A+1, ..., B-1")
    args = parser.parse_args(argv)

    seeds = range(*args.seeds)
    wrong = []
    for seed in seeds:
        ops = WORKLOADS[args.workload](seed)
        records = []
        run_round(ops, lambda op: op.run(), records)
        correct, failed, notes = check(ops, records)
        for kind in ("wrong", "failed"):
            for reason, count in notes[kind].items():
                print(f"seed {seed}: {count} {kind}: {reason}", flush=True)
        if not correct:
            print(f"seed {seed}: wrong; guarantee met: {notes['guarantee_met']}", flush=True)
            wrong.append(seed)
    print(f"{args.workload}: {len(wrong)} of {len(seeds)} seeds wrong: {wrong}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
