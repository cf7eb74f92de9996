"""Run the benchmark once per seed and print each metric's median and spread.

    python3 perfbench/spread.py --workload delta-ic --seeds 1 2 3 4 5

Run from the root of a checkout. The spread of a metric is the distance
between the first and third quartile of its values, as
statistics.quantiles(values, n=4) gives them, divided by their median.
Each run's JSON line is printed as it ends, so the output can be kept and
compared with another commit's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as fh:
            seconds = json.load(fh)["run_seconds"]

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, "wall_s": round(time.monotonic() - start, 1), **result}),
              flush=True)
        shares.add(f"{result['failed']}/{result['attempted']} = "
                   f"{result['failed'] / result['attempted']:.6f}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / median:.4f}"
        else:
            spread = "n/a"
        print(f"{args.workload} {name:24s} median {median:12.4f}  spread {spread}")
    print(f"{args.workload} failed shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
