"""contract-forge benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-solve --seed 1 --seconds 15 --trace 0

The workload runs in a child process (worker.py) with BLAS/OpenMP pinned to
one thread. With --trace 0 it prints ops_per_s, latency_p50_ms, peak_rss_mb
and setup_s; set-up is timed from launching a child to its first timed
operation, over several launches, and the median is reported. With --trace 1
it prints the per-layer metrics of spans.py instead. The last line of
standard output is the JSON result; notes on failed or wrong answers go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_LAUNCHES = 5  # set-up-only launches, besides the measured run's own
DEADLINE_S = 170
WORKER = Path("perfbench") / "worker.py"
PACKAGE = Path("src") / "contract_forge" / "__init__.py"
UNITS = {"ops_per_s": "ops/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def launch(argv, env, deadline):
    """Run the worker to its end; return (launch time, its JSON line)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *argv],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not PACKAGE.is_file() or not WORKER.is_file():
        print(f"run from the root of a contract-forge checkout: {PACKAGE} not found",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    # perf_counter is CLOCK_MONOTONIC on Linux, one clock for parent and child
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_LAUNCHES):
                start, out = launch(common + ["--setup-only"], env, deadline)
                setups.append(out["first_op"] - start)
        start, out = launch(common, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    for kind in ("failed", "wrong"):
        for reason, count in out["notes"].get(kind, {}).items():
            print(f"{args.workload}: {count} {kind}: {reason}", file=sys.stderr)
    for kind, met in out["notes"]["guarantee_met"].items():
        print(f"{args.workload}: {kind} guarantee met on {met} trials", file=sys.stderr)

    if args.trace:
        from spans import METRICS

        units = dict(METRICS)
    else:
        setups.append(out["first_op"] - start)
        out["metrics"]["setup_s"] = statistics.median(setups)
        units = UNITS
    metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
