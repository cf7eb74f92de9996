"""One workload in its own process: set up, run timed rounds, check, report.

Started by run.py from the root of the checkout with src/ on PYTHONPATH:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process limits its own address space and gives every operation a
timeout; an operation that runs out of either counts as failed. The answers
are checked after the timed phase, so scipy and the references cost the
timed phase nothing. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from collections import Counter

from workloads import KINDS, WORKLOADS

ADDRESS_SPACE_BYTES = 2 * 1024**3
OP_TIMEOUT_S = 30


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation ran longer than {OP_TIMEOUT_S} s")


def _call(fn):
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_round(ops, call, records) -> None:
    """One pass over the operations, one in flight; appends (index, s, answer).

    Only the call is timed. The result is cut down to a small answer at once,
    so that memory does not grow with the number of rounds.
    """
    for index, op in enumerate(ops):
        start = time.perf_counter()
        try:
            result = call(op)
        except Exception as exc:  # a failed operation; the run goes on
            records.append((index, time.perf_counter() - start, exc))
            continue
        spent = time.perf_counter() - start
        records.append((index, spent, KINDS[op.kind].answer(result)))


def another_round(start: float, round_start: float, seconds: float) -> bool:
    """Whether one more round of the same length ends nearer the deadline."""
    now = time.perf_counter()
    return now - start + (now - round_start) / 2 < seconds


def run_plain(ops, seconds):
    records = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_round(ops, lambda op: _call(op.run), records)
        if not another_round(start, round_start, seconds):
            break
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": len(records) / elapsed,
        "latency_p50_ms": statistics.median(r[1] for r in records) * 1e3,
        "peak_rss_mb": peak_mb,
    }
    return records, metrics


def run_traced(ops, seconds):
    """Untraced and traced rounds in turn; per-layer metrics of the traced ones."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()

    plain, spanned = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        tracer.disable()
        run_round(ops, lambda op: _call(op.run), plain)
        tracer.enable()
        run_round(ops, lambda op: _call(lambda: tracer.run(op.run)), spanned)
        if not another_round(start, round_start, seconds):
            break
    tracer.disable()

    metrics = tracer.metrics()
    metrics["trace.overhead"] = statistics.median(
        t[1] / p[1] for p, t in zip(plain, spanned))
    return plain + spanned, metrics


def check(ops, records):
    """(correct, failed, notes): every answer against its reference."""
    refs = {}
    failed = Counter()
    wrong = Counter()
    met, checked = Counter(), Counter()
    for index, _, answer in records:
        op = ops[index]
        kind = KINDS[op.kind]
        if isinstance(answer, Exception):
            failed[f"{op.kind}: {type(answer).__name__}: {answer}"] += 1
            continue
        if (op.kind, op.key) not in refs:
            refs[op.kind, op.key] = kind.reference(op)
        verdict = kind.check(op, answer, refs[op.kind, op.key])
        if kind.guarantee_share is not None:
            verdict, trial_met = verdict
            met[op.kind] += trial_met
            checked[op.kind] += 1
        if verdict is None:
            continue
        if op.known_fault:
            failed[f"{op.known_fault} ({verdict})"] += 1
        else:
            wrong[f"{op.kind}: {verdict}"] += 1
    notes = {"failed": dict(failed), "wrong": dict(wrong), "guarantee_met": {}}
    correct = not wrong
    for name, count in checked.items():
        notes["guarantee_met"][name] = f"{met[name]}/{count}"
        correct = correct and met[name] >= KINDS[name].guarantee_share * count
    return correct, sum(failed.values()), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first timed operation would start")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    signal.signal(signal.SIGALRM, _on_alarm)

    ops = WORKLOADS[args.workload](args.seed)
    first_op = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"first_op": first_op}))
        return 0

    run = run_traced if args.trace else run_plain
    records, metrics = run(ops, args.seconds)
    correct, failed, notes = check(ops, records)
    print(json.dumps({
        "first_op": first_op,
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
