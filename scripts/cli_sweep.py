#!/usr/bin/env python3
"""Digest every command-line run over a grid of random settings, to compare two trees.

    PYTHONPATH=src python3 scripts/cli_sweep.py > after.csv
    PYTHONPATH=src python3 scripts/cli_sweep.py --n 2 --m 3 5 --seeds 0

Runs contract_forge.cli.main in process, in a temporary directory that is
removed afterwards. For each gen_random(n, m, seed) setting of the grid
(`gen random` writes it) it runs:

- `solve --contract-out` at delta 0, 0.1 and 1 under both notions;
- `delta-solve --trace --contract-out` at delta 0.1 and 1;
- `linear --delta 0.05 --gamma 0.1` and `linear --separable`;
- `oracle --eps 0.1` on one separation instance per action, whose mixtures
  are the other actions' rows with equal weights;
- `blackbox --eps 0.2 --gamma 0.1 --trials 3`;
- `verify` (at the solve's action, delta and notion) and
  `transform --to ir --delta 0.1` on each contract `solve` wrote.

Prints a header `argv,digest`, then one row per run: its arguments and a
digest of its exit code, stdout, stderr (warnings included, each shown every
time) and the name and bytes of every file it wrote; a run that raises shows
its traceback on stderr as well. Two trees that give the same answers print
the same lines, so `diff` of two outputs lists the runs that changed. The
defaults are n in {2, 3, 4}, m in {3, 5, 8, 12} and seeds 0 to 3.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
import warnings

from contract_forge import cli


def run(argv: list) -> tuple:
    """main(argv) in the working directory: its (argv, digest) row, exit code and stdout."""
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except Exception as exc:  # a fault of the program: the digest records it, stderr shows it
            code = f"raised {type(exc).__name__}: {exc}"
            print(" ".join(argv), traceback.format_exc(), sep="\n", file=sys.__stderr__)
    written = []
    for name in sorted(set(os.listdir()) - before):
        with open(name, "rb") as fh:
            written.append((name, fh.read()))
    record = repr((code, out.getvalue(), err.getvalue(), written)).encode()
    return (" ".join(argv), hashlib.sha256(record).hexdigest()[:16]), code, out.getvalue()


def sweep(n: int, m: int, seed: int):
    """The runs over gen_random(n, m, seed), as (argv, digest) pairs."""
    tag = f"{n}-{m}-{seed}"
    inst = f"setting-{tag}.json"
    row, code, _ = run(["gen", "random", "--n", str(n), "--m", str(m), "--seed", str(seed), "-o", inst])
    yield row
    if code != 0:
        return
    contracts = []
    for delta in ("0", "0.1", "1"):
        for notion in ("add", "mult"):
            con = f"solve-{tag}-{notion}-{delta}.json"
            row, code, out = run(["solve", "--instance", inst, "--delta", delta,
                                  "--notion", notion, "--contract-out", con])
            yield row
            if code == 0:
                contracts.append((con, json.loads(out)["result"]["action"], delta, notion))
    for delta in ("0.1", "1"):
        yield run(["delta-solve", "--instance", inst, "--delta", delta,
                   "--trace", f"trace-{tag}-{delta}.csv",
                   "--contract-out", f"delta-{tag}-{delta}.json"])[0]
    yield run(["linear", "--instance", inst, "--delta", "0.05", "--gamma", "0.1"])[0]
    yield run(["linear", "--instance", inst, "--separable"])[0]
    with open(inst) as fh:
        probs = json.load(fh)["probs"]
    for action, reference in enumerate(probs if n > 1 else []):
        mixtures = probs[:action] + probs[action + 1:]
        sep = f"separation-{tag}-{action}.json"
        with open(sep, "w") as fh:
            json.dump({"kind": "separation", "weights": [1.0 / len(mixtures)] * len(mixtures),
                       "mixtures": mixtures, "reference": reference}, fh)
        yield run(["oracle", "--instance", sep, "--eps", "0.1"])[0]
    yield run(["blackbox", "--instance", inst, "--eps", "0.2", "--gamma", "0.1", "--trials", "3"])[0]
    for con, action, delta, notion in contracts:
        yield run(["verify", "--instance", inst, "--contract", con, "--action", str(action),
                   "--delta", delta, "--notion", notion])[0]
        yield run(["transform", "--instance", inst, "--contract", con, "--to", "ir",
                   "--delta", "0.1"])[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[2, 3, 4], help="action counts")
    parser.add_argument("--m", type=int, nargs="+", default=[3, 5, 8, 12], help="item counts")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    args = parser.parse_args(argv)

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["argv", "digest"])
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for n in args.n:
                for m in args.m:
                    for seed in args.seeds:
                        writer.writerows(sweep(n, m, seed))
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
