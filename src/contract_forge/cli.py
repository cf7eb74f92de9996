"""Command-line front end.

Subcommands: solve, delta-solve, linear, oracle, transform, blackbox, gen,
verify.  Instances and contracts travel as JSON (see docs/formats.md);
results go to stdout as JSON wrapped in a provenance envelope, experiment
tables go to stdout as CSV with a '#'-prefixed provenance line, and anything
meant for humans goes to stderr.  A handler returns its stdout text and
the files it writes, and main writes them, all or none, once it has returned.  Exit
codes: 0 ok, 2 bad input or an unreadable or unwritable path, 3 `verify`
found the condition violated, 4 resource limits or memory; stdout stays
empty on 2 and 4.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from dataclasses import astuple, dataclass, field, fields
from typing import Optional

from . import __version__
from .blackbox import QueryOracle, blackbox_contract
from .delta_solver import TraceRow, min_payment_delta, opt_contract_delta
from .errors import InputError, ResourceError
from .exact import first_best, opt_contract
from .generators import (
    gen_delta_advantage,
    gen_gap,
    gen_minmax,
    gen_product2,
    gen_productc,
    gen_random,
    gen_sat,
    gen_separable_gap,
    parse_dimacs,
)
from .linear import approx_linear_delta, optimal_linear, optimal_separable
from .model import (
    ADDITIVE,
    NOTION_ALIASES,
    Linear,
    Separable,
    TOL_IC,
    contract_to_dict,
    dumps,
    ic_slack,
    load_contract,
    load_json,
    load_setting,
    money_unit,
    normalize_notion,
    outcome_to_items,
)
from .oracle import min_ratio_fptas_stats, separation_from_dict
from .transform import delta_to_ic, delta_to_ir


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


@dataclass
class Output:
    """What a handler leaves for main to write once it has returned."""

    stdout: str
    files: dict[str, str] = field(default_factory=dict)  # path -> text
    code: int = 0


def _json_ready(value):
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return None
    return value


def _provenance(command: str, params: dict) -> dict:
    return {"tool": "contract-forge", "version": __version__, "command": command, "params": params}


def _envelope(command: str, params: dict, result: dict, files=None, code: int = 0) -> Output:
    envelope = {**_provenance(command, params), "result": result}
    return Output(json.dumps(envelope, indent=2, sort_keys=True) + "\n", files or {}, code)


def _contract_file(path: Optional[str], contract) -> dict:
    return {path: dumps(contract) + "\n"} if path else {}


def _csv(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns an Output, which main writes
# ---------------------------------------------------------------------------


def cmd_solve(args) -> Output:
    setting = load_setting(args.instance)
    solved = opt_contract(setting, delta=args.delta, notion=args.notion)
    result = {
        "payoff": solved.payoff,
        "action": solved.action,
        "contract": contract_to_dict(solved.contract),
        "first_best": first_best(setting),
        "per_action": [
            {
                "action": row.action,
                "status": row.status,
                "expected_payment": _json_ready(row.expected_payment),
            }
            for row in solved.per_action
        ],
    }
    params = {"delta": args.delta, "notion": args.notion}
    return _envelope("solve", params, result, _contract_file(args.contract_out, solved.contract))


def _cell(value):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return value


def _trace_rows(res) -> list:
    return [[res.action, *map(_cell, astuple(row))] for row in res.trace]


def _delta_result_dict(res) -> dict:
    return {
        "action": res.action,
        "expected_payment": res.expected_payment,
        "gamma_star": res.gamma_star,
        "contract": contract_to_dict(res.contract),
        "cut_outcomes": [outcome_to_items(mask) for mask in res.cut_outcomes],
        "dual_weights": list(res.dual_weights),
        "iterations": len(res.trace),
    }


def cmd_delta_solve(args) -> Output:
    setting = load_setting(args.instance)
    if args.action is None:
        solved = opt_contract_delta(setting, args.delta)
        result = {
            "payoff": solved.payoff,
            "action": solved.action,
            "contract": contract_to_dict(solved.contract),
            "per_action": [_delta_result_dict(row) for row in solved.per_action],
        }
        contract, per_action = solved.contract, solved.per_action
    else:
        res = min_payment_delta(setting, args.action, args.delta)
        result = _delta_result_dict(res)
        contract, per_action = res.contract, [res]
    files = {}
    if args.trace:
        header = ["action", *(f.name for f in fields(TraceRow))]
        files[args.trace] = _csv(header, [r for res in per_action for r in _trace_rows(res)])
    files.update(_contract_file(args.contract_out, contract))
    return _envelope("delta-solve", {"delta": args.delta, "action": args.action}, result, files)


def cmd_linear(args) -> Output:
    setting = load_setting(args.instance)
    params = {"delta": args.delta, "gamma": args.gamma, "separable": args.separable}
    if args.separable:
        payments, action, payoff = optimal_separable(setting, delta=args.delta)
        contract = Separable(item_payments=payments)
        result = {"item_payments": list(payments), "action": action, "payoff": payoff}
    elif args.gamma is not None:
        approx = approx_linear_delta(setting, args.delta, args.gamma)
        contract = Linear(alpha=approx.alpha)
        result = {
            "alpha": approx.alpha,
            "action": approx.action,
            "payoff": approx.payoff,
            "kappa": approx.kappa,
            "candidates": [
                {"alpha": a, "action": i, "payoff": p} for a, i, p in approx.candidates
            ],
        }
    else:
        alpha, action, payoff = optimal_linear(setting, delta=args.delta)
        contract = Linear(alpha=alpha)
        result = {"alpha": alpha, "action": action, "payoff": payoff}
    result["contract"] = contract_to_dict(contract)
    return _envelope("linear", params, result, _contract_file(args.contract_out, contract))


def cmd_oracle(args) -> Output:
    inst = separation_from_dict(load_json(args.instance))
    res, stats = min_ratio_fptas_stats(inst, args.eps)
    try:
        budget = float(stats.family_budget)
    except OverflowError:  # t^d can run to thousands of digits
        budget = None
    result = {
        "method": "fptas",
        "eps": args.eps,
        "outcome": outcome_to_items(res.outcome),
        "ratio": res.ratio,
        "family_counts": list(stats.family_counts),
        "family_budget": budget,
    }
    return _envelope("oracle", {"eps": args.eps}, result)


def cmd_transform(args) -> Output:
    setting = load_setting(args.instance)
    contract = load_contract(args.contract, setting)
    if args.to == "ic":
        res = delta_to_ic(setting, contract, args.delta)
        out = res.contract
        result = {
            "payoff_bound": res.payoff_bound,
            "source_action": res.source_action,
            "source_payoff": res.source_payoff,
        }
    else:
        out = delta_to_ir(setting, contract, args.delta)
        result = {}
    result["contract"] = contract_to_dict(out)
    params = {"delta": args.delta, "to": args.to}
    return _envelope("transform", params, result, _contract_file(args.contract_out, out))


def cmd_blackbox(args) -> Output:
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    setting = load_setting(args.instance)
    params = {"eps": args.eps, "gamma": args.gamma, "seed": args.seed, "trials": args.trials}
    rows = []
    for trial in range(args.trials):
        seed = args.seed + trial
        res = blackbox_contract(QueryOracle(setting, seed=seed), args.eps, args.gamma)
        slack = ic_slack(setting, res.contract, res.action, res.claimed_delta, ADDITIVE)
        rows.append(
            [seed, res.samples_per_action, repr(slack), repr(res.payoff_on_true), repr(res.opt_on_true)]
        )
    comment = "# " + json.dumps(_provenance("blackbox", params), sort_keys=True) + "\n"
    return Output(comment + _csv(["seed", "s", "ic_slack", "payoff", "opt"], rows))


def _read_formula(path: str):
    with open(path) as fh:
        return parse_dimacs(fh.read())


def _noted(kind: str, made, *names: str):
    """A construction's setting and documented contract; its named fields go to stderr."""
    _diag(f"{kind}: " + " ".join(f"{name}={getattr(made, name)!r}" for name in names))
    return made.setting, getattr(made, "contract", None)


# gen kind -> builder of (setting, documented contract or None)
_GENERATORS = {
    "gap": lambda args: (gen_gap(args.c, args.gamma), None),
    "sat": lambda args: (gen_sat(_read_formula(args.cnf)), None),
    "product2": lambda args: (gen_product2(_read_formula(args.cnf), args.epsilon), None),
    "productc": lambda args: (gen_productc(_read_formula(args.cnf), args.c, args.epsilon), None),
    "minmax": lambda args: _noted("minmax", gen_minmax(args.a),
                                  "full_set_prob", "odds_root", "margin", "effort_cost"),
    "a3": lambda args: _noted("a3", gen_delta_advantage(args.epsilon, args.delta),
                              "ic_opt", "relaxed_payoff", "action"),
    "f": lambda args: _noted("f", gen_separable_gap(args.delta),
                             "best_payoff", "separable_payoff", "action"),
    "random": lambda args: (gen_random(args.n, args.m, seed=args.seed), None),
}


def cmd_gen(args) -> Output:
    setting, contract = _GENERATORS[args.kind](args)
    payload = dumps(setting) + "\n"
    files = _contract_file(args.contract_out, contract)
    if args.output:
        return Output("", {args.output: payload, **files})
    return Output(payload, files)


def cmd_verify(args) -> Output:
    tol = TOL_IC if args.tol is None else args.tol
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"--tol must be a finite nonnegative number, got {tol}")
    setting = load_setting(args.instance)
    contract = load_contract(args.contract, setting)
    slack = ic_slack(setting, contract, args.action, args.delta, args.notion)
    notion = args.notion or "add"  # ic_slack takes no notion only at delta = 0
    ok = slack >= -tol * money_unit(setting)
    result = {
        "action": args.action,
        "delta": args.delta,
        "notion": notion,
        "slack": _json_ready(slack),
        "ok": ok,
    }
    params = {"delta": args.delta, "notion": notion, "action": args.action, "tol": tol}
    if not ok:
        kind = normalize_notion(notion)
        _diag(f"verify: contract misses the {kind} {args.delta}-IC condition by {-slack}")
    return _envelope("verify", params, result, code=0 if ok else 3)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="contract-forge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"contract-forge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--instance", help="instance JSON ('-' or omit for stdin)")
    contract_out = argparse.ArgumentParser(add_help=False)
    contract_out.add_argument("--contract-out", help="also write the contract JSON here")
    in_out = [instance, contract_out]

    p = sub.add_parser(
        "solve", parents=in_out, help="optimal contract: one LP per action over its ratio front"
    )
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--notion", default="mult", choices=NOTION_ALIASES)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("delta-solve", parents=in_out, help="delta-IC solver by column generation")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--action", type=int, default=None, help="target a single action")
    p.add_argument("--trace", help="write the per-round column-generation trace CSV here")
    p.set_defaults(handler=cmd_delta_solve)

    p = sub.add_parser("linear", parents=in_out, help="linear / separable contracts")
    p.add_argument("--delta", type=float, default=0.0)
    scheme = p.add_mutually_exclusive_group()
    scheme.add_argument("--gamma", type=float, default=None, help="run the welfare-share scheme")
    scheme.add_argument("--separable", action="store_true")
    p.set_defaults(handler=cmd_linear)

    p = sub.add_parser("oracle", help="likelihood-ratio separation oracle")
    p.add_argument("--instance", help="separation JSON ('-' or omit for stdin)")
    p.add_argument("--eps", type=float, default=0.1)
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("transform", parents=in_out, help="repair a delta-IC contract")
    p.add_argument("--contract", required=True, help="contract JSON file")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--to", required=True, choices=["ic", "ir"])
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("blackbox", help="query-model pipeline trials (CSV)")
    p.add_argument("--instance", help="hidden instance JSON ('-' or omit for stdin)")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="oracle seed of the first trial")
    p.set_defaults(handler=cmd_blackbox)

    p = sub.add_parser("gen", help="instance generators")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("gap")
    g.add_argument("--c", type=int, required=True)
    g.add_argument("--gamma", type=float, required=True)
    g = gen_sub.add_parser("sat")
    g.add_argument("--cnf", required=True, help="DIMACS CNF file")
    g = gen_sub.add_parser("product2")
    g.add_argument("--cnf", required=True)
    g.add_argument("--epsilon", type=float, required=True)
    g = gen_sub.add_parser("productc")
    g.add_argument("--cnf", required=True)
    g.add_argument("--c", type=int, required=True)
    g.add_argument("--epsilon", type=float, required=True)
    g = gen_sub.add_parser("minmax")
    g.add_argument("--a", type=int, nargs="+", required=True, help="integer odds, each >= 3")
    g = gen_sub.add_parser("a3", parents=[contract_out])
    g.add_argument("--epsilon", type=float, required=True)
    g.add_argument("--delta", type=float, required=True)
    g = gen_sub.add_parser("f", parents=[contract_out])
    g.add_argument("--delta", type=float, required=True)
    g = gen_sub.add_parser("random")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--seed", type=int, default=0, help="RNG seed")
    for g_parser in gen_sub.choices.values():
        g_parser.add_argument("-o", "--output", help="write instance JSON here instead of stdout")
        g_parser.set_defaults(handler=cmd_gen, contract_out=None)

    p = sub.add_parser("verify", parents=[instance], help="check a delta-IC condition")
    p.add_argument("--contract", required=True)
    p.add_argument("--action", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--notion", choices=NOTION_ALIASES)
    p.add_argument(
        "--tol", type=float, default=None,
        help="slack tolerance, in units of the largest expected reward",
    )
    p.set_defaults(handler=cmd_verify)

    return parser


def _write_files(files: dict) -> None:
    """Write every file or none, as far as the targets allow.  A missing or
    regular target (symlinks followed) is written under a temporary name beside
    it, and all are renamed once every write has succeeded.  Any other target,
    such as a device or a FIFO, cannot be replaced: it is opened with the
    temporaries and written after the renames."""
    temps, streams = {}, {}
    try:
        with contextlib.ExitStack() as stack:
            for path, text in files.items():
                if os.path.exists(path) and not os.path.isfile(path):
                    streams[path] = stack.enter_context(open(path, "w"))  # a directory raises here
                    continue
                real = os.path.realpath(path)
                temp = f"{real}.{os.getpid()}.tmp"
                temps[path] = (temp, real)
                with open(temp, "w") as fh:
                    fh.write(text)
            for path, (temp, real) in temps.items():
                os.replace(temp, real)
            for path, fh in streams.items():
                fh.write(files[path])
    except OSError as exc:
        for temp, _ in temps.values():
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise OSError(exc.errno, exc.strerror, path) from None  # name the target, not its temporary


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = args.handler(args)
        _write_files(out.files)
    except (InputError, OSError) as exc:  # OSError: an unreadable input or unwritable output path
        _diag(f"error: {exc}")
        return 2
    except (ResourceError, MemoryError) as exc:
        _diag(f"resource limit: {str(exc) or 'out of memory'}")
        return 4
    sys.stdout.write(out.stdout)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
