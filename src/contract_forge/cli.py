"""Command-line front end.

Subcommands: solve, delta-solve, linear, oracle, transform, blackbox, gen,
verify.  Instances and contracts travel as JSON (see docs/formats.md);
results go to stdout as JSON wrapped in a provenance envelope, experiment
tables go to stdout as CSV with a '#'-prefixed provenance line, and anything
meant for humans goes to stderr.  Exit codes: 0 ok, 2 bad input, 3 `verify`
found the condition violated, 4 resource limits; stdout stays empty on 2
and 4.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
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
    Linear,
    Separable,
    TOL_IC,
    contract_from_dict,
    contract_to_dict,
    dumps,
    ic_slack,
    item_count,
    load_json,
    money_unit,
    normalize_notion,
    outcome_to_items,
    setting_from_dict,
    setting_to_dict,
)
from .oracle import min_ratio_fptas_stats, separation_from_dict
from .transform import delta_to_ic, delta_to_ir


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _read_json_source(path: Optional[str]) -> dict:
    if path is None or path == "-":
        return load_json(sys.stdin)
    with open(path) as fh:
        return load_json(fh)


def _load_setting(args):
    return setting_from_dict(_read_json_source(args.instance))


def _load_contract(path: str, setting):
    return contract_from_dict(_read_json_source(path), item_count(setting))


def _json_ready(value):
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return None
    return value


def _provenance(args, command: str, params: dict) -> dict:
    return {
        "tool": "contract-forge",
        "version": __version__,
        "command": command,
        "seed": args.seed,
        "params": params,
    }


def _emit_result(args, command: str, params: dict, result: dict) -> None:
    envelope = {**_provenance(args, command, params), "result": result}
    print(json.dumps(envelope, indent=2, sort_keys=True))


def _provenance_comment(args, command: str, params: dict) -> str:
    return "# " + json.dumps(_provenance(args, command, params), sort_keys=True)


def _write_contract(path: Optional[str], contract) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(dumps(contract) + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    setting = _load_setting(args)
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
    _emit_result(args, "solve", {"delta": args.delta, "notion": args.notion}, result)
    _write_contract(args.contract_out, solved.contract)
    return 0


def _cell(value):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return value


def _trace_rows(action: int, trace) -> list:
    return [[action, *map(_cell, dataclasses.astuple(row))] for row in trace]


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


def cmd_delta_solve(args) -> int:
    setting = _load_setting(args)
    params = {"delta": args.delta, "action": args.action}
    rows = []
    if args.action is None:
        solved = opt_contract_delta(setting, args.delta)
        result = {
            "payoff": solved.payoff,
            "action": solved.action,
            "contract": contract_to_dict(solved.contract),
            "per_action": [_delta_result_dict(row) for row in solved.per_action],
        }
        contract = solved.contract
        for row in solved.per_action:
            rows.extend(_trace_rows(row.action, row.trace))
    else:
        res = min_payment_delta(setting, args.action, args.delta)
        result = _delta_result_dict(res)
        contract = res.contract
        rows = _trace_rows(res.action, res.trace)
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["action", *(f.name for f in dataclasses.fields(TraceRow))])
            writer.writerows(rows)
    _emit_result(args, "delta-solve", params, result)
    _write_contract(args.contract_out, contract)
    return 0


def cmd_linear(args) -> int:
    setting = _load_setting(args)
    params = {"delta": args.delta, "gamma": args.gamma, "separable": args.separable}
    if args.separable:
        payments, action, payoff = optimal_separable(setting, delta=args.delta)
        contract = Separable(item_payments=payments)
        result = {
            "item_payments": list(payments),
            "action": action,
            "payoff": payoff,
            "contract": contract_to_dict(contract),
        }
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
            "contract": contract_to_dict(contract),
        }
    else:
        alpha, action, payoff = optimal_linear(setting, delta=args.delta)
        contract = Linear(alpha=alpha)
        result = {
            "alpha": alpha,
            "action": action,
            "payoff": payoff,
            "contract": contract_to_dict(contract),
        }
    _emit_result(args, "linear", params, result)
    _write_contract(args.contract_out, contract)
    return 0


def cmd_oracle(args) -> int:
    inst = separation_from_dict(_read_json_source(args.instance))
    res, stats = min_ratio_fptas_stats(inst, args.eps)
    result = {
        "method": "fptas",
        "eps": args.eps,
        "outcome": outcome_to_items(res.outcome),
        "ratio": res.ratio,
        "family_counts": list(stats.family_counts),
        "family_budget": stats.family_budget,
    }
    _emit_result(args, "oracle", {"eps": args.eps}, result)
    return 0


def cmd_transform(args) -> int:
    setting = _load_setting(args)
    contract = _load_contract(args.contract, setting)
    params = {"delta": args.delta, "to": args.to}
    if args.to == "ic":
        res = delta_to_ic(setting, contract, args.delta)
        result = {
            "contract": contract_to_dict(res.contract),
            "payoff_bound": res.payoff_bound,
            "source_action": res.source_action,
            "source_payoff": res.source_payoff,
        }
        out = res.contract
    else:
        lifted = delta_to_ir(setting, contract, args.delta)
        result = {"contract": contract_to_dict(lifted)}
        out = lifted
    _emit_result(args, "transform", params, result)
    _write_contract(args.contract_out, out)
    return 0


def cmd_blackbox(args) -> int:
    setting = _load_setting(args)
    params = {"eps": args.eps, "gamma": args.gamma, "trials": args.trials}
    rows = []
    for trial in range(args.trials):
        seed = args.seed + trial
        res = blackbox_contract(QueryOracle(setting, seed=seed), args.eps, args.gamma)
        slack = ic_slack(setting, res.contract, res.action, res.claimed_delta, ADDITIVE)
        rows.append(
            [seed, res.samples_per_action, repr(slack), repr(res.payoff_on_true), repr(res.opt_on_true)]
        )
    print(_provenance_comment(args, "blackbox", params))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["seed", "s", "ic_slack", "payoff", "opt"])
    writer.writerows(rows)
    return 0


def cmd_gen(args) -> int:
    kind = args.kind
    documented_contract = None
    if kind == "gap":
        setting = gen_gap(args.c, args.gamma)
    elif kind == "sat":
        setting = gen_sat(_read_formula(args))
    elif kind == "product2":
        setting = gen_product2(_read_formula(args), args.epsilon)
    elif kind == "productc":
        setting = gen_productc(_read_formula(args), args.c, args.epsilon)
    elif kind == "minmax":
        gadget = gen_minmax(args.a)
        setting = gadget.setting
        _diag(
            "minmax: full_set_prob=%r odds_root=%r margin=%r effort_cost=%r"
            % (gadget.full_set_prob, gadget.odds_root, gadget.margin, gadget.effort_cost)
        )
    elif kind == "a3":
        adv = gen_delta_advantage(args.epsilon, args.delta)
        setting = adv.setting
        documented_contract = adv.contract
        _diag(
            "a3: ic_opt=%r relaxed_payoff=%r action=%d"
            % (adv.ic_opt, adv.relaxed_payoff, adv.action)
        )
    elif kind == "f":
        gap = gen_separable_gap(args.delta)
        setting = gap.setting
        documented_contract = gap.contract
        _diag(
            "f: best_payoff=%r separable_payoff=%r action=%d"
            % (gap.best_payoff, gap.separable_payoff, gap.action)
        )
    elif kind == "random":
        setting = gen_random(args.n, args.m, seed=args.seed)
    else:  # argparse keeps us here only for known kinds
        raise InputError(f"unknown generator kind {kind!r}")
    payload = json.dumps(setting_to_dict(setting))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if args.contract_out and documented_contract is not None:
        _write_contract(args.contract_out, documented_contract)
    elif args.contract_out:
        raise InputError(f"generator {kind!r} has no documented contract to write")
    return 0


def _read_formula(args):
    if not getattr(args, "cnf", None):
        raise InputError("this generator needs a DIMACS file via --cnf")
    with open(args.cnf) as fh:
        return parse_dimacs(fh.read())


def cmd_verify(args) -> int:
    tol = TOL_IC if args.tol is None else args.tol
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"--tol must be a finite nonnegative number, got {tol}")
    setting = _load_setting(args)
    contract = _load_contract(args.contract, setting)
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
    _emit_result(
        args,
        "verify",
        {"delta": args.delta, "notion": notion, "action": args.action, "tol": tol},
        result,
    )
    if not ok:
        kind = normalize_notion(notion)
        _diag(f"verify: contract misses the {kind} {args.delta}-IC condition by {-slack}")
        return 3
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="contract-forge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"contract-forge {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed (where used)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "solve", parents=[common], help="optimal contract: one LP per action over its ratio front"
    )
    p.add_argument("--instance", help="instance JSON ('-' or omit for stdin)")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--notion", default="mult", choices=["mult", "add", "multiplicative", "additive"])
    p.add_argument("--contract-out", help="also write the winning contract JSON here")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser(
        "delta-solve", parents=[common], help="delta-IC solver by column generation"
    )
    p.add_argument("--instance", help="instance JSON ('-' or omit for stdin)")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--action", type=int, default=None, help="target a single action")
    p.add_argument("--trace", help="write the per-round column-generation trace CSV here")
    p.add_argument("--contract-out", help="also write the contract JSON here")
    p.set_defaults(handler=cmd_delta_solve)

    p = sub.add_parser("linear", parents=[common], help="linear / separable contracts")
    p.add_argument("--instance", help="instance JSON ('-' or omit for stdin)")
    p.add_argument("--delta", type=float, default=0.0)
    scheme = p.add_mutually_exclusive_group()
    scheme.add_argument("--gamma", type=float, default=None, help="run the welfare-share scheme")
    scheme.add_argument("--separable", action="store_true")
    p.add_argument("--contract-out", help="also write the contract JSON here")
    p.set_defaults(handler=cmd_linear)

    p = sub.add_parser("oracle", parents=[common], help="likelihood-ratio separation oracle")
    p.add_argument("--instance", help="separation JSON ('-' or omit for stdin)")
    p.add_argument("--eps", type=float, default=0.1)
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("transform", parents=[common], help="repair a delta-IC contract")
    p.add_argument("--instance", help="instance JSON ('-' or omit for stdin)")
    p.add_argument("--contract", required=True, help="contract JSON file")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--to", required=True, choices=["ic", "ir"])
    p.add_argument("--contract-out", help="also write the result contract JSON here")
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("blackbox", parents=[common], help="query-model pipeline trials (CSV)")
    p.add_argument("--instance", help="hidden instance JSON ('-' or omit for stdin)")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(handler=cmd_blackbox)

    # gen takes --seed on the kind subparsers only: argparse lets a
    # subparser's defaults clobber values the parent already parsed
    p = sub.add_parser("gen", help="instance generators")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("gap", parents=[common])
    g.add_argument("--c", type=int, required=True)
    g.add_argument("--gamma", type=float, required=True)
    g = gen_sub.add_parser("sat", parents=[common])
    g.add_argument("--cnf", required=True, help="DIMACS CNF file")
    g = gen_sub.add_parser("product2", parents=[common])
    g.add_argument("--cnf", required=True)
    g.add_argument("--epsilon", type=float, required=True)
    g = gen_sub.add_parser("productc", parents=[common])
    g.add_argument("--cnf", required=True)
    g.add_argument("--c", type=int, required=True)
    g.add_argument("--epsilon", type=float, required=True)
    g = gen_sub.add_parser("minmax", parents=[common])
    g.add_argument("--a", type=int, nargs="+", required=True, help="integer odds, each >= 3")
    g = gen_sub.add_parser("a3", parents=[common])
    g.add_argument("--epsilon", type=float, required=True)
    g.add_argument("--delta", type=float, required=True)
    g = gen_sub.add_parser("f", parents=[common])
    g.add_argument("--delta", type=float, required=True)
    g = gen_sub.add_parser("random", parents=[common])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    for g_parser in gen_sub.choices.values():
        g_parser.add_argument("-o", "--output", help="write instance JSON here instead of stdout")
        g_parser.add_argument("--contract-out", help="write the documented contract, if any")
        g_parser.set_defaults(handler=cmd_gen)

    p = sub.add_parser("verify", parents=[common], help="check a delta-IC condition")
    p.add_argument("--instance", help="instance JSON ('-' or omit for stdin)")
    p.add_argument("--contract", required=True)
    p.add_argument("--action", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--notion", choices=["mult", "add", "multiplicative", "additive"])
    p.add_argument(
        "--tol", type=float, default=None,
        help="slack tolerance, in units of the largest expected reward",
    )
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InputError as exc:
        _diag(f"error: {exc}")
        return 2
    except ResourceError as exc:
        _diag(f"resource limit: {exc}")
        return 4
    except FileNotFoundError as exc:
        _diag(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
