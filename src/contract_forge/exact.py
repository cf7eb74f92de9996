"""Exact minimum-payment and optimal-contract solvers by direct LP.

These enumerate the full outcome space (product settings are expanded, capped
at 2^20 outcomes), so they serve as ground truth for the approximation
modules rather than as the scalable path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Union

import numpy as np

from .errors import InputError
from .lpcore import INFEASIBLE, LESS, OPTIMAL, LinearProgram, LPConfig, solve_lp
from .model import (
    ADDITIVE,
    MULTIPLICATIVE,
    TOL_TIE,
    ExplicitSetting,
    Setting,
    Sparse,
    as_explicit,
    expected_reward,
    make_sparse,
    normalize_notion,
)

if TYPE_CHECKING:  # delta_solver imports this module
    from .delta_solver import DeltaSolveResult

IMPLEMENTABLE = "implementable"
NOT_IMPLEMENTABLE = "not-implementable"


@dataclass
class MinPaymentResult:
    action: int
    expected_payment: float
    contract: Optional[Sparse]
    status: str


@dataclass
class OptContractResult:
    payoff: float
    action: int
    contract: Sparse
    per_action: Union[List[MinPaymentResult], List[DeltaSolveResult]]


def min_payment(
    setting: Setting,
    action: int,
    delta: float = 0.0,
    notion: str = MULTIPLICATIVE,
    config: Optional[LPConfig] = None,
) -> MinPaymentResult:
    """Cheapest contract under which `action` is a (delta-)best response.

    Minimizes the expected payment at `action` subject to one inequality per
    deviating action; payments live on every outcome, so a basic optimum has
    at most n-1 nonzero entries.
    """
    notion = normalize_notion(notion)
    if delta < 0:
        raise InputError("delta must be nonnegative")
    explicit = as_explicit(setting)
    if not (0 <= action < explicit.n):
        raise InputError(f"action index {action} outside range [0, {explicit.n})")
    dist = np.asarray(explicit.dist)
    q_i = dist[action]
    c_i = explicit.costs[action]
    lp = LinearProgram(objective=q_i.tolist())
    for other in range(explicit.n):
        if other == action:
            continue
        if notion == MULTIPLICATIVE:
            row = dist[other] - (1.0 + delta) * q_i
            bound = explicit.costs[other] - c_i
        else:
            row = dist[other] - q_i
            bound = explicit.costs[other] - c_i + delta
        lp.add_row(row.tolist(), LESS, bound)
    sol = solve_lp(lp, config)
    if sol.status == INFEASIBLE:
        return MinPaymentResult(
            action=action, expected_payment=math.inf, contract=None, status=NOT_IMPLEMENTABLE
        )
    if sol.status != OPTIMAL:
        raise InputError(f"unexpected LP status {sol.status} for a nonnegative objective")
    contract = make_sparse(0.0, {s: sol.primal[s] for s in range(explicit.num_outcomes)})
    return MinPaymentResult(
        action=action,
        expected_payment=float(sol.objective_value),
        contract=contract,
        status=IMPLEMENTABLE,
    )


def opt_contract(
    setting: Setting,
    delta: float = 0.0,
    notion: str = MULTIPLICATIVE,
    config: Optional[LPConfig] = None,
) -> OptContractResult:
    """Best payoff over all (delta-)implementable actions; ties to lowest index."""
    explicit = as_explicit(setting)
    per_action = [
        min_payment(explicit, i, delta=delta, notion=notion, config=config)
        for i in range(explicit.n)
    ]
    payoffs = [
        expected_reward(explicit, i) - res.expected_payment if res.status == IMPLEMENTABLE else -math.inf
        for i, res in enumerate(per_action)
    ]
    best = max(payoffs)
    if best == -math.inf:
        raise InputError("no action is implementable (free action missing?)")
    winner = min(i for i, p in enumerate(payoffs) if p >= best - TOL_TIE)
    return OptContractResult(
        payoff=payoffs[winner],
        action=winner,
        contract=per_action[winner].contract,
        per_action=per_action,
    )


def first_best(setting: Setting) -> float:
    """Full-welfare benchmark: the largest expected reward minus cost."""
    return max(expected_reward(setting, i) - setting.costs[i] for i in range(setting.n))
