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
    MULTIPLICATIVE,
    TOL_TIE,
    Setting,
    Sparse,
    as_explicit,
    expected_rewards,
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
    q_i = explicit.dist[action]
    rivals = np.arange(explicit.n) != action
    bounds = explicit.costs[rivals] - explicit.costs[action]
    if notion == MULTIPLICATIVE:
        rows = explicit.dist[rivals] - (1.0 + delta) * q_i
    else:
        rows = explicit.dist[rivals] - q_i
        bounds = bounds + delta
    # payments scale with the bounds; solving in units of the largest one
    # keeps the simplex tolerances independent of the unit of money
    scale = float(np.abs(bounds).max(initial=0.0)) or 1.0
    lp = LinearProgram(
        objective=q_i, rows=rows, relations=[LESS] * len(rows), rhs=bounds / scale
    )
    sol = solve_lp(lp, config)
    if sol.status == INFEASIBLE:
        return MinPaymentResult(
            action=action, expected_payment=math.inf, contract=None, status=NOT_IMPLEMENTABLE
        )
    if sol.status != OPTIMAL:
        raise InputError(f"unexpected LP status {sol.status} for a nonnegative objective")
    return MinPaymentResult(
        action=action,
        expected_payment=float(sol.objective_value) * scale,
        contract=make_sparse(0.0, dict(enumerate(sol.primal * scale))),
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
    rewards = expected_rewards(explicit)
    payoffs = [
        float(rewards[i]) - res.expected_payment if res.status == IMPLEMENTABLE else -math.inf
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
    return float((expected_rewards(setting) - setting.costs).max())
