"""Exact minimum-payment and optimal-contract solvers by direct LP.

The LP pays y_S = q_{a,S} x_S on outcomes S the target action a reaches, so
each column holds the rivals' likelihood ratios q_{k,S} / q_{a,S} and costs
1. A column whose ratios are all at least another's can be swapped for it at
no cost, so a product setting needs only the Pareto front of its ratio
vectors (oracle.ratio_front), not its 2^m outcomes; an explicit setting
uses each of its outcomes with q_{a,S} > 0. A product setting whose front
passes model.FRONT_CAP is enumerated instead if it has at most
model.M_MAX_ENUMERATE items. delta_solver solves the same LP (payment_lp)
over the outcome columns its separation oracle prices in, and both read
their contract off the LP's primal with read_contract.

The LP is written in the setting's own unit of money; lpcore.solve_lp scales
it. Picking the winning action counts payoffs within model.TOL_TIE money
units (model.money_unit) of the best as tied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Union

import numpy as np

from .errors import CapacityError, InputError
from .lpcore import INFEASIBLE, OPTIMAL, LPSolution, solve_lp
from .model import (
    M_MAX_ENUMERATE,
    MULTIPLICATIVE,
    TOL_TIE,
    ProductSetting,
    Setting,
    Sparse,
    _check_action,
    expected_rewards,
    make_sparse,
    money_unit,
    normalize_notion,
    outcome_probabilities,
    product_to_explicit,
)
from .oracle import ratio_front

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
) -> MinPaymentResult:
    """Cheapest contract under which `action` is a (delta-)best response.

    Minimizes the expected payment at `action` subject to one inequality per
    deviating action; a basic optimum pays on at most n-1 outcomes.
    """
    notion = normalize_notion(notion)
    if not delta >= 0.0:
        raise InputError("delta must be nonnegative")
    _check_action(setting, action)
    rivals = np.arange(setting.n) != action
    outcomes, ratios = _ratio_columns(setting, action, rivals)
    if not np.isfinite(ratios).all():
        raise CapacityError(f"a likelihood ratio against action {action} overflows float64")
    sol = payment_lp(ratios, setting.costs[rivals] - setting.costs[action], delta, notion)
    if sol.status == INFEASIBLE:
        return MinPaymentResult(
            action=action, expected_payment=math.inf, contract=None, status=NOT_IMPLEMENTABLE
        )
    if sol.status != OPTIMAL:
        raise InputError(f"unexpected LP status {sol.status} for a nonnegative objective")
    return MinPaymentResult(
        action=action,
        expected_payment=float(sol.objective_value),
        contract=read_contract(setting, action, outcomes, sol.primal),
        status=IMPLEMENTABLE,
    )


def read_contract(
    setting: Setting, action: int, outcomes: np.ndarray, primal: np.ndarray, base: float = 0.0
) -> Sparse:
    """The contract a payment-LP primal describes: y_S / q_{a,S} on each paid outcome, plus base.

    primal[k] is the expected payment y_S on outcome S = outcomes[k].
    """
    paid = np.flatnonzero(primal > 0.0)
    q_paid = outcome_probabilities(setting, outcomes[paid])[action]
    with np.errstate(divide="ignore", over="ignore"):
        pay = primal[paid] / q_paid
    if not (np.isfinite(pay) & (pay > 0.0)).all():
        raise CapacityError(f"a payment for action {action} falls outside float64's range")
    return make_sparse(base, dict(zip(outcomes[paid], pay)), unit=money_unit(setting))


def payment_lp(ratios: np.ndarray, cost_gaps: np.ndarray, delta: float, notion: str) -> LPSolution:
    """Solve min sum_S y_S over columns of rivals-by-columns likelihood ratios.

    y_S = q_{a,S} x_S is the target's expected payment on column S, and each
    rival k's row keeps it from gaining by deviating: sum_S (r_{k,S} - (1+delta)) y_S
    <= c_k - c_a for the multiplicative notion, sum_S (r_{k,S} - 1) y_S
    <= c_k - c_a + delta for the additive one. A column of ratios 1 is the
    sure event: a base payment made on every outcome.
    """
    if notion == MULTIPLICATIVE:
        rows = ratios - (1.0 + delta)
    else:
        rows = ratios - 1.0
        cost_gaps = cost_gaps + delta
    return solve_lp(np.ones(ratios.shape[1]), rows, cost_gaps)


def _ratio_columns(setting: Setting, action: int, rivals: np.ndarray):
    """(outcomes, rivals-by-outcomes likelihood ratios) the LP pays on."""
    if isinstance(setting, ProductSetting):
        try:
            front = ratio_front(setting.probs[rivals], setting.probs[action])
            return front.outcomes, front.ratios
        except CapacityError:
            if setting.m > M_MAX_ENUMERATE:
                raise
        setting = product_to_explicit(setting)
    q = setting.dist[action]
    outcomes = np.flatnonzero(q > 0.0)
    with np.errstate(over="ignore"):
        return outcomes, setting.dist[rivals][:, outcomes] / q[outcomes]


def opt_contract(
    setting: Setting,
    delta: float = 0.0,
    notion: str = MULTIPLICATIVE,
) -> OptContractResult:
    """Best payoff over all (delta-)implementable actions; ties to lowest index."""
    per_action = [min_payment(setting, i, delta=delta, notion=notion) for i in range(setting.n)]
    return best_action(setting, per_action)


def best_action(
    setting: Setting, per_action: Union[List[MinPaymentResult], List[DeltaSolveResult]]
) -> OptContractResult:
    """The action whose cheapest contract leaves the principal the most.

    per_action[i] holds action i's expected_payment (inf if it cannot be
    implemented) and contract.  Payoffs within model.TOL_TIE money units of
    the best tie, and ties go to the lowest index.
    """
    rewards = expected_rewards(setting)
    payoffs = [float(rewards[i]) - res.expected_payment for i, res in enumerate(per_action)]
    cutoff = max(payoffs) - TOL_TIE * money_unit(setting)
    winner = next(i for i, p in enumerate(payoffs) if p >= cutoff)
    if payoffs[winner] == -math.inf:
        raise InputError("no action is implementable (free action missing?)")
    return OptContractResult(
        payoff=payoffs[winner],
        action=winner,
        contract=per_action[winner].contract,
        per_action=per_action,
    )


def first_best(setting: Setting) -> float:
    """Full-welfare benchmark: the largest expected reward minus cost."""
    return float((expected_rewards(setting) - setting.costs).max())
