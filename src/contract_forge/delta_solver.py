"""Payment-minimizing delta-IC contracts via dual cutting planes.

Exact payment minimization needs one linear constraint per outcome, and a
product setting has 2^m outcomes.  The workaround implemented here trades a
multiplicative delta slack in the incentive constraints for polynomial running
time.  Write the payment on outcome S as x_S / q_{target,S} and add a base
payment b paid on every outcome.  The payment LP is then

    min (1+delta) (sum_S x_S + b)
    s.t. sum_S ((1+delta) - r_{i,S}) x_S + delta b >= c_target - c_i  (i != target)

with r_{i,S} = q_{i,S} / q_{target,S}; its optimum is (1+delta) times the
expected payment.  Its dual has one variable per rival action, one constraint
lambda . ((1+delta) - r_S) <= 1+delta per outcome, and the row
sum(lambda) <= (1+delta)/delta that comes from b.

A single Kelley loop maximizes that dual: solve it over the outcomes found so
far, ask the approximate likelihood-ratio oracle (min_ratio_fptas with
accuracy parameter delta) for an outcome whose constraint the maximizer
violates, add it and repeat.  When the oracle finds none, its guarantee makes
the maximizer exactly feasible for the ordinary (delta=0) dual, so the dual
value is at most the exact IC minimum payment.  The contract is read from the
multipliers of that same last LP: they solve the payment LP restricted to the
found outcomes, so the contract multiplicatively delta-incentivizes the target
and pays the dual value over 1+delta, below the exact IC minimum with no
search tolerance.

The dual lives in n-1 dimensions, so n is capped small; the oracle cost grows
with m and with 1/delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InputError, ResourceError
from .exact import OptContractResult
from .lpcore import LESS, LinearProgram, OPTIMAL, solve_lp
from .model import (
    MULTIPLICATIVE,
    TOL_TIE,
    ProductSetting,
    Sparse,
    expected_payment,
    expected_rewards,
    make_sparse,
    money_unit,
    outcome_probabilities,
    verify_delta_ic,
)
from .oracle import OracleResult, SeparationInstance, min_ratio_fptas

MAX_ACTIONS = 6

_MAX_ROUNDS = 500


@dataclass(frozen=True)
class TraceRow:
    """One round of the cutting-plane loop."""

    iteration: int
    restricted_value: float
    sum_weights: float
    cut_outcome: Optional[int]
    cut_ratio: float
    threshold: float
    verdict: str  # "cut" or "feasible"


@dataclass(frozen=True)
class DeltaSolveResult:
    action: int
    contract: Sparse
    expected_payment: float
    gamma_star: float  # certified dual value: (1+delta) * expected_payment <= exact IC minimum
    cut_outcomes: Tuple[int, ...]
    dual_weights: Tuple[float, ...]
    trace: Tuple[TraceRow, ...]


class _Solver:
    """Instance data and the cut pool of one cutting-plane loop."""

    def __init__(self, setting: ProductSetting, action: int, delta: float):
        self.setting = setting
        self.delta = delta
        self.action = action
        self.others = [i for i in range(setting.n) if i != action]
        self.obj = setting.costs[action] - setting.costs[self.others]
        self.oracle_eps = min(delta, 1.0)
        # cut pool: outcome bitmask -> (target probability, likelihood ratios over self.others)
        self.pool: dict[int, tuple[float, np.ndarray]] = {}
        # oracle answers by normalized weights; with two actions every query is the same
        self.answers: dict[tuple, OracleResult] = {}
        self.trace: list[TraceRow] = []

    def add_cut(self, mask: int) -> None:
        q = outcome_probabilities(self.setting, [mask])[:, 0]
        q_ref = float(q[self.action])
        if q_ref <= 0.0:
            raise ResourceError("separation returned an outcome the target never produces")
        self.pool[mask] = (q_ref, q[self.others] / q_ref)

    def restricted_dual(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Max the dual over the pooled cuts and the base-payment row.

        Returns the value, the maximizer and the row multipliers (one per
        pooled outcome in pool order, then the base-payment row).
        """
        one = 1.0 + self.delta
        rows = [one - ratios for _, ratios in self.pool.values()]
        rhs = [one] * len(rows)
        rows.append(np.ones(len(self.others)))
        rhs.append(one / self.delta)
        lp = LinearProgram(
            objective=self.obj, sense="max", rows=rows, relations=[LESS] * len(rows), rhs=rhs
        )
        sol = solve_lp(lp)
        if sol.status != OPTIMAL:
            raise ResourceError(f"restricted dual solve ended {sol.status}")
        return float(sol.objective_value), np.maximum(sol.primal, 0.0), np.maximum(sol.dual, 0.0)

    def separate(self, lam: np.ndarray) -> tuple[Optional[int], float, float]:
        """Look for a pooled-LP constraint violated at lam.

        Returns (outcome or None, exact ratio at the outcome, violation
        threshold).  No outcome means lam survives the oracle, which certifies
        exact feasibility for the unstrengthened dual.
        """
        total = float(lam.sum())
        if total <= 1.0 + 1e-12:
            return None, math.nan, math.nan
        threshold = (1.0 + self.delta) * (1.0 - 1.0 / total)
        weights = tuple(float(v) / total for v in lam)
        res = self.answers.get(weights)
        if res is None:
            probs = self.setting.probs
            inst = SeparationInstance(
                weights=weights, mixtures=probs[self.others], reference=probs[self.action]
            )
            res = self.answers[weights] = min_ratio_fptas(inst, eps=self.oracle_eps)
        if res.ratio < threshold * (1.0 - 1e-12) and res.outcome not in self.pool:
            return res.outcome, res.ratio, threshold
        # a pool outcome re-reported as violated is LP-tolerance noise, not a cut
        return None, res.ratio, threshold

    def run(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Cut until the oracle passes the maximizer; returns the last LP's solution."""
        for it in range(_MAX_ROUNDS):
            value, lam, multipliers = self.restricted_dual()
            outcome, ratio, threshold = self.separate(lam)
            self.trace.append(
                TraceRow(
                    iteration=it,
                    restricted_value=value,
                    sum_weights=float(lam.sum()),
                    cut_outcome=outcome,
                    cut_ratio=ratio,
                    threshold=threshold,
                    verdict="feasible" if outcome is None else "cut",
                )
            )
            if outcome is None:
                return value, lam, multipliers
            self.add_cut(outcome)
        raise ResourceError(f"cut generation did not settle within {_MAX_ROUNDS} rounds")

    def contract(self, multipliers: np.ndarray) -> Sparse:
        """Payments from the restricted dual's multipliers."""
        payments = {
            mask: y / q_ref for (mask, (q_ref, _)), y in zip(self.pool.items(), multipliers)
        }
        return make_sparse(multipliers[-1] / self.delta, payments, unit=money_unit(self.setting))


def min_payment_delta(setting: ProductSetting, action: int, delta: float) -> DeltaSolveResult:
    """Cheapest-found contract that multiplicatively delta-incentivizes `action`.

    The expected payment is gamma_star / (1+delta), and gamma_star is at most
    the exact (delta=0) minimum whenever that minimum is finite.  Payments
    come out in the setting's own unit of money: lpcore scales the LPs, and
    the final incentive check allows 1e-5 money units (model.money_unit).
    """
    if not isinstance(setting, ProductSetting):
        raise InputError("min_payment_delta needs a product setting")
    if setting.n > MAX_ACTIONS:
        raise InputError(f"at most {MAX_ACTIONS} actions supported (cuts live per action pair)")
    if not (0 <= action < setting.n):
        raise InputError(f"action index {action} outside range [0, {setting.n})")
    if not (delta > 0.0):
        raise InputError("delta must be positive; use exact.min_payment for delta=0")
    if setting.n == 1:
        return DeltaSolveResult(
            action=0,
            contract=Sparse(),
            expected_payment=0.0,
            gamma_star=0.0,
            cut_outcomes=(),
            dual_weights=(),
            trace=(),
        )

    solver = _Solver(setting, action, delta)
    value, lam, multipliers = solver.run()
    contract = solver.contract(multipliers)
    if not verify_delta_ic(setting, contract, action, delta, MULTIPLICATIVE, tol=1e-5):
        raise ResourceError("extracted contract failed the incentive check")
    return DeltaSolveResult(
        action=action,
        contract=contract,
        expected_payment=expected_payment(setting, action, contract),
        gamma_star=value,
        cut_outcomes=tuple(sorted(solver.pool)),
        dual_weights=tuple(float(v) for v in lam),
        trace=tuple(solver.trace),
    )


def opt_contract_delta(setting: ProductSetting, delta: float) -> OptContractResult:
    """Best action to delta-incentivize, by running min_payment_delta per action.

    The winning payoff is at least the exact IC optimum.  Per-action
    DeltaSolveResults ride along in per_action.
    """
    results = [min_payment_delta(setting, i, delta) for i in range(setting.n)]
    rewards = expected_rewards(setting)
    payoffs = [float(rewards[i]) - res.expected_payment for i, res in enumerate(results)]
    best = max(payoffs)
    cutoff = best - TOL_TIE * money_unit(setting)
    action = next(i for i, v in enumerate(payoffs) if v >= cutoff)
    return OptContractResult(
        payoff=payoffs[action],
        action=action,
        contract=results[action].contract,
        per_action=results,
    )
