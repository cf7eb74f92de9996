"""Payment-minimizing delta-IC contracts by column generation.

Exact payment minimization needs one column per outcome, and a product
setting has 2^m outcomes.  The workaround implemented here trades a
multiplicative delta slack in the incentive constraints for polynomial running
time.  It solves exact.payment_lp, the exact solver's LP, over a few columns:
one rival per row, and per column an outcome S with its likelihood ratios
r_{i,S} = q_{i,S} / q_{target,S}, paying y_S = q_{target,S} x_S.  The base
column is the sure event (all ratios 1), so its row entry is -delta and its
y is a base payment made on every outcome.

Each round solves that LP over the base column and the outcomes found so
far, and prices an outcome column with the row duals mu >= 0: its reduced
cost 1 - mu . ((1+delta) - r_S) is negative exactly when the weights
lambda = (1+delta) mu have lambda . r_S < (1+delta) (sum(lambda) - 1).  The
approximate likelihood-ratio oracle (min_ratio_fptas with accuracy
parameter delta) looks for such an outcome; it is added and the loop
repeats.  When the oracle finds none, its guarantee makes lambda exactly
feasible for the dual of the ordinary (delta=0) LP, so gamma_star, (1+delta)
times the restricted minimum, is at most the exact IC minimum payment.  The
contract is that last LP's primal: payments y_S / q_{target,S} and the base
y, a multiplicatively delta-IC contract paying gamma_star / (1+delta).

The oracle cost grows with m, with 1/delta and with the number of actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InputError, ResourceError
from .exact import OptContractResult, best_action, payment_lp
from .lpcore import OPTIMAL
from .model import (
    MULTIPLICATIVE,
    ProductSetting,
    Sparse,
    expected_payment,
    make_sparse,
    money_unit,
    outcome_probabilities,
    verify_delta_ic,
)
from .oracle import OracleResult, SeparationInstance, min_ratio_fptas

_MAX_ROUNDS = 500


@dataclass(frozen=True)
class TraceRow:
    """One round of the column-generation loop."""

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
    """Instance data and the column pool of one column-generation loop."""

    def __init__(self, setting: ProductSetting, action: int, delta: float):
        self.setting = setting
        self.delta = delta
        self.action = action
        self.others = [i for i in range(setting.n) if i != action]
        self.cost_gaps = setting.costs[self.others] - setting.costs[action]
        self.oracle_eps = min(delta, 1.0)
        # column pool: outcome bitmask -> (target probability, likelihood ratios over self.others)
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

    def restricted_lp(self) -> tuple[float, np.ndarray, np.ndarray]:
        """exact.payment_lp over the base column and the pooled columns.

        Returns (1+delta) times the minimum, the weights lambda = (1+delta) mu
        built from the row duals mu >= 0, and the primal (base payment first,
        then one expected payment per pooled outcome in pool order).
        """
        columns = [np.ones(len(self.others))] + [ratios for _, ratios in self.pool.values()]
        sol = payment_lp(np.column_stack(columns), self.cost_gaps, self.delta, MULTIPLICATIVE)
        if sol.status != OPTIMAL:
            raise ResourceError(f"restricted payment LP ended {sol.status}")
        one = 1.0 + self.delta
        lam = one * np.maximum(-sol.dual, 0.0)
        return one * sol.objective_value, lam, np.maximum(sol.primal, 0.0)

    def separate(self, lam: np.ndarray) -> tuple[Optional[int], float, float]:
        """Look for an outcome column with negative reduced cost at lam.

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
        # a pool outcome re-reported as priced in is LP-tolerance noise, not a cut
        return None, res.ratio, threshold

    def run(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Add columns until the oracle prices none in; returns the last LP's solution."""
        for it in range(_MAX_ROUNDS):
            value, lam, primal = self.restricted_lp()
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
                return value, lam, primal
            self.add_cut(outcome)
        raise ResourceError(f"cut generation did not settle within {_MAX_ROUNDS} rounds")


def min_payment_delta(setting: ProductSetting, action: int, delta: float) -> DeltaSolveResult:
    """Cheapest-found contract that multiplicatively delta-incentivizes `action`.

    The expected payment is gamma_star / (1+delta), and gamma_star is at most
    the exact (delta=0) minimum whenever that minimum is finite.  Payments
    come out in the setting's own unit of money: lpcore scales the LPs, and
    the final incentive check allows 1e-5 money units (model.money_unit).
    """
    if not isinstance(setting, ProductSetting):
        raise InputError("min_payment_delta needs a product setting")
    if not (0 <= action < setting.n):
        raise InputError(f"action index {action} outside range [0, {setting.n})")
    if not (delta > 0.0):
        raise InputError("delta must be positive; use exact.min_payment for delta=0")
    if 1.0 + delta == 1.0:  # the oracle's eps = delta would round its buckets to 1
        raise InputError(f"delta={delta} is finer than float64 resolves at 1")
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
    value, lam, primal = solver.run()
    # the base payment y_0, then y_S / q_target,S per pooled outcome
    payments = {mask: y / q_ref for (mask, (q_ref, _)), y in zip(solver.pool.items(), primal[1:])}
    contract = make_sparse(primal[0], payments, unit=money_unit(setting))
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
    return best_action(setting, [min_payment_delta(setting, i, delta) for i in range(setting.n)])
