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
contract is that last LP's primal, read off by exact.read_contract: payments
y_S / q_{target,S} and the base y, a multiplicatively delta-IC contract
paying gamma_star / (1+delta).  The master LP and its read-off live in
exact; this module only grows the column pool and prices columns.

The oracle cost grows with m, with 1/delta and with the number of actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InputError, ResourceError
from .exact import OptContractResult, best_action, payment_lp, read_contract
from .lpcore import OPTIMAL
from .model import (
    MULTIPLICATIVE,
    ProductSetting,
    Sparse,
    _check_action,
    check_delta,
    check_resolves_at_one,
    expected_payment,
    outcome_probabilities,
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


def min_payment_delta(setting: ProductSetting, action: int, delta: float) -> DeltaSolveResult:
    """Cheapest-found contract that multiplicatively delta-incentivizes `action`.

    The expected payment is gamma_star / (1+delta), and gamma_star is at most
    the exact (delta=0) minimum whenever that minimum is finite.  Payments
    come out in the setting's own unit of money: lpcore scales the LPs, and
    exact.read_contract checks the contract as it does for exact.min_payment.
    """
    if not isinstance(setting, ProductSetting):
        raise InputError("min_payment_delta needs a product setting")
    _check_action(setting, action)
    check_delta(delta)
    if not (delta > 0.0):
        raise InputError("delta must be positive; use exact.min_payment for delta=0")
    check_resolves_at_one("delta", delta)  # the oracle's eps = delta would round its buckets to 1

    pool, trace, value, lam, primal = _generate_columns(setting, action, delta)
    outcomes = np.fromiter(pool, dtype=np.int64, count=len(pool))
    contract = read_contract(setting, action, outcomes, primal[1:], delta, MULTIPLICATIVE, primal[0])
    return DeltaSolveResult(
        action=action,
        contract=contract,
        expected_payment=expected_payment(setting, action, contract),
        gamma_star=value,
        cut_outcomes=tuple(sorted(pool)),
        dual_weights=tuple(float(v) for v in lam),
        trace=tuple(trace),
    )


def _generate_columns(
    setting: ProductSetting, action: int, delta: float
) -> tuple[dict[int, np.ndarray], list[TraceRow], float, np.ndarray, np.ndarray]:
    """Grow the column pool until the oracle prices no outcome in.

    Returns the pool (outcome bitmask -> likelihood ratios over the rivals),
    the trace, and the last LP's (1+delta) * minimum, lambda and primal (the
    base payment, then one expected payment per pooled outcome in pool order).
    """
    one = 1.0 + delta
    rivals = np.arange(setting.n) != action
    cost_gaps = setting.costs[rivals] - setting.costs[action]
    pool: dict[int, np.ndarray] = {}
    # oracle answers by normalized weights; with two actions every query is the same
    answers: dict[tuple, OracleResult] = {}
    trace: list[TraceRow] = []
    for it in range(_MAX_ROUNDS):
        columns = [np.ones(setting.n - 1), *pool.values()]
        sol = payment_lp(np.column_stack(columns), cost_gaps, delta, MULTIPLICATIVE)
        if sol.status != OPTIMAL:
            raise ResourceError(f"restricted payment LP ended {sol.status}")
        value = one * sol.objective_value
        lam = one * np.maximum(-sol.dual, 0.0)
        # no outcome priced in means lam survives the oracle, which certifies
        # exact feasibility for the unstrengthened dual
        total = float(lam.sum())
        outcome, ratio, threshold = None, math.nan, math.nan
        if total > 1.0 + 1e-12:
            threshold = one * (1.0 - 1.0 / total)
            weights = tuple(float(v) / total for v in lam)
            res = answers.get(weights)
            if res is None:
                inst = SeparationInstance(
                    weights=weights, mixtures=setting.probs[rivals], reference=setting.probs[action]
                )
                res = answers[weights] = min_ratio_fptas(inst, eps=min(delta, 1.0))
            ratio = res.ratio
            # a pool outcome re-reported as priced in is LP-tolerance noise, not a cut
            if res.ratio < threshold * (1.0 - 1e-12) and res.outcome not in pool:
                outcome = res.outcome
        trace.append(
            TraceRow(
                iteration=it,
                restricted_value=value,
                sum_weights=total,
                cut_outcome=outcome,
                cut_ratio=ratio,
                threshold=threshold,
                verdict="feasible" if outcome is None else "cut",
            )
        )
        if outcome is None:
            return pool, trace, value, lam, np.maximum(sol.primal, 0.0)
        q = outcome_probabilities(setting, [outcome])[:, 0]
        if q[action] <= 0.0:
            raise ResourceError("separation returned an outcome the target never produces")
        pool[outcome] = q[rivals] / q[action]
    raise ResourceError(f"cut generation did not settle within {_MAX_ROUNDS} rounds")


def opt_contract_delta(setting: ProductSetting, delta: float) -> OptContractResult:
    """Best action to delta-incentivize, by running min_payment_delta per action.

    The winning payoff is at least the exact IC optimum.  Per-action
    DeltaSolveResults ride along in per_action.
    """
    return best_action(setting, [min_payment_delta(setting, i, delta) for i in range(setting.n)])
