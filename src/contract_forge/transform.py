"""Repairs for delta-IC contracts: exact IC via interpolation, IR via a lift.

Both start from a contract that delta-incentivizes some action additively.
Mixing a (1 - sqrt(delta)) share of the original payments with a sqrt(delta)
share of the full-transfer linear contract aligns the agent with the
principal closely enough that whatever the agent now best-responds with, the
principal keeps (1 - sqrt(delta)) of the old payoff minus (sqrt(delta) -
delta).  Raising every payment by delta restores participation (utility >= 0)
at a cost of exactly delta, unless the payoff was below delta to begin with,
in which case paying nothing is better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .errors import InputError, ResourceError
from .model import (
    Contract,
    Linear,
    Mixed,
    Setting,
    Sparse,
    best_response,
    check_delta,
    is_normalized,
    money_unit,
    principal_payoff,
)

# In money units (model.money_unit): roundoff allowed below the payoff bound.
_TOL_BOUND = 1e-7


@dataclass(frozen=True)
class IcTransformResult:
    contract: Contract
    payoff_bound: float
    source_action: int
    source_payoff: float


def designated_action(setting: Setting, contract: Contract, delta: float) -> Tuple[int, float]:
    """The additively delta-IC action the agent is taken to play: best for the
    principal, lowest index on ties.  Returns (action, principal payoff)."""
    choice = best_response(setting, contract, delta)
    return choice.action, choice.payoff


def _scale_contract(contract: Contract, factor: float) -> Tuple[Sparse, float]:
    """Split factor * contract into a sparse part and a linear coefficient."""
    if isinstance(contract, Sparse):
        return (
            Sparse(base=factor * contract.base,
                   payments={s: factor * p for s, p in contract.payments.items()}),
            0.0,
        )
    if isinstance(contract, Linear):
        return Sparse(), factor * contract.alpha
    if isinstance(contract, Mixed):
        sparse, _ = _scale_contract(contract.sparse, factor)
        return sparse, factor * contract.alpha
    raise InputError(
        f"{type(contract).__name__} contracts do not split into outcome payments and a "
        "linear share; convert to outcome payments first"
    )


def delta_to_ic(setting: Setting, contract: Contract, delta: float) -> IcTransformResult:
    """Blend with the full-transfer linear contract to reach exact IC.

    Returns the blended contract and the guaranteed principal payoff
    (1 - sqrt(delta)) * Pi - (sqrt(delta) - delta), where Pi is the payoff of
    the designated delta-IC action under the input contract.  Needs delta < 1
    and a normalized setting for the additive slack to mean anything.
    """
    if not (0.0 <= delta < 1.0):
        raise InputError(f"delta must lie in [0, 1), got {delta}")
    if not is_normalized(setting):
        raise InputError("the payoff guarantee needs max expected reward <= 1")
    action, payoff = designated_action(setting, contract, delta)
    if delta == 0.0:
        return IcTransformResult(
            contract=contract, payoff_bound=payoff, source_action=action, source_payoff=payoff
        )
    root = math.sqrt(delta)
    sparse, alpha = _scale_contract(contract, 1.0 - root)
    blended: Contract = Mixed(sparse=sparse, alpha=alpha + root)
    if not sparse.payments and sparse.base == 0.0:
        blended = Linear(alpha=alpha + root)
    bound = (1.0 - root) * payoff - (root - delta)
    realized = principal_payoff(setting, best_response(setting, blended).action, blended)
    if realized < bound - _TOL_BOUND * money_unit(setting):
        raise ResourceError(
            f"blended contract fell short of its guarantee: {realized} < {bound}"
        )
    return IcTransformResult(
        contract=blended, payoff_bound=bound, source_action=action, source_payoff=payoff
    )


def delta_to_ir(setting: Setting, contract: Contract, delta: float) -> Contract:
    """Make a delta-IC contract also individually rational, losing <= delta.

    A uniform extra delta on every outcome leaves incentives untouched and
    lifts the designated action's utility out of the [-delta, 0) range.  When
    the principal's payoff cannot cover the lift, the all-zero contract is the
    better deal.
    """
    check_delta(delta)
    action, payoff = designated_action(setting, contract, delta)
    if payoff <= delta:
        return Sparse()
    sparse, alpha = _scale_contract(contract, 1.0)
    lifted = Sparse(base=sparse.base + delta, payments=sparse.payments)
    return lifted if isinstance(contract, Sparse) else Mixed(sparse=lifted, alpha=alpha)
