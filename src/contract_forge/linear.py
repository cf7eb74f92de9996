"""Linear and separable contracts.

A linear contract hands the agent a fixed fraction alpha of the reward, so the
agent's expected utility from action i is the line alpha * R_i - c_i.  The
upper envelope of those lines over alpha in [0, 1] tells us which action a
given alpha buys.  Everything here builds on that picture: the exact optimal
linear contract pays some action's cheapest incentivizing share, and every
action's share comes off one table of pairwise bounds, which the envelope
reads at delta = 0; the optimal separable contract is one small LP per
action, and approx_linear_delta trades an additive delta of incentive slack
for a (1-gamma)/(kappa+1) share of the first-best welfare, using only
kappa+2-ish candidate alphas picked along the envelope.  Of two actions with
tied expected reward the cheaper one is bought, and of identical lines the
lowest index, by the optimal contract and the envelope alike (unless a delta
at or above their cost gap lets the costlier one tie it at a lower index).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

import numpy as np

from .errors import InputError
from .lpcore import OPTIMAL, solve_lp
from .model import (
    TOL_TIE, Setting, _item_marginals, check_delta, check_resolves_at_one, expected_rewards,
    is_normalized, money_unit,
)

_BLOCK = 1 << 16  # entries per block of the rivals table, so memory stays linear in n


@dataclass(frozen=True)
class EnvelopeSegment:
    action: int
    left: float
    right: float


@dataclass(frozen=True)
class Envelope:
    """Best-response regions of alpha, ordered left to right."""

    segments: Tuple[EnvelopeSegment, ...]

    @property
    def breakpoints(self) -> Tuple[float, ...]:
        return tuple(seg.left for seg in self.segments)

    @property
    def actions(self) -> Tuple[int, ...]:
        return tuple(seg.action for seg in self.segments)


@dataclass(frozen=True)
class LinearApproxResult:
    alpha: float
    action: int
    payoff: float
    kappa: int
    candidates: Tuple[Tuple[float, int, float], ...]


def upper_envelope(setting: Setting) -> Envelope:
    """Trace the agent's best action as the reward fraction alpha sweeps [0, 1].

    A segment starts at each action's cheapest 0-IC share.  Of equal starts
    the higher-reward action stays, which is also the principal's preference
    there; of identical lines the lowest index.  So of two actions with tied
    expected reward the cheaper one stays, and actions never on top, or on
    top only where another starts, are absent.
    """
    rewards = expected_rewards(setting)
    shares = _cheapest_delta_ic_alphas(rewards, setting.costs, 0.0)
    on = np.flatnonzero(~np.isnan(shares))
    on = on[np.lexsort((-rewards[on], shares[on]))]  # stable: ties keep the lower index
    on = on[np.r_[True, shares[on[1:]] != shares[on[:-1]]]]
    lefts = shares[on].tolist()
    segments = zip(on.tolist(), lefts, lefts[1:] + [1.0])
    return Envelope(segments=tuple(EnvelopeSegment(*seg) for seg in segments))


def optimal_linear(setting: Setting, delta: float = 0.0) -> Tuple[float, int, float]:
    """Best (alpha, action, payoff) among additive delta-IC linear contracts.

    Takes each action's cheapest delta-IC share.  Payoff ties go to the
    higher-reward action, then to the lower index.
    """
    check_delta(delta)
    rewards = expected_rewards(setting)
    shares = _cheapest_delta_ic_alphas(rewards, setting.costs, delta)
    on = np.flatnonzero(~np.isnan(shares)).tolist()
    candidates = [(float(shares[i]), i, (1.0 - shares[i]) * rewards[i]) for i in on]
    if not candidates:
        raise InputError("no action admits a delta-IC linear contract")
    return _pick_best(candidates, rewards, TOL_TIE * money_unit(setting))


def _pick_best(
    candidates: Sequence[Tuple[Any, int, float]], rewards: np.ndarray, tol: float
) -> Tuple[Any, int, float]:
    """Highest payoff wins; near-ties (within tol) go to the higher-reward action."""
    best = candidates[0]
    for cand in candidates[1:]:
        if cand[2] > best[2] + tol:
            best = cand
        elif cand[2] >= best[2] - tol and rewards[cand[1]] > rewards[best[1]]:
            best = cand
    return best


def _cheapest_delta_ic_alphas(rewards: np.ndarray, costs: np.ndarray, delta: float) -> np.ndarray:
    """Each action's smallest alpha in [0,1] at which it is an additive delta-best response.

    nan where there is none.  Rival k asks alpha (R_a - R_k) >= c_a - c_k - delta:
    a lower bound on alpha when R_a > R_k, an upper bound when R_a < R_k, and
    a plain yes/no when the rewards tie (the action itself always passes).
    The n x n table of these bounds is built _BLOCK entries at a time.
    """
    n = len(rewards)
    shares = np.empty(n)
    step = max(1, _BLOCK // n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        gain = rewards[rows, None] - rewards
        need = costs[rows, None] - costs - delta
        with np.errstate(all="ignore"):  # tied rewards divide by zero; masked below
            bound = need / gain
        lo = np.where(gain > 0.0, bound, 0.0).max(axis=1) + 0.0  # + 0.0 makes -0.0 a 0.0
        hi = np.where(gain < 0.0, bound, 1.0).min(axis=1)
        tied_out = ((gain == 0.0) & (need > 0.0)).any(axis=1)
        shares[rows] = np.where(tied_out | ~(lo <= hi), np.nan, lo)
    return shares


def optimal_separable(
    setting: Setting, delta: float = 0.0
) -> Tuple[Tuple[float, ...], int, float]:
    """Best per-item payment vector, by one m-variable LP per action.

    Returns (item_payments, action, payoff); payoff ties go to the
    higher-reward action.  Works for explicit settings through their item
    marginals.
    """
    check_delta(delta)
    rewards, costs = expected_rewards(setting), setting.costs
    marg = _item_marginals(setting)
    candidates = []
    for i in range(setting.n):
        rivals = np.arange(setting.n) != i
        sol = solve_lp(marg[i], marg[rivals] - marg[i], costs[rivals] - costs[i] + delta)
        if sol.status == OPTIMAL:
            payments = tuple(float(p) for p in sol.primal)
            candidates.append((payments, i, float(rewards[i] - sol.objective_value)))
    if not candidates:
        raise InputError("no action admits a delta-IC separable contract")
    return _pick_best(candidates, rewards, TOL_TIE * money_unit(setting))


def approx_linear_delta(setting: Setting, delta: float, gamma: float) -> LinearApproxResult:
    """Linear contract with payoff >= (1-gamma)/(kappa+1) of the best welfare.

    Carves [0,1] into kappa+1 geometrically growing intervals, takes the
    highest-reward envelope action entering in each, and considers one alpha
    per consecutive pair: the indifference point between them.  Paying the
    indifference alpha under-shoots the later action's exact threshold by at
    most a (1+delta) factor, which an additive delta of slack absorbs (this is
    where normalization matters).  The first candidate incentivizes its action
    exactly.
    """
    if not (0.0 < gamma < 1.0):
        raise InputError(f"gamma must lie in (0, 1), got {gamma}")
    if math.isinf(1.0 / gamma):  # kappa and the interval of each alpha take log(1/gamma)
        raise InputError(f"gamma={gamma} is so small that 1/gamma overflows float64")
    check_delta(delta)
    if not (delta > 0.0):
        raise InputError("delta must be positive")
    check_resolves_at_one("delta", delta)  # the intervals grow by the factor 1+delta
    if not is_normalized(setting):
        warnings.warn(
            "approximation guarantee assumes max expected reward <= 1", stacklevel=2
        )
    rewards, costs = expected_rewards(setting), setting.costs
    env = upper_envelope(setting)
    kappa = math.ceil(math.log(1.0 / gamma) / math.log(1.0 + delta))

    def interval_of(alpha: float) -> int:
        # interval 1 is [0, gamma); interval k >= 2 starts at gamma*(1+delta)^(k-2)
        if alpha < gamma:
            return 1
        k = 2 + math.floor(math.log(alpha / gamma) / math.log(1.0 + delta))
        return min(k, kappa + 1)

    chain: List[tuple[float, int]] = []  # (left endpoint alpha_i, action), one per interval
    last_k = 0
    for seg in env.segments:
        k = interval_of(seg.left)
        if k == last_k:
            chain[-1] = (seg.left, seg.action)  # later segment = higher reward
        else:
            chain.append((seg.left, seg.action))
            last_k = k

    first_alpha, first_action = chain[0]
    candidates = [(first_alpha, first_action, (1.0 - first_alpha) * rewards[first_action])]
    for (_, prev), (_, cur) in zip(chain, chain[1:]):
        alpha = (costs[cur] - costs[prev]) / (rewards[cur] - rewards[prev])
        alpha = min(max(alpha, 0.0), 1.0)
        candidates.append((alpha, cur, (1.0 - alpha) * rewards[cur]))
    best = _pick_best(candidates, rewards, TOL_TIE * money_unit(setting))
    return LinearApproxResult(
        alpha=best[0],
        action=best[1],
        payoff=best[2],
        kappa=kappa,
        candidates=tuple(candidates),
    )
