"""Linear and separable contracts.

A linear contract hands the agent a fixed fraction alpha of the reward, so the
agent's expected utility from action i is the line alpha * R_i - c_i.  The
upper envelope of those lines over alpha in [0, 1] tells us which action a
given alpha buys.  Everything here builds on that picture: the exact optimal
linear contract pays some action's cheapest incentivizing share, an envelope
breakpoint, found in closed form per action; the optimal separable contract
is one small LP per action, and approx_linear_delta trades an additive delta
of incentive slack for a (1-gamma)/(kappa+1) share of the first-best welfare,
using only kappa+2-ish candidate alphas picked along the envelope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError
from .lpcore import OPTIMAL, solve_lp
from .model import TOL_TIE, Setting, _item_marginals, expected_rewards, is_normalized, money_unit


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

    Ties at a breakpoint go to the higher-reward action, which is also the
    principal's preference there.  Actions never on top are simply absent.
    """
    rewards, costs = expected_rewards(setting), setting.costs
    order = sorted(range(setting.n), key=lambda i: (rewards[i], -costs[i]))
    for a, b in zip(order, order[1:]):
        if rewards[b] == rewards[a]:
            raise InputError(
                f"actions {a} and {b} share expected reward {rewards[a]:.12g}; "
                "one dominates the other, so the envelope geometry is degenerate"
            )
    # lines y = rewards[i] * alpha - costs[i], scanned in slope order
    stack: List[tuple[int, float]] = []
    for i in order:
        x = 0.0
        while stack:
            top, top_left = stack[-1]
            x = (costs[i] - costs[top]) / (rewards[i] - rewards[top])
            if x <= top_left:
                stack.pop()
                continue
            break
        if not stack:
            x = 0.0
        if x > 1.0:
            continue
        stack.append((i, x))
    segments = []
    for idx, (action, left) in enumerate(stack):
        right = stack[idx + 1][1] if idx + 1 < len(stack) else 1.0
        segments.append(EnvelopeSegment(action=action, left=left, right=right))
    return Envelope(segments=tuple(segments))


def optimal_linear(setting: Setting, delta: float = 0.0) -> Tuple[float, int, float]:
    """Best (alpha, action, payoff) among additive delta-IC linear contracts.

    Takes each action's cheapest delta-IC share in closed form.  Payoff ties
    go to the higher-reward action.
    """
    if not delta >= 0.0:
        raise InputError("delta must be nonnegative")
    rewards = expected_rewards(setting)
    candidates = []
    for i in range(setting.n):
        alpha = _cheapest_delta_ic_alpha(rewards, setting.costs, i, delta)
        if alpha is not None:
            candidates.append((alpha, i, (1.0 - alpha) * rewards[i]))
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


def _cheapest_delta_ic_alpha(
    rewards: np.ndarray, costs: np.ndarray, action: int, delta: float
) -> Optional[float]:
    """Smallest alpha in [0,1] at which `action` is an additive delta-best response.

    Rival k asks alpha (R_a - R_k) >= c_a - c_k - delta: a lower bound on
    alpha when R_a > R_k, an upper bound when R_a < R_k, and a plain yes/no
    when the rewards tie.
    """
    gain = rewards[action] - rewards
    need = costs[action] - costs - delta
    rivals = np.arange(len(rewards)) != action
    if (need[rivals & (gain == 0.0)] > 0.0).any():
        return None
    above, below = rivals & (gain > 0.0), rivals & (gain < 0.0)
    lo = max(0.0, float((need[above] / gain[above]).max(initial=0.0)))
    hi = min(1.0, float((need[below] / gain[below]).min(initial=1.0)))
    return lo if lo <= hi else None


def optimal_separable(
    setting: Setting, delta: float = 0.0
) -> Tuple[Tuple[float, ...], int, float]:
    """Best per-item payment vector, by one m-variable LP per action.

    Returns (item_payments, action, payoff); payoff ties go to the
    higher-reward action.  Works for explicit settings through their item
    marginals.
    """
    if not delta >= 0.0:
        raise InputError("delta must be nonnegative")
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
    if not (delta > 0.0):
        raise InputError("delta must be positive")
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
