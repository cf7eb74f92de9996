"""Answer checks made apart from contract_forge.

Nothing here imports the package under test. Outcome distributions come from
this file's own enumeration of item subsets, linear programs go to scipy's
HiGHS, and the simple-contract answers come from closed forms and the paper's
guarantees. Settings are passed in as plain arrays (costs, rewards, probs).

Each check returns None when the answer is right and a one-line reason when
it is wrong.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

# HiGHS's primal feasibility tolerance is 1e-7; answers are compared on
# settings whose largest expected reward is 1.
TOL_VALUE = 1e-6
TOL_IC = 1e-7


def _bits(masks, m: int) -> np.ndarray:
    """(len(masks), m) booleans: item j is in outcome mask."""
    return ((np.asarray(masks, dtype=np.int64).reshape(-1, 1) >> np.arange(m)) & 1).astype(bool)


def mask_probs(probs: np.ndarray, masks) -> np.ndarray:
    """(n, len(masks)) probabilities of the given outcome bitmasks."""
    bits = _bits(masks, probs.shape[1])
    return np.stack([np.where(bits, q, 1.0 - q).prod(axis=1) for q in probs])


def enumerate_outcomes(probs: np.ndarray, rewards: np.ndarray):
    """(n, 2^m) outcome probabilities and (2^m,) outcome rewards, bitmask order."""
    masks = np.arange(1 << probs.shape[1])
    return mask_probs(probs, masks), _bits(masks, probs.shape[1]) @ rewards


def sparse_payments(probs: np.ndarray, base: float, payments: dict) -> np.ndarray:
    """Expected payment to each action under base + payments[outcome]."""
    if not payments:
        return np.full(probs.shape[0], float(base))
    masks = list(payments)
    pays = np.array([payments[k] for k in masks], dtype=float)
    return base + mask_probs(probs, masks) @ pays


def min_payment_highs(dist: np.ndarray, costs: np.ndarray, action: int) -> float:
    """Least expected payment making `action` a best response; inf if none can.

    One column per outcome: p_a - c_a >= p_k - c_k for every other action k.
    """
    others = [k for k in range(dist.shape[0]) if k != action]
    if not others:
        return 0.0
    q_a = dist[action]
    a_ub = np.stack([dist[k] - q_a for k in others])
    b_ub = np.array([costs[k] - costs[action] for k in others])
    res = linprog(q_a, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs",
                  options={"presolve": False})
    if res.status == 2:
        return math.inf
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(res.fun)


def min_payment_one_rival(dist: np.ndarray, costs: np.ndarray, action: int) -> float:
    """min_payment_highs in closed form when one other action, k, competes.

    The LP then has one row, so a basic optimum pays on a single outcome S:
    the one of least likelihood ratio r = q_k(S) / q_a(S), and the payment is
    (c_a - c_k) / (1 - r); nothing when c_a <= c_k; inf when r >= 1.
    """
    (rival,) = [k for k in range(dist.shape[0]) if k != action]
    gap = costs[action] - costs[rival]
    if gap <= 0.0:
        return 0.0
    ratio = float(np.min(dist[rival] / dist[action]))
    return gap / (1.0 - ratio) if ratio < 1.0 else math.inf


def opt_payoffs_highs(dist: np.ndarray, outcome_rewards: np.ndarray,
                      costs: np.ndarray) -> np.ndarray:
    """Principal payoff of the cheapest IC contract for each action (-inf if none)."""
    rewards = dist @ outcome_rewards
    pays = [min_payment_highs(dist, costs, i) for i in range(dist.shape[0])]
    return np.array([r - p for r, p in zip(rewards, pays)])


def check_opt_contract(probs, rewards, costs, payoffs_ref, scale, answer) -> str | None:
    """An exact optimal contract: payoff and action match HiGHS, contract is IC.

    `payoffs_ref` are the per-action HiGHS payoffs of the setting divided by
    `scale`; the answer is divided by `scale` before it is compared.
    """
    payoff, action = answer["payoff"] / scale, answer["action"]
    best = float(np.max(payoffs_ref))
    if not abs(payoff - best) <= TOL_VALUE:
        return f"payoff {payoff:.9g} != HiGHS {best:.9g}"
    if not payoffs_ref[action] >= best - TOL_VALUE:
        return f"action {action} is not optimal (HiGHS payoff {payoffs_ref[action]:.9g})"
    paid = sparse_payments(probs, answer["base"], answer["payments"]) / scale
    util = paid - np.asarray(costs) / scale
    if not util[action] >= util.max() - TOL_IC:
        return f"action {action} is not a best response (slack {util[action] - util.max():.3g})"
    own = float(probs[action] @ rewards) / scale - paid[action]
    if not abs(own - payoff) <= TOL_VALUE:
        return f"reported payoff {payoff:.9g} != evaluated {own:.9g}"
    return None


def check_delta_contract(probs, costs, action, delta, exact_min, search_tol,
                         answer) -> str | None:
    """A multiplicatively delta-IC contract paying no more than the exact IC minimum.

    The program documents its payment as at most the exact minimum plus a
    search tolerance, `search_tol`.
    """
    reported = answer["payment"]
    paid = sparse_payments(probs, answer["base"], answer["payments"])
    target = (1.0 + delta) * paid[action] - costs[action]
    util = paid - np.asarray(costs)
    util[action] = -math.inf
    if not target >= util.max() - TOL_IC:
        return f"not delta-IC for action {action} (slack {target - util.max():.3g})"
    if not abs(reported - paid[action]) <= 1e-9 * max(1.0, abs(reported)):
        return f"reported payment {reported:.12g} != evaluated {paid[action]:.12g}"
    if not reported <= exact_min + search_tol + TOL_VALUE:
        return f"payment {reported:.9g} exceeds the exact IC minimum {exact_min:.9g}"
    return None


def cheapest_linear_share(expected, costs, action, delta) -> float | None:
    """Smallest alpha in [0, 1] making `action` an additive delta-best response."""
    lo, hi = 0.0, 1.0
    for k in range(len(costs)):
        if k == action:
            continue
        # alpha * (R_a - R_k) >= c_a - c_k - delta
        gap = expected[action] - expected[k]
        need = costs[action] - costs[k] - delta
        if gap > 0:
            lo = max(lo, need / gap)
        elif gap < 0:
            hi = min(hi, need / gap)
        elif need > 0:
            return None
    return lo if lo <= hi else None


def best_linear_payoff(expected, costs, delta) -> float:
    shares = [cheapest_linear_share(expected, costs, i, delta) for i in range(len(costs))]
    return max((1.0 - a) * expected[i] for i, a in enumerate(shares) if a is not None)


def additive_slack(expected, costs, alpha, action, delta) -> float:
    util = alpha * np.asarray(expected) - np.asarray(costs)
    return float(util[action] + delta - util.max())


def check_simple(expected, costs, delta, gamma, lin_ref, answer) -> str | None:
    """optimal_linear and approx_linear_delta on one setting.

    `lin_ref` is the closed-form best payoff of an additively delta-IC linear
    contract.
    """
    alpha, action, payoff = answer["linear"]
    if not abs(payoff - lin_ref) <= TOL_VALUE:
        return f"linear payoff {payoff:.9g} != closed form {lin_ref:.9g}"
    if not additive_slack(expected, costs, alpha, action, delta) >= -TOL_IC:
        return f"linear share {alpha:.9g} is not delta-IC for action {action}"
    if not abs(payoff - (1.0 - alpha) * expected[action]) <= TOL_VALUE:
        return "linear payoff does not match its share and action"
    alpha, action, payoff = answer["approx"]
    if not additive_slack(expected, costs, alpha, action, delta) >= -TOL_IC:
        return f"approximate share {alpha:.9g} is not delta-IC for action {action}"
    if not abs(payoff - (1.0 - alpha) * expected[action]) <= TOL_VALUE:
        return "approximate payoff does not match its share and action"
    kappa = math.ceil(math.log(1.0 / gamma) / math.log(1.0 + delta))
    first_best = float(np.max(np.asarray(expected) - np.asarray(costs)))
    floor = (1.0 - gamma) / (kappa + 1) * first_best
    if not payoff >= floor - TOL_VALUE:
        return f"approximate payoff {payoff:.9g} below the guarantee {floor:.9g}"
    return None


def required_samples(n, eta, eps, gamma) -> int:
    return math.ceil(3.0 * math.log(2.0 * n / (eta * gamma)) / (eta * eps * eps))


def check_sampled(probs, expected, costs, eps, gamma, refs, answer) -> tuple[str | None, bool]:
    """One sampled-pipeline trial.

    Returns (reason or None, whether the trial met the paper's guarantee:
    4eps-IC on the truth and payoff >= opt - 5eps). The guarantee holds with
    probability 1 - gamma, so it is judged over a run, not per trial.
    `refs` holds (eta from this file's enumeration, HiGHS optimal payoff).
    """
    eta, opt_ref = refs
    want = required_samples(probs.shape[0], eta, eps, gamma)
    if answer["samples"] != want:
        return f"{answer['samples']} samples per action, expected {want}", False
    if not abs(answer["opt_on_true"] - opt_ref) <= TOL_VALUE:
        return f"opt_on_true {answer['opt_on_true']:.9g} != HiGHS {opt_ref:.9g}", False
    action = answer["action"]
    paid = sparse_payments(probs, answer["base"], answer["payments"])
    own = float(expected[action] - paid[action])
    if not abs(answer["payoff_on_true"] - own) <= TOL_VALUE:
        return f"payoff_on_true {answer['payoff_on_true']:.9g} != evaluated {own:.9g}", False
    util = paid - np.asarray(costs)
    met = util[action] + 4.0 * eps >= util.max() - TOL_IC and own >= opt_ref - 5.0 * eps - TOL_VALUE
    return None, bool(met)
