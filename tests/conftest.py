"""Shared fixtures and the independent LP reference used by acceptance tests."""

import numpy as np
from hypothesis import HealthCheck, settings

from contract_forge.model import (
    ADDITIVE,
    MULTIPLICATIVE,
    ExplicitSetting,
    ProductSetting,
    normalize_notion,
)

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# Units of money the scale-invariance tests multiply rewards and costs by.
SCALES = (1e-12, 1e-9, 1e-6, 1e6, 1e12)


def rescaled(setting: ProductSetting, k: float) -> ProductSetting:
    """`setting` with rewards and costs in a unit of money k times smaller."""
    return ProductSetting(costs=k * setting.costs, rewards=k * setting.rewards, probs=setting.probs)


def scipy_min_payment(setting: ExplicitSetting, action: int, delta: float = 0.0,
                      notion: str = MULTIPLICATIVE):
    """Reference min-payment solve via scipy.linprog over all outcome columns.

    Returns (status, value, payments) with status in {"optimal", "infeasible"}.
    Assembled straight from the constraint definitions, independently of the
    package's own LP machinery.
    """
    from scipy.optimize import linprog

    notion = normalize_notion(notion)
    dist = np.asarray(setting.dist)
    n, k = dist.shape
    q_i = dist[action]
    a_ub = []
    b_ub = []
    for other in range(n):
        if other == action:
            continue
        if notion == MULTIPLICATIVE:
            a_ub.append(dist[other] - (1.0 + delta) * q_i)
            b_ub.append(setting.costs[other] - setting.costs[action])
        else:
            a_ub.append(dist[other] - q_i)
            b_ub.append(setting.costs[other] - setting.costs[action] + delta)
    res = linprog(
        c=q_i,
        A_ub=np.asarray(a_ub) if a_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        bounds=[(0, None)] * k,
        method="highs",
    )
    if res.status == 2:
        return "infeasible", float("inf"), None
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return "optimal", float(res.fun), np.asarray(res.x)
