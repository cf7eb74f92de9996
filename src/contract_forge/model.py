"""Core data model: principal-agent settings, contracts, and their evaluation.

Settings come in two forms. A ProductSetting is succinct: n actions with costs,
m items with rewards, and per-action success probabilities q[i][j]; an outcome
is the random set of realized items, so outcome probabilities are products over
items. An ExplicitSetting enumerates K outcomes directly (costs, one reward per
outcome, and an n-by-K distribution matrix).

This module alone knows how a setting is stored: every field is a read-only
float64 array (validated once, finite, compared by value), and evaluation is
vectorized over actions. expected_rewards, expected_payments and
outcome_probabilities return one entry per action; the single-action
functions read from those vectors.

Outcomes are item subsets encoded as int bitmasks (item j <-> bit 1 << j). On
an ExplicitSetting, bitmask b addresses column b of the distribution matrix,
which matches the bit-set column order emitted by product_to_explicit.

Every money comparison in the package (ties, IC checks, validation slack, a
free action's zero cost) is a TOL_* constant times money_unit(setting), the
largest |expected reward|, or times an LP's own payment, and lpcore.solve_lp
scales its LPs, so answers do not depend on the unit of money. The agent picks
the action maximizing expected payment minus cost, breaking near-ties (within
TOL_TIE) in favor of the principal's payoff and then the lowest action index. A
contract together with a designated action is delta-IC under the additive
notion if no deviation gains more than delta in utility, and under the
multiplicative notion if boosting the designated action's expected payment by
(1 + delta) makes it a best response. Additive comparisons are only calibrated
for normalized settings (max expected reward <= 1).
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import warnings
from dataclasses import dataclass, field, fields
from typing import Iterable, Optional, Union

import numpy as np

from .errors import CapacityError, InputError

# Money tolerances, in units of money_unit(setting): near-ties in utility and
# payoff; default IC slack; the welfare floor; a free action's cost counted as
# zero (exact.read_contract drops payments up to TOL_ZERO of its LP's own).
# TOL_VALID is the slack for probabilities and row sums (a setting stores its
# probabilities clipped into range once they pass), and in money units for
# the signs of costs, rewards and contract payments.
TOL_TIE = 1e-9
TOL_IC = 1e-9
TOL_WELFARE = 1e-7
TOL_ZERO = 1e-12
TOL_VALID = 1e-9

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"

NOTION_ALIASES = {
    "additive": ADDITIVE,
    "add": ADDITIVE,
    "multiplicative": MULTIPLICATIVE,
    "mult": MULTIPLICATIVE,
}


def normalize_notion(notion: str) -> str:
    try:
        return NOTION_ALIASES[notion.lower()]
    except (KeyError, AttributeError):
        raise InputError(f"unknown IC notion {notion!r}; use 'additive' or 'multiplicative'")


def check_delta(delta: float) -> None:
    """Raise InputError unless the IC slack delta is a finite number >= 0."""
    if not (math.isfinite(delta) and delta >= 0.0):
        raise InputError(f"delta must be a finite nonnegative number, got {delta}")


def check_resolves_at_one(name: str, value: float) -> None:
    """Raise InputError when 1 + value rounds to 1 in float64."""
    if 1.0 + value == 1.0:
        raise InputError(f"{name}={value} is finer than float64 resolves at 1")


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------


def float_array(values, ndim: int, name: str) -> np.ndarray:
    """A float64 copy of `values` with `ndim` dimensions and finite entries."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be a {ndim}-dimensional array of numbers")
    if arr.ndim != ndim:
        raise InputError(f"{name} must be a {ndim}-dimensional array of numbers")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} holds a non-finite value")
    return arr


class ArrayFields:
    """Dataclasses whose fields are read-only float64 arrays, compared by value; unhashable.

    Each field's float_array copy, of the field's metadata["ndim"] dimensions, goes
    in field order to the class's _check, which may rewrite it before it is frozen.
    """

    def __post_init__(self):
        arrays = [float_array(getattr(self, f.name), f.metadata["ndim"], f.name) for f in fields(self)]
        for f, arr in zip(fields(self), arrays):
            object.__setattr__(self, f.name, arr)
        self._check(*arrays)
        for arr in arrays:
            arr.flags.writeable = False

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    __hash__ = None


@dataclass(frozen=True, eq=False)
class ProductSetting(ArrayFields):
    """Succinct setting: costs per action, rewards per item, probs[i][j]."""

    costs: np.ndarray = field(metadata={"ndim": 1})
    rewards: np.ndarray = field(metadata={"ndim": 1})
    probs: np.ndarray = field(metadata={"ndim": 2})  # n-by-m item probabilities

    def _check(self, costs, rewards, probs):
        if costs.size < 1 or rewards.size < 1:
            raise InputError("need at least one action and one item")
        if probs.shape != (costs.size, rewards.size):
            raise InputError("probs must have one row per action and one entry per item")
        outside = probs[(probs < -TOL_VALID) | (probs > 1.0 + TOL_VALID)]
        if outside.size:
            raise InputError(f"item probability {outside[0]} outside [0, 1]")
        expected = _checked_expected_rewards(self)
        unit = float(np.abs(expected).max()) or 1.0  # money_unit(self)
        if (costs < -TOL_VALID * unit).any():
            raise InputError("costs must be nonnegative")
        if (rewards < -TOL_VALID * unit).any():
            raise InputError("rewards must be nonnegative")
        welfare = expected - costs
        losing = np.flatnonzero(welfare < -TOL_WELFARE * unit)
        if losing.size:
            i = losing[0]
            raise InputError(f"action {i} has negative expected welfare {welfare[i]}")
        np.clip(probs, 0.0, 1.0, out=probs)

    @property
    def n(self) -> int:
        return len(self.costs)

    @property
    def m(self) -> int:
        return len(self.rewards)


@dataclass(frozen=True, eq=False)
class ExplicitSetting(ArrayFields):
    """Enumerated setting: costs, reward per outcome column, n-by-K dist."""

    costs: np.ndarray = field(metadata={"ndim": 1})
    outcome_rewards: np.ndarray = field(metadata={"ndim": 1})
    dist: np.ndarray = field(metadata={"ndim": 2})  # n-by-K outcome probabilities

    def _check(self, costs, rewards, dist):
        if costs.size < 1:
            raise InputError("need at least one action")
        if rewards.size < 1:
            raise InputError("need at least one outcome")
        if dist.shape != (costs.size, rewards.size):
            raise InputError("dist must have one row per action and one entry per outcome")
        negative = np.flatnonzero((dist < -TOL_VALID).any(axis=1))
        if negative.size:
            raise InputError(f"dist row {negative[0]} has a negative entry")
        sums = dist.sum(axis=1)
        off = np.flatnonzero(np.abs(sums - 1.0) > TOL_VALID)
        if off.size:
            raise InputError(f"dist row {off[0]} sums to {sums[off[0]]}, expected 1")
        np.clip(dist, 0.0, None, out=dist)
        _checked_expected_rewards(self)

    @property
    def n(self) -> int:
        return len(self.costs)

    @property
    def num_outcomes(self) -> int:
        return len(self.outcome_rewards)


Setting = Union[ProductSetting, ExplicitSetting]


def _checked_expected_rewards(setting: Setting) -> np.ndarray:
    """expected_rewards(setting); CapacityError when one, or a gap between two, is past float64."""
    with np.errstate(over="ignore"):
        expected = expected_rewards(setting)
        gaps = np.ptp(expected), np.ptp(setting.costs)
        if not (np.isfinite(expected).all() and np.isfinite(gaps).all()):
            raise CapacityError("an expected reward, or a gap between two actions' "
                                "rewards or costs, falls outside float64's range")
    return expected


def is_normalized(setting: Setting) -> bool:
    """True when every action's expected reward is at most 1 (plus TOL_VALID)."""
    return bool(expected_rewards(setting).max() <= 1.0 + TOL_VALID)


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------


def _finite_number(value, name: str) -> float:
    """`value` as a float; InputError unless it is a finite number."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} {value!r} is not a number")
    if not math.isfinite(number):
        raise InputError(f"{name} {value!r} is not finite")
    return number


@dataclass
class Sparse:
    """Outcome-contingent payments: base paid always, payments[bitmask] extra."""

    base: float = 0.0
    payments: dict = field(default_factory=dict)

    def __post_init__(self):
        self.base = _finite_number(self.base, "base payment")
        if self.base < 0.0:
            raise InputError("base payment must be nonnegative")
        cleaned = {}
        for outcome, pay in self.payments.items():
            pay = _finite_number(pay, f"payment for outcome {outcome}")
            if pay < 0.0:
                raise InputError(f"payment for outcome {outcome} is negative")
            if pay > 0.0:
                cleaned[int(outcome)] = pay
        self.payments = cleaned


@dataclass
class Linear:
    """Pays alpha times the realized reward."""

    alpha: float

    def __post_init__(self):
        self.alpha = _finite_number(self.alpha, "linear share alpha")
        if not (0.0 <= self.alpha <= 1.0 + TOL_VALID):
            raise InputError(f"linear share alpha={self.alpha} outside [0, 1]")


@dataclass
class Separable:
    """Pays item_payments[j] for each realized item j, independently."""

    item_payments: tuple

    def __post_init__(self):
        pays = tuple(_finite_number(p, "item payment") for p in self.item_payments)
        if any(p < 0.0 for p in pays):
            raise InputError("item payments must be nonnegative")
        self.item_payments = pays


@dataclass
class Mixed:
    """Sparse part plus a linear share: pays sparse(S) + alpha * reward(S)."""

    sparse: Sparse
    alpha: float

    def __post_init__(self):
        self.alpha = _finite_number(self.alpha, "mixed linear share alpha")
        if not (0.0 <= self.alpha <= 1.0 + TOL_VALID):
            raise InputError(f"mixed linear share alpha={self.alpha} outside [0, 1]")


Contract = Union[Sparse, Linear, Separable, Mixed]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _check_outcomes(setting: Setting, lowest: int, highest: int) -> None:
    """InputError unless the outcome ids from `lowest` to `highest` exist; 0 exists in every setting."""
    if isinstance(setting, ExplicitSetting):
        if lowest < 0 or highest >= setting.num_outcomes:
            raise InputError("outcome outside explicit outcome range")
    elif lowest < 0 or highest >> setting.m:
        raise InputError(f"outcome bitmask outside the range of {setting.m} items")


def outcome_probabilities(setting: Setting, outcomes: Iterable[int]) -> np.ndarray:
    """n-by-k matrix: the probability that each action produces each outcome."""
    outcomes = [int(o) for o in outcomes]
    _check_outcomes(setting, min(outcomes, default=0), max(outcomes, default=0))
    if isinstance(setting, ExplicitSetting):
        return setting.dist[:, outcomes]
    bits = np.array([[(o >> j) & 1 for j in range(setting.m)] for o in outcomes], dtype=bool)
    q = setting.probs[:, None, :]
    return np.where(bits.reshape(len(outcomes), setting.m), q, 1.0 - q).prod(axis=2)


def outcome_probability(setting: Setting, action: int, outcome: int) -> float:
    """Probability that `action` produces exactly the item set `outcome`."""
    _check_action(setting, action)
    return float(outcome_probabilities(setting, [outcome])[action, 0])


def outcome_rewards(setting: Setting, outcomes: Iterable[int]) -> np.ndarray:
    """Total reward of each outcome: its realized item rewards, added in item order."""
    outcomes = np.asarray(outcomes, dtype=np.int64)
    _check_outcomes(setting, int(outcomes.min(initial=0)), int(outcomes.max(initial=0)))
    if isinstance(setting, ExplicitSetting):
        return setting.outcome_rewards[outcomes]
    rewards = np.zeros(outcomes.size)
    for j, r in enumerate(setting.rewards):
        rewards[(outcomes >> j) & 1 == 1] += r
    return rewards


def expected_rewards(setting: Setting) -> np.ndarray:
    """Expected reward of every action."""
    if isinstance(setting, ExplicitSetting):
        return setting.dist @ setting.outcome_rewards
    return setting.probs @ setting.rewards


def expected_reward(setting: Setting, action: int) -> float:
    _check_action(setting, action)
    return float(expected_rewards(setting)[action])


def item_count(setting: Setting) -> int:
    """Items an outcome bitmask may name: m, or the bits of an explicit setting's column indices."""
    if isinstance(setting, ProductSetting):
        return setting.m
    return max(1, (setting.num_outcomes - 1).bit_length())


def _item_marginals(setting: Setting) -> np.ndarray:
    """n-by-m item probabilities; an explicit setting's come from its column bitmasks."""
    if isinstance(setting, ProductSetting):
        return setting.probs
    cols = np.arange(setting.num_outcomes)
    return np.column_stack(
        [setting.dist[:, (cols >> j) & 1 == 1].sum(axis=1) for j in range(item_count(setting))]
    )


def expected_payments(setting: Setting, contract: Contract) -> np.ndarray:
    """Expected transfer to the agent under `contract`, for every action; CapacityError past float64."""
    with np.errstate(over="ignore"):
        if isinstance(contract, Sparse):
            paid = np.array(list(contract.payments.values()))
            pays = contract.base + outcome_probabilities(setting, contract.payments) @ paid
        elif isinstance(contract, Linear):
            pays = contract.alpha * expected_rewards(setting)
        elif isinstance(contract, Mixed):
            pays = expected_payments(setting, contract.sparse) + contract.alpha * expected_rewards(setting)
        elif isinstance(contract, Separable):
            marg = _item_marginals(setting)
            if len(contract.item_payments) != marg.shape[1]:
                raise InputError("separable contract length does not match item count")
            pays = marg @ np.array(contract.item_payments)
        else:
            raise InputError(f"unknown contract type {type(contract).__name__}")
    if not np.isfinite(pays).all():
        raise CapacityError("an expected payment under the contract falls outside float64's range")
    return pays


def expected_payment(setting: Setting, action: int, contract: Contract) -> float:
    """Expected transfer to the agent for taking `action` under `contract`."""
    _check_action(setting, action)
    return float(expected_payments(setting, contract)[action])


def agent_utility(setting: Setting, action: int, contract: Contract) -> float:
    return expected_payment(setting, action, contract) - float(setting.costs[action])


def principal_payoff(setting: Setting, action: int, contract: Contract) -> float:
    return expected_reward(setting, action) - expected_payment(setting, action, contract)


def money_unit(setting: Setting) -> float:
    """The setting's unit of money: its largest |expected reward|, or 1.0 when that is 0."""
    return float(np.abs(expected_rewards(setting)).max()) or 1.0


@dataclass(frozen=True)
class AgentChoice:
    action: int
    payoff: float  # principal's expected payoff at the chosen action


def best_response(setting: Setting, contract: Contract, delta: float = 0.0) -> AgentChoice:
    """Agent's chosen action: max utility, ties to max principal payoff, then lowest index.

    With delta > 0, every action within delta of the max utility (additively
    delta-IC) counts as tied.
    """
    check_delta(delta)
    pays = expected_payments(setting, contract)
    tol = TOL_TIE * money_unit(setting)
    utils = pays - setting.costs
    payoffs = expected_rewards(setting) - pays
    candidates = utils >= utils.max() - delta - tol
    best_p = payoffs[candidates].max()
    action = int(np.flatnonzero(candidates & (payoffs >= best_p - tol))[0])
    return AgentChoice(action=action, payoff=float(payoffs[action]))


def _ic_notion(notion: Optional[str], delta: float) -> str:
    """The normalized notion; None only at delta = 0, where the two notions agree."""
    if notion is None:
        if delta > 0.0:
            raise InputError("delta > 0 needs an IC notion: 'additive' or 'multiplicative'")
        return ADDITIVE
    return normalize_notion(notion)


def ic_slack(
    setting: Setting,
    contract: Contract,
    action: int,
    delta: float = 0.0,
    notion: Optional[str] = None,
) -> float:
    """Worst-case slack of the delta-IC condition at `action` (>= 0 means it holds).

    Additive: (p_i - c_i) + delta - max_i' (p_i' - c_i').
    Multiplicative: (1+delta) p_i - c_i - max_i' (p_i' - c_i').
    A delta > 0 needs the notion named; at delta = 0 both read p_i - c_i - max.
    """
    notion = _ic_notion(notion, delta)
    check_delta(delta)
    _check_action(setting, action)
    pays = expected_payments(setting, contract)
    p_i = pays[action]
    c_i = setting.costs[action]
    if notion == ADDITIVE:
        lhs = p_i - c_i + delta
    else:
        lhs = (1.0 + delta) * p_i - c_i
    rivals = np.delete(pays - setting.costs, action)
    return float(lhs - rivals.max()) if rivals.size else math.inf


def verify_delta_ic(
    setting: Setting,
    contract: Contract,
    action: int,
    delta: float = 0.0,
    notion: Optional[str] = None,
    tol: float = TOL_IC,
) -> bool:
    """Check that `action` is a delta-best response, within tol * money_unit(setting).

    As for ic_slack, a delta > 0 needs the notion named.
    """
    notion = _ic_notion(notion, delta)
    if notion == ADDITIVE and delta > 0 and not is_normalized(setting):
        warnings.warn(
            "additive delta-IC is calibrated for normalized settings (max expected reward <= 1)",
            stacklevel=2,
        )
    return ic_slack(setting, contract, action, delta, notion) >= -tol * money_unit(setting)


def _check_action(setting: Setting, action: int) -> None:
    if not (0 <= action < setting.n):
        raise InputError(f"action index {action} outside range [0, {setting.n})")


# ---------------------------------------------------------------------------
# Product -> explicit enumeration
# ---------------------------------------------------------------------------

M_MAX_ENUMERATE = 20
# Most points a likelihood-ratio front (oracle.ratio_front) may keep. Each
# item compares every new point with the kept ones, so reaching the cap on
# gen_random settings (n=6..20 with m=40 or 80, n=4 with m=100) took 0.4-2 s
# on one Xeon thread and under 45 MB peak RSS; twice the cap took up to 8 s.
FRONT_CAP = 1 << 12
# Most partial outcomes kept live at once by the sampler
# (blackbox.QueryOracle.sample_counts) and by the separation oracle
# (oracle.min_ratio_fptas) after each item.
PARTIALS_CAP = 1 << M_MAX_ENUMERATE
# Most items a product may have where outcomes are int64 bitmasks: the
# sampler's and the separation oracle's.
MAX_ITEMS = 63


def all_subset_probabilities(probs: np.ndarray) -> np.ndarray:
    """(d, m) per-item probabilities -> (d, 2^m) subset probabilities in bitmask column order.

    Fills one array: for item j the first 2^j columns, the subsets of the
    items before j, are copied times q_j into the next 2^j and scaled by
    1 - q_j in place. More than M_MAX_ENUMERATE items raise CapacityError.
    """
    d, m = probs.shape
    if m > M_MAX_ENUMERATE:
        raise CapacityError(f"m={m} items would enumerate 2^{m} outcomes (cap {M_MAX_ENUMERATE})")
    out = np.empty((d, 1 << m))
    out[:, 0] = 1.0
    for j in range(m):
        q, k = probs[:, j : j + 1], 1 << j
        np.multiply(out[:, :k], q, out=out[:, k : 2 * k])
        out[:, :k] *= 1.0 - q
    return out


def product_to_explicit(setting: ProductSetting) -> ExplicitSetting:
    """Enumerate all 2^m outcomes of a product setting in bit-set column order."""
    if not isinstance(setting, ProductSetting):
        raise InputError("product_to_explicit expects a ProductSetting")
    dist = all_subset_probabilities(setting.probs)  # first: it holds the cap
    return ExplicitSetting(
        costs=setting.costs,
        outcome_rewards=outcome_rewards(setting, np.arange(1 << setting.m)),
        dist=dist,
    )


def min_nonzero_outcome_probability(setting: Setting) -> float:
    """Smallest nonzero outcome probability across all actions.

    On a product setting an action's least likely outcome takes, item by
    item, the less likely of leaving the item out and taking it in (an item
    with q in {0, 1} has one possible side, of probability 1), so nothing is
    enumerated. A product that underflows to 0 raises CapacityError.
    """
    if isinstance(setting, ExplicitSetting):
        # a validated dist row sums to within TOL_VALID of 1, so it has a positive entry
        return float(setting.dist[setting.dist > 0.0].min())
    q = setting.probs
    factors = np.where((q > 0.0) & (q < 1.0), np.minimum(q, 1.0 - q), 1.0)
    least = np.ones(setting.n)
    for column in factors.T:  # item by item, as all_subset_probabilities multiplies
        least = least * column
    eta = float(least.min())
    if eta == 0.0:
        raise CapacityError("the least likely outcome's probability underflows float64")
    return eta


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------


def outcome_to_items(outcome: int) -> list:
    return [j for j in range(outcome.bit_length()) if (outcome >> j) & 1]


def items_to_outcome(items: Iterable[int], m: Optional[int] = None) -> int:
    """Bitmask of an item list naming each item once; with `m` given, every index must be below it."""
    mask = 0
    for j in items:
        j = int(j)
        if j < 0:
            raise InputError("item indices must be nonnegative")
        if m is not None and j >= m:  # checked before 1 << j; j may be huge, so not printed
            raise InputError(f"an item index lies outside the setting's {m} items")
        if mask >> j & 1:
            raise InputError(f"item {j} is listed twice in one outcome")
        mask |= 1 << j
    return mask


_SETTING_KINDS = {"product": ProductSetting, "explicit": ExplicitSetting}


def setting_to_dict(setting: Setting) -> dict:
    """A setting's JSON form: its kind, then each array field in field order."""
    kind = next(kind for kind, cls in _SETTING_KINDS.items() if type(setting) is cls)
    return {"kind": kind, **{f.name: getattr(setting, f.name).tolist() for f in fields(setting)}}


def record_from_dict(data: dict, kinds: dict, what: str):
    """kinds[data["kind"]] built from the JSON object's fields; InputError if it is malformed."""
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError(f"{what} JSON must be an object with a 'kind' field")
    kind = data["kind"]
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InputError(f"unknown {what} kind {kind!r}")
    try:
        return cls(**{f.name: data[f.name] for f in fields(cls)})
    except KeyError as exc:
        raise InputError(f"{what} JSON missing field {exc}")


def setting_from_dict(data: dict) -> Setting:
    setting = record_from_dict(data, _SETTING_KINDS, "setting")
    if isinstance(setting, ProductSetting) and abs(setting.costs[0]) > TOL_ZERO * money_unit(setting):
        raise InputError("first action must have zero cost")
    return setting


def contract_to_dict(contract: Contract) -> dict:
    if isinstance(contract, Sparse):
        return {
            "kind": "sparse",
            "base": contract.base,
            "payments": [
                {"outcome": outcome_to_items(outcome), "pay": pay}
                for outcome, pay in sorted(contract.payments.items())
            ],
        }
    if isinstance(contract, Linear):
        return {"kind": "linear", "alpha": contract.alpha}
    if isinstance(contract, Separable):
        return {"kind": "separable", "item_payments": list(contract.item_payments)}
    if isinstance(contract, Mixed):
        return {
            "kind": "mixed",
            "sparse": contract_to_dict(contract.sparse),
            "alpha": contract.alpha,
        }
    raise InputError(f"unknown contract type {type(contract).__name__}")


def contract_from_dict(data: dict, setting: Optional[Setting] = None) -> Contract:
    """Contract from its JSON form, read for `setting` when one is given.

    The setting bounds the item indices (item_count), and a payment in
    [-TOL_VALID, 0) money units (money_unit) reads as 0. Without a setting
    any negative payment is rejected.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("contract JSON must be an object with a 'kind' field")
    kind = data["kind"]
    items = None if setting is None else item_count(setting)
    floor = 0.0 if setting is None else -TOL_VALID * money_unit(setting)

    def amount(value, name: str) -> float:
        value = _finite_number(value, name)
        if value < floor:
            raise InputError(f"{name} is negative")
        return max(value, 0.0)

    try:
        if kind == "sparse":
            payments = {}
            for entry in data.get("payments", []):
                outcome = items_to_outcome(entry["outcome"], items)
                if outcome in payments:
                    raise InputError(f"outcome {outcome_to_items(outcome)} is paid twice")
                payments[outcome] = amount(entry["pay"], f"payment for outcome {outcome}")
            return Sparse(base=amount(data.get("base", 0.0), "base payment"), payments=payments)
        if kind == "linear":
            return Linear(alpha=data["alpha"])
        if kind == "separable":
            return Separable(
                item_payments=tuple(amount(p, "item payment") for p in data["item_payments"])
            )
        if kind == "mixed":
            sparse = contract_from_dict(data["sparse"], setting)
            if not isinstance(sparse, Sparse):
                raise InputError("mixed contract's 'sparse' part must be a sparse contract")
            return Mixed(sparse=sparse, alpha=data["alpha"])
    except KeyError as exc:
        raise InputError(f"contract JSON missing field {exc}")
    except (TypeError, ValueError) as exc:  # e.g. a list where an object belongs
        raise InputError(f"malformed contract JSON: {exc}")
    raise InputError(f"unknown contract kind {kind!r}")


def dumps(obj: Union[Setting, Contract]) -> str:
    """Serialize a setting or contract to JSON (full double precision)."""
    if isinstance(obj, (ProductSetting, ExplicitSetting)):
        return json.dumps(setting_to_dict(obj))
    return json.dumps(contract_to_dict(obj))


def _reject_constant(name: str):
    raise InputError(f"JSON input holds {name}, which is not a finite number")


def load_json(path: Optional[str] = None) -> object:
    """Parse the JSON file at `path` (stdin for None or '-'), rejecting the NaN and Infinity literals."""
    with contextlib.nullcontext(sys.stdin) if path in (None, "-") else open(path) as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
            raise InputError(f"malformed JSON input ({exc})")


def load_setting(path: Optional[str] = None) -> Setting:
    return setting_from_dict(load_json(path))


def load_contract(path: Optional[str] = None, setting: Optional[Setting] = None) -> Contract:
    """Contract JSON at `path`, read for `setting` as contract_from_dict reads it."""
    return contract_from_dict(load_json(path), setting)
