"""Instance generators: hardness gadgets, worked examples, and random corpora.

Each generator returns a ProductSetting (some wrapped with the analytic
quantities the construction is known for). They serve as regression fixtures
and stress inputs for the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, InputError
from .model import ProductSetting, Separable, Sparse, check_delta

# ---------------------------------------------------------------------------
# Gap family: single item, geometrically thinning success probabilities
# ---------------------------------------------------------------------------


def gen_gap(c: int, gamma: float) -> ProductSetting:
    """c-action, one-item family where near-optimal play forfeits most welfare.

    Action i (1-based) succeeds with probability gamma^(c-i) and costs
    1/gamma^(i-1) - i + (i-1)*gamma, so its expected welfare is i - (i-1)*gamma.
    The single item's reward is 1/gamma^(c-1).
    """
    if int(c) != c or c < 2:
        raise InputError(f"gap family needs an integer c >= 2, got {c}")
    if not (0.0 < gamma <= 0.25):
        raise InputError(f"gap family needs gamma in (0, 1/4], got {gamma}")
    c = int(c)
    try:  # the largest money amount: every cost is below it
        reward = gamma ** (1 - c)
    except OverflowError:
        raise InputError(f"gap family reward 1/gamma^(c-1) passes float64 at c={c}, gamma={gamma}")
    probs = tuple((gamma ** (c - i),) for i in range(1, c + 1))
    costs = tuple(gamma ** (1 - i) - i + (i - 1) * gamma for i in range(1, c + 1))
    return ProductSetting(costs=costs, rewards=(reward,), probs=probs)


# ---------------------------------------------------------------------------
# CNF formulas and the zero-reward clause/variable setting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF formula: clauses of signed 1-based variable indices."""

    num_vars: int
    clauses: tuple

    def __post_init__(self):
        if self.num_vars < 1:
            raise InputError("formula needs at least one variable")
        if not self.clauses:
            raise InputError("formula needs at least one clause")
        clean = []
        for idx, clause in enumerate(self.clauses):
            lits = tuple(int(l) for l in clause)
            if not lits:
                raise InputError(f"clause {idx} is empty")
            if len(lits) > 3:
                raise InputError(f"clause {idx} has {len(lits)} literals (max 3)")
            seen = set()
            for lit in lits:
                if lit == 0:
                    raise InputError(f"clause {idx} contains literal 0")
                var = abs(lit)
                if var > self.num_vars:
                    raise InputError(f"clause {idx} references variable {var} > {self.num_vars}")
                if var in seen:
                    raise InputError(f"clause {idx} repeats variable {var}")
                seen.add(var)
            clean.append(lits)
        object.__setattr__(self, "clauses", tuple(clean))


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF. Header line optional; '%'-terminated SATLIB files accepted."""
    num_vars: Optional[int] = None
    tokens = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise InputError(f"bad DIMACS header: {line!r}")
            try:
                num_vars = int(parts[2])
            except ValueError:
                raise InputError(f"bad DIMACS header: {line!r}")
            continue
        for tok in line.split():
            try:
                tokens.append(int(tok))
            except ValueError:
                raise InputError(f"unexpected token {tok!r} in DIMACS input")
    clauses = []
    current = []
    for tok in tokens:
        if tok == 0:
            if current:
                clauses.append(tuple(current))
                current = []
        else:
            current.append(tok)
    if current:
        clauses.append(tuple(current))
    if not clauses:
        raise InputError("DIMACS input contains no clauses")
    if num_vars is None:
        num_vars = max(abs(l) for clause in clauses for l in clause)
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def gen_sat(formula: CnfFormula) -> ProductSetting:
    """One action per clause, one item per variable, zero costs and rewards.

    Positive literal -> item probability 0, negative -> 1, absent -> 1/2. An
    assignment (as the item set of true variables) then has zero probability
    under the clause's action exactly when it satisfies that clause.
    """
    n = len(formula.clauses)
    m = formula.num_vars
    probs = []
    for clause in formula.clauses:
        row = [0.5] * m
        for lit in clause:
            row[abs(lit) - 1] = 0.0 if lit > 0 else 1.0
        probs.append(tuple(row))
    return ProductSetting(costs=(0.0,) * n, rewards=(0.0,) * m, probs=tuple(probs))


def gen_product2(formula: CnfFormula, epsilon: float) -> ProductSetting:
    """Clause actions plus one high-effort action over variables plus a gap item.

    Glues gen_sat(formula) onto gen_gap(2, epsilon): clause rows get the gap
    item with probability epsilon at zero cost; the extra last action plays
    1/2 on every variable item, hits the gap item surely, and carries the gap
    family's top cost. Only the gap item has a reward. (n+1) x (m+1).
    """
    return _product_compose(formula, 2, epsilon, num_blocks=1)


def gen_productc(formula: CnfFormula, c: int, epsilon: float) -> ProductSetting:
    """As gen_product2 but with one clause block per gap action: (cn+1) x (m+1)."""
    if int(c) != c or c < 3:
        raise InputError(f"need an integer c >= 3 (use gen_product2 for c=2), got {c}")
    return _product_compose(formula, int(c), epsilon, num_blocks=int(c))


def _product_compose(formula: CnfFormula, c: int, epsilon: float, num_blocks: int) -> ProductSetting:
    gap = gen_gap(c, epsilon)
    sat = gen_sat(formula)
    m = sat.m
    probs = []
    costs = []
    for block in range(num_blocks):
        gap_prob = gap.probs[block][0]
        for row in sat.probs:
            probs.append(np.append(row, gap_prob))
            costs.append(gap.costs[block])
    probs.append((0.5,) * m + (gap.probs[c - 1][0],))
    costs.append(gap.costs[c - 1])
    rewards = (0.0,) * m + (gap.rewards[0],)
    return ProductSetting(costs=costs, rewards=rewards, probs=probs)


# ---------------------------------------------------------------------------
# Balanced-product-partition gadget (3 actions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinMaxGadget:
    """3-action gadget whose cheap delta-incentivizability encodes a partition.

    Item j's odds under the first action are the integer odds[j]; the second
    action flips every item; the third surely produces item 1 and costs
    effort_cost. The target_payment is achievable iff some item subset splits
    the odds product into two equal halves (a balanced partition).
    """

    setting: ProductSetting
    odds: tuple
    full_set_prob: float  # probability the first action produces every item
    odds_root: float  # square root of the product of the odds
    margin: float  # 1 - full_set_prob * odds_root * 2^(m-1)
    effort_cost: float
    reward: float

    def target_payment(self, delta: float) -> float:
        """Expected payment that delta-incentivizes the effort action iff YES."""
        check_delta(delta)
        return self.effort_cost / (self.margin * (1.0 + delta))


def gen_minmax(odds: Sequence[int]) -> MinMaxGadget:
    odds = tuple(int(a) for a in odds)
    if not odds:
        raise InputError("need at least one odds value")
    for a in odds:
        if a < 3:
            raise InputError(f"every odds value must be an integer >= 3, got {a}")
    m = len(odds)
    try:
        q1 = tuple(1.0 / (a + 1) for a in odds)
        q2 = tuple(a / (a + 1) for a in odds)
        odds_root = math.sqrt(math.prod(odds))
    except OverflowError:
        raise InputError("an odds value or the product of the odds passes float64")
    q3 = (1.0,) + (0.5,) * (m - 1)
    full_set_prob = float(np.prod(q1))
    margin = 1.0 - full_set_prob * odds_root * 2 ** (m - 1)
    effort_cost = 1.0 / (max(odds) + 1)
    reward = 2.0 / margin
    setting = ProductSetting(
        costs=(0.0, 0.0, effort_cost),
        rewards=(reward,) + (0.0,) * (m - 1),
        probs=(q1, q2, q3),
    )
    return MinMaxGadget(
        setting=setting,
        odds=odds,
        full_set_prob=full_set_prob,
        odds_root=odds_root,
        margin=margin,
        effort_cost=effort_cost,
        reward=reward,
    )


# ---------------------------------------------------------------------------
# Two worked 2x2 examples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaAdvantage:
    """2x2 instance where relaxing IC by delta beats every IC contract by 4/3."""

    setting: ProductSetting
    delta: float
    ic_opt: float  # best payoff over exactly-IC contracts
    relaxed_payoff: float  # payoff of `contract` under the delta relaxation
    contract: Sparse  # pays only on the outcome {second item}
    action: int


def gen_delta_advantage(epsilon: float, delta: float) -> DeltaAdvantage:
    if not (0.0 < delta <= 0.5):
        raise InputError(f"delta must lie in (0, 1/2], got {delta}")
    if epsilon <= 0.0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    scale = epsilon / delta
    setting = ProductSetting(
        costs=(0.0, scale - scale * epsilon / (2.0 * (scale + epsilon))),
        rewards=(4.0 * epsilon / 3.0, scale + epsilon),
        probs=(
            (0.25, 2.0 * epsilon / (3.0 * (scale + epsilon))),
            (0.0, 1.0),
        ),
    )
    contract = Sparse(payments={0b10: scale - epsilon / 3.0})
    return DeltaAdvantage(
        setting=setting,
        delta=delta,
        ic_opt=epsilon,
        relaxed_payoff=4.0 * epsilon / 3.0,
        contract=contract,
        action=1,
    )


@dataclass(frozen=True)
class SeparableGap:
    """2x2 instance where per-item payments lose a factor approaching 2."""

    setting: ProductSetting
    delta: float
    best_payoff: float  # optimal IC payoff, via `contract`
    separable_payoff: float  # best payoff any per-item payment scheme gets
    contract: Sparse  # pays only on the outcome {first item}
    separable_contract: Separable
    action: int


def gen_separable_gap(delta: float) -> SeparableGap:
    if not (0.0 < delta < 1.0):
        raise InputError(f"delta must lie in (0, 1), got {delta}")
    if delta / 2.0 == 0.0:  # the first action's probability of item 0
        raise InputError(f"delta={delta} is so small that delta/2 underflows float64")
    c2 = (1.0 - delta) * (1.0 / delta - 2.0 + delta)
    r1 = (1.0 - (1.0 - delta / 2.0) * delta) / (delta / 2.0)
    setting = ProductSetting(
        costs=(0.0, c2),
        rewards=(r1, delta),
        probs=((delta / 2.0, 1.0 - delta / 2.0), (0.5, 0.5)),
    )
    r2 = 1.0 / delta - 1.0 + delta
    best_payoff = r2 - c2 / (1.0 - delta * delta)
    contract = Sparse(payments={0b01: 4.0 * c2 / (1.0 - delta * delta)})
    separable_contract = Separable(item_payments=(2.0 * c2 / (1.0 - delta), 0.0))
    return SeparableGap(
        setting=setting,
        delta=delta,
        best_payoff=best_payoff,
        separable_payoff=1.0,
        contract=contract,
        separable_contract=separable_contract,
        action=1,
    )


def separable_gap_delta(eps: float) -> float:
    """The delta at which gen_separable_gap's best/separable ratio equals 2 - eps."""
    if not (0.0 < eps < 1.0):
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    return (3.0 - eps - math.sqrt(eps * eps - 10.0 * eps + 9.0)) / 2.0


# ---------------------------------------------------------------------------
# Random corpora
# ---------------------------------------------------------------------------


RANDOM_MARGIN = 0.05  # gen_random's welfare floor: every action keeps at least this much


def gen_random(n: int, m: int, seed: int) -> ProductSetting:
    """Random normalized setting: uniform probs, max expected reward scaled to 1.

    The first action is free; other costs are uniform in [0, R_i - RANDOM_MARGIN],
    keeping every action's welfare at least RANDOM_MARGIN. Deterministic per seed.
    """
    if n < 1 or m < 1:
        raise InputError("need n >= 1 actions and m >= 1 items")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    if n * m > np.iinfo(np.intp).max // 8:  # past what numpy can address, it raises ValueError
        raise CapacityError(f"a table of {n} x {m} float64 probabilities exceeds the address space")
    rng = np.random.default_rng(seed)
    probs = rng.uniform(size=(n, m))
    rewards = rng.uniform(size=m)
    cost_fracs = rng.uniform(size=n)
    exp_rewards = probs @ rewards
    top = float(exp_rewards.max())
    if top <= 0.0:
        rewards = np.ones(m)
        exp_rewards = probs @ rewards
        top = float(exp_rewards.max())
    rewards = rewards / top
    exp_rewards = exp_rewards / top
    costs = cost_fracs * np.maximum(exp_rewards - RANDOM_MARGIN, 0.0)
    costs[0] = 0.0
    return ProductSetting(costs=costs, rewards=rewards, probs=probs)
