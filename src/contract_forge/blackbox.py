"""Query-access pipeline: learn outcome distributions by sampling, solve on
the empirical model, and carry the guarantees back to the hidden truth.

The principal knows actions, costs, and rewards but can only sample outcomes.
With s = ceil(3 ln(2n/(eta gamma)) / (eta eps^2)) queries per action (eta the
smallest nonzero outcome probability) every outcome frequency lands within a
(1 +/- eps) factor of its true probability with probability >= 1 - gamma.  On
that event, solving for the optimal additively-2eps-IC contract on the
empirical model yields a contract that is 4eps-IC on the truth and loses at
most 5eps of the optimal IC payoff.

estimate needs only how often each outcome turns up, so it draws the counts
of s queries directly (QueryOracle.sample_counts) instead of s outcomes: one
multinomial over an explicit setting's outcomes, or, on a product setting,
one binomial split of every partial outcome's count per item.  Its time and
memory grow with the number of distinct outcomes seen, not with s.

Also houses the two-setting lower-bound construction showing that when eta is
tiny, any scheme needs on the order of 1/sqrt(eta) queries to tell apart two
settings whose optimal contracts differ, because the distinguishing outcomes
almost never show up in a sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import CapacityError, InputError
from .exact import opt_contract
from .model import (
    ADDITIVE,
    MAX_ITEMS,
    PARTIALS_CAP,
    ExplicitSetting,
    ProductSetting,
    Setting,
    Sparse,
    _check_action,
    is_normalized,
    min_nonzero_outcome_probability,
    outcome_rewards,
    principal_payoff,
)

TAU = 1.0 + math.sqrt(2.0)
ETA_MAX_NEGATIVE_PAIR = 1.0 / 625.0


def required_samples(n: int, eta: float, eps: float, gamma: float) -> int:
    """Queries per action for the (1 +/- eps) estimation event.

    ceil(3 ln(2n/(eta gamma)) / (eta eps^2)), natural log (the tail bound
    behind it is exponential).
    """
    if not isinstance(n, int) or n < 1:
        raise InputError(f"n must be a positive integer, got {n!r}")
    if not 0.0 < eta <= 1.0:
        raise InputError(f"eta must lie in (0, 1], got {eta}")
    if not 0.0 < eps <= 0.5:
        raise InputError(f"eps must lie in (0, 1/2], got {eps}")
    if not 0.0 < gamma < 1.0:
        raise InputError(f"gamma must lie in (0, 1), got {gamma}")
    if eta * gamma == 0.0 or eta * eps * eps == 0.0:
        raise CapacityError(f"eta={eta} asks for more queries than float64 can count")
    count = 3.0 * math.log(2.0 * n / (eta * gamma)) / (eta * eps * eps)
    if not math.isfinite(count):
        raise CapacityError(f"eta={eta} asks for more queries than float64 can count")
    return math.ceil(count)


class QueryOracle:
    """Sampling access to a hidden setting, deterministic given the seed.

    Querying action i returns outcome identifiers drawn from that action's
    distribution: bitmasks for product settings, column indices for explicit
    ones.  reset() rewinds the stream to the seed.
    """

    def __init__(self, hidden: Setting, seed: int = 0):
        if not isinstance(hidden, (ProductSetting, ExplicitSetting)):
            raise InputError("hidden setting must be a product or explicit setting")
        if isinstance(hidden, ProductSetting) and hidden.m > MAX_ITEMS:
            raise CapacityError(f"{hidden.m} items do not fit a 64-bit outcome bitmask")
        if int(seed) < 0:
            raise InputError(f"seed must be nonnegative, got {seed}")
        self.hidden = hidden
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def query(self, action: int, size: int = 1) -> np.ndarray:
        """`size` outcome identifiers drawn independently from `action`'s distribution.

        The outcomes of sample_counts(action, size), each repeated by its
        count, in an order shuffled by the oracle's generator.  So it shares
        sample_counts' cap: ids spread over more than PARTIALS_CAP outcomes
        raise CapacityError, which needs more than PARTIALS_CAP queries.
        """
        outcomes, counts = self.sample_counts(action, size)
        ids = np.repeat(outcomes, counts)
        self._rng.shuffle(ids)
        return ids

    def sample_counts(self, action: int, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The outcomes seen in `size` queries of `action`, ascending, and how often.

        The counts are Multinomial(size, q_action), drawn without drawing the
        queries one by one; query(action, size) repeats each outcome by its count.
        An explicit setting draws one multinomial over its outcomes.  A product
        setting starts from one partial outcome (no item) holding all `size`
        queries and, item by item, splits each partial's count binomially
        between leaving the item out and taking it in; items are independent,
        so the split is exact.  Partials with a count of 0 are dropped, so at
        most min(size, 2^m) are live; past PARTIALS_CAP it raises
        CapacityError.
        """
        _check_action(self.hidden, action)
        if size < 1:
            raise InputError("size must be at least 1")
        if size > np.iinfo(np.int64).max:
            raise CapacityError(f"{size} queries per action exceed a 64-bit count")
        if isinstance(self.hidden, ExplicitSetting):
            row = self.hidden.dist[action]  # sums to within TOL_VALID of 1
            counts = self._rng.multinomial(size, row / row.sum())
            outcomes = np.flatnonzero(counts)
            return outcomes, counts[outcomes]
        masks = np.zeros(1, dtype=np.int64)
        counts = np.array([size], dtype=np.int64)
        for j, q in enumerate(self.hidden.probs[action]):
            taken = self._rng.binomial(counts, q)
            left = counts - taken
            out, into = left > 0, taken > 0
            if np.count_nonzero(out) + np.count_nonzero(into) > PARTIALS_CAP:
                raise CapacityError(
                    f"sampling action {action} keeps more than {PARTIALS_CAP} partial outcomes"
                )
            # every mask so far lies below 1 << j, so the order stays ascending
            masks = np.concatenate([masks[out], masks[into] | (1 << j)])
            counts = np.concatenate([left[out], taken[into]])
        return masks, counts


@dataclass(frozen=True)
class EmpiricalModel:
    """Observed outcomes and their per-action frequencies after s queries each.

    `setting` is the explicit setting over the observed-outcome union with
    true rewards per outcome and the observed frequencies as its dist;
    `outcomes[k]` is the hidden identifier behind column k.
    """

    outcomes: Tuple[int, ...]
    samples: int
    setting: ExplicitSetting

    def frequency(self, action: int, outcome: int) -> float:
        try:
            k = self.outcomes.index(outcome)
        except ValueError:
            return 0.0
        return float(self.setting.dist[action, k])

    def relabel(self, contract: Sparse) -> Sparse:
        """Map a contract over empirical columns back to hidden identifiers."""
        return Sparse(
            base=contract.base,
            payments={self.outcomes[k]: p for k, p in contract.payments.items()},
        )

    def restrict(self, contract: Sparse) -> Sparse:
        """Map a contract over hidden identifiers onto empirical columns.

        Payments on never-observed outcomes are dropped; they have zero
        empirical probability under every action, so nothing changes on the
        empirical side.
        """
        index = {s: k for k, s in enumerate(self.outcomes)}
        return Sparse(
            base=contract.base,
            payments={index[s]: p for s, p in contract.payments.items() if s in index},
        )


def estimate(oracle: QueryOracle, s: int) -> EmpiricalModel:
    """Record empirical outcome frequencies over s queries per action.

    Draws the counts of the s queries (QueryOracle.sample_counts, which
    rejects an s below 1), not the queries themselves.
    """
    hidden = oracle.hidden
    draws = [oracle.sample_counts(i, s) for i in range(hidden.n)]
    # sorted distinct ids by one sort; np.unique would import numpy.ma
    outcomes = np.sort(np.concatenate([ids for ids, _ in draws]))
    outcomes = outcomes[np.concatenate(([True], outcomes[1:] != outcomes[:-1]))]
    counts = np.zeros((hidden.n, outcomes.size), dtype=np.int64)
    for i, (ids, cnt) in enumerate(draws):
        counts[i, np.searchsorted(outcomes, ids)] = cnt
    setting = ExplicitSetting(
        costs=hidden.costs,
        outcome_rewards=outcome_rewards(hidden, outcomes),
        dist=counts / s,
    )
    return EmpiricalModel(outcomes=tuple(outcomes.tolist()), samples=s, setting=setting)


@dataclass(frozen=True)
class BlackBoxResult:
    contract: Sparse
    claimed_delta: float
    action: int
    payoff_on_true: float
    opt_on_true: float
    payoff_bound: float
    samples_per_action: int
    eta: float
    empirical: EmpiricalModel


def blackbox_contract(oracle: QueryOracle, eps: float, gamma: float) -> BlackBoxResult:
    """Estimate, then solve for the optimal additively-2eps-IC contract.

    On the (1 +/- eps) estimation event the returned contract is 4eps-IC on
    the hidden setting and its payoff there is at least the optimal IC payoff
    minus 5eps.  The benchmark reads the hidden setting itself (its smallest
    outcome probability and its exact optimum), so this is an experiment
    driver, not part of the query complexity.
    """
    hidden = oracle.hidden
    if not is_normalized(hidden):
        raise InputError("hidden setting must be normalized (expected rewards <= 1)")
    eta = min_nonzero_outcome_probability(hidden)
    s = required_samples(hidden.n, eta, eps, gamma)
    empirical = estimate(oracle, s)
    solved = opt_contract(empirical.setting, delta=2.0 * eps, notion=ADDITIVE)
    contract = empirical.relabel(solved.contract)
    opt_true = opt_contract(hidden).payoff
    return BlackBoxResult(
        contract=contract,
        claimed_delta=4.0 * eps,
        action=solved.action,
        payoff_on_true=principal_payoff(hidden, solved.action, contract),
        opt_on_true=opt_true,
        payoff_bound=opt_true - 5.0 * eps,
        samples_per_action=s,
        eta=eta,
        empirical=empirical,
    )


@dataclass(frozen=True)
class NegativePairInfo:
    tau: float
    mu: float
    beta: float
    eta: float
    reward_low: float
    benchmark_payoff: float
    symmetric_payoff_cap: float

    def query_lower_bound(self, gamma: float) -> float:
        """Queries needed to tell the pair apart with probability 1 - gamma."""
        if not 0.0 < gamma < 1.0:
            raise InputError(f"gamma must lie in (0, 1), got {gamma}")
        return -math.log(gamma) / (9.0 * math.sqrt(self.eta))


def negative_pair(eta: float) -> Tuple[ProductSetting, ProductSetting, NegativePairInfo]:
    """Two settings differing only in the second action's item probabilities.

    Both have optimal IC payoff beta, but the optimal contract pays for the
    high-likelihood-ratio item, which is item 1 in one setting and item 2 in
    the other.  Outcomes revealing the difference carry probability eta, so
    distinguishing the settings needs roughly 1/sqrt(eta) queries while any
    single contract that hedges across both loses a constant factor.
    """
    if not 0.0 < eta <= ETA_MAX_NEGATIVE_PAIR:
        raise InputError(f"eta must lie in (0, {ETA_MAX_NEGATIVE_PAIR}], got {eta}")
    tau = TAU
    mu = math.sqrt(eta) / tau
    beta = 1.0 / (1.0 + 1.0 / tau**2)
    reward = beta / (tau**2 * mu)
    cost_high = ((tau - 1.0) / tau**3) * beta / (1.0 - mu)
    first = ProductSetting(
        costs=(0.0, cost_high),
        rewards=(reward, reward),
        probs=((tau * mu, tau * mu), (tau**2 * mu, mu)),
    )
    second = ProductSetting(
        costs=(0.0, cost_high),
        rewards=(reward, reward),
        probs=((tau * mu, tau * mu), (mu, tau**2 * mu)),
    )
    cap = (1.0 + 1.0 / tau**2 - (tau**2 + 1.0) / ((tau - 1.0) * tau**3)) * beta
    info = NegativePairInfo(
        tau=tau,
        mu=mu,
        beta=beta,
        eta=eta,
        reward_low=2.0 * beta / tau,
        benchmark_payoff=beta,
        symmetric_payoff_cap=cap,
    )
    return first, second, info
