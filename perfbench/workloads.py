"""The two workloads: inputs made from a seed, the operations, their answers.

A workload builds a list of operations from the seed; the timed loop runs that
list as one round, again and again, so every run attempts whole rounds and
the share of failed operations is the same in every run. Each operation is of
one kind; the kind says how to cut its result down to an answer, how to
compute a reference apart from the program (reference.py) and how to check
the answer against it. Each operation holds the program's input object and,
apart from it, the plain arrays the checks work from.

Only the program's public functions are called, and always through their
module (`exact.opt_contract`, not a name imported here), so that the traced
run can wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from contract_forge import blackbox, delta_solver, exact, linear
from contract_forge.generators import gen_random
from contract_forge.model import ProductSetting


@dataclass
class Op:
    kind: str  # a key of KINDS
    key: tuple  # operations with equal keys have equal inputs and answers
    run: object  # callable taking no argument: the operation itself
    arrays: tuple  # (costs, rewards, probs) as given to the program
    params: dict = field(default_factory=dict)
    known_fault: str = ""  # non-empty: a wrong answer counts as failed, citing this


def _arrays(setting: ProductSetting):
    return (np.array(setting.costs), np.array(setting.rewards), np.array(setting.probs))


def _setting_seeds(tag: int, seed: int, count: int) -> list[int]:
    rng = np.random.default_rng([tag, seed])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# ---------------------------------------------------------------------------
# opt-contract (workload exact): enumeration, LP assembly, the wide simplex
# ---------------------------------------------------------------------------

OPT_N, OPT_M = 4, 13
OPT_SETTINGS = 40
# Fixed settings solved in large money units, independent of the seed. With
# rewards and costs x1e9, lpcore's absolute phase-1 tolerance (tol_feas=1e-7)
# declares implementable actions infeasible: gen_random seeds 0 and 3 below
# come back with the wrong payoff every time; seeds 1 and 2 come back right.
OPT_SCALE = 1e9
OPT_SCALED_SEEDS = (0, 1, 2, 3)
SCALE_FAULT = "lpcore phase-1 tolerance is absolute (tol_feas=1e-7): wrong payoff at x1e9"


def _scaled(setting: ProductSetting, scale: float) -> ProductSetting:
    return ProductSetting(
        costs=tuple(c * scale for c in setting.costs),
        rewards=tuple(r * scale for r in setting.rewards),
        probs=setting.probs,
    )


def build_opt(seed: int) -> list[Op]:
    ops = []
    inputs = [(s, 1.0, "") for s in _setting_seeds(1, seed, OPT_SETTINGS)]
    inputs += [(s, OPT_SCALE, SCALE_FAULT) for s in OPT_SCALED_SEEDS]
    for s, scale, fault in inputs:
        base = gen_random(OPT_N, OPT_M, s)
        setting = _scaled(base, scale) if scale != 1.0 else base
        ops.append(Op(
            kind="opt-contract",
            key=(s, scale),
            run=lambda setting=setting: exact.opt_contract(setting),
            arrays=_arrays(setting),
            params={"scale": scale, "unscaled": _arrays(base)},
            known_fault=fault,
        ))
    return ops


def reference_opt(op: Op):
    from reference import enumerate_outcomes, opt_payoffs_highs

    costs, rewards, probs = op.params["unscaled"]
    dist, outcome_rewards = enumerate_outcomes(probs, rewards)
    return opt_payoffs_highs(dist, outcome_rewards, costs)


def answer_opt(result) -> dict:
    c = result.contract
    return {"payoff": result.payoff, "action": result.action, "base": c.base,
            "payments": c.payments}


def check_opt(op: Op, answer, ref):
    from reference import check_opt_contract

    costs, rewards, probs = op.arrays
    return check_opt_contract(probs, rewards, costs, ref, op.params["scale"], answer)


# ---------------------------------------------------------------------------
# delta-ic (workload relaxed): the separation oracle in the cutting-plane loop
# ---------------------------------------------------------------------------

# One non-free action (n=2). With n >= 3, min_payment_delta raises "extracted
# payment exceeds the certified level" on roughly 1 setting in 100 to 600,
# depending on the seed, so no seeded pool of them runs without failures;
# with n=2 the restricted dual has one variable and over 5000 settings at
# m=13..16 never failed. One operation costs 1 to 7 oracle calls, so a round
# holds many distinct settings to keep the run's mean near the population's.
DELTA_N, DELTA_M, DELTA, DELTA_ACTION = 2, 14, 0.1, 1
DELTA_OPS = 180
# min_payment_delta's documented bound: at most the exact minimum plus
# EPS_SEARCH_FRACTION (1e-6) times the target's expected reward
DELTA_SEARCH_FRACTION = 1e-6


def build_delta(seed: int) -> list[Op]:
    ops = []
    for s in _setting_seeds(2, seed, DELTA_OPS):
        setting = gen_random(DELTA_N, DELTA_M, s)
        ops.append(Op(
            kind="delta-ic",
            key=(s,),
            run=lambda setting=setting: delta_solver.min_payment_delta(
                setting, DELTA_ACTION, DELTA),
            arrays=_arrays(setting),
        ))
    return ops


def reference_delta(op: Op):
    """The exact IC minimum payment, in closed form for two actions."""
    from reference import enumerate_outcomes, min_payment_one_rival

    costs, rewards, probs = op.arrays
    dist, _ = enumerate_outcomes(probs, rewards)
    return min_payment_one_rival(dist, costs, DELTA_ACTION)


def answer_delta(result) -> dict:
    c = result.contract
    return {"payment": result.expected_payment, "base": c.base, "payments": c.payments}


def check_delta(op: Op, answer, ref):
    from reference import check_delta_contract

    costs, rewards, probs = op.arrays
    search_tol = DELTA_SEARCH_FRACTION * max(float(probs[DELTA_ACTION] @ rewards), 1e-3)
    return check_delta_contract(probs, costs, DELTA_ACTION, DELTA, ref, search_tol, answer)


# ---------------------------------------------------------------------------
# simple-contracts (workload relaxed): many small LPs, no enumeration or oracle
# ---------------------------------------------------------------------------

# optimal_separable is left out: on gen_random(60, 6, 477832360) it raises
# ResourceError("phase-1 simplex lost boundedness to roundoff"), and a fault
# that only some seeds meet cannot keep the failed share the same per run.
SIMPLE_N, SIMPLE_M, SIMPLE_DELTA, SIMPLE_GAMMA = 80, 6, 0.05, 0.1
SIMPLE_SETTINGS = 8


def _simple(setting):
    return (
        linear.optimal_linear(setting, SIMPLE_DELTA),
        linear.approx_linear_delta(setting, SIMPLE_DELTA, SIMPLE_GAMMA),
    )


def build_simple(seed: int) -> list[Op]:
    ops = []
    for s in _setting_seeds(3, seed, SIMPLE_SETTINGS):
        setting = gen_random(SIMPLE_N, SIMPLE_M, s)
        ops.append(Op(kind="simple-contracts", key=(s,),
                      run=lambda setting=setting: _simple(setting),
                      arrays=_arrays(setting)))
    return ops


def reference_simple(op: Op):
    from reference import best_linear_payoff

    costs, rewards, probs = op.arrays
    return best_linear_payoff(probs @ rewards, costs, SIMPLE_DELTA)


def answer_simple(result) -> dict:
    lin, approx = result
    return {"linear": tuple(lin), "approx": (approx.alpha, approx.action, approx.payoff)}


def check_simple(op: Op, answer, ref):
    from reference import check_simple as check

    costs, rewards, probs = op.arrays
    return check(probs @ rewards, costs, SIMPLE_DELTA, SIMPLE_GAMMA, ref, answer)


# ---------------------------------------------------------------------------
# sampled-pipeline (workload exact): sampling, then tiny LPs on the empirical model
# ---------------------------------------------------------------------------

SAMPLED_N, SAMPLED_M, SAMPLED_EPS, SAMPLED_GAMMA = 3, 3, 0.2, 0.1
SAMPLED_OPS = 20
# smallest outcome probability of every hidden setting, within +-1%, so that
# every operation draws about the same ~0.82M samples per action
SAMPLED_ETA = 1e-3
SAMPLED_ETA_BAND = 0.01
SAMPLED_MARGIN = 0.05


def hidden_setting(rng: np.random.Generator) -> ProductSetting:
    """n=3, m=3 setting with max expected reward 1 and eta pinned to the band.

    Item probabilities are drawn in [0.15, 0.85], so every action's least
    likely outcome has probability >= 0.15^3 > eta; then one probability is
    lowered until that action's least likely outcome has probability eta.
    """
    n, m = SAMPLED_N, SAMPLED_M
    probs = rng.uniform(0.15, 0.85, size=(n, m))
    i, j = int(rng.integers(n)), int(rng.integers(m))
    eta = SAMPLED_ETA * (1.0 + rng.uniform(-SAMPLED_ETA_BAND, SAMPLED_ETA_BAND))
    rest = np.prod(np.delete(np.minimum(probs[i], 1.0 - probs[i]), j))
    probs[i, j] = eta / rest
    rewards = rng.uniform(size=m)
    expected = probs @ rewards
    rewards, expected = rewards / expected.max(), expected / expected.max()
    costs = [0.0] + [float(rng.uniform()) * max(0.0, expected[k] - SAMPLED_MARGIN)
                     for k in range(1, n)]
    return ProductSetting(costs=tuple(costs), rewards=tuple(rewards.tolist()),
                          probs=tuple(map(tuple, probs.tolist())))


def _sampled(hidden, oracle_seed):
    return blackbox.blackbox_contract(blackbox.QueryOracle(hidden, seed=oracle_seed),
                                      SAMPLED_EPS, SAMPLED_GAMMA)


def build_sampled(seed: int) -> list[Op]:
    rng = np.random.default_rng([4, seed])
    ops = []
    for k in range(SAMPLED_OPS):
        hidden = hidden_setting(rng)
        oracle_seed = int(rng.integers(0, 2**31 - 1))
        ops.append(Op(kind="sampled-pipeline", key=(k,),
                      run=lambda h=hidden, s=oracle_seed: _sampled(h, s),
                      arrays=_arrays(hidden)))
    return ops


def reference_sampled(op: Op):
    from reference import enumerate_outcomes, opt_payoffs_highs

    costs, rewards, probs = op.arrays
    dist, outcome_rewards = enumerate_outcomes(probs, rewards)
    eta = float(dist[dist > 0.0].min())
    return eta, float(np.max(opt_payoffs_highs(dist, outcome_rewards, costs)))


def answer_sampled(result) -> dict:
    c = result.contract
    return {"samples": result.samples_per_action, "action": result.action, "base": c.base,
            "payments": c.payments, "payoff_on_true": result.payoff_on_true,
            "opt_on_true": result.opt_on_true}


def check_sampled(op: Op, answer, ref):
    """Per trial; returns (reason or None, trial met the paper's guarantee)."""
    from reference import check_sampled as check

    costs, rewards, probs = op.arrays
    return check(probs, probs @ rewards, costs, SAMPLED_EPS, SAMPLED_GAMMA, ref, answer)


@dataclass(frozen=True)
class Kind:
    answer: object  # program result -> small dict, taken outside the timed call
    reference: object  # Op -> reference, computed after the timed phase
    check: object  # (Op, answer, reference) -> None or the reason it is wrong
    # share of trials per run that must meet a guarantee holding with
    # probability 1 - gamma; None when every answer is checked on its own
    guarantee_share: float | None = None


KINDS = {
    "opt-contract": Kind(answer_opt, reference_opt, check_opt),
    "sampled-pipeline": Kind(answer_sampled, reference_sampled, check_sampled,
                             guarantee_share=1.0 - SAMPLED_GAMMA),
    "delta-ic": Kind(answer_delta, reference_delta, check_delta),
    "simple-contracts": Kind(answer_simple, reference_simple, check_simple),
}


def interleave(*lists: list[Op]) -> list[Op]:
    """Merge the lists, each kept in order and spread evenly over the round."""
    keyed = [((k + 0.5) / len(ops), i, op) for i, ops in enumerate(lists)
             for k, op in enumerate(ops)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


WORKLOADS = {
    "exact": lambda seed: interleave(build_opt(seed), build_sampled(seed)),
    "relaxed": lambda seed: interleave(build_delta(seed), build_simple(seed)),
}
