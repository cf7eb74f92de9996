import numpy as np
import pytest

from contract_forge import InputError
from contract_forge.delta_solver import (
    DeltaSolveResult,
    min_payment_delta,
    opt_contract_delta,
)
from contract_forge.exact import IMPLEMENTABLE, NOT_IMPLEMENTABLE, min_payment
from contract_forge.generators import gen_delta_advantage, gen_gap, gen_random
from contract_forge.model import (
    MULTIPLICATIVE,
    ProductSetting,
    Sparse,
    expected_payment,
    expected_reward,
    verify_delta_ic,
)
from contract_forge.oracle import SeparationInstance, min_ratio_bruteforce
from tests.conftest import SCALES, rescaled


def _random_product(rng, n, m):
    return gen_random(n, m, seed=int(rng.integers(0, 2**31)))


def test_gap_two_actions():
    setting = gen_gap(2, 0.1)
    res = min_payment_delta(setting, action=1, delta=0.01)
    assert res.expected_payment <= 9.0 + 1e-6
    assert verify_delta_ic(setting, res.contract, 1, 0.01, MULTIPLICATIVE, tol=1e-7)
    assert set(res.contract.payments) <= set(res.cut_outcomes)
    assert res.expected_payment <= res.gamma_star / 1.01 + 1e-6


def test_single_action_trivial():
    # the loop's first LP has no rows: it pays nothing and the oracle is never asked
    setting = ProductSetting(costs=(0.0,), rewards=(1.0,), probs=((0.5,),))
    opt = opt_contract_delta(setting, delta=0.1)
    assert opt.payoff == pytest.approx(0.5)
    assert opt.contract == Sparse()
    for res in (min_payment_delta(setting, 0, delta=0.1), opt.per_action[0]):
        assert res.contract == Sparse()
        assert res.expected_payment == 0.0 and res.gamma_star == 0.0
        assert [row.verdict for row in res.trace] == ["feasible"]


def test_two_action_closed_form():
    # with two actions the exact optimum pays only on the outcome minimizing
    # the likelihood ratio against the target: payment = c / (1 - min ratio)
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 15:
        setting = _random_product(rng, 2, int(rng.integers(2, 7)))
        if setting.costs[1] <= 0.0:
            continue
        inst = SeparationInstance(
            weights=(1.0,), mixtures=(setting.probs[0],), reference=setting.probs[1]
        )
        rho = min_ratio_bruteforce(inst).ratio
        if rho >= 1.0 - 1e-9:
            continue
        opt = setting.costs[1] / (1.0 - rho)
        res = min_payment_delta(setting, 1, delta=0.1)
        assert res.expected_payment <= opt + 1e-9
        assert verify_delta_ic(setting, res.contract, 1, 0.1, MULTIPLICATIVE, tol=1e-7)
        checked += 1


def test_at_most_exact_optimum():
    rng = np.random.default_rng(7)
    for _ in range(10):
        setting = _random_product(rng, 3, 6)
        for action in range(3):
            exact = min_payment(setting, action, delta=0.0)
            res = min_payment_delta(setting, action, delta=0.1)
            assert verify_delta_ic(
                setting, res.contract, action, 0.1, MULTIPLICATIVE, tol=1e-6
            )
            if exact.status == IMPLEMENTABLE:
                assert res.expected_payment <= exact.expected_payment + 1e-9
            assert res.expected_payment <= res.gamma_star / 1.1 + 1e-7


def test_accepted_weights_feasible_for_plain_dual():
    # weights the oracle could not cut must satisfy every outcome's constraint
    # of the unstrengthened dual, not only approximately
    rng = np.random.default_rng(3)
    for _ in range(5):
        setting = _random_product(rng, 3, 6)
        res = min_payment_delta(setting, 2, delta=0.2)
        lam = np.asarray(res.dual_weights)
        total = lam.sum()
        probs = np.asarray(setting.probs)
        others = [0, 1]
        for mask in range(2**setting.m):
            bits = np.array([(mask >> j) & 1 for j in range(setting.m)], dtype=bool)
            q = np.where(bits[None, :], probs, 1.0 - probs).prod(axis=1)
            if q[2] <= 0.0:
                continue
            ratios = q[others] / q[2]
            assert total - 1.0 <= float(lam @ ratios) + 1e-7


def test_delta_advantage_instance():
    inst = gen_delta_advantage(0.3, 0.5)
    # the documented relaxed contract is one feasible point; the solver must
    # do at least as well
    opt = opt_contract_delta(inst.setting, delta=inst.delta)
    assert opt.payoff >= inst.relaxed_payoff - 1e-5
    assert opt.action == inst.action
    assert verify_delta_ic(
        inst.setting, opt.contract, opt.action, inst.delta, MULTIPLICATIVE, tol=1e-7
    )


def test_gap_opt_contract():
    setting = gen_gap(2, 0.1)
    opt = opt_contract_delta(setting, delta=0.01)
    assert opt.payoff >= 1.0 - 1e-5
    assert len(opt.per_action) == 2
    for action, res in enumerate(opt.per_action):
        assert isinstance(res, DeltaSolveResult)
        assert res.action == action


def test_payment_consistent_with_contract():
    setting = gen_gap(3, 0.1)
    res = min_payment_delta(setting, 2, delta=0.05)
    realized = expected_payment(setting, 2, res.contract)
    assert realized == pytest.approx(res.expected_payment, abs=1e-9)


def test_trace_records_search():
    setting = gen_gap(2, 0.1)
    res = min_payment_delta(setting, 1, delta=0.05)
    verdicts = [row.verdict for row in res.trace]
    assert verdicts == ["cut"] * (len(verdicts) - 1) + ["feasible"]
    assert [row.iteration for row in res.trace] == list(range(len(verdicts)))
    assert [row.cut_outcome for row in res.trace[:-1]] == list(res.cut_outcomes)
    assert res.trace[-1].restricted_value == pytest.approx(res.gamma_star)


def test_input_validation():
    setting = gen_gap(2, 0.1)
    with pytest.raises(InputError):
        min_payment_delta(setting, 1, delta=0.0)
    with pytest.raises(InputError):
        min_payment_delta(setting, 5, delta=0.1)
    # no cap on the action count: the payment LP has one row per rival
    wide = gen_random(7, 3, seed=1)
    res = min_payment_delta(wide, 0, delta=0.1)
    assert verify_delta_ic(wide, res.contract, 0, 0.1, MULTIPLICATIVE, tol=1e-9)


def test_payoff_near_ic_optimum():
    rng = np.random.default_rng(11)
    for _ in range(5):
        setting = _random_product(rng, 3, 5)
        ic_best = max(
            expected_reward(setting, i) - min_payment(setting, i).expected_payment
            for i in range(3)
            if min_payment(setting, i).status == IMPLEMENTABLE
        )
        opt = opt_contract_delta(setting, delta=0.1)
        assert opt.payoff >= ic_best - 1e-9


@pytest.mark.parametrize("n, m, seed, action", [(4, 10, 5, 3), (4, 14, 280, 2)])
def test_many_actions_within_exact_minimum(n, m, seed, action):
    # the payments and the certificate come from one LP, so they cannot
    # disagree on settings with three or more actions
    setting = gen_random(n, m, seed=seed)
    res = min_payment_delta(setting, action, delta=0.1)
    assert verify_delta_ic(setting, res.contract, action, 0.1, MULTIPLICATIVE, tol=1e-9)
    exact = min_payment(setting, action)
    assert exact.status == IMPLEMENTABLE
    assert res.expected_payment <= exact.expected_payment + 1e-9


def test_twin_of_cheaper_action_takes_base_payment():
    # action 1 has action 0's item probabilities at a higher cost: no contract
    # makes it IC, and the delta-IC minimum is the base payment (c_1 - c_0) / delta
    setting = ProductSetting(
        costs=(0.1, 0.3), rewards=(1.0, 1.0), probs=((0.6, 0.5), (0.6, 0.5))
    )
    assert min_payment(setting, 1).status == NOT_IMPLEMENTABLE
    res = min_payment_delta(setting, 1, delta=0.1)
    assert res.contract.base == pytest.approx(2.0, rel=1e-12)
    assert res.expected_payment == pytest.approx(2.0, rel=1e-12)
    assert verify_delta_ic(setting, res.contract, 1, 0.1, MULTIPLICATIVE, tol=1e-9)


@pytest.mark.parametrize("k", SCALES)
def test_opt_contract_delta_scale_invariant(k):
    # the winner and its contract do not depend on the unit of money
    for seed in range(20):
        base = gen_random(4, 8, seed)
        scaled = rescaled(base, k)
        want, got = opt_contract_delta(base, 0.1), opt_contract_delta(scaled, 0.1)
        assert got.action == want.action, f"seed {seed}"
        assert got.payoff == pytest.approx(k * want.payoff, rel=1e-6, abs=1e-12 * k), f"seed {seed}"
