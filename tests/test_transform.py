import math

import numpy as np
import pytest

from contract_forge.errors import InputError
from contract_forge.generators import gen_delta_advantage, gen_random
from contract_forge.model import (
    ADDITIVE,
    Linear,
    Mixed,
    Separable,
    Sparse,
    agent_utility,
    best_response,
    expected_payment,
    expected_reward,
    ic_slack,
    principal_payoff,
    verify_delta_ic,
)
from contract_forge.transform import delta_to_ic, delta_to_ir, designated_action
from tests.conftest import SCALES, rescaled


def random_sparse(setting, rng, max_pay=0.8):
    num = 1 << setting.m
    k = int(rng.integers(1, min(num, 6)))
    outcomes = rng.choice(num, size=k, replace=False)
    return Sparse(payments={int(s): float(rng.uniform(0.0, max_pay)) for s in outcomes})


def test_delta_zero_identity():
    setting = gen_random(3, 4, seed=11)
    contract = Sparse(payments={0b1111: 0.3})
    res = delta_to_ic(setting, contract, 0.0)
    assert res.contract is contract
    action, payoff = designated_action(setting, contract, 0.0)
    assert res.source_action == action
    assert res.payoff_bound == pytest.approx(payoff, abs=1e-12)


def test_documented_negative_bound():
    adv = gen_delta_advantage(0.3, 0.5)
    res = delta_to_ic(adv.setting, adv.contract, adv.delta)
    root = math.sqrt(0.5)
    assert res.source_action == adv.action
    assert res.source_payoff == pytest.approx(0.4, abs=1e-9)
    assert res.payoff_bound == pytest.approx((1 - root) * 0.4 - (root - 0.5), abs=1e-9)
    assert res.payoff_bound < 0  # vacuous here, the blend still has to honor it
    choice = best_response(adv.setting, res.contract)
    assert principal_payoff(adv.setting, choice.action, res.contract) >= res.payoff_bound
    assert verify_delta_ic(adv.setting, res.contract, choice.action, 0.0)


def test_blend_interpolates_payments():
    setting = gen_random(3, 3, seed=5)
    rng = np.random.default_rng(17)
    contract = random_sparse(setting, rng)
    delta = 0.25
    res = delta_to_ic(setting, contract, delta)
    root = math.sqrt(delta)
    assert isinstance(res.contract, Mixed)
    assert res.contract.alpha == pytest.approx(root)
    for i in range(setting.n):
        blended = expected_payment(setting, i, res.contract)
        direct = (1 - root) * expected_payment(setting, i, contract)
        direct += root * expected_reward(setting, i)
        assert blended == pytest.approx(direct, abs=1e-12)


def test_random_sweep_bound_and_exact_ic():
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        setting = gen_random(n, m, seed=int(rng.integers(1, 10**6)))
        contract = random_sparse(setting, rng)
        delta = float(rng.choice([0.05, 0.25, 0.64]))
        res = delta_to_ic(setting, contract, delta)
        root = math.sqrt(delta)
        bound = (1 - root) * res.source_payoff - (root - delta)
        assert res.payoff_bound == pytest.approx(bound, abs=1e-12)
        choice = best_response(setting, res.contract)
        assert verify_delta_ic(setting, res.contract, choice.action, 0.0)
        realized = principal_payoff(setting, choice.action, res.contract)
        assert realized >= bound - 1e-7


def test_linear_input_stays_linear():
    setting = gen_random(2, 3, seed=3)
    res = delta_to_ic(setting, Linear(alpha=0.4), 0.16)
    assert isinstance(res.contract, Linear)
    assert res.contract.alpha == pytest.approx((1 - 0.4) * 0.4 + 0.4)


def test_separable_rejected():
    setting = gen_random(2, 3, seed=7)
    contract = Separable(item_payments=(0.1, 0.0, 0.2))
    with pytest.raises(InputError):
        delta_to_ic(setting, contract, 0.25)
    with pytest.raises(InputError):
        delta_to_ir(setting, contract, 0.25)


def test_delta_range_validation():
    setting = gen_random(2, 2, seed=9)
    contract = Sparse(payments={0b11: 0.2})
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(InputError):
            delta_to_ic(setting, contract, bad)


def test_ir_lift_drops_exactly_delta():
    adv = gen_delta_advantage(0.3, 0.5)
    delta = 0.1
    # at delta=0.1 both actions qualify; the high-payoff one is still action 1
    action, payoff = designated_action(adv.setting, adv.contract, delta)
    assert action == adv.action
    lifted = delta_to_ir(adv.setting, adv.contract, delta)
    assert principal_payoff(adv.setting, action, lifted) == pytest.approx(
        payoff - delta, abs=1e-12
    )
    assert agent_utility(adv.setting, action, lifted) >= 0.0
    assert ic_slack(adv.setting, lifted, action, delta, ADDITIVE) >= -1e-12


def test_ir_zero_contract_when_payoff_small():
    setting = gen_random(2, 2, seed=13)
    contract = Sparse(payments={s: 0.9 for s in range(4)})  # pays ~0.9 flat
    action, payoff = designated_action(setting, contract, 0.5)
    assert payoff <= 0.5
    lifted = delta_to_ir(setting, contract, 0.5)
    assert isinstance(lifted, Sparse)
    assert lifted.base == 0.0 and not lifted.payments


def test_ir_linear_becomes_mixed():
    setting = gen_random(2, 3, seed=21)
    lifted = delta_to_ir(setting, Linear(alpha=0.2), 0.01)
    assert isinstance(lifted, Mixed)
    assert lifted.alpha == pytest.approx(0.2)
    assert lifted.sparse.base == pytest.approx(0.01)


def test_ir_random_sweep():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        setting = gen_random(n, m, seed=int(rng.integers(1, 10**6)))
        contract = random_sparse(setting, rng, max_pay=0.5)
        delta = float(rng.choice([0.02, 0.1, 0.3]))
        action, payoff = designated_action(setting, contract, delta)
        lifted = delta_to_ir(setting, contract, delta)
        choice = best_response(setting, lifted)
        assert agent_utility(setting, choice.action, lifted) >= -1e-9
        if payoff > delta:
            assert ic_slack(setting, lifted, action, delta, ADDITIVE) >= -1e-9
            assert agent_utility(setting, action, lifted) >= -1e-9
            assert principal_payoff(setting, action, lifted) >= payoff - delta - 1e-9


@pytest.mark.parametrize("k", SCALES)
def test_designated_action_scale_invariant(k):
    # delta is additive, so it takes the unit of money too. delta_to_ic is not
    # tested this way: its payoff guarantee holds on normalized settings only.
    rng = np.random.default_rng(5)
    for seed in range(40):
        base = gen_random(4, 6, seed)
        scaled = rescaled(base, k)
        contract = random_sparse(base, rng)
        big = Sparse(payments={s: k * p for s, p in contract.payments.items()})
        for delta in (0.0, 0.05, 0.2, 0.5):
            want_action, want = designated_action(base, contract, delta)
            got_action, got = designated_action(scaled, big, k * delta)
            assert got_action == want_action, f"seed {seed} delta {delta}"
            assert got == pytest.approx(k * want, rel=1e-9, abs=1e-12 * k)
