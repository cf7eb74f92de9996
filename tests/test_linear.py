import numpy as np
import pytest

from contract_forge import InputError
from contract_forge.generators import gen_gap, gen_random, gen_separable_gap, separable_gap_delta
from contract_forge.linear import (
    Envelope,
    LinearApproxResult,
    _cheapest_delta_ic_alpha,
    approx_linear_delta,
    optimal_linear,
    optimal_separable,
    upper_envelope,
)
from contract_forge.lpcore import INFEASIBLE, OPTIMAL, solve_lp
from contract_forge.model import (
    ADDITIVE,
    Linear,
    ProductSetting,
    Separable,
    best_response,
    expected_reward,
    expected_rewards,
    verify_delta_ic,
)
from contract_forge.exact import first_best
from tests.conftest import SCALES, rescaled


def test_single_action_envelope():
    setting = ProductSetting(costs=(0.0,), rewards=(1.0,), probs=((0.6,),))
    env = upper_envelope(setting)
    assert env.segments[0].action == 0
    assert env.breakpoints == (0.0,)
    assert env.segments[0].right == 1.0
    alpha, action, payoff = optimal_linear(setting)
    assert (alpha, action) == (0.0, 0)
    assert payoff == pytest.approx(0.6)


def test_gap_two_action_envelope():
    setting = gen_gap(2, 0.1)
    env = upper_envelope(setting)
    assert env.actions == (0, 1)
    assert env.breakpoints[1] == pytest.approx(0.9)
    # both endpoints give payoff 1; the tie goes to the higher-reward action
    alpha, action, payoff = optimal_linear(setting)
    assert action == 1
    assert alpha == pytest.approx(0.9)
    assert payoff == pytest.approx(1.0)


def test_gap_three_action_envelope():
    setting = gen_gap(3, 0.1)
    env = upper_envelope(setting)
    assert env.actions == (0, 1, 2)
    assert env.breakpoints[1] == pytest.approx(0.9)
    assert env.breakpoints[2] == pytest.approx(0.99)
    rewards = [expected_reward(setting, i) for i in range(3)]
    welfare = [rewards[i] - setting.costs[i] for i in range(3)]
    assert env.actions[-1] == int(np.argmax(welfare))


def test_envelope_monotone_and_matches_best_response():
    rng = np.random.default_rng(23)
    for _ in range(20):
        setting = gen_random(int(rng.integers(2, 6)), 4, seed=int(rng.integers(2**31)))
        env = upper_envelope(setting)
        rewards = [expected_reward(setting, i) for i in range(setting.n)]
        segs = env.segments
        assert segs[0].left == 0.0
        assert segs[-1].right == 1.0
        for a, b in zip(segs, segs[1:]):
            assert a.right == b.left
            assert setting.costs[a.action] <= setting.costs[b.action] + 1e-12
            assert rewards[a.action] < rewards[b.action]
        for seg in segs:
            mid = 0.5 * (seg.left + seg.right)
            choice = best_response(setting, Linear(alpha=mid))
            assert choice.action == seg.action


def test_dominated_action_absent():
    setting = ProductSetting(
        costs=(0.0, 3.0, 0.9),
        rewards=(10.0,),
        probs=((0.1,), (0.5,), (1.0,)),
    )
    env = upper_envelope(setting)
    assert 1 not in env.actions  # costlier than the detour through its neighbors


def test_duplicate_rewards_rejected():
    setting = ProductSetting(
        costs=(0.0, 0.2),
        rewards=(1.0,),
        probs=((0.5,), (0.5,)),
    )
    with pytest.raises(InputError):
        upper_envelope(setting)


def test_optimal_linear_solves_duplicate_rewards():
    # the envelope rejects tied rewards; the closed-form shares do not need it
    setting = ProductSetting(
        costs=(0.0, 0.2),
        rewards=(1.0,),
        probs=((0.5,), (0.5,)),
    )
    assert optimal_linear(setting) == (0.0, 0, 0.5)


def test_delta_one_makes_everything_free():
    setting = gen_random(4, 3, seed=9)  # normalized by construction
    alpha, action, payoff = optimal_linear(setting, delta=1.0)
    rewards = [expected_reward(setting, i) for i in range(4)]
    assert alpha == 0.0
    assert payoff == pytest.approx(max(rewards))
    assert rewards[action] == pytest.approx(max(rewards))


def test_optimal_linear_payoff_monotone_in_delta():
    rng = np.random.default_rng(5)
    for _ in range(10):
        setting = gen_random(3, 4, seed=int(rng.integers(2**31)))
        payoffs = [optimal_linear(setting, d)[2] for d in (0.0, 0.05, 0.2, 1.0)]
        for a, b in zip(payoffs, payoffs[1:]):
            assert b >= a - 1e-9


def test_separable_gap_instance():
    inst = gen_separable_gap(0.5)
    payments, action, payoff = optimal_separable(inst.setting, delta=0.0)
    assert payoff == pytest.approx(1.0, abs=1e-6)
    contract = Separable(item_payments=payments)
    assert verify_delta_ic(inst.setting, contract, action, 0.0, ADDITIVE, tol=1e-7)
    # the documented per-item contract achieves the same payoff
    doc = inst.separable_contract
    assert verify_delta_ic(inst.setting, doc, 1, 0.0, ADDITIVE, tol=1e-9)


def test_separable_beats_linear():
    rng = np.random.default_rng(77)
    for _ in range(10):
        setting = gen_random(3, 6, seed=int(rng.integers(2**31)))
        _, _, lin = optimal_linear(setting, delta=0.05)
        _, _, sep = optimal_separable(setting, delta=0.05)
        assert sep >= lin - 1e-7


def test_zero_cost_actions_need_no_payments():
    setting = ProductSetting(
        costs=(0.0, 0.0),
        rewards=(1.0, 2.0),
        probs=((0.3, 0.1), (0.1, 0.4)),
    )
    payments, action, payoff = optimal_separable(setting)
    rewards = [expected_reward(setting, i) for i in range(2)]
    assert payoff == pytest.approx(max(rewards))
    assert all(p == pytest.approx(0.0, abs=1e-9) for p in payments)


@pytest.mark.filterwarnings("ignore::UserWarning")  # the gap setting is unnormalized
def test_approx_gap_example():
    setting = gen_gap(2, 0.1)
    res = approx_linear_delta(setting, delta=0.1, gamma=0.5)
    assert res.kappa == 8
    bound = 0.5 * first_best(setting) / 9.0
    assert res.payoff >= bound - 1e-9
    assert verify_delta_ic(setting, Linear(res.alpha), res.action, 0.1, ADDITIVE, tol=1e-9)


def test_approx_all_candidates_are_delta_ic():
    rng = np.random.default_rng(13)
    for _ in range(20):
        setting = gen_random(int(rng.integers(2, 7)), 5, seed=int(rng.integers(2**31)))
        res = approx_linear_delta(setting, delta=0.2, gamma=0.3)
        for alpha, action, _ in res.candidates:
            assert verify_delta_ic(setting, Linear(alpha), action, 0.2, ADDITIVE, tol=1e-9)
        # first candidate needs no slack at all
        alpha0, action0, _ = res.candidates[0]
        assert verify_delta_ic(setting, Linear(alpha0), action0, 0.0, ADDITIVE, tol=1e-9)


def test_approx_welfare_share():
    rng = np.random.default_rng(1)
    gamma, delta = 0.5, 0.1
    for _ in range(50):
        setting = gen_random(int(rng.integers(2, 9)), 4, seed=int(rng.integers(2**31)))
        res = approx_linear_delta(setting, delta, gamma)
        fb = first_best(setting)
        assert res.payoff >= (1.0 - gamma) / (res.kappa + 1) * fb - 1e-9


def test_approx_telescoping_bound():
    # the chained candidates' shares cover the first-best welfare
    rng = np.random.default_rng(2)
    rewards_of = lambda s: [expected_reward(s, i) for i in range(s.n)]
    for _ in range(20):
        setting = gen_random(5, 4, seed=int(rng.integers(2**31)))
        res = approx_linear_delta(setting, delta=0.15, gamma=0.4)
        rewards = rewards_of(setting)
        total = rewards[res.candidates[0][1]]  # first pair uses alpha = 0
        for alpha, action, _ in res.candidates[1:]:
            total += (1.0 - alpha) * rewards[action]
        assert first_best(setting) <= total + 1e-9


def test_observation_welfare_gap_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        setting = gen_random(4, 3, seed=int(rng.integers(2**31)))
        rewards = [expected_reward(setting, i) for i in range(4)]
        for i in range(4):
            for j in range(4):
                wi = rewards[i] - setting.costs[i]
                wj = rewards[j] - setting.costs[j]
                if rewards[i] > rewards[j] and wi >= wj:
                    alpha = (setting.costs[i] - setting.costs[j]) / (rewards[i] - rewards[j])
                    assert wi - wj <= (1.0 - alpha) * rewards[i] + 1e-9


def test_approx_validation():
    setting = gen_gap(2, 0.1)
    with pytest.raises(InputError):
        approx_linear_delta(setting, delta=0.1, gamma=0.0)
    with pytest.raises(InputError):
        approx_linear_delta(setting, delta=0.1, gamma=1.0)
    with pytest.raises(InputError):
        approx_linear_delta(setting, delta=0.0, gamma=0.5)
    with pytest.raises(InputError):
        optimal_linear(setting, delta=-0.1)
    unnormalized = gen_separable_gap(0.5).setting
    with pytest.warns(UserWarning):
        approx_linear_delta(unnormalized, delta=0.1, gamma=0.5)


def test_cheapest_delta_ic_alpha_matches_lp():
    from scipy.optimize import linprog

    for seed in range(10):
        setting = gen_random(8, 4, seed=seed)
        rewards, costs = expected_rewards(setting), setting.costs
        for delta in (1e-3, 0.05, 0.3):
            for a in range(setting.n):
                rivals = [k for k in range(setting.n) if k != a]
                # alpha (R_a - R_k) >= c_a - c_k - delta for every rival k
                ref = linprog(
                    [1.0],
                    A_ub=[[rewards[k] - rewards[a]] for k in rivals],
                    b_ub=[costs[k] - costs[a] + delta for k in rivals],
                    bounds=[(0.0, 1.0)],
                    method="highs",
                )
                got = _cheapest_delta_ic_alpha(rewards, costs, a, delta)
                if ref.status == 2:
                    assert got is None, f"seed {seed} delta {delta} action {a}"
                else:
                    assert got == pytest.approx(ref.x[0], abs=1e-9), f"seed {seed} delta {delta} action {a}"


def test_cheapest_delta_ic_alpha_reward_tie():
    # equal expected rewards: no share helps, so only the cost gap decides
    setting = ProductSetting(costs=(0.0, 0.2), rewards=(1.0,), probs=((0.5,), (0.5,)))
    rewards = expected_rewards(setting)
    assert _cheapest_delta_ic_alpha(rewards, setting.costs, 1, 0.1) is None
    assert _cheapest_delta_ic_alpha(rewards, setting.costs, 1, 0.3) == 0.0


def test_separable_lps_survive_phase1_roundoff():
    # phase 1 of action 49's LP meets a column with reduced cost -1.13e-9 and
    # only negative entries: roundoff, since phase 1 is bounded below by 0
    from scipy.optimize import linprog

    setting = gen_random(60, 6, seed=477832360)
    delta = 0.05
    marg, costs = setting.probs, setting.costs
    rewards = expected_rewards(setting)
    best = -np.inf
    for i in range(setting.n):
        rivals = np.arange(setting.n) != i
        rows, rhs = marg[rivals] - marg[i], costs[rivals] - costs[i] + delta
        sol = solve_lp(marg[i], rows, rhs)
        ref = linprog(marg[i], A_ub=rows, b_ub=rhs, bounds=[(0.0, None)] * setting.m, method="highs")
        if ref.status == 2:
            assert sol.status == INFEASIBLE, f"action {i}"
            continue
        assert sol.status == OPTIMAL, f"action {i}"
        assert sol.objective_value == pytest.approx(ref.fun, rel=1e-6), f"action {i}"
        best = max(best, rewards[i] - ref.fun)
    _, _, payoff = optimal_separable(setting, delta)
    assert payoff == pytest.approx(best, abs=1e-6)


@pytest.mark.parametrize("k", SCALES)
def test_optimal_separable_scale_invariant(k):
    # the package's own unscaled answer is the reference, as for exact.min_payment
    for seed in range(20):
        base = gen_random(4, 6, seed)
        scaled = rescaled(base, k)
        want_pay, want_action, want = optimal_separable(base)
        got_pay, got_action, got = optimal_separable(scaled)
        assert got_action == want_action, f"seed {seed}"
        assert got == pytest.approx(k * want, rel=1e-6, abs=1e-12 * k), f"seed {seed}"
        np.testing.assert_allclose(got_pay, k * np.array(want_pay), rtol=1e-6, atol=1e-12 * k)


@pytest.mark.parametrize("k", SCALES)
def test_optimal_linear_scale_invariant(k):
    # delta is additive, so it takes the unit of money too
    for seed in range(40):
        base = gen_random(6, 4, seed)
        scaled = rescaled(base, k)
        for delta in (0.0, 0.05):
            want_alpha, want_action, want = optimal_linear(base, delta)
            got_alpha, got_action, got = optimal_linear(scaled, k * delta)
            assert got_action == want_action, f"seed {seed} delta {delta}"
            assert got_alpha == pytest.approx(want_alpha, rel=1e-9, abs=1e-12)
            assert got == pytest.approx(k * want, rel=1e-6, abs=1e-12 * k)
