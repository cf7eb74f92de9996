import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contract_forge.generators as g
from contract_forge import cli, delta_solver, exact
from contract_forge import (
    ExplicitSetting,
    ProductSetting,
    best_response,
    expected_payment,
    expected_reward,
    ic_slack,
    product_to_explicit,
    verify_delta_ic,
)
from contract_forge.errors import ResourceError
from contract_forge.model import TOL_IC, dumps, money_unit
from contract_forge.exact import (
    IMPLEMENTABLE,
    NOT_IMPLEMENTABLE,
    first_best,
    min_payment,
    opt_contract,
)
from tests.conftest import SCALES, rescaled, scipy_min_payment


def test_single_action_costs_nothing():
    s = ExplicitSetting(costs=(0.0,), outcome_rewards=(1.0, 0.0), dist=((0.4, 0.6),))
    res = min_payment(s, 0)
    assert res.status == IMPLEMENTABLE
    assert res.expected_payment == 0.0
    assert res.contract.payments == {}


def test_gap_min_payment():
    s = g.gen_gap(2, 0.1)
    res = min_payment(s, 1, delta=0.0)
    assert res.expected_payment == pytest.approx(9.0)
    assert len(res.contract.payments) <= 1
    assert verify_delta_ic(s, res.contract, 1, 0.0, "mult")


def test_gap_opt_contract_tie_breaks_low():
    s = g.gen_gap(2, 0.1)
    res = opt_contract(s, delta=0.0)
    assert res.payoff == pytest.approx(1.0)
    assert res.action == 0
    assert res.contract.payments == {}


def test_separable_gap_min_payment_closed_form():
    delta = g.separable_gap_delta(0.1)
    gap = g.gen_separable_gap(delta)
    res = min_payment(gap.setting, 1, delta=0.0)
    want = ((1.0 - delta) * (1.0 / delta - 2.0 + delta)) / (1.0 - delta * delta)
    assert res.expected_payment == pytest.approx(want)
    # single payment on the {first item} outcome
    assert set(res.contract.payments) == {0b01}


def test_delta_advantage_opt_values():
    adv = g.gen_delta_advantage(0.3, 0.5)
    ic = opt_contract(adv.setting, delta=0.0)
    assert ic.payoff == pytest.approx(0.3, abs=1e-9)
    relaxed = opt_contract(adv.setting, delta=0.5, notion="mult")
    assert relaxed.payoff >= 0.4 - 1e-9


def test_first_best_values():
    assert first_best(g.gen_gap(2, 0.1)) == pytest.approx(1.9)
    for c, gamma in ((3, 0.1), (4, 0.2)):
        assert first_best(g.gen_gap(c, gamma)) == pytest.approx(c - (c - 1) * gamma)
    sat = g.gen_sat(g.CnfFormula(num_vars=2, clauses=((1, 2),)))
    assert first_best(sat) == 0.0


def test_dominated_action_not_implementable():
    s = ExplicitSetting(
        costs=(0.0, 0.1),
        outcome_rewards=(0.0, 1.0),
        dist=((0.5, 0.5), (0.5, 0.5)),
    )
    res = min_payment(s, 1, delta=0.0)
    assert res.status == NOT_IMPLEMENTABLE
    assert res.expected_payment == math.inf
    assert res.contract is None
    # a multiplicative slack makes it affordable at 0.1/delta
    relaxed = min_payment(s, 1, delta=0.5, notion="mult")
    assert relaxed.status == IMPLEMENTABLE
    assert relaxed.expected_payment == pytest.approx(0.2)


def test_opt_contract_beats_zero_contract():
    for seed in range(20):
        s = g.gen_random(4, 3, seed)
        res = opt_contract(s, delta=0.0)
        free = best_response(s, __import__("contract_forge").Sparse())
        assert res.payoff >= free.payoff - 1e-7


def test_min_payment_monotone_in_delta():
    for seed in range(10):
        s = g.gen_random(3, 3, seed + 100)
        for notion in ("mult", "add"):
            prev = None
            for delta in (0.0, 0.05, 0.2, 0.5):
                res = min_payment(s, 2, delta=delta, notion=notion)
                if res.status != IMPLEMENTABLE:
                    continue
                if prev is not None:
                    assert res.expected_payment <= prev + 1e-7
                prev = res.expected_payment


def test_min_payment_results_verify():
    for seed in range(15):
        s = g.gen_random(3, 4, seed + 300)
        for action in range(3):
            for delta, notion in ((0.0, "mult"), (0.1, "mult"), (0.1, "add")):
                res = min_payment(s, action, delta=delta, notion=notion)
                if res.status == IMPLEMENTABLE:
                    assert verify_delta_ic(s, res.contract, action, delta, notion, tol=1e-6)


def test_multiplicative_delta_always_implementable():
    for seed in range(15):
        s = g.gen_random(4, 3, seed + 500)
        for action in range(4):
            res = min_payment(s, action, delta=0.1, notion="mult")
            assert res.status == IMPLEMENTABLE


def test_matches_reference_lp():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 9))
        dist = rng.dirichlet(np.ones(k), size=n)
        rewards = rng.uniform(0, 1, k)
        exp_rewards = dist @ rewards
        costs = [0.0] + [float(rng.uniform(0, exp_rewards[i])) for i in range(1, n)]
        s = ExplicitSetting(
            costs=tuple(costs),
            outcome_rewards=tuple(rewards.tolist()),
            dist=tuple(tuple(row) for row in dist.tolist()),
        )
        for action in range(n):
            mine = min_payment(s, action, delta=0.0)
            status, value, _ = scipy_min_payment(s, action, delta=0.0)
            if status == "infeasible":
                assert mine.status == NOT_IMPLEMENTABLE, f"trial {trial} action {action}"
            else:
                assert mine.status == IMPLEMENTABLE
                assert mine.expected_payment == pytest.approx(value, abs=1e-6)


def test_support_size_bound():
    for seed in range(10):
        s = product_to_explicit(g.gen_random(4, 4, seed + 900))
        for action in range(4):
            res = min_payment(s, action, delta=0.0)
            if res.status == IMPLEMENTABLE:
                assert len(res.contract.payments) <= s.n - 1


def test_product_setting_routed_through_enumeration():
    s = g.gen_random(3, 3, 77)
    a = opt_contract(s, delta=0.0)
    b = opt_contract(product_to_explicit(s), delta=0.0)
    assert a.payoff == pytest.approx(b.payoff)
    assert a.action == b.action


@pytest.mark.parametrize("k", SCALES)
def test_min_payment_scale_invariant(k):
    # the package's own unscaled answer is the reference: HiGHS itself is
    # wrong on some of these settings at small scales
    for seed in range(20):
        base = g.gen_random(4, 6, seed)
        scaled = rescaled(base, k)
        for action in range(4):
            want = min_payment(base, action).expected_payment
            got = min_payment(scaled, action).expected_payment
            if math.isinf(want):
                assert math.isinf(got), f"seed {seed} action {action}"
            else:
                assert got == pytest.approx(k * want, rel=1e-6, abs=1e-12 * k), (
                    f"seed {seed} action {action}"
                )


@pytest.mark.parametrize("k", SCALES)
def test_opt_contract_scale_invariant(k):
    # the winner and its contract do not depend on the unit of money
    for seed in range(40):
        base = g.gen_random(4, 8, seed)
        scaled = rescaled(base, k)
        want, got = opt_contract(base), opt_contract(scaled)
        assert got.action == want.action, f"seed {seed}"
        assert got.payoff == pytest.approx(k * want.payoff, rel=1e-6, abs=1e-12 * k), f"seed {seed}"
        paid = expected_payment(scaled, got.action, got.contract)
        assert paid == pytest.approx(k * (expected_reward(base, want.action) - want.payoff),
                                     rel=1e-6, abs=1e-12 * k), f"seed {seed}"


def assert_matches_scipy(setting, action, delta=0.0, notion="mult", tol=1e-7):
    """min_payment against HiGHS on all 2^m outcomes; returns the HiGHS value."""
    res = min_payment(setting, action, delta=delta, notion=notion)
    status, value, _ = scipy_min_payment(product_to_explicit(setting), action, delta, notion)
    if status == "infeasible":
        assert res.status == NOT_IMPLEMENTABLE
        return value
    assert res.status == IMPLEMENTABLE
    assert res.expected_payment == pytest.approx(value, abs=tol)
    assert verify_delta_ic(setting, res.contract, action, delta, notion, tol=tol)
    # the reported payment is what the contract pays at the target
    assert res.expected_payment == pytest.approx(
        expected_payment(setting, action, res.contract), abs=1e-12
    )
    return value


@pytest.mark.parametrize("seed", [1582772209, 250786863, 2013813635])
def test_opt_contract_matches_highs_on_wide_settings(seed):
    # the dense simplex over all 8,192 outcomes stopped early on these
    s = g.gen_random(4, 13, seed)
    res = opt_contract(s)
    want = max(expected_reward(s, i) - assert_matches_scipy(s, i) for i in range(4))
    assert res.payoff == pytest.approx(want, abs=1e-7)


def test_min_payment_matches_highs_at_m14():
    assert_matches_scipy(g.gen_random(4, 14, 7), 3)


@settings(max_examples=30)
@given(
    n=st.integers(2, 5),
    m=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
    twin=st.booleans(),
)
def test_front_lp_matches_scipy(n, m, seed, twin):
    s = g.gen_random(n, m, seed)
    if twin:  # the free action takes the last one's probabilities: a cheaper twin
        probs = s.probs.copy()
        probs[0] = probs[-1]
        s = ProductSetting(costs=s.costs, rewards=s.rewards, probs=probs)
    for action in range(n):
        for delta in (0.0, 0.1):
            for notion in ("mult", "add"):
                assert_matches_scipy(s, action, delta, notion)


def test_front_past_cap_enumerates_small_m():
    # every outcome of action 0 is on its front (the two rivals' log-ratios
    # sum to a constant): 2^14 points pass FRONT_CAP, so the 2^14 outcomes
    # are enumerated instead
    eps = 0.3 * np.arange(1, 15) / 15
    s = ProductSetting(
        costs=[0.0, 0.001, 0.001],
        rewards=[0.01] * 14,
        probs=[[0.5] * 14, 0.5 + eps / 2, 0.5 - eps / 2],
    )
    for action in range(3):
        assert_matches_scipy(s, action)


def test_twin_of_cheaper_action_not_implementable():
    s = g.gen_random(3, 6, 4)
    probs = s.probs.copy()
    probs[0] = probs[2]
    s = ProductSetting(costs=s.costs, rewards=s.rewards, probs=probs)
    assert min_payment(s, 2).status == NOT_IMPLEMENTABLE
    assert_matches_scipy(s, 2)
    assert_matches_scipy(s, 2, delta=0.1)


def test_free_action_pays_exactly_zero():
    # the cheapest action needs no contract: its LP's right side (the cost
    # gaps) is nonnegative, so x = 0 is optimal with no pivot and no roundoff
    for n, m in ((2, 3), (3, 5), (4, 4)):
        for seed in range(60):
            setting = g.gen_random(n, m, seed)
            res = min_payment(setting, int(np.argmin(setting.costs)))
            assert res.status == IMPLEMENTABLE, (n, m, seed)
            assert res.expected_payment == 0.0 and math.copysign(1.0, res.expected_payment) == 1.0
            assert res.contract.base == 0.0 and not res.contract.payments


# scipy.optimize.linprog(method="highs") on the enumerated payment LP of
# gen_random(16, 18, 0): min sum_S y_S subject to
# sum_S (q_{k,S} / q_{a,S} - 1) y_S <= c_k - c_a over all 2^18 outcomes with
# q_{a,S} > 0 (about 4 s per action)
_HIGHS_16_18 = {10: 0.4716422575, 15: 0.4602740043}


@pytest.mark.parametrize("action", sorted(_HIGHS_16_18))
def test_enumerated_lp_contract_is_ic(action):
    # both fronts pass FRONT_CAP, so the LP has 2^18 columns and 15 rows;
    # thousands of primal Bland pivots once left these contracts short of
    # IC by 2.6e-9 and 4.7e-8 money units
    setting = g.gen_random(16, 18, 0)
    res = min_payment(setting, action)
    assert ic_slack(setting, res.contract, action) >= -TOL_IC * money_unit(setting)
    assert res.expected_payment == pytest.approx(_HIGHS_16_18[action], rel=1e-7)


def test_contract_that_misses_ic_raises(monkeypatch, tmp_path, capsys):
    # a read-off paying half the LP's primal cannot be IC for a costly action
    read_contract = exact.read_contract
    monkeypatch.setattr(
        exact, "read_contract",
        lambda setting, action, outcomes, primal, delta, notion: read_contract(
            setting, action, outcomes, primal / 2, delta, notion
        ),
    )
    setting = g.gen_gap(2, 0.1)
    with pytest.raises(ResourceError):
        min_payment(setting, 1)
    inst = tmp_path / "inst.json"
    inst.write_text(dumps(setting))
    code = cli.main(["solve", "--instance", str(inst)])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert "misses IC" in err


def test_delta_contract_that_misses_ic_raises(monkeypatch, tmp_path, capsys):
    # the same check guards delta_solver's read-off, at the same tolerance
    read_contract = exact.read_contract
    monkeypatch.setattr(
        delta_solver, "read_contract",
        lambda setting, action, outcomes, primal, delta, notion, base: read_contract(
            setting, action, outcomes, primal / 2, delta, notion, base=base / 2
        ),
    )
    setting = g.gen_gap(2, 0.1)
    with pytest.raises(ResourceError):
        delta_solver.min_payment_delta(setting, 1, 0.1)
    inst = tmp_path / "inst.json"
    inst.write_text(dumps(setting))
    code = cli.main(["delta-solve", "--instance", str(inst), "--delta", "0.1"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert "misses IC" in err


@pytest.mark.parametrize("scale", [1.0, 1e9])
def test_read_contract_drops_payments_up_to_tol_zero(scale):
    # TOL_ZERO is a share of the LP's own expected payment: y = 1e-13 is at
    # most 1e-12 of the 0.32 paid, so it is dropped at either scale
    setting = rescaled(ProductSetting(costs=(0.0, 0.1), rewards=(1.0,), probs=((0.2,), (0.8,))), scale)
    primal = np.array([1e-13, 0.32]) * scale  # y_S = q_{1,S} x_S: x = 5e-13 and 0.4 units
    contract = exact.read_contract(setting, 1, np.array([0, 1]), primal, 0.0, "add")
    assert list(contract.payments) == [1]
    assert contract.payments[1] == pytest.approx(0.4 * scale, rel=1e-15)


def test_payment_lp_shifts_its_columns_in_place():
    # payment_lp owns its ratio columns: the only copy it makes is solve_lp's tableau
    rng = np.random.default_rng(0)
    ratios = np.exp(rng.uniform(-1.0, 1.0, (15, 1 << 16)))
    gaps = -rng.uniform(0.0, 1.0, 15)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = exact.payment_lp(ratios, gaps, 0.1, "multiplicative")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal" and sol.iterations > 0
    assert peak - before < 1.5 * ratios.nbytes
