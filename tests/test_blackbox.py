import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import contract_forge
from contract_forge import blackbox, cli
from contract_forge.blackbox import (
    EmpiricalModel,
    QueryOracle,
    blackbox_contract,
    estimate,
    negative_pair,
    required_samples,
)
from contract_forge.errors import CapacityError, InputError
from contract_forge.exact import opt_contract
from contract_forge.generators import gen_random
from contract_forge.model import (
    ADDITIVE,
    ExplicitSetting,
    ProductSetting,
    Sparse,
    ic_slack,
    min_nonzero_outcome_probability,
    outcome_probability,
    principal_payoff,
    product_to_explicit,
    verify_delta_ic,
)

# normalized 2-action instance with min nonzero outcome probability 0.06
PIPELINE_SETTING = ProductSetting(
    costs=(0.0, 0.1),
    rewards=(0.8, 0.7),
    probs=((0.3, 0.6), (0.7, 0.2)),
)


def test_required_samples_documented_values():
    assert required_samples(2, 0.05, 0.1, 0.1) == 40108
    assert required_samples(1, 1.0, 0.5, 0.5) == 17


def test_required_samples_log_additivity():
    eta, eps, gamma = 0.2, 0.25, 0.3
    bump = 3.0 * math.log(2.0) / (eta * eps**2)
    for n in (1, 2, 5):
        lo = required_samples(n, eta, eps, gamma)
        hi = required_samples(2 * n, eta, eps, gamma)
        assert abs((hi - lo) - bump) <= 1.0  # ceil slop on both ends


def test_required_samples_validation():
    for args in [
        (0, 0.1, 0.1, 0.1),
        (2, 0.0, 0.1, 0.1),
        (2, 1.5, 0.1, 0.1),
        (2, 0.1, 0.0, 0.1),
        (2, 0.1, 0.6, 0.1),
        (2, 0.1, 0.1, 0.0),
        (2, 0.1, 0.1, 1.0),
    ]:
        with pytest.raises(InputError):
            required_samples(*args)


def test_counts_or_masks_past_64_bits_exit_4():
    with pytest.raises(CapacityError):
        required_samples(2, 1e-320, 0.1, 0.1)  # the count is no longer finite
    with pytest.raises(CapacityError):
        QueryOracle(PIPELINE_SETTING, seed=0).sample_counts(0, 2**63)
    wide = ProductSetting(costs=[0.0], rewards=[0.01] * 64, probs=[[1.0] * 64])
    with pytest.raises(CapacityError):  # outcome bitmasks are 64-bit integers
        QueryOracle(wide, seed=0)


def test_point_mass_estimation_is_exact():
    hidden = ExplicitSetting(
        costs=(0.0, 0.3),
        outcome_rewards=(0.2, 0.9),
        dist=((1.0, 0.0), (0.0, 1.0)),
    )
    emp = estimate(QueryOracle(hidden, seed=4), s=7)
    assert emp.outcomes == (0, 1)
    assert emp.setting.dist.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    res = blackbox_contract(QueryOracle(hidden, seed=4), eps=0.1, gamma=0.5)
    assert res.payoff_on_true >= res.opt_on_true - 1e-9


def test_zero_probability_outcomes_never_observed():
    hidden = ProductSetting(
        costs=(0.0, 0.2),
        rewards=(0.9, 0.4),
        probs=((0.0, 0.5), (1.0, 0.5)),
    )
    emp = estimate(QueryOracle(hidden, seed=11), s=400)
    for i in range(hidden.n):
        for k, outcome in enumerate(emp.outcomes):
            if emp.counts[i][k] > 0:
                assert outcome_probability(hidden, i, outcome) > 0.0


def test_estimate_reproducible():
    a = estimate(QueryOracle(PIPELINE_SETTING, seed=99), s=500)
    b = estimate(QueryOracle(PIPELINE_SETTING, seed=99), s=500)
    assert a == b
    oracle = QueryOracle(PIPELINE_SETTING, seed=99)
    first = estimate(oracle, s=500)
    oracle.reset()
    assert estimate(oracle, s=500) == first


def test_frequencies_sum_to_one():
    emp = estimate(QueryOracle(PIPELINE_SETTING, seed=3), s=1234)
    for row in emp.setting.dist:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
    assert all(sum(row) == emp.samples for row in emp.counts)


def test_estimation_event_rate():
    # eta = 0.2 single-item instance; the multiplicative band should hold in
    # well over 90% of trials at the prescribed sample size
    hidden = ProductSetting(costs=(0.0, 0.1), rewards=(1.0,), probs=((0.8,), (0.2,)))
    assert min_nonzero_outcome_probability(hidden) == pytest.approx(0.2)
    eps, gamma = 0.2, 0.1
    s = required_samples(2, 0.2, eps, gamma)
    explicit = product_to_explicit(hidden)
    hits = 0
    for trial in range(200):
        emp = estimate(QueryOracle(hidden, seed=1000 + trial), s=s)
        ok = True
        for i in range(2):
            for outcome in range(explicit.num_outcomes):
                q = explicit.dist[i][outcome]
                qt = emp.frequency(i, outcome)
                if q == 0.0:
                    ok = ok and qt == 0.0
                else:
                    ok = ok and (1 - eps) * q <= qt <= (1 + eps) * q
        hits += ok
    assert hits >= 180


def _event_holds(hidden, emp, eps):
    explicit = product_to_explicit(hidden)
    for i in range(explicit.n):
        for outcome in range(explicit.num_outcomes):
            q = explicit.dist[i][outcome]
            qt = emp.frequency(i, outcome)
            if q == 0.0 and qt != 0.0:
                return False
            if q > 0.0 and not (1 - eps) * q <= qt <= (1 + eps) * q:
                return False
    return True


def test_pipeline_guarantees_under_event():
    eps, gamma = 0.1, 0.1
    hidden = PIPELINE_SETTING
    true_opt = opt_contract(product_to_explicit(hidden))
    good = 0
    for trial in range(10):
        res = blackbox_contract(QueryOracle(hidden, seed=500 + trial), eps=eps, gamma=gamma)
        assert res.claimed_delta == pytest.approx(4 * eps)
        assert res.samples_per_action == required_samples(2, 0.06, eps, gamma)
        if not _event_holds(hidden, res.empirical, eps):
            continue
        good += 1
        # solved contract stays near-IC and near-optimal on the truth
        assert ic_slack(hidden, res.contract, res.action, 4 * eps, ADDITIVE) >= -1e-9
        assert res.payoff_on_true >= res.payoff_bound - 1e-9
        # true-optimal contract stays near-IC on the empirical model
        restricted = res.empirical.restrict(true_opt.contract)
        slack = ic_slack(res.empirical.setting, restricted, true_opt.action, 2 * eps, ADDITIVE)
        assert slack >= -1e-9
        # payoff transfer in both directions
        solved_emp = opt_contract(res.empirical.setting, delta=2 * eps, notion="additive")
        assert res.payoff_on_true >= solved_emp.payoff - 2 * eps - 1e-9
        emp_payoff_of_true = principal_payoff(
            res.empirical.setting, true_opt.action, restricted
        )
        assert emp_payoff_of_true >= true_opt.payoff - 3 * eps - 1e-9
    assert good >= 9


def test_blackbox_validation():
    oracle = QueryOracle(PIPELINE_SETTING, seed=1)
    with pytest.raises(InputError):
        blackbox_contract(oracle, eps=0.0, gamma=0.1)
    with pytest.raises(InputError):
        blackbox_contract(oracle, eps=0.6, gamma=0.1)
    with pytest.raises(InputError):
        blackbox_contract(oracle, eps=0.1, gamma=1.0)
    rich = ProductSetting(costs=(0.0,), rewards=(3.0,), probs=((0.9,),))
    with pytest.raises(InputError):
        blackbox_contract(QueryOracle(rich, seed=1), eps=0.1, gamma=0.1)
    with pytest.raises(InputError):
        negative_pair(1.0 / 624.0)
    with pytest.raises(InputError):
        negative_pair(0.0)


def test_negative_pair_analytics():
    eta = 1.0 / 1000.0
    first, second, info = negative_pair(eta)
    tau = 1.0 + math.sqrt(2.0)
    assert info.tau == pytest.approx(tau)
    assert info.beta == pytest.approx(1.0 / (1.0 + tau**-2))
    for setting in (first, second):
        from contract_forge.model import expected_reward

        assert expected_reward(setting, 1) == pytest.approx(1.0, abs=1e-9)
        assert expected_reward(setting, 0) == pytest.approx(info.reward_low, abs=1e-9)
        assert min_nonzero_outcome_probability(setting) == pytest.approx(eta, abs=1e-12)
        solved = opt_contract(product_to_explicit(setting))
        assert solved.payoff == pytest.approx(info.benchmark_payoff, abs=1e-6)
        assert solved.action == 1
    assert info.query_lower_bound(0.1) == pytest.approx(
        -math.log(0.1) / (9.0 * math.sqrt(eta))
    )
    assert 0.0 < info.symmetric_payoff_cap < info.benchmark_payoff


def test_negative_pair_distinguishing_event_rate():
    eta, gamma = 1.0 / 1000.0, 0.1
    first, _, info = negative_pair(eta)
    high_prob = info.tau**2 * info.mu  # item 1 marginal under action 2
    assert first.probs[1][0] == pytest.approx(high_prob)
    s = math.ceil(info.query_lower_bound(gamma))
    assert s == 9
    expect = 1.0 - (1.0 - high_prob) ** (2 * s)
    trials = 1500
    oracle = QueryOracle(first, seed=777)
    hits = 0
    for _ in range(trials):
        ids = oracle.query(1, size=2 * s)
        hits += bool(np.any(ids & 1))
    rate = hits / trials
    se = math.sqrt(expect * (1.0 - expect) / trials)
    assert abs(rate - expect) <= 3.0 * se


EXPLICIT_HIDDEN = ExplicitSetting(
    costs=(0.0, 0.2),
    outcome_rewards=(0.0, 0.3, 0.6, 1.0),
    # validation lets an entry dip just below 0 and stores it as 0; that outcome is never drawn
    dist=((0.5, 0.25, 0.25, 0.0), (0.1, 0.2, 0.7 + 1e-10, -1e-10)),
)


@pytest.mark.parametrize("hidden", [PIPELINE_SETTING, gen_random(3, 6, 0), EXPLICIT_HIDDEN])
def test_sample_counts_sum_and_order(hidden):
    oracle = QueryOracle(hidden, seed=5)
    for action in range(hidden.n):
        for size in (1, 17, 10**9):
            outcomes, counts = oracle.sample_counts(action, size)
            assert counts.sum() == size and (counts > 0).all()
            assert (np.diff(outcomes) > 0).all()


def test_sample_counts_respects_sure_items():
    hidden = ProductSetting(
        costs=(0.0, 0.2),
        rewards=(0.3, 0.3, 0.3),
        probs=((0.0, 0.5, 1.0), (1.0, 0.4, 0.0)),
    )
    oracle = QueryOracle(hidden, seed=2)
    for _ in range(20):
        outcomes = oracle.sample_counts(0, 10**6)[0]
        assert ((outcomes & 0b001) == 0).all() and ((outcomes & 0b100) != 0).all()
        outcomes = oracle.sample_counts(1, 10**6)[0]
        assert ((outcomes & 0b001) != 0).all() and ((outcomes & 0b100) == 0).all()
    for seed in range(20):
        outcomes = QueryOracle(EXPLICIT_HIDDEN, seed=seed).sample_counts(1, 10**6)[0]
        assert 3 not in outcomes.tolist()


def test_sample_counts_repeat_per_seed_and_after_reset():
    hidden = gen_random(3, 6, 0)
    first = QueryOracle(hidden, seed=8)
    draws = [first.sample_counts(a, 5000) for a in range(3)]
    again = QueryOracle(hidden, seed=8)
    for a in range(3):
        np.testing.assert_array_equal(again.sample_counts(a, 5000), draws[a])
    first.reset()
    for a in range(3):
        np.testing.assert_array_equal(first.sample_counts(a, 5000), draws[a])
    outcomes, counts = QueryOracle(hidden, seed=9).sample_counts(0, 5000)
    assert not (np.array_equal(outcomes, draws[0][0]) and np.array_equal(counts, draws[0][1]))


@pytest.mark.parametrize("hidden", [gen_random(2, 4, 3), EXPLICIT_HIDDEN])
def test_sample_counts_frequencies_within_four_sigma(hidden):
    size = 10**7
    truth = hidden.dist if isinstance(hidden, ExplicitSetting) else product_to_explicit(hidden).dist
    truth = np.clip(truth, 0.0, None)
    oracle = QueryOracle(hidden, seed=21)
    for action in range(hidden.n):
        outcomes, counts = oracle.sample_counts(action, size)
        seen = np.zeros(truth.shape[1])
        seen[outcomes] = counts
        p = truth[action]
        assert (np.abs(seen - size * p) <= 4.0 * np.sqrt(size * p * (1.0 - p))).all()


def test_estimate_at_billions_of_samples_stays_small():
    hidden = gen_random(3, 6, 0)
    s = required_samples(3, min_nonzero_outcome_probability(hidden), 0.1, 0.1)
    assert s == 4950998315
    tracemalloc.start()
    try:
        emp = estimate(QueryOracle(hidden, seed=0), s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert emp.samples == s and all(sum(row) == s for row in emp.counts)


def test_sampling_past_partial_cap_exits_4(tmp_path, capsys):
    # every one of the 2^24 outcomes has probability >= 0.4^24, so the
    # billions of queries asked for would spread over more partials than the cap
    inst = tmp_path / "wide.json"
    inst.write_text(
        json.dumps(
            {
                "kind": "product",
                "costs": [0.0, 0.1],
                "rewards": [1.0 / 24] * 24,
                "probs": [[0.5] * 24, [0.6] * 24],
            }
        )
    )
    code = cli.main(["blackbox", "--instance", str(inst), "--eps", "0.5", "--gamma", "0.5"])
    _, err = capsys.readouterr()
    assert code == 4 and "resource limit" in err and "Traceback" not in err


@pytest.mark.parametrize("hidden", [gen_random(2, 5, 1), EXPLICIT_HIDDEN])
def test_query_repeats_sample_counts(hidden):
    size = 5000
    ids = QueryOracle(hidden, seed=31).query(1, size)
    outcomes, counts = QueryOracle(hidden, seed=31).sample_counts(1, size)
    got = np.unique(ids, return_counts=True)
    np.testing.assert_array_equal(got[0], outcomes)
    np.testing.assert_array_equal(got[1], counts)
    assert ids.dtype == np.int64


def test_query_past_partial_cap_raises(monkeypatch):
    # query shares sample_counts' cap: ids spread over more outcomes than
    # PARTIALS_CAP raise, while as many ids on few outcomes still come back
    monkeypatch.setattr(blackbox, "PARTIALS_CAP", 8)
    wide = ProductSetting(costs=(0.0, 0.1), rewards=(0.25,) * 4, probs=((0.5,) * 4, (0.6,) * 4))
    with pytest.raises(CapacityError):
        QueryOracle(wide, seed=0).query(0, 1000)
    sure = ProductSetting(costs=(0.0, 0.1), rewards=(0.25,) * 4, probs=((1.0, 0.0, 1.0, 0.0),) * 2)
    np.testing.assert_array_equal(QueryOracle(sure, seed=0).query(0, 1000), np.full(1000, 0b101))


@pytest.mark.parametrize(
    "hidden,s",
    [
        (PIPELINE_SETTING, 300),
        (gen_random(3, 4, 2), 50),
        # every action sees the same single outcome
        (ProductSetting(costs=(0.0, 0.1), rewards=(0.5, 0.5), probs=((1.0, 0.0), (1.0, 0.0))), 9),
        (ExplicitSetting(costs=(0.0, 0.2), outcome_rewards=(0.1, 0.9, 0.4), dist=((0.5, 0.0, 0.5), (0.2, 0.3, 0.5))), 40),
        (ExplicitSetting(costs=(0.0, 0.2), outcome_rewards=(0.3, 0.6), dist=((0.0, 1.0), (0.0, 1.0))), 5),
    ],
)
def test_estimate_outcomes_are_the_unique_draws(hidden, s):
    oracle = QueryOracle(hidden, seed=17)
    draws = [oracle.sample_counts(i, s) for i in range(hidden.n)]
    want = np.unique(np.concatenate([ids for ids, _ in draws]))
    emp = estimate(QueryOracle(hidden, seed=17), s)
    assert emp.outcomes == tuple(want.tolist())
    for i, (ids, cnt) in enumerate(draws):
        assert [emp.counts[i][emp.outcomes.index(o)] for o in ids.tolist()] == cnt.tolist()
        assert sum(emp.counts[i]) == s


def test_blackbox_leaves_numpy_ma_unimported():
    # numpy.ma costs about a megabyte of memory the first time it is imported
    code = (
        "import sys\n"
        "from contract_forge.blackbox import QueryOracle, blackbox_contract\n"
        "from contract_forge.model import ProductSetting\n"
        "hidden = ProductSetting(costs=(0.0, 0.1, 0.2), rewards=(0.2, 0.2, 0.2),\n"
        "    probs=((0.2, 0.3, 0.4), (0.5, 0.5, 0.5), (0.8, 0.7, 0.6)))\n"
        "blackbox_contract(QueryOracle(hidden, seed=1), 0.2, 0.1)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(contract_forge.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
