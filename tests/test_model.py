import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import contract_forge.model as m
from contract_forge import (
    ExplicitSetting,
    InputError,
    Linear,
    Mixed,
    ProductSetting,
    Separable,
    Sparse,
    agent_utility,
    best_response,
    expected_payment,
    expected_reward,
    ic_slack,
    is_normalized,
    outcome_probability,
    product_to_explicit,
    verify_delta_ic,
)
from contract_forge.errors import CapacityError
from contract_forge.generators import gen_random
from contract_forge.exact import min_payment, opt_contract
from contract_forge.oracle import SeparationInstance
from tests.conftest import SCALES, rescaled


@pytest.fixture
def two_action():
    # Two actions over one item: free action succeeds w.p. 0.1, costly one always.
    return ProductSetting(costs=(0.0, 8.1), rewards=(10.0,), probs=((0.1,), (1.0,)))


def test_expected_reward(two_action):
    assert expected_reward(two_action, 0) == pytest.approx(1.0)
    assert expected_reward(two_action, 1) == pytest.approx(10.0)


def test_tie_break_favors_principal(two_action):
    # Paying 9.0 on the success outcome makes both actions give utility 0.9;
    # the principal nets 1.0 from action 1 vs 0.1 from action 0.
    con = Sparse(payments={1: 9.0})
    assert agent_utility(two_action, 0, con) == pytest.approx(0.9)
    assert agent_utility(two_action, 1, con) == pytest.approx(0.9)
    choice = best_response(two_action, con)
    assert choice.action == 1
    assert choice.payoff == pytest.approx(1.0)
    assert verify_delta_ic(two_action, con, 1, 0.0, "add")


def test_ic_slack_signs(two_action):
    con = Sparse(payments={1: 8.0})
    # action 1 nets 8 - 8.1 < 0.8 from action 0, so IC fails there
    assert ic_slack(two_action, con, 1) < 0
    assert ic_slack(two_action, con, 0) > 0
    # multiplicative slack scales with payments and costs together
    s1 = ic_slack(two_action, con, 1, 0.05, "mult")
    scaled = ProductSetting(
        costs=(0.0, 16.2), rewards=(20.0,), probs=two_action.probs
    )
    s2 = ic_slack(scaled, Sparse(payments={1: 16.0}), 1, 0.05, "mult")
    assert s2 == pytest.approx(2 * s1)


def test_best_response_zero_ic():
    setting = ProductSetting(
        costs=(0.0, 0.2, 0.5),
        rewards=(0.4, 0.6),
        probs=((0.1, 0.2), (0.5, 0.4), (0.8, 0.9)),
    )
    for alpha in (0.0, 0.3, 0.7, 1.0):
        choice = best_response(setting, Linear(alpha=alpha))
        assert ic_slack(setting, Linear(alpha=alpha), choice.action) >= -1e-9


def test_outcome_probability_product():
    setting = ProductSetting(costs=(0.0,), rewards=(1.0, 1.0), probs=((0.3, 0.6),))
    assert outcome_probability(setting, 0, 0b00) == pytest.approx(0.7 * 0.4)
    assert outcome_probability(setting, 0, 0b01) == pytest.approx(0.3 * 0.4)
    assert outcome_probability(setting, 0, 0b10) == pytest.approx(0.7 * 0.6)
    assert outcome_probability(setting, 0, 0b11) == pytest.approx(0.3 * 0.6)


@given(
    st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6),
)
def test_outcome_probabilities_sum_to_one(qs):
    setting = ProductSetting(costs=(0.0,), rewards=tuple(1.0 for _ in qs), probs=(tuple(qs),))
    total = sum(outcome_probability(setting, 0, s) for s in range(1 << len(qs)))
    assert total == pytest.approx(1.0)


def test_product_to_explicit_matches(two_action):
    explicit = product_to_explicit(two_action)
    assert explicit.outcome_rewards.tolist() == [0.0, 10.0]
    assert explicit.dist[0] == pytest.approx((0.9, 0.1))
    assert explicit.dist[1] == pytest.approx((0.0, 1.0))
    con = Sparse(base=0.1, payments={1: 3.0})
    for i in range(2):
        assert expected_payment(explicit, i, con) == pytest.approx(
            expected_payment(two_action, i, con)
        )


def test_product_to_explicit_column_order():
    setting = ProductSetting(costs=(0.0,), rewards=(1.0, 2.0, 4.0), probs=((0.2, 0.5, 0.9),))
    explicit = product_to_explicit(setting)
    # column b carries the rewards of the items in bitmask b
    assert explicit.outcome_rewards.tolist() == [float(b & 1) + 2.0 * ((b >> 1) & 1) + 4.0 * ((b >> 2) & 1) for b in range(8)]
    for b in range(8):
        assert explicit.dist[0][b] == pytest.approx(outcome_probability(setting, 0, b))


def test_outcome_rewards_add_item_rewards_in_item_order():
    setting = gen_random(3, 7, 4)
    outcomes = np.arange(1 << 7)
    loop = [float(sum(r for j, r in enumerate(setting.rewards) if (o >> j) & 1)) for o in outcomes]
    assert m.outcome_rewards(setting, outcomes).tolist() == loop
    explicit = product_to_explicit(setting)
    assert explicit.outcome_rewards.tolist() == loop
    assert m.outcome_rewards(explicit, [5, 0]).tolist() == [loop[5], loop[0]]
    with pytest.raises(InputError):
        m.outcome_rewards(explicit, [1 << 7])


def test_product_to_explicit_capacity():
    big = ProductSetting(costs=(0.0,), rewards=tuple([1.0] * 21), probs=(tuple([0.5] * 21),))
    with pytest.raises(CapacityError):
        product_to_explicit(big)


def test_separable_payment_explicit_agrees():
    setting = ProductSetting(
        costs=(0.0, 0.1), rewards=(1.0, 1.0, 1.0), probs=((0.2, 0.5, 0.9), (0.4, 0.1, 0.7))
    )
    con = Separable(item_payments=(0.3, 0.0, 0.8))
    explicit = product_to_explicit(setting)
    for i in range(2):
        assert expected_payment(explicit, i, con) == pytest.approx(
            expected_payment(setting, i, con)
        )


def test_mixed_payment(two_action):
    con = Mixed(sparse=Sparse(base=0.2, payments={1: 1.0}), alpha=0.25)
    want = 0.2 + 1.0 * 0.1 + 0.25 * 1.0
    assert expected_payment(two_action, 0, con) == pytest.approx(want)


def test_is_normalized(two_action):
    assert not is_normalized(two_action)
    small = ProductSetting(costs=(0.0,), rewards=(0.5,), probs=((0.9,),))
    assert is_normalized(small)


def test_additive_unnormalized_warns(two_action):
    with pytest.warns(UserWarning):
        verify_delta_ic(two_action, Sparse(payments={1: 9.5}), 1, 0.1, "add")


def test_notion_aliases(two_action):
    con = Sparse(payments={1: 9.0})
    assert verify_delta_ic(two_action, con, 1, 0.0, "mult")
    assert verify_delta_ic(two_action, con, 1, 0.0, "multiplicative")
    with pytest.raises(InputError):
        ic_slack(two_action, con, 1, 0.0, "nope")


def test_delta_above_zero_needs_a_notion():
    # opt_contract defaults to the multiplicative notion; a check that
    # defaulted to the additive one would test another condition
    setting = gen_random(3, 4, seed=2)
    res = opt_contract(setting, delta=0.1)
    for check in (ic_slack, verify_delta_ic):
        with pytest.raises(InputError, match="additive.*multiplicative"):
            check(setting, res.contract, res.action, 0.1)
    assert verify_delta_ic(setting, res.contract, res.action, 0.1, "mult")
    # at delta = 0 the notions agree, so none is needed
    ic = opt_contract(setting)
    assert ic_slack(setting, ic.contract, ic.action) == ic_slack(
        setting, ic.contract, ic.action, 0.0, "mult"
    )


def test_validation_errors():
    with pytest.raises(InputError):
        ProductSetting(costs=(0.0,), rewards=(1.0,), probs=((1.5,),))
    with pytest.raises(InputError):
        ProductSetting(costs=(-1.0,), rewards=(1.0,), probs=((0.5,),))
    with pytest.raises(InputError):
        # cost exceeds expected reward: negative welfare
        ProductSetting(costs=(0.0, 5.0), rewards=(1.0,), probs=((0.1,), (0.9,)))
    with pytest.raises(InputError):
        ExplicitSetting(costs=(0.0,), outcome_rewards=(1.0, 2.0), dist=((0.5, 0.4),))
    with pytest.raises(InputError):
        Sparse(payments={1: -0.5})
    with pytest.raises(InputError):
        Linear(alpha=1.5)
    with pytest.raises(InputError):
        Separable(item_payments=(0.1, -0.2))


def test_sparse_drops_zero_payments():
    con = Sparse(payments={1: 0.0, 2: 3.0})
    assert con.payments == {2: 3.0}


def test_settings_store_probabilities_clipped():
    # validation lets a probability lie TOL_VALID outside its bound; the setting stores it clipped
    product = ProductSetting(
        costs=(0.0, 0.2), rewards=(1.0, 0.5), probs=((0.2, -1e-10), (0.7, 1.0000000001))
    )
    assert product.probs.tolist() == [[0.2, 0.0], [0.7, 1.0]]
    assert not product.probs.flags.writeable
    assert json.loads(m.dumps(product))["probs"] == [[0.2, 0.0], [0.7, 1.0]]
    explicit = ExplicitSetting(costs=(0.0,), outcome_rewards=(0.0, 1.0), dist=((1.0 + 1e-10, -1e-10),))
    assert explicit.dist.tolist() == [[1.0 + 1e-10, 0.0]]  # rows keep their sums' slack


@pytest.mark.parametrize("unit", [1.0, 1e9])
def test_contract_signs_read_in_money_units(unit):
    setting = rescaled(
        ProductSetting(costs=(0.0, 0.2), rewards=(1.0, 0.5), probs=((0.2, 0.3), (0.7, 0.9))), unit
    )
    slack = -0.5 * m.TOL_VALID * m.money_unit(setting)
    sparse = {"kind": "sparse", "base": slack, "payments": [{"outcome": [1], "pay": slack}]}
    separable = {"kind": "separable", "item_payments": [slack, 1.0]}
    assert m.contract_from_dict(sparse, setting) == Sparse()
    assert m.contract_from_dict(separable, setting) == Separable(item_payments=(0.0, 1.0))
    past = {"kind": "sparse", "payments": [{"outcome": [1], "pay": 4.0 * slack}]}
    for data, within in ((sparse, None), (separable, None), (past, setting)):
        with pytest.raises(InputError, match="negative"):
            m.contract_from_dict(data, within)
    for build in (
        lambda: Sparse(base=-1e-300),
        lambda: Sparse(payments={1: -1e-300}),
        lambda: Separable(item_payments=(-1e-300,)),
    ):
        with pytest.raises(InputError):
            build()


def test_all_subset_probabilities_matches_hstack_form():
    def hstacked(probs):
        out = np.ones((probs.shape[0], 1))
        for j in range(probs.shape[1]):
            q = probs[:, j : j + 1]
            out = np.hstack([out * (1.0 - q), out * q])
        return out

    rng = np.random.default_rng(3)
    for d, items in ((1, 0), (2, 1), (3, 5), (4, 10)):
        probs = rng.uniform(size=(d, items))
        assert m.all_subset_probabilities(probs).tobytes() == hstacked(probs).tobytes()
    probs = gen_random(3, 16, 0).probs
    tracemalloc.start()
    try:
        result = m.all_subset_probabilities(probs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * result.nbytes  # one array, no copies of it


def test_outcome_items_round_trip():
    for mask in (0, 1, 0b1010, 0b11111):
        assert m.items_to_outcome(m.outcome_to_items(mask)) == mask


def test_setting_json_round_trip(two_action):
    data = json.loads(m.dumps(two_action))
    back = m.setting_from_dict(data)
    assert back == two_action
    explicit = product_to_explicit(two_action)
    back2 = m.setting_from_dict(json.loads(m.dumps(explicit)))
    assert back2 == explicit


def test_setting_wire_text_is_kind_then_fields_in_order():
    product = ProductSetting(costs=(0.0, 0.5), rewards=(1.0, 2.0), probs=((0.1, 0.2), (0.3, 0.4)))
    assert m.dumps(product) == (
        '{"kind": "product", "costs": [0.0, 0.5], "rewards": [1.0, 2.0], '
        '"probs": [[0.1, 0.2], [0.3, 0.4]]}'
    )
    explicit = ExplicitSetting(costs=(0.0,), outcome_rewards=(0.0, 1.0), dist=((0.25, 0.75),))
    assert m.dumps(explicit) == (
        '{"kind": "explicit", "costs": [0.0], "outcome_rewards": [0.0, 1.0], "dist": [[0.25, 0.75]]}'
    )


def test_setting_json_requires_free_action():
    data = {"kind": "product", "costs": [0.5, 1.0], "rewards": [10.0], "probs": [[0.3], [0.6]]}
    with pytest.raises(InputError):
        m.setting_from_dict(data)


def test_contract_json_round_trip():
    contracts = [
        Sparse(base=0.5, payments={0b101: 2.0, 0b1: 1.0}),
        Linear(alpha=0.4),
        Separable(item_payments=(0.1, 0.0, 0.3)),
        Mixed(sparse=Sparse(payments={3: 1.0}), alpha=0.2),
    ]
    for con in contracts:
        back = m.contract_from_dict(json.loads(m.dumps(con)))
        assert back == con


def test_contract_json_bad_kind():
    with pytest.raises(InputError):
        m.contract_from_dict({"kind": "affine"})
    with pytest.raises(InputError):
        m.contract_from_dict({"base": 1.0})


def test_min_nonzero_outcome_probability(two_action):
    # action 1 always succeeds, so its failure prob 0 is skipped
    assert m.min_nonzero_outcome_probability(two_action) == pytest.approx(0.1)


def test_min_nonzero_outcome_probability_closed_form():
    # against the smallest positive entry over all 2^m enumerated outcomes
    rng = np.random.default_rng(4)
    for n, m_items in [(1, 1), (3, 4), (4, 9), (2, 14)]:
        for _ in range(10):
            probs = rng.uniform(size=(n, m_items))
            probs[rng.uniform(size=probs.shape) < 0.2] = 0.0
            probs[rng.uniform(size=probs.shape) < 0.2] = 1.0
            setting = ProductSetting(costs=[0.0] * n, rewards=[1.0] * m_items, probs=probs)
            dist = product_to_explicit(setting).dist
            assert m.min_nonzero_outcome_probability(setting) == dist[dist > 0.0].min()
    # 60 items at 1e-6 (or 1 - 1e-6) give 1e-360, below float64's range
    tiny = ProductSetting(costs=[0.0], rewards=[1.0] * 60, probs=[[1e-6] * 30 + [1.0 - 1e-6] * 30])
    with pytest.raises(CapacityError):
        m.min_nonzero_outcome_probability(tiny)


def test_agent_utility_explicit_matches_product(two_action):
    explicit = product_to_explicit(two_action)
    con = Sparse(payments={1: 9.0})
    for i in range(2):
        assert agent_utility(explicit, i, con) == pytest.approx(agent_utility(two_action, i, con))


def test_fields_are_read_only_float_arrays(two_action):
    explicit = product_to_explicit(two_action)
    inst = SeparationInstance(weights=(1.0,), mixtures=((0.2, 0.4),), reference=(0.5, 0.5))
    fields = (
        two_action.costs, two_action.rewards, two_action.probs,
        explicit.costs, explicit.outcome_rewards, explicit.dist,
        inst.weights, inst.mixtures, inst.reference,
    )
    for arr in fields:
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        with pytest.raises(ValueError):
            arr[0] = 0.5
    # a setting copies its input, so the caller's array stays the caller's
    costs = np.array([0.0, 8.1])
    setting = ProductSetting(costs=costs, rewards=(10.0,), probs=((0.1,), (1.0,)))
    costs[1] = 9.0
    assert setting.costs[1] == 8.1 and costs.flags.writeable


def test_vector_evaluation_matches_loops():
    setting = gen_random(4, 5, seed=3)
    probs, rewards = setting.probs.tolist(), setting.rewards.tolist()

    def prob(i, outcome):
        return math.prod(q if (outcome >> j) & 1 else 1.0 - q for j, q in enumerate(probs[i]))

    outcomes = [0, 3, 17, 31]
    table = m.outcome_probabilities(setting, outcomes)
    assert table.shape == (4, len(outcomes))
    con = Sparse(base=0.1, payments={3: 0.5, 17: 1.5})
    pays = m.expected_payments(setting, con)
    exp_rewards = m.expected_rewards(setting)
    for i in range(4):
        for k, outcome in enumerate(outcomes):
            assert table[i, k] == pytest.approx(prob(i, outcome), rel=1e-12)
        assert pays[i] == pytest.approx(0.1 + 0.5 * prob(i, 3) + 1.5 * prob(i, 17), rel=1e-12)
        assert exp_rewards[i] == pytest.approx(sum(q * r for q, r in zip(probs[i], rewards)), rel=1e-12)
    explicit = product_to_explicit(setting)
    np.testing.assert_allclose(m.expected_payments(explicit, con), pays, rtol=1e-12)
    np.testing.assert_allclose(m.outcome_probabilities(explicit, outcomes), table, rtol=1e-12)
    for bad in ([32], [-1]):
        with pytest.raises(InputError):
            m.outcome_probabilities(setting, bad)
        with pytest.raises(InputError):
            m.outcome_probabilities(explicit, bad)


# each array record's fields, with a probability TOL_VALID outside its bound
# where the record clips, and the fields it stores
_ARRAY_RECORDS = [
    (
        ProductSetting,
        {"costs": [0.0, 0.2], "rewards": [1.0, 0.5], "probs": [[0.2, -1e-10], [0.7, 1.0000000001]]},
        {"probs": [[0.2, 0.0], [0.7, 1.0]]},
    ),
    (
        ExplicitSetting,
        {"costs": [0.0], "outcome_rewards": [0.0, 1.0], "dist": [[1.0 + 1e-10, -1e-10]]},
        {"dist": [[1.0 + 1e-10, 0.0]]},
    ),
    (
        SeparationInstance,
        {"weights": [0.25, 0.75], "mixtures": [[0.2, 0.4], [0.9, 0.1]], "reference": [0.5, 0.6]},
        {},
    ),
]


@pytest.mark.parametrize(
    "cls, values, clipped", _ARRAY_RECORDS, ids=[cls.__name__ for cls, _, _ in _ARRAY_RECORDS]
)
def test_array_records_copy_check_and_freeze_each_field(cls, values, clipped):
    record = cls(**values)
    for f in dataclasses.fields(cls):
        arr = getattr(record, f.name)
        assert arr.dtype == np.float64 and not arr.flags.writeable
        assert arr.tolist() == clipped.get(f.name, values[f.name])
        value = np.array(values[f.name])
        with pytest.raises(InputError, match=f"^{f.name} must be a {value.ndim}-dimensional array"):
            cls(**{**values, f.name: value[None]})
        value.flat[-1] = math.inf
        with pytest.raises(InputError, match=f"^{f.name} holds a non-finite value$"):
            cls(**{**values, f.name: value})
    twin = cls(**values)
    assert record == twin
    if cls is SeparationInstance:
        # the stacked rows are kept for the oracle, outside the fields
        assert record.rows.tolist() == values["mixtures"] + [values["reference"]]
        assert not record.rows.flags.writeable
        assert "rows" not in repr(record) + repr(twin)
        assert "rows" not in [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: ProductSetting(costs=(0.0, math.nan), rewards=(1.0,), probs=((0.1,), (0.9,))),
        lambda: ProductSetting(costs=(0.0,), rewards=(math.inf,), probs=((0.5,),)),
        lambda: ExplicitSetting(costs=(0.0,), outcome_rewards=(0.0, 1.0), dist=((math.nan, 1.0),)),
        lambda: Sparse(base=math.nan),
        lambda: Sparse(payments={1: math.nan}),
        lambda: Separable(item_payments=(0.1, math.nan)),
        lambda: SeparationInstance(weights=(1.0,), mixtures=((math.nan,),), reference=(0.5,)),
    ],
    ids=["nan-cost", "inf-reward", "nan-dist", "nan-base", "nan-sparse-pay", "nan-separable-pay",
         "nan-mixture"],
)
def test_non_finite_input_rejected(build):
    with pytest.raises(InputError):
        build()


def test_json_non_finite_literals_rejected(tmp_path):
    for name, text in (
        ("setting.json", '{"kind": "product", "costs": [0.0], "rewards": [NaN], "probs": [[0.5]]}'),
        ("contract.json", '{"kind": "linear", "alpha": Infinity}'),
    ):
        path = tmp_path / name
        path.write_text(text)
        load = m.load_setting if name == "setting.json" else m.load_contract
        with pytest.raises(InputError):
            load(str(path))


@pytest.mark.parametrize("k", SCALES)
def test_best_response_scale_invariant(k):
    # ties are judged in units of the largest expected reward, not absolutely
    for seed in range(40):
        base = gen_random(4, 8, seed)
        scaled = rescaled(base, k)
        for alpha in (0.1, 0.3, 0.5, 0.7):
            want = best_response(base, Linear(alpha=alpha))
            got = best_response(scaled, Linear(alpha=alpha))
            assert got.action == want.action, f"seed {seed} alpha {alpha}"
            assert got.payoff == pytest.approx(k * want.payoff, rel=1e-9)


@pytest.mark.parametrize("k", [1e-6, 1e-9])
def test_verify_rejects_half_paid_contract_in_small_units(k):
    # halving the cheapest IC contract's payments misses IC by half the cost
    # gap, a large share of the unit however small the unit is
    checked = 0
    for seed in range(10):
        scaled = rescaled(gen_random(3, 5, seed), k)
        for action in (1, 2):
            res = min_payment(scaled, action)
            if res.contract is None or res.expected_payment < 0.05 * k:
                continue
            half = Sparse(payments={s: p / 2 for s, p in res.contract.payments.items()})
            assert verify_delta_ic(scaled, res.contract, action, 0.0, "mult")
            assert not verify_delta_ic(scaled, half, action, 0.0, "mult"), f"seed {seed}"
            # the tolerance min_payment_delta checks its own answers with
            assert not verify_delta_ic(scaled, half, action, 0.0, "mult", tol=1e-5), f"seed {seed}"
            checked += 1
    assert checked >= 5


@pytest.mark.parametrize("k", [1e9, 1e12])
def test_zero_welfare_settings_accepted_in_large_units(k):
    # costs equal to the expected rewards: welfare 0 up to roundoff, which
    # grows with the unit of money
    rng = np.random.default_rng(0)
    for _ in range(500):
        probs = rng.uniform(size=(3, 8))
        rewards = rng.uniform(size=8)
        ProductSetting(costs=k * (probs @ rewards), rewards=k * rewards, probs=probs)
