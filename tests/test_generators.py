import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import contract_forge.generators as g
import contract_forge.model as m
from contract_forge import InputError, expected_reward, outcome_probability


# ---------------------------------------------------------------------------
# gap family
# ---------------------------------------------------------------------------


def test_gap_two_actions():
    s = g.gen_gap(2, 0.1)
    assert s.probs.tolist() == [[0.1], [1.0]]
    assert s.costs.tolist() == [0.0, pytest.approx(8.1)]
    assert s.rewards.tolist() == [10.0]


def test_gap_welfares():
    s = g.gen_gap(3, 0.1)
    welfares = [expected_reward(s, i) - s.costs[i] for i in range(3)]
    assert welfares == pytest.approx([1.0, 1.9, 2.8])


@given(st.integers(2, 6), st.floats(0.01, 0.25))
def test_gap_welfare_formula(c, gamma):
    s = g.gen_gap(c, gamma)
    assert s.costs[0] == 0.0
    # cancellation error in R_i - c_i scales with the reward magnitude
    tol = 1e-12 * s.rewards[0] + 1e-9
    for i in range(c):
        welfare = expected_reward(s, i) - s.costs[i]
        assert welfare == pytest.approx((i + 1) - i * gamma, abs=tol)


def test_gap_rejects_bad_params():
    with pytest.raises(InputError):
        g.gen_gap(1, 0.1)
    with pytest.raises(InputError):
        g.gen_gap(3, 0.3)
    with pytest.raises(InputError):
        g.gen_gap(3, 0.0)


# ---------------------------------------------------------------------------
# DIMACS parsing
# ---------------------------------------------------------------------------


def test_parse_dimacs_basic():
    f = g.parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 0\n")
    assert f.num_vars == 3
    assert f.clauses == ((1, -2, 3), (-1, 2))


def test_parse_dimacs_no_header_multiline():
    f = g.parse_dimacs("1 -2\n3 0 2 0")
    assert f.num_vars == 3
    assert f.clauses == ((1, -2, 3), (2,))


def test_parse_dimacs_satlib_tail():
    f = g.parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
    assert f.clauses == ((1, 2),)


def test_parse_dimacs_errors():
    with pytest.raises(InputError):
        g.parse_dimacs("p cnf 2 1\n1 2 3 4 0\n")  # 4 literals
    with pytest.raises(InputError):
        g.parse_dimacs("p cnf 2 1\n1 -1 0\n")  # repeated variable
    with pytest.raises(InputError):
        g.parse_dimacs("p cnf 2 1\n1 5 0\n")  # variable out of range
    with pytest.raises(InputError):
        g.parse_dimacs("c nothing here\n")
    with pytest.raises(InputError):
        g.parse_dimacs("p dnf 2 1\n1 0\n")


# ---------------------------------------------------------------------------
# SAT setting
# ---------------------------------------------------------------------------


def test_sat_literal_rule():
    f = g.CnfFormula(num_vars=3, clauses=((1, -2, 3),))
    s = g.gen_sat(f)
    assert s.probs.tolist() == [[0.0, 1.0, 0.0]]
    assert s.costs.tolist() == [0.0]
    assert s.rewards.tolist() == [0.0, 0.0, 0.0]


def _assignment_mask_satisfies(mask, clause):
    return any((mask >> (abs(l) - 1)) & 1 == (1 if l > 0 else 0) for l in clause)


def test_sat_zero_probability_iff_satisfying():
    # (x1 or x2) and (not x1 or x3): satisfiable
    f = g.CnfFormula(num_vars=3, clauses=((1, 2), (-1, 3)))
    s = g.gen_sat(f)
    for mask in range(1 << 3):
        sat_all = all(_assignment_mask_satisfies(mask, cl) for cl in f.clauses)
        zero_all = all(outcome_probability(s, i, mask) == 0.0 for i in range(s.n))
        assert sat_all == zero_all


def test_sat_average_action_lower_bound():
    # All 8 sign patterns over 3 variables: every assignment satisfies exactly
    # 7 of 8 clauses, so the uniform mix over actions puts mass >= 1/2^m on
    # every outcome.
    clauses = []
    for signs in range(8):
        clauses.append(tuple((j + 1) * (1 if (signs >> j) & 1 else -1) for j in range(3)))
    f = g.CnfFormula(num_vars=3, clauses=tuple(clauses))
    s = g.gen_sat(f)
    for mask in range(1 << 3):
        avg = sum(outcome_probability(s, i, mask) for i in range(s.n)) / s.n
        assert avg >= 1.0 / 2**3 - 1e-12


# ---------------------------------------------------------------------------
# composed product settings
# ---------------------------------------------------------------------------


@pytest.fixture
def small_formula():
    return g.CnfFormula(num_vars=3, clauses=((1, -2, 3), (-1, 2)))


def test_product2_layout(small_formula):
    eps = 0.1
    s = g.gen_product2(small_formula, eps)
    n, mm = len(small_formula.clauses), small_formula.num_vars
    assert (s.n, s.m) == (n + 1, mm + 1)
    sat = g.gen_sat(small_formula)
    for i in range(n):
        assert s.probs[i][:mm].tolist() == sat.probs[i].tolist()
        assert s.probs[i][mm] == eps
        assert s.costs[i] == 0.0
    assert s.probs[n].tolist() == [0.5] * mm + [1.0]
    assert s.rewards.tolist() == [0.0] * mm + [10.0]
    assert s.costs[n] == pytest.approx(8.1)


def test_product2_rewards_match_gap(small_formula):
    eps = 0.2
    s = g.gen_product2(small_formula, eps)
    gap = g.gen_gap(2, eps)
    n = len(small_formula.clauses)
    for i in range(n):
        assert expected_reward(s, i) == pytest.approx(expected_reward(gap, 0))
    assert expected_reward(s, n) == pytest.approx(expected_reward(gap, 1))


def test_product2_first_best_matches_gap(small_formula):
    eps = 0.1
    s = g.gen_product2(small_formula, eps)
    gap = g.gen_gap(2, eps)
    fb = max(expected_reward(s, i) - s.costs[i] for i in range(s.n))
    fb_gap = max(expected_reward(gap, i) - gap.costs[i] for i in range(gap.n))
    assert fb == pytest.approx(fb_gap) == pytest.approx(2.0 - eps)


def test_productc_layout(small_formula):
    c, eps = 3, 0.1
    s = g.gen_productc(small_formula, c, eps)
    n, mm = len(small_formula.clauses), small_formula.num_vars
    gap = g.gen_gap(c, eps)
    assert (s.n, s.m) == (c * n + 1, mm + 1)
    for block in range(c):
        for row in range(n):
            i = block * n + row
            assert s.probs[i][mm] == pytest.approx(eps ** (c - 1 - block))
            assert s.costs[i] == pytest.approx(gap.costs[block])
    assert s.probs[-1].tolist() == [0.5] * mm + [1.0]
    assert s.costs[-1] == pytest.approx(gap.costs[-1])
    fb = max(expected_reward(s, i) - s.costs[i] for i in range(s.n))
    assert fb == pytest.approx(c - (c - 1) * eps)


def test_productc_requires_c_at_least_3(small_formula):
    with pytest.raises(InputError):
        g.gen_productc(small_formula, 2, 0.1)


# ---------------------------------------------------------------------------
# balanced-partition gadget
# ---------------------------------------------------------------------------


def test_minmax_example_values():
    gadget = g.gen_minmax([3, 3])
    assert gadget.full_set_prob == pytest.approx(1 / 16)
    assert gadget.odds_root == pytest.approx(3.0)
    assert gadget.margin == pytest.approx(5 / 8)
    assert gadget.effort_cost == pytest.approx(0.25)
    assert gadget.reward == pytest.approx(3.2)
    s = gadget.setting
    assert s.probs.tolist() == [[0.25, 0.25], [0.75, 0.75], [1.0, 0.5]]


def test_minmax_set_probability_identity():
    gadget = g.gen_minmax([3, 4, 5])
    s = gadget.setting
    for mask in range(1 << 3):
        complement_odds = 1.0
        for j, a in enumerate(gadget.odds):
            if not (mask >> j) & 1:
                complement_odds *= a
        assert outcome_probability(s, 0, mask) == pytest.approx(
            gadget.full_set_prob * complement_odds
        )


def test_minmax_rejects_small_odds():
    with pytest.raises(InputError):
        g.gen_minmax([3, 2])
    with pytest.raises(InputError):
        g.gen_minmax([])


def test_minmax_odds_product_past_int64():
    # the product of the odds once wrapped in int64: to a wrong root, or a negative one
    assert g.gen_minmax([4294967297, 4294967297]).odds_root == 4294967297.0
    assert g.gen_minmax([3] * 40).odds_root == pytest.approx(3.0**20, rel=1e-15)
    with pytest.raises(InputError):
        g.gen_minmax([10**200, 10**200])
    with pytest.raises(InputError):
        g.gen_minmax([10**310, 3])  # one odds value alone passes float64


def test_minmax_target_payment():
    gadget = g.gen_minmax([3, 3])
    assert gadget.target_payment(0.0) == pytest.approx(0.25 / (5 / 8))
    assert gadget.target_payment(0.5) == pytest.approx(0.25 / (5 / 8 * 1.5))
    with pytest.raises(InputError):
        gadget.target_payment(-0.1)


# ---------------------------------------------------------------------------
# worked 2x2 examples
# ---------------------------------------------------------------------------


def test_delta_advantage_values():
    adv = g.gen_delta_advantage(0.3, 0.5)
    assert adv.setting.costs.tolist() == [0.0, pytest.approx(0.5)]
    assert adv.setting.rewards.tolist() == [pytest.approx(0.4), pytest.approx(0.9)]
    assert adv.setting.probs[1].tolist() == [0.0, 1.0]
    assert adv.ic_opt == pytest.approx(0.3)
    assert adv.relaxed_payoff == pytest.approx(0.4)
    assert adv.contract.payments == {0b10: pytest.approx(0.5)}
    assert expected_reward(adv.setting, 0) == pytest.approx(0.3)
    assert expected_reward(adv.setting, 1) == pytest.approx(0.9)


def test_delta_advantage_rejects_bad_params():
    with pytest.raises(InputError):
        g.gen_delta_advantage(0.3, 0.6)
    with pytest.raises(InputError):
        g.gen_delta_advantage(0.0, 0.5)


@given(st.floats(0.01, 0.9))
def test_separable_gap_unit_reward(delta):
    gap = g.gen_separable_gap(delta)
    assert expected_reward(gap.setting, 0) == pytest.approx(1.0)
    assert expected_reward(gap.setting, 1) == pytest.approx(1.0 / delta - 1.0 + delta)


def test_separable_gap_ratio_formula():
    for eps in (0.1, 0.3, 0.5):
        delta = g.separable_gap_delta(eps)
        gap = g.gen_separable_gap(delta)
        assert gap.best_payoff / gap.separable_payoff == pytest.approx(2.0 - eps)


def test_separable_gap_rejects_bad_delta():
    with pytest.raises(InputError):
        g.gen_separable_gap(0.0)
    with pytest.raises(InputError):
        g.gen_separable_gap(1.0)
    with pytest.raises(InputError):
        g.separable_gap_delta(1.5)


# ---------------------------------------------------------------------------
# random corpora
# ---------------------------------------------------------------------------

PINNED_DIGESTS = {
    1: "86715fce739539ac",
    2: "879137f8ac5ba01b",
    3: "8ae1b7c6463852a8",
}


def test_random_pinned_digests():
    for seed, digest in PINNED_DIGESTS.items():
        s = g.gen_random(4, 5, seed)
        got = hashlib.sha256(m.dumps(s).encode()).hexdigest()[:16]
        assert got == digest


@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 10**6))
def test_random_normalized_free_first_action(n, mm, seed):
    s = g.gen_random(n, mm, seed)
    assert s.costs[0] == 0.0
    top = max(expected_reward(s, i) for i in range(n))
    assert top == pytest.approx(1.0)
    # costs never eat into the last RANDOM_MARGIN of an action's expected reward
    for i in range(n):
        assert s.costs[i] <= max(0.0, expected_reward(s, i) - g.RANDOM_MARGIN) + 1e-12


def test_random_deterministic():
    assert g.gen_random(5, 4, 42) == g.gen_random(5, 4, 42)
    assert g.gen_random(5, 4, 42) != g.gen_random(5, 4, 43)
