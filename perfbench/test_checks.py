"""Each answer check accepts the program's answer and rejects a perturbed one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import pytest

from contract_forge import exact
from contract_forge.generators import gen_random

import workloads as wl


def _case(build, answer, reference, seed=7):
    op = build(seed)[0]
    return op, answer(op.run()), reference(op)


@pytest.fixture(scope="module")
def opt_case():
    return _case(wl.build_opt, wl.answer_opt, wl.reference_opt)


@pytest.fixture(scope="module")
def delta_case():
    return _case(wl.build_delta, wl.answer_delta, wl.reference_delta)


@pytest.fixture(scope="module")
def simple_case():
    return _case(wl.build_simple, wl.answer_simple, wl.reference_simple)


@pytest.fixture(scope="module")
def sampled_case():
    return _case(wl.build_sampled, wl.answer_sampled, wl.reference_sampled)


def _scaled(payments, factor):
    return {k: v * factor for k, v in payments.items()}


def test_opt_accepts_the_answer(opt_case):
    assert wl.check_opt(*opt_case) is None


@pytest.mark.parametrize("perturb", [
    lambda a: {**a, "payoff": a["payoff"] + 1e-4},
    lambda a: {**a, "payoff": a["payoff"] - 1e-4},
    lambda a: {**a, "payments": _scaled(a["payments"], 0.5) if a["payments"] else {1: 0.1}},
])
def test_opt_rejects_a_perturbed_answer(opt_case, perturb):
    op, answer, ref = opt_case
    assert wl.check_opt(op, perturb(answer), ref) is not None


def test_opt_rejects_a_suboptimal_action(opt_case):
    op, answer, ref = opt_case
    worse = int(ref.argmin())
    assert ref[worse] < ref.max() - 1e-3
    assert wl.check_opt(op, {**answer, "action": worse}, ref) is not None


def test_scaled_answer_is_judged_on_the_unscaled_reference():
    scaled = next(o for o in wl.build_opt(7) if o.params["scale"] != 1.0)
    seed, scale = scaled.key
    right = wl.answer_opt(exact.opt_contract(gen_random(wl.OPT_N, wl.OPT_M, seed)))
    answer = {**right, "payoff": right["payoff"] * scale,
              "payments": _scaled(right["payments"], scale)}
    ref = wl.reference_opt(scaled)
    assert wl.check_opt(scaled, answer, ref) is None
    assert wl.check_opt(scaled, {**answer, "payoff": answer["payoff"] * (1 + 1e-4)}, ref)


def test_delta_reference_closed_form_matches_highs():
    from reference import enumerate_outcomes, min_payment_highs

    for op in wl.build_delta(7)[:5]:
        costs, rewards, probs = op.arrays
        dist, _ = enumerate_outcomes(probs, rewards)
        want = min_payment_highs(dist, costs, wl.DELTA_ACTION)
        assert wl.reference_delta(op) == pytest.approx(want, rel=1e-7, abs=1e-9)


def test_delta_accepts_the_answer(delta_case):
    assert wl.check_delta(*delta_case) is None


@pytest.mark.parametrize("perturb", [
    lambda a: {**a, "payment": a["payment"] + 1e-4},
    lambda a: {**a, "payment": a["payment"] * 0.9, "payments": _scaled(a["payments"], 0.9)},
])
def test_delta_rejects_a_perturbed_answer(delta_case, perturb):
    op, answer, ref = delta_case
    assert wl.check_delta(op, perturb(answer), ref) is not None


def test_delta_rejects_a_payment_above_the_exact_minimum(delta_case):
    op, answer, ref = delta_case
    assert wl.check_delta(op, answer, answer["payment"] - 1e-3) is not None


def test_simple_accepts_the_answer(simple_case):
    assert wl.check_simple(*simple_case) is None


def test_simple_rejects_a_perturbed_answer(simple_case):
    op, answer, ref = simple_case
    alpha, action, payoff = answer["linear"]
    bad = {**answer, "linear": (alpha, action, payoff + 1e-4)}
    assert wl.check_simple(op, bad, ref) is not None
    costs, rewards, probs = op.arrays
    costly = int(costs.argmax())
    assert costs[costly] > wl.SIMPLE_DELTA + 1e-3
    # a zero share cannot pay for an action costing more than delta
    bad = {**answer, "approx": (0.0, costly, float(probs[costly] @ rewards))}
    assert wl.check_simple(op, bad, ref) is not None
    starved = {**answer, "approx": (1.0, answer["approx"][1], 0.0)}
    assert wl.check_simple(op, starved, ref) is not None


def test_sampled_accepts_the_answer(sampled_case):
    verdict, met = wl.check_sampled(*sampled_case)
    assert verdict is None and met


@pytest.mark.parametrize("perturb", [
    lambda a: {**a, "samples": a["samples"] + 1},
    lambda a: {**a, "opt_on_true": a["opt_on_true"] + 1e-4},
    lambda a: {**a, "payoff_on_true": a["payoff_on_true"] + 1e-4},
])
def test_sampled_rejects_a_perturbed_answer(sampled_case, perturb):
    op, answer, ref = sampled_case
    verdict, met = wl.check_sampled(op, perturb(answer), ref)
    assert verdict is not None and not met


def test_sampled_guarantee_fails_for_an_overpaying_contract(sampled_case):
    op, answer, ref = sampled_case
    # a base payment of 2 keeps the contract IC but drops the payoff below opt - 5 eps
    overpaid = {**answer, "base": 2.0, "payoff_on_true": answer["payoff_on_true"] - 2.0}
    verdict, met = wl.check_sampled(op, overpaid, ref)
    assert verdict is None and not met
