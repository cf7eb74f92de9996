import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contract_forge import CapacityError, InputError, oracle
from contract_forge.generators import gen_random
from contract_forge.model import FRONT_CAP
from contract_forge.oracle import (
    OracleResult,
    SeparationInstance,
    _dominated,
    bucket_count_bound,
    min_ratio_bruteforce,
    min_ratio_fptas,
    min_ratio_fptas_stats,
    ratio_front,
)


def test_identical_distributions_ratio_one():
    inst = SeparationInstance(weights=(1.0,), mixtures=((0.3, 0.7),), reference=(0.3, 0.7))
    res = min_ratio_bruteforce(inst)
    assert res.ratio == pytest.approx(1.0)
    assert res.outcome == 0  # all ratios tie at 1; lowest bitmask wins
    fp = min_ratio_fptas(inst, eps=0.5)
    assert fp.ratio == pytest.approx(1.0)


def test_single_item_example():
    inst = SeparationInstance(weights=(1.0,), mixtures=((0.9,),), reference=(0.1,))
    res = min_ratio_bruteforce(inst)
    assert res.outcome == 0
    assert res.ratio == pytest.approx(1.0 / 9.0)


def test_half_half_reference_minimizer():
    # reference plays 1/2 on both items; mixture favors the second item.
    # Enumerated ratios: {} -> 0.75, {0} -> 0.25, {1} -> 2.25, {0,1} -> 0.75.
    inst = SeparationInstance(
        weights=(1.0,), mixtures=((0.25, 0.75),), reference=(0.5, 0.5)
    )
    res = min_ratio_bruteforce(inst)
    assert res.outcome == 0b01
    assert res.ratio == pytest.approx(0.25)
    fp = min_ratio_fptas(inst, eps=0.1)
    assert fp.ratio <= 0.25 * 1.1 + 1e-12


def test_zero_probability_handling():
    # the reference always produces item 0, so subsets without it are invalid
    inst = SeparationInstance(
        weights=(1.0,), mixtures=((0.2, 0.4),), reference=(1.0, 0.5)
    )
    res = min_ratio_bruteforce(inst)
    assert res.outcome & 0b01
    # a mixture that never produces item 1 gives ratio 0 on {0, 1}
    inst2 = SeparationInstance(
        weights=(1.0,), mixtures=((0.5, 0.0),), reference=(0.5, 0.5)
    )
    res2 = min_ratio_bruteforce(inst2)
    assert res2.ratio == 0.0
    assert res2.outcome == 0b10
    fp2 = min_ratio_fptas(inst2, eps=1.0)
    assert fp2.ratio == 0.0
    # a subnormal reference probability overflows the ratios of outcomes with item 1 to inf, unwarned
    inst3 = SeparationInstance(weights=(1.0,), mixtures=((0.5, 0.25),), reference=(0.5, 2.2e-313))
    for res in (min_ratio_bruteforce(inst3), min_ratio_fptas(inst3, eps=0.1)):
        assert res == OracleResult(outcome=0, ratio=0.75)


def test_validation_errors():
    with pytest.raises(InputError):
        SeparationInstance(weights=(0.5, 0.4), mixtures=((0.1,), (0.2,)), reference=(0.3,))
    with pytest.raises(InputError):
        SeparationInstance(weights=(1.0,), mixtures=((1.2,),), reference=(0.3,))
    with pytest.raises(InputError):
        SeparationInstance(weights=(1.0,), mixtures=((0.1, 0.2),), reference=(0.3,))
    with pytest.raises(InputError):
        SeparationInstance(weights=(), mixtures=(), reference=(0.5,))
    inst = SeparationInstance(weights=(1.0,), mixtures=((0.5,),), reference=(0.5,))
    with pytest.raises(InputError):
        min_ratio_fptas(inst, eps=0.0)
    with pytest.raises(InputError):
        min_ratio_fptas(inst, eps=1.5)
    big = SeparationInstance(
        weights=(1.0,), mixtures=((0.5,) * 21,), reference=(0.5,) * 21
    )
    with pytest.raises(CapacityError):
        min_ratio_bruteforce(big)


def _random_instance(rng, n, m, lo=0.05, hi=0.95):
    w = rng.dirichlet(np.ones(n - 1))
    return SeparationInstance(
        weights=tuple(w.tolist()),
        mixtures=tuple(tuple(row) for row in rng.uniform(lo, hi, (n - 1, m)).tolist()),
        reference=tuple(rng.uniform(lo, hi, m).tolist()),
    )


def test_fptas_within_guarantee_random():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 9))
        inst = _random_instance(rng, n, m)
        exact = min_ratio_bruteforce(inst)
        for eps in (0.1, 0.5, 1.0):
            approx, stats = min_ratio_fptas_stats(inst, eps)
            assert approx.ratio >= exact.ratio - 1e-12, f"trial {trial}"
            assert approx.ratio <= (1.0 + eps) * exact.ratio + 1e-12, f"trial {trial}"
            assert max(stats.family_counts) <= stats.family_budget


def test_ratio_is_the_ordered_weighted_sum():
    # sum_l w_l q_{l,S} / q_{ref,S} summed in mixture order, bit for bit, so
    # the answer does not depend on how a BLAS kernel blocks a dot product
    rng = np.random.default_rng(5)
    for trial in range(20):
        inst = _random_instance(rng, int(rng.integers(2, 7)), int(rng.integers(2, 10)))
        for res in (min_ratio_bruteforce(inst), min_ratio_fptas(inst, eps=0.5)):
            rows = np.vstack([inst.mixtures, inst.reference])
            q = np.ones(len(rows))
            for j in range(inst.m):
                q = q * (rows[:, j] if res.outcome >> j & 1 else 1.0 - rows[:, j])
            total = 0.0
            for weight, q_l in zip(inst.weights, q[:-1]):
                total += weight * q_l
            assert res.ratio == total / q[-1], f"trial {trial}"


def test_fptas_prunes_identical_items():
    m = 12
    inst = SeparationInstance(
        weights=(1.0,), mixtures=((0.3,) * m,), reference=(0.6,) * m
    )
    exact = min_ratio_bruteforce(inst)
    approx, stats = min_ratio_fptas_stats(inst, eps=1.0)
    # marginals depend only on how many items are taken, so families collapse
    assert stats.family_counts[-1] < 2**m
    assert stats.family_counts[-1] <= 4 * (m + 1)
    assert approx.ratio <= 2.0 * exact.ratio + 1e-12


def test_fptas_without_merges_is_bruteforce():
    # when no bucket holds two partials the DP keeps all 2^m subsets as grown:
    # it multiplies item by item and prices with _weighted_sum, as brute force
    # does, so both give the same outcome and the same ratio bits
    rng = np.random.default_rng(23)
    checked = 0
    for trial in range(150):
        inst = _random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(1, 13)), 0.01, 0.99)
        for eps in (0.01, 0.1, 1.0):
            result, stats = min_ratio_fptas_stats(inst, eps)
            if stats.family_counts == tuple(2 ** (j + 1) for j in range(inst.m)):
                assert result == min_ratio_bruteforce(inst), f"trial {trial}"
                checked += 1
    assert checked > 100


def test_bucket_count_bound_formula():
    inst = SeparationInstance(weights=(1.0,), mixtures=((0.25, 0.5),), reference=(0.5, 0.5))
    t, budget = bucket_count_bound(inst, eps=0.1)
    # q_min = 0.25 -> log2(1/q_min) = 2, m = 2 -> t = ceil(2*4*2/0.1) + 2
    assert t == 162
    assert budget == 162**2


def test_fptas_deterministic():
    rng = np.random.default_rng(5)
    inst = _random_instance(rng, 3, 8)
    a = min_ratio_fptas(inst, eps=0.3)
    b = min_ratio_fptas(inst, eps=0.3)
    assert a == b


def unique_rows_fptas(inst, eps):
    """The bucketing DP with np.unique over key rows, as a reference:
    (outcome, ratio, family counts), the first-formed partial of each bucket
    kept."""
    rows = np.vstack([inst.mixtures, inst.reference])
    log_bucket = math.log(1.0 + eps) / (2.0 * inst.m)
    masks = np.zeros(1, dtype=np.int64)
    probs = np.ones((1, rows.shape[0]))
    counts = []
    for j in range(inst.m):
        q = rows[:, j]
        masks = np.concatenate([masks, masks | np.int64(1 << j)])
        probs = np.vstack([probs * (1.0 - q), probs * q])
        keys = np.full(probs.shape, np.iinfo(np.int64).min, dtype=np.int64)
        pos = probs > 0.0
        keys[pos] = np.floor(np.log(probs[pos]) / log_bucket).astype(np.int64)
        _, first = np.unique(keys, axis=0, return_index=True)
        first.sort()
        masks, probs = masks[first], probs[first]
        counts.append(len(first))
    valid = probs[:, -1] > 0.0
    weighted = sum(w * probs[:, l] for l, w in enumerate(inst.weights))  # in mixture order
    ratios = weighted[valid] / probs[valid, -1]
    best = ratios.min()
    return int(masks[valid][ratios == best].min()), float(best), tuple(counts)


_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))


@st.composite
def _separation_instances(draw):
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 10))
    probs = draw(st.lists(st.lists(_PROBABILITY, min_size=m, max_size=m), min_size=n, max_size=n))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1)))
    return SeparationInstance(weights=weights / weights.sum(), mixtures=probs[:-1], reference=probs[-1])


@settings(max_examples=200)
@given(inst=_separation_instances(), eps=st.sampled_from([0.01, 0.1, 1.0]))
def test_fptas_matches_unique_rows_reference(inst, eps):
    result, stats = min_ratio_fptas_stats(inst, eps)
    assert (result.outcome, result.ratio, stats.family_counts) == unique_rows_fptas(inst, eps)


def test_fptas_peak_memory():
    # the relaxed benchmark's call: n=2, m=14, random rows keep about all
    # 2^14 partials; holding the grown family (2^14 x 2 float64, 256 KiB)
    # twice over plus the sort's index arrays stays under 1.5 MB
    setting = gen_random(2, 14, 0)
    inst = SeparationInstance(weights=(1.0,), mixtures=setting.probs[:1], reference=setting.probs[1])
    min_ratio_fptas_stats(inst, 0.1)
    tracemalloc.start()
    try:
        _, stats = min_ratio_fptas_stats(inst, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.family_counts[-1] > 16000
    assert peak < 1.5e6


def test_fptas_capacity():
    # every partial of 0.5/0.5 items shares one bucket, so only the bitmask width binds
    fits = SeparationInstance(weights=(1.0,), mixtures=((0.5,) * 63,), reference=(0.5,) * 63)
    assert min_ratio_fptas_stats(fits, 0.1)[1].family_counts == (1,) * 63
    too_wide = SeparationInstance(weights=(1.0,), mixtures=((0.5,) * 64,), reference=(0.5,) * 64)
    with pytest.raises(CapacityError):
        min_ratio_fptas(too_wide, 0.1)


def brute_front(mixtures, reference):
    """({mask: ratio vector} over all subsets the reference realizes, the
    Pareto-minimal ones among them), by enumeration.

    Ratios are products of per-item factors taken in item order; equal
    vectors keep the lowest mask.
    """
    mixtures, reference = np.asarray(mixtures, float), np.asarray(reference, float)
    m = len(reference)
    points = {}
    for bits in itertools.product((0, 1), repeat=m):
        mask = sum(1 << j for j, b in enumerate(bits) if b)
        if any(reference[j] == (0.0 if b else 1.0) for j, b in enumerate(bits)):
            continue  # the reference never realizes this subset
        ratio = np.ones(len(mixtures))
        for j, b in enumerate(bits):
            q, p = mixtures[:, j], reference[j]
            ratio = ratio * (q / p if b else (1.0 - q) / (1.0 - p))
        points[mask] = ratio
    front = {
        s: r
        for s, r in points.items()
        if not any(
            (o <= r).all() and ((o < r).any() or t < s) for t, o in points.items() if t != s
        )
    }
    return points, front


def assert_front_matches(mixtures, reference):
    """The same ratio vectors as enumeration, each at an outcome that has it."""
    front = ratio_front(mixtures, reference)
    points, want = brute_front(mixtures, reference)
    got = dict(zip(front.outcomes, front.ratios.T))
    assert len(got) == len(want)
    for mask, ratio in got.items():
        np.testing.assert_allclose(ratio, points[mask], rtol=1e-12)
    np.testing.assert_allclose(
        sorted(map(tuple, got.values())), sorted(map(tuple, want.values())), rtol=1e-12
    )
    return front, want


@pytest.mark.parametrize("k,m,seed", [(1, 8, 0), (2, 10, 1), (3, 9, 2), (3, 10, 3), (5, 8, 4)])
def test_ratio_front_matches_brute_force(k, m, seed):
    rng = np.random.default_rng(seed)
    front, want = assert_front_matches(rng.uniform(size=(k, m)), rng.uniform(size=m))
    assert sorted(front.outcomes) == sorted(want)


def test_ratio_front_forced_and_zero_items():
    rng = np.random.default_rng(5)
    mixtures = rng.uniform(size=(3, 9))
    reference = rng.uniform(size=9)
    reference[[1, 4]] = 0.0, 1.0  # item 1 never realized, item 4 always
    mixtures[0, 2] = 0.0  # zero ratio on any subset holding item 2
    mixtures[1, 6] = 1.0  # zero ratio on any subset missing item 6
    mixtures[2, [5, 7]] = 0.0
    front, _ = assert_front_matches(mixtures, reference)
    assert all(mask & 0b10 == 0 and mask & 0b10000 for mask in front.outcomes)
    for mask, ratio in zip(front.outcomes, front.ratios.T):
        assert (ratio[0] == 0.0) == bool(mask & 0b100)
        assert (ratio[2] == 0.0) == bool(mask & 0b10100000)


def test_ratio_front_ties_keep_lowest_mask():
    rng = np.random.default_rng(6)
    reference = rng.uniform(size=7)
    mixtures = rng.uniform(size=(2, 7))
    mixtures[:, [0, 3]] = reference[[0, 3]]  # items 0 and 3 leave every ratio as it is
    front, want = assert_front_matches(mixtures, reference)
    assert sorted(front.outcomes) == sorted(want)
    assert all(mask & 0b1001 == 0 for mask in front.outcomes)
    twin = ratio_front([reference], reference)  # every outcome ties at ratio 1
    assert twin.outcomes.tolist() == [0] and twin.ratios.tolist() == [[1.0]]


def test_ratio_front_without_rivals():
    reference = [0.3, 1.0, 0.6, 0.0]
    front = ratio_front(np.zeros((0, 4)), reference)
    assert front.outcomes.tolist() == [0b10]
    assert front.ratios.shape == (0, 1)
    assert_front_matches(np.zeros((0, 4)), reference)


def test_ratio_front_cap():
    # the logs of the two rivals' ratios sum to a constant, so all 2^m
    # outcomes are Pareto-minimal: 2^12 = FRONT_CAP points fit, 2^13 do not
    eps = 0.3 * np.arange(1, 14) / 14
    mixtures = np.array([0.5 + eps / 2, 0.5 - eps / 2])
    reference = np.full(13, 0.5)
    assert len(ratio_front(mixtures[:, :12], reference[:12]).outcomes) == FRONT_CAP == 1 << 12
    with pytest.raises(CapacityError):
        ratio_front(mixtures, reference)
    with pytest.raises(InputError):
        ratio_front(mixtures[:, :12], reference)


def filter_every_item(mixtures, reference):
    """ratio_front's pass with the dominance filter run after every item.

    The test reference for the translate shortcut: (outcomes, ratios).
    Without rivals every partial is the same empty vector, and the first is kept.
    """
    mix = np.clip(np.asarray(mixtures, float), 0.0, 1.0)
    ref = np.clip(np.asarray(reference, float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_in = np.log(mix) - np.log(ref)
        log_out = np.log1p(-mix) - np.log1p(-ref)
    masks = np.zeros(1, dtype=object)
    logs = np.zeros((1, len(mix)))
    for j, p in enumerate(ref):
        grown = [(logs + log_out[:, j], masks)] if p < 1.0 else []
        if p > 0.0:
            grown.append((logs + log_in[:, j], masks | (1 << j)))
        logs = np.concatenate([part for part, _ in grown])
        masks = np.concatenate([part for _, part in grown])
        keep = ~_dominated(logs) if len(mix) else np.arange(len(logs)) == 0
        logs, masks = logs[keep], masks[keep]
    with np.errstate(over="ignore"):
        return masks, np.exp(logs.T)


# 0 and 1 force items out or in and give zero ratios; repeats give ties and
# items whose reference probability is the smallest or largest
PROB_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


@settings(max_examples=300)
@given(st.integers(1, 5), st.integers(1, 10), st.data())
def test_ratio_front_same_bits_as_filtering_every_item(n, m, data):
    grid = st.lists(st.sampled_from(PROB_GRID), min_size=n * m, max_size=n * m)
    probs = np.reshape(data.draw(grid), (n, m))
    for action in range(n):
        rivals = np.arange(n) != action
        front = ratio_front(probs[rivals], probs[action])
        masks, ratios = filter_every_item(probs[rivals], probs[action])
        assert front.outcomes.tolist() == masks.tolist()
        assert front.ratios.tobytes() == ratios.tobytes() and front.ratios.shape == ratios.shape


def test_ratio_front_two_actions_one_point_without_filter(monkeypatch):
    # with one rival every item is ordered: the front is one point, taking
    # the items the rival realizes less often than the reference
    mixtures, reference = [[0.2, 0.7, 0.4, 0.6]], [0.3, 0.5, 0.9, 0.8]
    masks, ratios = filter_every_item(mixtures, reference)
    monkeypatch.setattr(oracle, "_dominated", None)
    front = ratio_front(mixtures, reference)
    assert front.outcomes.tolist() == masks.tolist() == [0b1101]
    assert front.ratios.tobytes() == ratios.tobytes()
    assert front.ratios[0, 0] == pytest.approx((0.2 / 0.3) * (0.3 / 0.5) * (0.4 / 0.9) * (0.6 / 0.8))
