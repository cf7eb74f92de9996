"""Likelihood ratios over item subsets: their Pareto front and the separation oracle.

ratio_front keeps the subsets whose vectors of likelihood ratios
q_{l,S} / q_{ref,S} are Pareto-minimal, in one pass over items that runs
the dominance filter only on items that can reshape the front;
exact.min_payment solves its LP over those subsets alone.

The separation problem, solved by enumeration and by a bucketing FPTAS:
given nonnegative weights alpha over a set of "mixture" product
distributions and a reference product distribution, find the item subset S
minimizing (sum_l alpha_l q_{l,S}) / q_{ref,S} over subsets with positive
reference probability. Enumeration is exponential in the item count; the
FPTAS runs one pass over items, keeping one representative partial solution
per family of partials whose marginals agree within a factor
bucket = (1+eps)^(1/2m) under every distribution, which guarantees a final
ratio within (1+eps) of the true minimum. It keeps at most
model.PARTIALS_CAP = 2^20 partials after each item (random rows pass that
after 20 items) and takes at most model.MAX_ITEMS = 63 items, the width of
its int64 outcome bitmasks; past either it raises CapacityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import CapacityError, InputError
from .model import (
    FRONT_CAP,
    M_MAX_ENUMERATE,
    MAX_ITEMS,
    PARTIALS_CAP,
    ArrayFields,
    all_subset_probabilities,
    read_only_array,
)


@dataclass(frozen=True, eq=False)
class SeparationInstance(ArrayFields):
    weights: np.ndarray  # one nonnegative weight per mixture, summing to 1
    mixtures: np.ndarray  # rows of per-item probabilities
    reference: np.ndarray  # per-item probabilities of the reference action

    def __post_init__(self):
        weights = read_only_array(self.weights, 1, "weights")
        mixtures = read_only_array(self.mixtures, 2, "mixtures")
        reference = read_only_array(self.reference, 1, "reference")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "mixtures", mixtures)
        object.__setattr__(self, "reference", reference)
        if not weights.size or len(weights) != len(mixtures):
            raise InputError("need one weight per mixture distribution")
        if (weights < -1e-12).any():
            raise InputError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-6:
            raise InputError(f"weights sum to {weights.sum()}, expected 1")
        m = len(reference)
        if m == 0 or mixtures.shape[1] != m:
            raise InputError("mixtures and reference must share the item count")
        rows = np.vstack([mixtures, reference])
        outside = rows[(rows < 0.0) | (rows > 1.0)]
        if outside.size:
            raise InputError(f"probability {outside[0]} outside [0, 1]")

    @property
    def m(self) -> int:
        return len(self.reference)

    @property
    def num_dists(self) -> int:
        return len(self.mixtures) + 1


@dataclass(frozen=True)
class OracleResult:
    outcome: int
    ratio: float


@dataclass(frozen=True)
class FptasStats:
    family_counts: tuple  # representatives kept after each item
    bucket_parts: int  # the t in the t^(#distributions) family budget
    family_budget: int


@dataclass(frozen=True)
class RatioFront:
    outcomes: np.ndarray  # item-subset bitmasks (Python ints), one per front point
    ratios: np.ndarray  # (mixtures, points): q_{l,S} / q_{ref,S}


# entries of one boolean block in the dominance pass
_BLOCK = 1 << 20


def ratio_front(mixtures, reference) -> RatioFront:
    """Subsets S with q_ref,S > 0 whose likelihood-ratio vectors are Pareto-minimal.

    r_S = (q_{l,S} / q_{ref,S})_l over the mixture rows l. A dominated
    partial stays dominated under any extension by the remaining items
    (ratios multiply), so one pass over items that drops dominated partials
    is exact. Items the reference never or always realizes are forced out or
    in. Of equal vectors the lowest bitmask is kept, except that a zero
    ratio can make a vector equal to one dropped before. More than
    model.FRONT_CAP points raise CapacityError.

    Ordered items skip the filter. If an item's log-ratio step out of it is
    at most its step into it under every rival (the reference realizes it
    least often of all actions), each partial with the item is weakly
    dominated by its twin without it: the front moves by the step out and
    keeps its masks. In the reverse order (most often) it moves by the step
    in and every mask takes the item. A translate keeps the order within
    each coordinate, so the moved front needs no filter (maxima of vectors:
    Kung, Luccio & Preparata, JACM 1975). It does not when rounding or a
    zero ratio (-inf) merges two values of a coordinate, or rounds a pair of
    twins to one vector (the filter keeps the twin without the item); such
    items run the filter, so the result is the same bits either way.
    """
    mixtures = read_only_array(mixtures, 2, "mixtures")
    reference = read_only_array(reference, 1, "reference")
    if mixtures.shape[1] != reference.size:
        raise InputError("mixtures and reference must share the item count")
    mix, ref = np.clip(mixtures, 0.0, 1.0), np.clip(reference, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero ratios are -inf
        log_in = np.log(mix) - np.log(ref)
        log_out = np.log1p(-mix) - np.log1p(-ref)
        # ordered items: each partial without the item is at most its twin
        # with it (drop), or the reverse (take); forced items are ordered too
        drop = (ref == 0.0) | (ref < 1.0) & (log_out <= log_in).all(axis=0)
        take = (ref == 1.0) | (log_in <= log_out).all(axis=0)
    masks = np.zeros(1, dtype=object)
    logs = np.zeros((1, len(mix)))
    for j, p in enumerate(ref):
        out, into = log_out[:, j], log_in[:, j]
        # twins rounded to the same vector keep the one without j, so taking
        # j needs every pair apart
        if drop[j]:
            step, bit = out, 0
        elif take[j] and (p == 1.0 or (logs + out != logs + into).any(axis=1).all()):
            step, bit = into, 1 << j
        else:
            step = None
        if step is not None and _keeps_order(logs, step):
            logs = logs + step
            if bit:
                masks = masks | bit
            continue
        # the front stays in ascending bitmask order: partials without item j first
        grown = [(logs + out, masks)] if p < 1.0 else []
        if p > 0.0:
            grown.append((logs + into, masks | (1 << j)))
        logs = np.concatenate([part for part, _ in grown])
        masks = np.concatenate([part for _, part in grown])
        keep = ~_dominated(logs)
        logs, masks = logs[keep], masks[keep]
        if len(masks) > FRONT_CAP:
            raise CapacityError(
                f"likelihood-ratio front passed {FRONT_CAP} points at item {j} of {len(ref)}"
            )
    with np.errstate(over="ignore"):  # min_payment rejects an infinite ratio
        return RatioFront(outcomes=masks, ratios=np.exp(logs.T))


def _keeps_order(points: np.ndarray, step: np.ndarray) -> bool:
    """Whether points + step (one step per column) merges no two values of a column.

    Rounding is monotone, so each sorted column moves to the sorted moved
    column, and only neighbours can merge.
    """
    before = np.sort(points, axis=0)
    after = before + step
    return not ((after[1:] == after[:-1]) & (before[1:] != before[:-1])).any()


def _dominated(points: np.ndarray) -> np.ndarray:
    """Points another point weakly dominates; of equal points all but the first.

    In lexicographic order, ties by position, a dominator comes first, and a
    dropped point's dominators are dominated by a kept one, so each block of
    points is compared only with the kept points before it and with itself.
    """
    order = np.lexsort((np.arange(len(points)),) + tuple(points.T[::-1]))
    pts = points[order]
    lost = np.zeros(len(pts), dtype=bool)
    step = max(1, _BLOCK // len(pts))
    for start in range(0, len(pts), step):
        block = pts[start : start + step]
        earlier = np.concatenate([pts[:start][~lost[:start]], block])
        le = np.ones((len(block), len(earlier)), dtype=bool)
        rank = np.arange(len(block))
        le[:, -len(block) :] = rank < rank[:, None]  # within the block, earlier points only
        for c, col in enumerate(earlier.T):
            le &= col <= block[:, c : c + 1]
        lost[start : start + len(block)] = le.any(axis=1)
    unsorted = np.empty_like(lost)
    unsorted[order] = lost
    return unsorted


def min_ratio_bruteforce(inst: SeparationInstance) -> OracleResult:
    """Exact minimizer over all 2^m subsets; ties go to the lowest bitmask.

    More than model.M_MAX_ENUMERATE items raise CapacityError.
    """
    if inst.m > M_MAX_ENUMERATE:
        raise CapacityError(
            f"m={inst.m} items would enumerate 2^{inst.m} outcomes (cap {M_MAX_ENUMERATE})"
        )
    probs = all_subset_probabilities(np.vstack([inst.mixtures, inst.reference]))
    ref = probs[-1]
    num = _weighted_sum(inst.weights, probs[:-1])
    valid = ref > 0.0
    if not valid.any():
        raise InputError("reference distribution assigns zero to every outcome")
    ratios = np.full(ref.shape, np.inf)
    ratios[valid] = num[valid] / ref[valid]
    best = int(np.argmin(ratios))  # first occurrence = lowest bitmask
    return OracleResult(outcome=best, ratio=float(ratios[best]))


def _weighted_sum(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_l weights[l] * rows[l], added row by row in order, elementwise.

    Unlike a BLAS product, whose blocking varies by kernel, the order of the
    additions is fixed, so the sums are the same bits on every machine.
    """
    total = weights[0] * rows[0]
    for weight, row in zip(weights[1:], rows[1:]):
        total += weight * row
    return total


def bucket_count_bound(inst: SeparationInstance, eps: float) -> Tuple[int, int]:
    """(t, t^d): per-distribution bucket count and the family budget it implies.

    t covers nonzero marginals, which lie in [q_min^m, 1]; two extra parts
    absorb the anchor at 1 and the zero sentinel.
    """
    _check_eps(eps)
    rows = np.vstack([inst.mixtures, inst.reference])
    factors = np.concatenate([rows.ravel(), 1.0 - rows.ravel()])
    nz = factors[factors > 0.0]
    q_min = float(nz.min()) if nz.size else 1.0
    m = inst.m
    t = math.ceil(2.0 * m * m * -math.log2(q_min) / eps) + 2
    return t, t**inst.num_dists


def _check_eps(eps: float) -> None:
    if not (0.0 < eps <= 1.0):
        raise InputError(f"eps must lie in (0, 1], got {eps}")
    if 1.0 + eps == 1.0:  # the bucket factor (1+eps)^(1/2m) would round to 1
        raise InputError(f"eps={eps} is finer than float64 resolves at 1")


def min_ratio_fptas(inst: SeparationInstance, eps: float) -> OracleResult:
    result, _ = min_ratio_fptas_stats(inst, eps)
    return result


def min_ratio_fptas_stats(inst: SeparationInstance, eps: float) -> Tuple[OracleResult, FptasStats]:
    """Bucketing dynamic program; returned ratio is within (1+eps) of optimal.

    Of the partials sharing a bucket under every distribution the one formed
    first is kept. More than model.MAX_ITEMS items, or more than
    model.PARTIALS_CAP partials kept after an item, raise CapacityError.
    """
    _check_eps(eps)
    m = inst.m
    if m > MAX_ITEMS:
        raise CapacityError(f"{m} items do not fit a 64-bit outcome bitmask")
    rows = np.vstack([inst.mixtures, inst.reference])
    d = rows.shape[0]
    log_bucket = math.log((1.0 + eps)) / (2.0 * m)  # ln of the bucket factor

    masks = np.zeros(1, dtype=np.int64)
    probs = np.ones((d, 1))  # one column per partial
    counts: List[int] = []
    for j in range(m):
        q = rows[:, j : j + 1]
        k = len(masks)
        # partials without item j, then with it; each temporary is freed before
        # the next is made, so about three copies of the grown family are live
        grown = np.empty((d, 2 * k))
        np.multiply(probs, 1.0 - q, out=grown[:, :k])
        np.multiply(probs, q, out=grown[:, k:])
        del probs
        # anchor: probability 1 -> bucket 0, indices descend as probs shrink;
        # bucket indices are whole floats, and a zero marginal's -inf is a
        # bucket of its own
        with np.errstate(divide="ignore"):
            keys = np.log(grown)
        keys /= log_bucket
        np.floor(keys, out=keys)
        # a stable sort lists each bucket's partials in the order they were
        # formed; the first of each is kept
        order = np.lexsort(keys)
        changed = np.zeros(len(order), dtype=bool)
        changed[0] = True
        ranked = np.empty(len(order))
        for row in keys:
            np.take(row, order, out=ranked, mode="clip")  # "raise" would fill a buffer first
            changed[1:] |= ranked[1:] != ranked[:-1]
        del keys, row, ranked
        first = np.sort(order[changed])
        del order, changed
        if len(first) > PARTIALS_CAP:
            raise CapacityError(
                f"the separation oracle kept more than {PARTIALS_CAP} partials at item {j} of {m}"
            )
        masks = np.concatenate([masks, masks | np.int64(1 << j)])[first]
        probs = grown[:, first]
        del grown
        counts.append(len(first))

    ref = probs[-1]
    valid = ref > 0.0
    if not valid.any():
        raise InputError("reference distribution assigns zero to every outcome")
    ratios = _weighted_sum(inst.weights, probs[:-1])[valid]
    with np.errstate(over="ignore"):  # a subnormal reference probability makes an inf ratio
        ratios /= ref[valid]
    best_ratio = ratios.min()
    best_mask = int(masks[valid][ratios == best_ratio].min())
    t, budget = bucket_count_bound(inst, eps)
    return (
        OracleResult(outcome=best_mask, ratio=float(best_ratio)),
        FptasStats(family_counts=tuple(counts), bucket_parts=t, family_budget=budget),
    )


def separation_from_dict(data: dict) -> SeparationInstance:
    if not isinstance(data, dict) or data.get("kind") != "separation":
        raise InputError("separation JSON must be an object with kind 'separation'")
    try:
        return SeparationInstance(
            weights=data["weights"], mixtures=data["mixtures"], reference=data["reference"]
        )
    except KeyError as exc:
        raise InputError(f"separation JSON missing field {exc}")
