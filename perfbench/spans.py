"""Per-module spans, recorded from outside contract_forge.

`Tracer.enable` replaces each public function listed in LAYERS by a wrapper
in every contract_forge module that holds it (modules import each other's
functions by name); `Tracer.disable` puts the originals back. A wrapper times
its call and charges the call's duration, minus the wrapped calls made inside
it, to its layer as self time. The operation itself is the root span, so

    sum of layer self times + trace.unattributed_ms == trace.op_ms

holds exactly, per operation and for the means over a run; what is left unattributed is the benchmark's own code and any
package code outside the wrapped functions.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) -> layer whose self time the call is charged to
LAYERS = {
    ("model", "product_to_explicit"): "model.enumerate",
    ("model", "expected_reward"): "model.eval",
    ("model", "expected_payment"): "model.eval",
    ("model", "principal_payoff"): "model.eval",
    ("model", "ic_slack"): "model.eval",
    ("model", "verify_delta_ic"): "model.eval",
    ("model", "is_normalized"): "model.eval",
    ("model", "min_nonzero_outcome_probability"): "model.eval",
    ("exact", "min_payment"): "exact.assemble",
    ("exact", "opt_contract"): "exact.assemble",
    ("exact", "first_best"): "exact.assemble",
    ("lpcore", "solve_lp"): "lpcore.solve",
    ("oracle", "min_ratio_fptas"): "oracle.call",
    ("delta_solver", "min_payment_delta"): "delta_solver.self",
    ("delta_solver", "opt_contract_delta"): "delta_solver.self",
    ("linear", "upper_envelope"): "linear.self",
    ("linear", "optimal_linear"): "linear.self",
    ("linear", "optimal_separable"): "linear.self",
    ("linear", "approx_linear_delta"): "linear.self",
    ("blackbox", "estimate"): "blackbox.estimate",
    ("blackbox", "blackbox_contract"): "blackbox.self",
}

SELF_TIMES = {
    "model.enumerate": "model.enumerate_ms",
    "model.eval": "model.eval_ms",
    "exact.assemble": "exact.assemble_ms",
    "lpcore.solve": "lpcore.solve_ms",
    "oracle.call": "oracle.call_ms",
    "delta_solver.self": "delta_solver.self_ms",
    "linear.self": "linear.self_ms",
    "blackbox.estimate": "blackbox.estimate_ms",
    "blackbox.self": "blackbox.self_ms",
}

COUNTS = (
    "model.outcomes",
    "lpcore.solves",
    "lpcore.pivots",
    "oracle.calls",
    "delta_solver.rounds",
    "delta_solver.cuts",
    "blackbox.samples",
)

# every per-layer metric with its unit, in the order printed; counts are
# means per operation, oracle.family_peak is the largest family of the run
METRICS = (
    [(name, "ms") for name in SELF_TIMES.values()]
    + [(name, "count") for name in COUNTS]
    + [
        ("oracle.family_peak", "count"),
        ("oracle.kept_ratio", "ratio"),
        ("blackbox.solve_ms", "ms"),
        ("trace.op_ms", "ms"),
        ("trace.unattributed_ms", "ms"),
        ("trace.overhead", "ratio"),
    ]
)


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        # run totals: layer self times, inclusive times (":incl"), counts
        self._totals: dict[str, float] = defaultdict(float)
        self._patches: list = []

    def install(self) -> None:
        """Find every reference to a listed function; enable() swaps them in."""
        package = "contract_forge"
        modules = [mod for name, mod in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        for (module, func), layer in LAYERS.items():
            original = getattr(sys.modules[f"{package}.{module}"], func)
            wrapper = self._wrap(layer, original, _COLLECT.get(func))
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def enable(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _wrap(self, layer, fn, collect):
        stack = self._stack
        totals = self._totals
        call = _fptas_with_stats(totals) if fn.__name__ == "min_ratio_fptas" else fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                stack.pop()
                totals[layer] += spent - frame[0]
                totals[layer + ":incl"] += spent
                stack[-1][0] += spent
            if collect is not None:
                collect(totals, result, args, kwargs)
            return result

        return wrapper

    def run(self, fn):
        """Call fn() as one traced operation and return its result."""
        root = [0.0]
        self._stack.append(root)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            op_s = time.perf_counter() - start
            self._stack.pop()
            self._totals["ops"] += 1
            self._totals["op"] += op_s
            self._totals["unattributed"] += op_s - root[0]

    def metrics(self) -> dict:
        """Per-layer metrics over the operations traced so far.

        Times and counts are means per operation, so the self times and
        trace.unattributed_ms add up to trace.op_ms exactly.
        """
        totals = self._totals
        ops = totals["ops"] or 1
        out = {metric: totals[layer] * 1e3 / ops for layer, metric in SELF_TIMES.items()}
        out.update({name: totals[name] / ops for name in COUNTS})
        out["oracle.family_peak"] = totals["oracle.family_peak"]
        formed = totals["oracle.formed"]
        out["oracle.kept_ratio"] = totals["oracle.kept"] / formed if formed else 0.0
        out["blackbox.solve_ms"] = (
            totals["blackbox.self:incl"] - totals["blackbox.estimate:incl"]) * 1e3 / ops
        out["trace.op_ms"] = totals["op"] * 1e3 / ops
        out["trace.unattributed_ms"] = totals["unattributed"] * 1e3 / ops
        return out


def _fptas_with_stats(totals):
    """min_ratio_fptas through min_ratio_fptas_stats, which does the same work."""
    from contract_forge.oracle import min_ratio_fptas_stats

    def call(inst, eps):
        result, stats = min_ratio_fptas_stats(inst, eps)
        counts = stats.family_counts
        totals["oracle.calls"] += 1
        totals["oracle.family_peak"] = max(totals["oracle.family_peak"], max(counts))
        totals["oracle.kept"] += sum(counts)
        # each item doubles the partials kept after the previous item
        totals["oracle.formed"] += 2 * (1 + sum(counts[:-1]))
        return result

    return call


def _lp_counts(totals, result, args, kwargs):
    totals["lpcore.solves"] += 1
    totals["lpcore.pivots"] += result.iterations


def _enum_counts(totals, result, args, kwargs):
    totals["model.outcomes"] += result.num_outcomes


def _delta_counts(totals, result, args, kwargs):
    totals["delta_solver.rounds"] += len(result.trace)
    totals["delta_solver.cuts"] += len(result.cut_outcomes)


def _estimate_counts(totals, result, args, kwargs):
    totals["blackbox.samples"] += result.samples


_COLLECT = {
    "solve_lp": _lp_counts,
    "product_to_explicit": _enum_counts,
    "min_payment_delta": _delta_counts,
    "estimate": _estimate_counts,
}
