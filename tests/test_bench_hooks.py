"""The benchmark's per-layer hooks in perfbench/spans.py, checked against the package.

spans.py wraps package functions by (module, name) and its collectors read
fields of their results. A refactor that renames either would break
`perfbench/run.py --trace 1`; these tests load spans.py as it is and fail
first.
"""

import importlib
import importlib.util
from pathlib import Path

from contract_forge import blackbox, delta_solver, model
from contract_forge.generators import gen_random

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_function_resolves():
    for module, func in _spans().LAYERS:
        package_module = importlib.import_module(f"contract_forge.{module}")
        assert callable(getattr(package_module, func, None)), f"{module}.{func}"


def test_collectors_read_existing_result_fields():
    # iterations (solve_lp), trace and cut_outcomes (min_payment_delta),
    # num_outcomes (product_to_explicit) and samples (estimate)
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    tracer.enable()
    try:
        tracer.run(lambda: delta_solver.min_payment_delta(gen_random(3, 6, 0), 2, 0.1))
        tracer.run(lambda: model.product_to_explicit(gen_random(2, 4, 0)))
        tracer.run(lambda: blackbox.estimate(blackbox.QueryOracle(gen_random(2, 3, 0)), 50))
    finally:
        tracer.disable()
    metrics = tracer.metrics()
    for name in ("lpcore.solves", "lpcore.pivots", "oracle.calls", "delta_solver.rounds",
                 "delta_solver.cuts", "model.outcomes", "blackbox.samples"):
        assert metrics[name] > 0, name
