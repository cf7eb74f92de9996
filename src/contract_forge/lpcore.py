"""Dense dual simplex used by every LP-based operation in the package.

Solves one form only: minimize c.x subject to A x <= b and x >= 0, with
c >= 0 (a negative entry raises InputError), which every LP in the package
has: the payment LPs of exact and delta_solver, and linear's separable
LPs. They have a handful of rows, so a dense tableau [A | I | b] is fast
enough and fully deterministic.

Method. With c >= 0 the all-slack basis is dual feasible, so the dual
simplex (Lemke, Naval Res. Logist. Q. 1(1), 1954) starts from it with no
phase 1. Each pivot takes a row whose basic value is below zero out of the
basis and keeps every reduced cost nonnegative (they are clipped at 0
after each pivot), until no basic value is below zero (optimal) or a
short row has no negative entry to pivot on. Pivots follow Bland's rule
for the dual (Bland, Math. Oper. Res. 2(2), 1977): the short row with the
lowest basic index leaves, and the lowest-index column of the ratio-test
ties enters, so the method cannot cycle. An LP with b >= 0 stops at x = 0
without a pivot.

Duals. One multiplier per row, read from the slack columns, with dual @ b
equal to the objective value at an optimum; a column's reduced cost is
c_j - dual @ A[:, j]. Exact signs, which callers rely on: primal >= 0 with
no -0.0, dual <= 0, and an objective value that is never -0.0.

Scaling and tolerances. solve_lp divides the objective by its largest entry
and the right-hand side by its largest |entry| (1 when all are 0), solves,
and scales primal, duals and objective value back. So the answer does not
depend on the LP's unit, and the two tolerances on basic values are relative
to the largest |rhs| entry. A basic value below -TOL_ROUND is short and is
pivoted on. Row entries are not scaled: one of -TOL_ROUND or more reads as 0
(exact.check_payment_delta rejects a multiplicative delta whose -delta would).
A short row with no entry to pivot on proves the LP infeasible if it is short
by more than TOL_FEAS; otherwise it is roundoff and is set to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, ResourceError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

TOL_FEAS = 1e-7
MAX_ITER = 50_000
TOL_ROUND = 1e-12


@dataclass
class LPSolution:
    status: str
    primal: Optional[np.ndarray]
    dual: Optional[np.ndarray]
    objective_value: float
    iterations: int


def _validate(objective, rows, rhs):
    c = np.asarray(objective, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise InputError("objective must be a nonempty vector")
    b = np.asarray(rhs, dtype=float)
    if b.ndim != 1:
        raise InputError("rhs must be a vector")
    a = np.asarray(rows, dtype=float)
    if a.shape != (b.size, c.size):
        raise InputError("need one row per rhs entry, each as long as the objective")
    for name, arr in (("objective", c), ("rows", a), ("rhs", b)):
        if not np.all(np.isfinite(arr)):
            raise InputError(f"non-finite value in {name}")
    if (c < 0.0).any():
        raise InputError("objective must be nonnegative")
    return c, a, b


def solve_lp(objective, rows, rhs) -> LPSolution:
    """Minimize objective.x subject to rows @ x <= rhs and x >= 0, for objective >= 0."""
    c, a, b = _validate(objective, rows, rhs)
    c_unit = float(c.max()) or 1.0
    b_unit = float(np.abs(b).max(initial=0.0)) or 1.0
    nx = c.size
    nr = b.size

    # tableau columns: structural | slack | rhs; the last row holds the
    # reduced costs and minus the objective value
    t = np.zeros((nr + 1, nx + nr + 1))
    t[:nr, :nx] = a
    t[:nr, nx:-1] = np.eye(nr)
    t[:nr, -1] = b / b_unit
    t[-1, :nx] = c / c_unit
    basis = np.arange(nx, nx + nr)

    iterations = 0
    while True:
        short = np.flatnonzero(t[:nr, -1] < -TOL_ROUND)
        if not short.size:
            break
        prow = int(short[np.argmin(basis[short])])
        cand = np.flatnonzero(t[prow, :-1] < -TOL_ROUND)
        if not cand.size:
            if t[prow, -1] < -TOL_FEAS:
                return LPSolution(INFEASIBLE, None, None, np.inf, iterations)
            t[prow, -1] = 0.0
            continue
        ratios = t[-1, cand] / -t[prow, cand]
        pcol = int(cand[np.argmax(ratios <= ratios.min() + 1e-15)])  # lowest index of the ties
        iterations += 1
        if iterations > MAX_ITER:
            raise ResourceError(f"simplex iteration limit {MAX_ITER} exceeded ({nx} vars, {nr} rows)")
        t[prow] /= t[prow, pcol]
        col = t[:, pcol].copy()
        col[prow] = 0.0
        pivot_row = t[prow].copy()
        for i, factor in enumerate(col):  # row by row: no tableau-sized temporary
            t[i] -= factor * pivot_row
        t[:, pcol] = 0.0
        t[prow, pcol] = 1.0
        np.maximum(t[-1, :-1], 0.0, out=t[-1, :-1])
        basis[prow] = pcol

    z = np.zeros(nx)
    structural = basis < nx
    z[basis[structural]] = np.maximum(t[:nr, -1][structural], 0.0)
    # slack k costs 0 and is unit column k, so its reduced cost is minus row k's dual
    return LPSolution(
        status=OPTIMAL,
        primal=z * b_unit,
        dual=-t[-1, nx:-1] * c_unit,
        objective_value=0.0 - t[-1, -1] * c_unit * b_unit,  # 0.0 - turns -0.0 into 0.0
        iterations=iterations,
    )
