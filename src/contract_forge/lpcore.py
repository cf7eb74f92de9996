"""Dense two-phase simplex used by every LP-based operation in the package.

Solves one form only: minimize c.x subject to A x <= b and x >= 0. Small by
design: the LPs here have at most a few thousand variables and a handful of
rows (or vice versa), so a dense tableau with Bland's anti-cycling rule is
fast enough and fully deterministic. Exposes the primal values and one dual
multiplier per row. The duals are nonpositive, and at an optimum
dual @ b equals the objective value; a column's reduced cost is
c_j - dual @ A[:, j], which column generation uses to price new columns.

Scaling. solve_lp divides the objective by its largest |entry| and the
right-hand side by its largest |entry| (1 when all are 0), solves, and scales
primal, duals and objective value back. So the answer does not depend on the
unit the LP is written in, and the tolerances are relative: TOL_FEAS to the
largest |rhs| entry, TOL_PIVOT (on phase-2 reduced costs) to the largest
|objective| entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, ResourceError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

TOL_FEAS = 1e-7
TOL_PIVOT = 1e-9
MAX_ITER = 50_000
# ratio-test denominators smaller than this are treated as zero; kept well
# below TOL_PIVOT so near-degenerate columns with tiny entries still pivot
_TOL_RATIO = 1e-12


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
    return c, a, b


def solve_lp(objective, rows, rhs) -> LPSolution:
    """Minimize objective.x subject to rows @ x <= rhs and x >= 0."""
    c, a, b = _validate(objective, rows, rhs)
    c_unit = float(np.abs(c).max()) or 1.0
    b_unit = float(np.abs(b).max(initial=0.0)) or 1.0
    c = c / c_unit
    b = b / b_unit
    nx = c.size
    nr = a.shape[0]

    # orient every row so b >= 0: a flipped row reads >= and its slack is -1
    sign = np.where(b < 0, -1.0, 1.0)

    # tableau columns: structural | slack | artificial | rhs
    art_start = nx + nr
    ncols = nx + 2 * nr + 1
    t = np.zeros((nr + 1, ncols))
    t[:nr, :nx] = a * sign[:, None]
    t[:nr, nx:art_start] = np.diag(sign)
    t[:nr, art_start:-1] = np.eye(nr)
    t[:nr, -1] = b * sign
    basis = [art_start + k for k in range(nr)]

    iterations = [0]

    def pivot(prow: int, pcol: int) -> None:
        t[prow] /= t[prow, pcol]
        col = t[:, pcol].copy()
        col[prow] = 0.0
        t[:, :] -= np.outer(col, t[prow])
        t[:, pcol] = 0.0
        t[prow, pcol] = 1.0
        basis[prow] = pcol
        iterations[0] += 1
        if iterations[0] > MAX_ITER:
            raise ResourceError(
                f"simplex iteration limit {MAX_ITER} exceeded ({nx} vars, {nr} rows)"
            )

    def run_simplex(enterable: np.ndarray, bounded: bool) -> str:
        """Bland's rule on the maintained reduced-cost row.

        With bounded=True the objective is known to be bounded below, so a
        column that looks like a ray has a negative reduced cost only by
        roundoff: it is passed over instead of ending the run as UNBOUNDED.
        """
        while True:
            red = t[-1, :-1]
            for j in np.flatnonzero(enterable & (red < -TOL_PIVOT)):
                pos = np.flatnonzero(t[:nr, j] > _TOL_RATIO)
                if pos.size:
                    break
                if not bounded:
                    return UNBOUNDED
            else:
                return OPTIMAL
            col = t[:nr, j]
            ratios = t[pos, -1] / col[pos]
            best = ratios.min()
            ties = pos[ratios <= best + 1e-15]
            prow = int(min(ties, key=lambda r: basis[r]))
            pivot(prow, int(j))
            t[:nr, -1] = np.maximum(t[:nr, -1], 0.0)

    # phase 1: minimize the artificial sum (reduced costs: 0 - sum of rows on
    # structural/slack columns, exactly 0 on artificial columns)
    t[-1, :] = -t[:nr, :].sum(axis=0)
    t[-1, art_start:-1] = 0.0
    enterable = np.zeros(ncols - 1, dtype=bool)
    enterable[:art_start] = True
    run_simplex(enterable, bounded=True)  # the artificial sum is bounded below by 0
    if -t[-1, -1] > TOL_FEAS:
        return LPSolution(INFEASIBLE, None, None, np.inf, iterations[0])

    # drive artificials out of the basis; every row has its own slack, so a
    # row with no pivot left has lost its entries to roundoff
    for prow in range(nr):
        if basis[prow] < art_start:
            continue
        pivots = np.flatnonzero(np.abs(t[prow, :art_start]) > TOL_PIVOT)
        if not pivots.size:
            raise ResourceError(f"row {prow} has no pivot left after phase 1")
        pivot(prow, int(pivots[0]))

    # phase 2: rebuild the reduced-cost row for the real objective
    cost_full = np.zeros(ncols - 1)
    cost_full[:nx] = c
    cb = cost_full[basis]
    t[-1, :-1] = cost_full - cb @ t[:nr, :-1]
    t[-1, -1] = -float(cb @ t[:nr, -1])
    if run_simplex(enterable, bounded=False) == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None, -np.inf, iterations[0])

    z = np.zeros(nx)
    for k in range(nr):
        if basis[k] < nx:
            z[basis[k]] = t[k, -1]
    # phase-2 duals: artificial costs are 0, so reduced_cost(art_k) = -y_k
    y = -t[-1, art_start:-1]
    return LPSolution(
        status=OPTIMAL,
        primal=z * b_unit,
        dual=y * sign * c_unit,
        objective_value=0.0 - t[-1, -1] * c_unit * b_unit,  # 0.0 - turns -0.0 into 0.0
        iterations=iterations[0],
    )
