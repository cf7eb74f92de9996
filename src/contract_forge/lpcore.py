"""Dense two-phase simplex used by every LP-based operation in the package.

Solves one form only: minimize c.x subject to A x <= b and x >= 0. Small by
design: the LPs here have at most a few thousand variables and a handful of
rows (or vice versa), so a dense tableau with Bland's anti-cycling rule is
fast enough and fully deterministic. Exposes the primal values and one dual
multiplier per row. The duals are nonpositive, and at an optimum
dual @ b equals the objective value; a column's reduced cost is
c_j - dual @ A[:, j], which column generation uses to price new columns.
The duals are read from the slack columns, so every row has one.

Phase 1. A row with b >= 0 starts with its +1 slack basic. Only a row with
b < 0, flipped to read >=, gets an artificial, and phase 1 minimizes the
sum of those artificials alone (Chvatal, Linear Programming, 1983). With no
such row phase 1 is skipped, so an LP with c >= 0 and b >= 0 stops at x = 0
without a pivot.

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

    # orient every row so b >= 0: a flipped row reads >= and its slack is -1,
    # so it starts with an artificial basic; every other row with its slack
    sign = np.where(b < 0, -1.0, 1.0)
    flipped = np.flatnonzero(b < 0)

    # tableau columns: structural | slack | artificial (flipped rows) | rhs
    art_start = nx + nr
    ncols = art_start + flipped.size + 1
    t = np.zeros((nr + 1, ncols))
    t[:nr, :nx] = a * sign[:, None]
    t[:nr, nx:art_start] = np.diag(sign)
    t[flipped, art_start + np.arange(flipped.size)] = 1.0
    t[:nr, -1] = b * sign
    basis = list(range(nx, art_start))
    for i, k in enumerate(flipped):
        basis[k] = art_start + i

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

    # phase 1: minimize the sum of the artificials (reduced costs: 0 - sum of
    # their rows on structural/slack columns, exactly 0 on artificial columns)
    enterable = np.zeros(ncols - 1, dtype=bool)
    enterable[:art_start] = True
    if flipped.size:
        t[-1, :] = -t[flipped, :].sum(axis=0)
        t[-1, art_start:-1] = 0.0
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
    # duals from the slack columns: slack k costs 0 and is sign_k times unit
    # column k, so its reduced cost is -sign_k times the oriented row's dual,
    # which is minus the dual of row k as written
    return LPSolution(
        status=OPTIMAL,
        primal=z * b_unit,
        dual=-t[-1, nx:art_start] * c_unit,
        objective_value=0.0 - t[-1, -1] * c_unit * b_unit,  # 0.0 - turns -0.0 into 0.0
        iterations=iterations[0],
    )
