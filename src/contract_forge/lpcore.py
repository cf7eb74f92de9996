"""Dense two-phase simplex used by every LP-based operation in the package.

Small by design: the LPs here have at most a few thousand variables and a
handful of rows (or vice versa), so a dense tableau with Bland's anti-cycling
rule is fast enough and fully deterministic. Exposes primal values, one dual
multiplier per constraint, and a Farkas-style certificate on infeasibility.

Conventions. Variables are nonnegative; any other bound is a row. Duals are
signed so that dual_objective_value equals objective_value at an optimum for
both senses: for sense "min", >= rows carry nonnegative multipliers and <=
rows nonpositive ones; for "max" the signs flip. The Farkas certificate y
satisfies sum_k y_k a_k <= 0 componentwise with sum_k y_k b_k > 0, where
y_k >= 0 on >= rows and y_k <= 0 on <= rows.

Scaling. solve_lp divides the objective by its largest |entry| and the
right-hand side by its largest |entry| (1 when all are 0), solves, and scales
primal, duals and objective values back; the Farkas certificate needs no
scaling. So the answer does not depend on the unit the LP is written in, and
the tolerances are relative: tol_feas to the largest |rhs| entry, tol_pivot
(on phase-2 reduced costs) to the largest |objective| entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .errors import InputError, ResourceError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LESS = "<="
GREATER = ">="
EQUAL = "="

_RELATIONS = (LESS, GREATER, EQUAL)

# ratio-test denominators smaller than this are treated as zero; kept well
# below tol_pivot so near-degenerate columns with tiny entries still pivot
_TOL_RATIO = 1e-12


@dataclass
class LPConfig:
    tol_feas: float = 1e-7
    tol_pivot: float = 1e-9
    max_iter: int = 50_000


@dataclass
class LinearProgram:
    objective: Sequence[float]
    sense: str = "min"
    rows: List[Sequence[float]] = field(default_factory=list)
    relations: List[str] = field(default_factory=list)
    rhs: List[float] = field(default_factory=list)

    def add_row(self, row: Sequence[float], relation: str, value: float) -> None:
        self.rows.append(row)
        self.relations.append(relation)
        self.rhs.append(value)


@dataclass
class LPSolution:
    status: str
    primal: Optional[np.ndarray]
    dual: Optional[np.ndarray]
    objective_value: float
    dual_objective_value: float
    farkas: Optional[np.ndarray]
    iterations: int


def _validate(lp: LinearProgram):
    c = np.asarray(lp.objective, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise InputError("objective must be a nonempty vector")
    nx = c.size
    if lp.sense not in ("min", "max"):
        raise InputError(f"sense must be 'min' or 'max', got {lp.sense!r}")
    if not (len(lp.rows) == len(lp.relations) == len(lp.rhs)):
        raise InputError("rows, relations, and rhs must have equal lengths")
    if len(lp.rows):
        rows = np.asarray(lp.rows, dtype=float)
        if rows.shape != (len(lp.rows), nx):
            raise InputError("constraint rows must match the objective length")
    else:
        rows = np.zeros((0, nx))
    rhs = np.asarray(lp.rhs, dtype=float)
    for rel in lp.relations:
        if rel not in _RELATIONS:
            raise InputError(f"unknown relation {rel!r}")
    for name, arr in (("objective", c), ("rows", rows), ("rhs", rhs)):
        if not np.all(np.isfinite(arr)):
            raise InputError(f"non-finite value in {name}")
    return c, rows, list(lp.relations), rhs


def solve_lp(lp: LinearProgram, config: Optional[LPConfig] = None) -> LPSolution:
    cfg = config or LPConfig()
    c, a, rel_list, b = _validate(lp)
    c_unit = float(np.abs(c).max()) or 1.0
    b_unit = float(np.abs(b).max(initial=0.0)) or 1.0
    c = c / c_unit
    b = b / b_unit
    nx = c.size
    nr = a.shape[0]
    sense_sign = 1.0 if lp.sense == "min" else -1.0
    c_int = sense_sign * c

    # orient every row so b >= 0, tracking signs for dual recovery
    sign = np.where(b < 0, -1.0, 1.0)
    a = a * sign[:, None]
    b = b * sign
    rels = []
    for k, rel in enumerate(rel_list):
        if sign[k] < 0 and rel != EQUAL:
            rel = LESS if rel == GREATER else GREATER
        rels.append(rel)

    # tableau columns: structural | slack | artificial | rhs
    slack_rows = [k for k, rel in enumerate(rels) if rel != EQUAL]
    ns = len(slack_rows)
    ncols = nx + ns + nr + 1
    t = np.zeros((nr + 1, ncols))
    t[:nr, :nx] = a
    for i, k in enumerate(slack_rows):
        t[k, nx + i] = 1.0 if rels[k] == LESS else -1.0
    for k in range(nr):
        t[k, nx + ns + k] = 1.0
    t[:nr, -1] = b
    basis = [nx + ns + k for k in range(nr)]
    art_start = nx + ns

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
        if iterations[0] > cfg.max_iter:
            raise ResourceError(
                f"simplex iteration limit {cfg.max_iter} exceeded ({nx} vars, {nr} rows)"
            )

    def run_simplex(enterable: np.ndarray, bounded: bool) -> str:
        """Bland's rule on the maintained reduced-cost row.

        With bounded=True the objective is known to be bounded below, so a
        column that looks like a ray has a negative reduced cost only by
        roundoff: it is passed over instead of ending the run as UNBOUNDED.
        """
        while True:
            red = t[-1, :-1]
            for j in np.flatnonzero(enterable & (red < -cfg.tol_pivot)):
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
    t[-1, art_start : art_start + nr] = 0.0
    enterable = np.zeros(ncols - 1, dtype=bool)
    enterable[:art_start] = True
    run_simplex(enterable, bounded=True)  # the artificial sum is bounded below by 0
    phase1_value = -t[-1, -1]

    if phase1_value > cfg.tol_feas:
        # phase-1 duals: artificial costs are 1, so reduced_cost(art_k) = 1 - y_k
        y = 1.0 - t[-1, art_start : art_start + nr]
        farkas = y * sign
        return LPSolution(
            status=INFEASIBLE,
            primal=None,
            dual=None,
            objective_value=np.inf if lp.sense == "min" else -np.inf,
            dual_objective_value=np.nan,
            farkas=farkas,
            iterations=iterations[0],
        )

    # drive artificials out of the basis; rows that cannot pivot are redundant
    deleted = np.zeros(nr, dtype=bool)
    for prow in range(nr):
        if basis[prow] < art_start or deleted[prow]:
            continue
        row = t[prow, :art_start]
        pivots = np.flatnonzero(np.abs(row) > cfg.tol_pivot)
        if pivots.size:
            pivot(prow, int(pivots[0]))
        else:
            deleted[prow] = True
            t[prow, :] = 0.0

    # phase 2: rebuild the reduced-cost row for the real objective
    cost_full = np.zeros(ncols - 1)
    cost_full[:nx] = c_int
    cb = np.array([0.0 if deleted[k] else cost_full[basis[k]] for k in range(nr)])
    t[-1, :-1] = cost_full - cb @ t[:nr, :-1]
    t[-1, -1] = -float(cb @ t[:nr, -1])
    status = run_simplex(enterable, bounded=False)

    if status == UNBOUNDED:
        return LPSolution(
            status=UNBOUNDED,
            primal=None,
            dual=None,
            objective_value=-np.inf if lp.sense == "min" else np.inf,
            dual_objective_value=np.nan,
            farkas=None,
            iterations=iterations[0],
        )

    z = np.zeros(nx)
    for k in range(nr):
        if not deleted[k] and basis[k] < nx:
            z[basis[k]] = t[k, -1]
    value_int = -t[-1, -1]
    # phase-2 duals: artificial costs are 0, so reduced_cost(art_k) = -y_k
    y_int = -t[-1, art_start : art_start + nr].copy()
    y_int[deleted] = 0.0
    dual_obj_int = float(y_int @ b)
    return LPSolution(
        status=OPTIMAL,
        primal=z * b_unit,
        dual=sense_sign * y_int * sign * c_unit,
        objective_value=0.0 + sense_sign * value_int * c_unit * b_unit,  # 0.0 + turns -0.0 into 0.0
        dual_objective_value=sense_sign * dual_obj_int * c_unit * b_unit,
        farkas=None,
        iterations=iterations[0],
    )
