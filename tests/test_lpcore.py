import numpy as np
import pytest

from contract_forge.errors import InputError, ResourceError
from contract_forge.generators import gen_random
from contract_forge.lpcore import (
    EQUAL,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LPConfig,
    solve_lp,
)
from contract_forge.oracle import ratio_front


def test_min_x_at_least_one():
    lp = LinearProgram(objective=[1.0])
    lp.add_row([1.0], GREATER, 1.0)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(1.0)
    assert sol.primal[0] == pytest.approx(1.0)
    assert sol.dual[0] == pytest.approx(1.0)


def test_gap_ic_row_closed_form():
    # min p subject to p - 8.1 >= 0.1 p, i.e. 0.9 p >= 8.1
    lp = LinearProgram(objective=[1.0])
    lp.add_row([0.9], GREATER, 8.1)
    sol = solve_lp(lp)
    assert sol.objective_value == pytest.approx(9.0)


def test_two_action_strong_duality_pair():
    # primal: min p2 s.t. 0.9 p1 - 0.9 p2 <= -8.1, p >= 0
    primal = LinearProgram(objective=[0.0, 1.0])
    primal.add_row([0.9, -0.9], LESS, -8.1)
    psol = solve_lp(primal)
    # dual: max 8.1 lam s.t. 0.9 lam <= 1
    dual = LinearProgram(objective=[8.1], sense="max")
    dual.add_row([0.9], LESS, 1.0)
    dsol = solve_lp(dual)
    assert psol.objective_value == pytest.approx(9.0)
    assert dsol.objective_value == pytest.approx(9.0)
    assert psol.primal.tolist() == pytest.approx([0.0, 9.0])


def test_max_sense_duals():
    lp = LinearProgram(objective=[2.0], sense="max")
    lp.add_row([1.0], LESS, 4.0)
    sol = solve_lp(lp)
    assert sol.objective_value == pytest.approx(8.0)
    assert sol.dual[0] == pytest.approx(2.0)
    assert sol.dual_objective_value == pytest.approx(8.0)


def test_equality_and_redundant_rows():
    lp = LinearProgram(objective=[1.0, 0.0])
    lp.add_row([1.0, 1.0], EQUAL, 1.0)
    lp.add_row([1.0, 1.0], EQUAL, 1.0)  # redundant duplicate
    lp.add_row([2.0, 2.0], EQUAL, 2.0)  # still redundant
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(0.0)
    assert sol.primal.sum() == pytest.approx(1.0)


def test_unbounded():
    lp = LinearProgram(objective=[-1.0])
    sol = solve_lp(lp)
    assert sol.status == UNBOUNDED
    assert sol.objective_value == -np.inf
    lp_max = LinearProgram(objective=[1.0], sense="max")
    assert solve_lp(lp_max).objective_value == np.inf


def test_infeasible_farkas_certificate():
    lp = LinearProgram(objective=[0.0, 0.0])
    lp.add_row([1.0, 1.0], LESS, 1.0)
    lp.add_row([1.0, 1.0], GREATER, 2.0)
    sol = solve_lp(lp)
    assert sol.status == INFEASIBLE
    y = sol.farkas
    assert y is not None
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    combo = y @ a
    assert np.all(combo <= 1e-7)
    assert y @ b > 1e-7
    assert y[0] <= 1e-9  # <= row
    assert y[1] >= -1e-9  # >= row


def test_infeasible_equality_farkas():
    lp = LinearProgram(objective=[1.0])
    lp.add_row([1.0], EQUAL, 2.0)
    lp.add_row([1.0], EQUAL, 3.0)
    sol = solve_lp(lp)
    assert sol.status == INFEASIBLE
    y = sol.farkas
    assert y @ np.array([2.0, 3.0]) > 1e-7
    assert abs(y @ np.array([1.0, 1.0])) <= 1e-7


def test_input_validation():
    with pytest.raises(InputError):
        solve_lp(LinearProgram(objective=[np.nan]))
    with pytest.raises(InputError):
        solve_lp(LinearProgram(objective=[np.inf]))
    lp = LinearProgram(objective=[1.0])
    lp.add_row([1.0], "<", 1.0)
    with pytest.raises(InputError):
        solve_lp(lp)
    lp2 = LinearProgram(objective=[1.0])
    lp2.add_row([1.0, 2.0], LESS, 1.0)
    with pytest.raises(InputError):
        solve_lp(lp2)
    with pytest.raises(InputError):
        solve_lp(LinearProgram(objective=[1.0], sense="argmin"))


def test_iteration_limit():
    rng = np.random.default_rng(0)
    lp = LinearProgram(objective=rng.uniform(-1, 1, 12).tolist())
    for _ in range(12):
        lp.add_row(rng.uniform(-1, 1, 12).tolist(), LESS, 5.0)
    _add_box(lp, 12, 10.0)
    with pytest.raises(ResourceError):
        solve_lp(lp, LPConfig(max_iter=2))


def _add_box(lp, nx, cap):
    """Rows x_j <= cap that keep a random LP bounded."""
    for row in np.eye(nx):
        lp.add_row(row.tolist(), LESS, cap)


def _random_feasible_lp(rng):
    nx = rng.integers(1, 21)
    nr = rng.integers(1, 21)
    a = rng.uniform(-2, 2, (nr, nx))
    x0 = rng.uniform(0, 3, nx)
    c = rng.uniform(-1, 1, nx)
    sense = "min" if rng.uniform() < 0.5 else "max"
    lp = LinearProgram(objective=c.tolist(), sense=sense)
    b0 = a @ x0
    for k in range(nr):
        u = rng.uniform()
        if u < 0.4:
            lp.add_row(a[k].tolist(), LESS, float(b0[k] + rng.uniform(0, 1)))
        elif u < 0.8:
            lp.add_row(a[k].tolist(), GREATER, float(b0[k] - rng.uniform(0, 1)))
        else:
            lp.add_row(a[k].tolist(), EQUAL, float(b0[k]))
    _add_box(lp, nx, 50.0)
    return lp


def test_random_lps_strong_duality():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        lp = _random_feasible_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL, f"trial {trial}"
        gap = abs(sol.objective_value - sol.dual_objective_value)
        assert gap <= 1e-7 * (1.0 + abs(sol.objective_value)), f"trial {trial}"


def test_random_lps_match_scipy():
    from scipy.optimize import linprog

    rng = np.random.default_rng(7)
    for trial in range(200):
        lp = _random_feasible_lp(rng)
        sol = solve_lp(lp)
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for row, rel, b in zip(lp.rows, lp.relations, lp.rhs):
            if rel == LESS:
                a_ub.append(row)
                b_ub.append(b)
            elif rel == GREATER:
                a_ub.append([-v for v in row])
                b_ub.append(-b)
            else:
                a_eq.append(row)
                b_eq.append(b)
        c = np.asarray(lp.objective)
        ref = linprog(
            c if lp.sense == "min" else -c,
            A_ub=np.asarray(a_ub) if a_ub else None,
            b_ub=np.asarray(b_ub) if b_ub else None,
            A_eq=np.asarray(a_eq) if a_eq else None,
            b_eq=np.asarray(b_eq) if b_eq else None,
            bounds=[(0, 50.0)] * c.size,
            method="highs",
        )
        assert ref.success, f"trial {trial}"
        want = ref.fun if lp.sense == "min" else -ref.fun
        assert sol.objective_value == pytest.approx(want, abs=1e-6), f"trial {trial}"


def test_row_permutation_same_objective():
    rng = np.random.default_rng(11)
    for _ in range(50):
        lp = _random_feasible_lp(rng)
        base = solve_lp(lp).objective_value
        order = rng.permutation(len(lp.rows))
        permuted = LinearProgram(
            objective=lp.objective,
            sense=lp.sense,
            rows=[lp.rows[i] for i in order],
            relations=[lp.relations[i] for i in order],
            rhs=[lp.rhs[i] for i in order],
        )
        assert solve_lp(permuted).objective_value == pytest.approx(base, abs=1e-7)


def test_deterministic_repeat():
    rng = np.random.default_rng(3)
    lp = _random_feasible_lp(rng)
    s1 = solve_lp(lp)
    s2 = solve_lp(lp)
    assert s1.objective_value == s2.objective_value
    assert np.array_equal(s1.primal, s2.primal)
    assert s1.iterations == s2.iterations


def test_front_lp_right_side_in_large_units():
    # exact.min_payment's LP with its right side (cost gaps) x1e9: the answer
    # scales with it, so no tolerance may be absolute in the rhs's unit
    for seed in range(60):
        setting = gen_random(4, 8, seed)
        for action in range(4):
            rivals = np.arange(4) != action
            front = ratio_front(setting.probs[rivals], setting.probs[action])
            bounds = setting.costs[rivals] - setting.costs[action]
            sols = [
                solve_lp(LinearProgram(
                    objective=np.ones(len(front.outcomes)),
                    rows=front.ratios - 1.0,
                    relations=[LESS] * 3,
                    rhs=k * bounds,
                ))
                for k in (1.0, 1e9)
            ]
            assert sols[1].status == sols[0].status, f"seed {seed} action {action}"
            if sols[0].status == OPTIMAL:
                assert sols[1].objective_value == pytest.approx(
                    1e9 * sols[0].objective_value, rel=1e-9, abs=1e-3
                ), f"seed {seed} action {action}"
