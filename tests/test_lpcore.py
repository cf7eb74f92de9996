import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contract_forge import lpcore
from contract_forge.errors import InputError, ResourceError
from contract_forge.generators import gen_random
from contract_forge.lpcore import INFEASIBLE, OPTIMAL, solve_lp
from contract_forge.oracle import ratio_front


def test_min_x_at_least_one():
    # x >= 1 written as -x <= -1
    sol = solve_lp([1.0], [[-1.0]], [-1.0])
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(1.0)
    assert sol.primal[0] == pytest.approx(1.0)
    assert sol.dual[0] == pytest.approx(-1.0)


def test_gap_ic_row_closed_form():
    # min p subject to p - 8.1 >= 0.1 p, i.e. -0.9 p <= -8.1
    sol = solve_lp([1.0], [[-0.9]], [-8.1])
    assert sol.objective_value == pytest.approx(9.0)


def test_two_action_strong_duality_pair():
    # min p2 s.t. 0.9 p1 - 0.9 p2 <= -8.1, p >= 0; its dual is
    # max 8.1 mu s.t. 0.9 mu <= 1, mu >= 0, with mu = -dual
    sol = solve_lp([0.0, 1.0], [[0.9, -0.9]], [-8.1])
    assert sol.objective_value == pytest.approx(9.0)
    assert sol.primal.tolist() == pytest.approx([0.0, 9.0])
    assert -sol.dual[0] == pytest.approx(1.0 / 0.9)
    assert -sol.dual @ np.array([8.1]) == pytest.approx(9.0)


def test_redundant_rows():
    # duplicate rows: every row keeps its own slack, and once the first
    # short row has pivoted its twins read 0, so none of them is left short
    rows = [[-1.0, -1.0], [-1.0, -1.0], [-2.0, -2.0], [1.0, 1.0]]
    sol = solve_lp([1.0, 0.0], rows, [-1.0, -1.0, -2.0, 1.0])
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(0.0)
    assert sol.primal.sum() == pytest.approx(1.0)


def test_nonnegative_costs_and_rhs_stop_at_zero_without_pivots():
    # every slack starts basic and no basic value is negative: x = 0 is
    # optimal before any pivot, since the all-slack basis is dual feasible
    rng = np.random.default_rng(8)
    for _ in range(20):
        nx, nr = rng.integers(1, 30), rng.integers(0, 6)
        c = rng.uniform(0.0, 1.0, nx)
        c[rng.uniform(size=nx) < 0.3] = 0.0
        rows = rng.normal(size=(nr, nx))
        rhs = rng.uniform(0.0, 1.0, nr)
        rhs[rng.uniform(size=nr) < 0.3] = 0.0
        sol = solve_lp(c, rows, rhs)
        assert sol.status == OPTIMAL and sol.iterations == 0
        assert sol.primal.tolist() == [0.0] * nx
        assert sol.objective_value == 0.0 and not np.signbit(sol.objective_value)
        assert sol.dual.tolist() == [0.0] * nr


def test_negative_objective_rejected():
    # the dual simplex starts from the all-slack basis, which needs c >= 0
    with pytest.raises(InputError):
        solve_lp([-1.0], np.zeros((0, 1)), [])
    with pytest.raises(InputError):
        solve_lp([1.0, -1e-12], [[1.0, 1.0]], [1.0])


def test_infeasible():
    # x1 + x2 <= 1 and x1 + x2 >= 2
    sol = solve_lp([0.0, 0.0], [[1.0, 1.0], [-1.0, -1.0]], [1.0, -2.0])
    assert sol.status == INFEASIBLE
    assert sol.primal is None and sol.dual is None
    assert sol.objective_value == np.inf


def test_input_validation():
    with pytest.raises(InputError):
        solve_lp([np.nan], np.zeros((0, 1)), [])
    with pytest.raises(InputError):
        solve_lp([np.inf], np.zeros((0, 1)), [])
    with pytest.raises(InputError):
        solve_lp([], np.zeros((0, 0)), [])
    with pytest.raises(InputError):
        solve_lp([1.0], [[1.0, 2.0]], [1.0])
    with pytest.raises(InputError):
        solve_lp([1.0], [[1.0]], [1.0, 2.0])
    with pytest.raises(InputError):
        solve_lp([1.0], [[1.0]], [np.nan])


def test_iteration_limit(monkeypatch):
    # sum_j a_kj x_j >= 5 on twelve random rows, within the box x <= 10
    rng = np.random.default_rng(0)
    rows = np.vstack([-rng.uniform(0, 1, (12, 12)), np.eye(12)])
    rhs = np.concatenate([np.full(12, -5.0), np.full(12, 10.0)])
    c = rng.uniform(0, 1, 12)
    assert solve_lp(c, rows, rhs).iterations > 2
    monkeypatch.setattr(lpcore, "MAX_ITER", 2)
    with pytest.raises(ResourceError):
        solve_lp(c, rows, rhs)


def _random_feasible_lp(rng):
    """(c, A, b) with a known feasible point, boxed in by x_j <= 50.

    Each random row is a <= row, a >= row (negated) or an equality (both).
    """
    nx = rng.integers(1, 21)
    nr = rng.integers(1, 21)
    a = rng.uniform(-2, 2, (nr, nx))
    x0 = rng.uniform(0, 3, nx)
    c = rng.uniform(0, 1, nx)
    b0 = a @ x0
    rows, rhs = [], []
    for k in range(nr):
        u = rng.uniform()
        if u < 0.4:
            rows.append(a[k])
            rhs.append(b0[k] + rng.uniform(0, 1))
        elif u < 0.8:
            rows.append(-a[k])
            rhs.append(-(b0[k] - rng.uniform(0, 1)))
        else:
            rows += [a[k], -a[k]]
            rhs += [b0[k], -b0[k]]
    rows += list(np.eye(nx))
    rhs += [50.0] * nx
    return c, np.array(rows), np.array(rhs)


def test_random_lps_strong_duality():
    # mu = -dual is feasible for max -mu.b s.t. -mu A <= c, mu >= 0, and its
    # value equals the primal's: the prices column generation relies on
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        c, a, b = _random_feasible_lp(rng)
        sol = solve_lp(c, a, b)
        assert sol.status == OPTIMAL, f"trial {trial}"
        mu = -sol.dual
        scale = 1.0 + abs(sol.objective_value)
        assert (mu >= -1e-9).all(), f"trial {trial}"
        assert (c + mu @ a >= -1e-7 * scale).all(), f"trial {trial}"
        gap = abs(sol.objective_value - (-mu @ b))
        assert gap <= 1e-7 * scale, f"trial {trial}"


def test_random_lps_match_scipy():
    from scipy.optimize import linprog

    rng = np.random.default_rng(7)
    for trial in range(200):
        c, a, b = _random_feasible_lp(rng)
        sol = solve_lp(c, a, b)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=[(0, None)] * c.size, method="highs")
        assert ref.success, f"trial {trial}"
        assert sol.objective_value == pytest.approx(ref.fun, abs=1e-6), f"trial {trial}"


def test_row_permutation_same_objective():
    rng = np.random.default_rng(11)
    for _ in range(50):
        c, a, b = _random_feasible_lp(rng)
        base = solve_lp(c, a, b).objective_value
        order = rng.permutation(len(b))
        assert solve_lp(c, a[order], b[order]).objective_value == pytest.approx(base, abs=1e-7)


def test_deterministic_repeat():
    rng = np.random.default_rng(3)
    lp = _random_feasible_lp(rng)
    s1 = solve_lp(*lp)
    s2 = solve_lp(*lp)
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
                solve_lp(np.ones(len(front.outcomes)), front.ratios - 1.0, k * bounds)
                for k in (1.0, 1e9)
            ]
            assert sols[1].status == sols[0].status, f"seed {seed} action {action}"
            if sols[0].status == OPTIMAL:
                assert sols[1].objective_value == pytest.approx(
                    1e9 * sols[0].objective_value, rel=1e-9, abs=1e-3
                ), f"seed {seed} action {action}"


@given(
    nr=st.integers(1, 6),
    nx=st.integers(1, 40),
    delta=st.sampled_from([0.0, 0.05, 0.5]),
    seed=st.integers(0, 2**31 - 1),
)
def test_payment_lp_shapes_match_scipy(nr, nx, delta, seed):
    # exact.payment_lp's shape: cost 1 per column, rows of positive likelihood
    # ratios minus (1+delta), and cost gaps of both signs, so some are infeasible
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    rows = np.exp(rng.uniform(-3.0, 3.0, (nr, nx))) - (1.0 + delta)
    rhs = rng.uniform(-1.0, 1.0, nr)
    c = np.ones(nx)
    sol = solve_lp(c, rows, rhs)
    ref = linprog(c, A_ub=rows, b_ub=rhs, bounds=[(0.0, None)] * nx, method="highs")
    assert ref.status in (0, 2)
    assert sol.status == (OPTIMAL if ref.status == 0 else INFEASIBLE)
    if ref.status == 2:
        return
    assert sol.objective_value == pytest.approx(ref.fun, rel=1e-7, abs=1e-12)
    mu = -sol.dual
    assert (mu >= 0.0).all()
    assert (c + mu @ rows >= -1e-9).all()
    assert sol.dual @ rhs == pytest.approx(sol.objective_value, rel=1e-9, abs=1e-12)
