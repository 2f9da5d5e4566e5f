"""Two-phase simplex: hand-built cases, certificate replay, scipy agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invexcheck.simplex import (
    DEFAULT_TOL,
    ROW_EQ,
    ROW_LE,
    VAR_FREE,
    VAR_NONNEG,
    DimensionMismatchError,
    FarkasCertificate,
    FeasiblePoint,
    LpProblem,
    LpStatus,
    ToleranceConfig,
    check_feasibility,
    solve_lp,
    validate_outcome,
)
from lpgen import random_lp

try:
    from scipy.optimize import linprog

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    HAVE_SCIPY = False


def lp(c, A, b, rows=None, bounds=None):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    return LpProblem(
        objective=c,
        constraint_matrix=A,
        rhs=b,
        row_kinds=rows or (ROW_LE,) * m,
        variable_bounds=bounds or (VAR_NONNEG,) * n,
    )


def test_bounded_optimum():
    # max x1 + x2 on the triangle x1 + x2 <= 4, x1 <= 3
    out = solve_lp(lp([-1, -1], [[1, 1], [1, 0]], [4, 3]))
    assert out.status is LpStatus.OPTIMAL
    assert out.objective_value == pytest.approx(-4.0)
    assert validate_outcome(lp([-1, -1], [[1, 1], [1, 0]], [4, 3]), out) == []


def test_equality_row():
    problem = lp([1, 2], [[1, 1]], [2], rows=(ROW_EQ,))
    out = solve_lp(problem)
    assert out.status is LpStatus.OPTIMAL
    assert out.primal_solution == pytest.approx([2.0, 0.0])
    assert out.objective_value == pytest.approx(2.0)


def test_free_variable_reaches_negative_orthant():
    problem = lp([1], [[1]], [5], bounds=(VAR_FREE,), rows=(ROW_EQ,))
    out = solve_lp(problem)
    assert out.status is LpStatus.OPTIMAL
    assert out.primal_solution == pytest.approx([5.0])

    unbounded = lp([1], [[1]], [5], bounds=(VAR_FREE,))
    out = solve_lp(unbounded)
    assert out.status is LpStatus.UNBOUNDED
    assert out.ray is not None
    assert validate_outcome(unbounded, out) == []


def test_infeasible_farkas_replay():
    # x >= 0 with x <= -1 is empty
    problem = lp([0], [[1]], [-1])
    out = solve_lp(problem)
    assert out.status is LpStatus.INFEASIBLE
    y = out.farkas_certificate
    assert y is not None and np.all(y >= -1e-12)
    assert validate_outcome(problem, out) == []


def test_degenerate_vertex_terminates():
    # several redundant constraints meeting at the optimum
    problem = lp(
        [-1, -1],
        [[1, 0], [0, 1], [1, 1], [1, 1]],
        [1, 1, 2, 2],
    )
    out = solve_lp(problem)
    assert out.status is LpStatus.OPTIMAL
    assert out.objective_value == pytest.approx(-2.0)


def test_duality_gap_on_optimal():
    problem = lp([2, 3, 1], [[1, 1, 1], [2, 1, 0]], [10, 8], rows=(ROW_LE, ROW_EQ))
    out = solve_lp(problem)
    assert out.status is LpStatus.OPTIMAL
    dual_value = float(out.dual_values @ problem.rhs)
    assert abs(dual_value - out.objective_value) <= DEFAULT_TOL.duality_gap


def test_check_feasibility_both_branches():
    got = check_feasibility(
        np.array([[1.0]]), np.array([3.0]), (ROW_LE,), (VAR_NONNEG,)
    )
    assert isinstance(got, FeasiblePoint)
    got = check_feasibility(
        np.array([[1.0]]), np.array([-3.0]), (ROW_LE,), (VAR_NONNEG,)
    )
    assert isinstance(got, FarkasCertificate)
    assert float(got.y @ np.array([-3.0])) < 0


def test_dimension_errors():
    with pytest.raises(DimensionMismatchError):
        lp([1, 2], [[1]], [1])
    with pytest.raises(DimensionMismatchError):
        lp([1], [[1]], [1, 2])
    with pytest.raises(DimensionMismatchError):
        LpProblem(
            objective=[1.0],
            constraint_matrix=np.array([[1.0]]),
            rhs=[1.0],
            row_kinds=(ROW_LE, ROW_LE),
            variable_bounds=(VAR_NONNEG,),
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("stationary", float("nan")),
        ("strict", float("inf")),
        ("feasibility", -1e-8),
        ("max_pivots", 0),
        ("max_pivots", float("nan")),
        ("degeneracy_streak", 0),
    ],
)
def test_tolerances_reject_values_that_switch_checks_off(field, value):
    # a NaN threshold makes every comparison false, so every check passes
    with pytest.raises(ValueError, match=field):
        ToleranceConfig(**{field: value})


def test_random_outcomes_validate():
    rng = np.random.default_rng(1193)
    statuses = {status: 0 for status in LpStatus}
    for _ in range(300):
        problem = random_lp(rng)
        out = solve_lp(problem)
        statuses[out.status] += 1
        defects = validate_outcome(problem, out)
        assert defects == [], (problem, defects)
    # the generator must actually exercise all three terminal statuses
    assert min(statuses.values()) > 0, statuses


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
def test_matches_scipy_on_optimal_values():
    rng = np.random.default_rng(90121)
    compared = 0
    for _ in range(600):
        problem = random_lp(rng)
        out = solve_lp(problem)
        ub_rows = [k == ROW_LE for k in problem.row_kinds]
        eq_rows = [not u for u in ub_rows]
        ref = linprog(
            problem.objective,
            A_ub=problem.constraint_matrix[ub_rows] if any(ub_rows) else None,
            b_ub=problem.rhs[ub_rows] if any(ub_rows) else None,
            A_eq=problem.constraint_matrix[eq_rows] if any(eq_rows) else None,
            b_eq=problem.rhs[eq_rows] if any(eq_rows) else None,
            bounds=[
                (0, None) if kind == VAR_NONNEG else (None, None)
                for kind in problem.variable_bounds
            ],
            method="highs",
        )
        # HiGHS sometimes reports unbounded problems as infeasible (status 2/3
        # conflation on presolve), so only optimal-vs-optimal values are
        # comparable; certificate replay covers the rest.
        if out.status is LpStatus.OPTIMAL and ref.status == 0:
            compared += 1
            assert out.objective_value == pytest.approx(ref.fun, abs=1e-6)
        elif out.status is not LpStatus.OPTIMAL:
            assert ref.status != 0
    assert compared > 60


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_any_seed_validates(seed):
    rng = np.random.default_rng(seed)
    problem = random_lp(rng)
    out = solve_lp(problem)
    assert validate_outcome(problem, out) == []
