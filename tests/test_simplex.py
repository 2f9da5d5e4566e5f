"""Two-phase simplex: hand-built cases, certificate replay, scipy agreement."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invexcheck import simplex
from invexcheck.simplex import (
    DEFAULT_TOL,
    ROW_EQ,
    ROW_LE,
    VAR_FREE,
    VAR_NONNEG,
    DimensionMismatchError,
    LpProblem,
    LpStatus,
    NumericalBreakdownError,
    ToleranceConfig,
    solve_lp,
    validate_outcome,
)
from lpgen import random_lp
from reference_simplex import _Standardized as ReferenceStandardized
from reference_simplex import lex_leave_by_columns, reference_solve_lp

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


def test_cycling_example_terminates():
    # Chvatal (Linear Programming, 1983, ch. 3): Dantzig's entering rule with
    # lowest-index ratio ties cycles forever at the degenerate origin
    problem = lp(
        [-10, 57, 9, 24],
        [[0.5, -5.5, -2.5, 9], [0.5, -1.5, -0.5, 1], [1, 0, 0, 0]],
        [0, 0, 1],
    )
    never_switch = ToleranceConfig(max_pivots=1000, degeneracy_streak=10**6)
    with pytest.raises(NumericalBreakdownError, match="pivot cap"):
        solve_lp(problem, never_switch)
    out = solve_lp(problem, ToleranceConfig(max_pivots=50))
    assert out.status is LpStatus.OPTIMAL
    assert out.primal_solution == pytest.approx([1.0, 0.0, 1.0, 0.0])
    assert validate_outcome(problem, out) == []


def test_duality_gap_on_optimal():
    problem = lp([2, 3, 1], [[1, 1, 1], [2, 1, 0]], [10, 8], rows=(ROW_LE, ROW_EQ))
    out = solve_lp(problem)
    assert out.status is LpStatus.OPTIMAL
    dual_value = float(out.dual_values @ problem.rhs)
    assert abs(dual_value - out.objective_value) <= DEFAULT_TOL.duality_gap


def test_check_feasibility_both_branches():
    # the zero-objective LP decides feasibility: a point, or a Farkas vector
    got = solve_lp(lp([0.0], [[1.0]], [3.0]))
    assert got.status is LpStatus.OPTIMAL
    assert got.primal_solution[0] <= 3.0
    got = solve_lp(lp([0.0], [[1.0]], [-3.0]))
    assert got.status is LpStatus.INFEASIBLE
    assert float(got.farkas_certificate @ np.array([-3.0])) < 0


def test_basic_artificial_is_not_dropped_from_an_optimum():
    # stage 2 of the KT multipliers of f = -2 - 1e-9 x + 1e-8 y, g = -2 y at
    # (x, y) = (-1, 0), v = (λ, μ, t): phase 1 ends within tolerance, the
    # drive-out judges the row -1e-9 λ = 0 redundant, and its artificial ends
    # basic at 1; merging it away once gave an OPTIMAL v = 0 that breaks λ = 1
    stage2 = lp(
        [0.0, 0.0, 1.0],
        [[-1e-9, 0.0, 0.0], [1e-8, -2.0, 0.0], [1.0, 0.0, 0.0],
         [0.0, 1.0, 0.0], [1.0, 0.0, -1.0]],
        [0.0, 0.0, 1.0, 5e-9, 0.0],
        rows=(ROW_EQ, ROW_EQ, ROW_EQ, ROW_LE, ROW_LE),
    )
    with pytest.raises(NumericalBreakdownError, match="artificial variable left basic"):
        solve_lp(stage2)


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


def test_standard_form_matches_reference_loops():
    # array indexing must give the column-by-column build bit for bit,
    # signed zeros included
    rng = np.random.default_rng(17)
    for _ in range(500):
        problem = random_lp(rng)
        got, want = simplex._Standardized(problem), ReferenceStandardized(problem)
        for name in ("matrix", "rhs", "costs", "basis", "sigma"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert got.n_structural == want.n_structural
        z = rng.normal(size=want.costs.size)
        z[rng.random(z.size) < 0.3] = -0.0
        assert got.merge(z).tobytes() == want.merge(z).tobytes()


@pytest.mark.parametrize("streak", [DEFAULT_TOL.degeneracy_streak, 1])
def test_outcomes_match_reference_pivot_loop(streak):
    # the two loops pivot alike until a flat streak reaches the switch, so the
    # outcomes are pickle-identical there; past it both must be right
    tol = ToleranceConfig(degeneracy_streak=streak)
    rng = np.random.default_rng(3)
    reached = 0
    for _ in range(1500):
        problem = random_lp(rng)
        want, hit = reference_solve_lp(problem, tol)
        got = solve_lp(problem, tol)
        assert got.status is want.status, problem
        assert validate_outcome(problem, got, tol) == []
        if hit:
            reached += 1
            if got.status is LpStatus.OPTIMAL:
                assert got.objective_value == pytest.approx(want.objective_value, abs=1e-7)
        else:
            assert pickle.dumps(got) == pickle.dumps(want), problem
    assert (reached > 100) == (streak == 1), reached


def test_lex_tie_break_matches_column_by_column_rule(monkeypatch):
    # `_lex_leave` skips the columns that are still basic; it must pick the
    # row that comparing every column in turn picks
    lex_leave = simplex._lex_leave
    calls = []

    def both(*args):
        got = lex_leave(*args)
        calls.append((got, lex_leave_by_columns(*args)))
        return got

    monkeypatch.setattr(simplex, "_lex_leave", both)
    tol = ToleranceConfig(degeneracy_streak=1)
    rng = np.random.default_rng(7)
    for _ in range(300):
        # integer rows through the origin plus one cap row: ties at ratio 0
        m, n = (int(k) for k in rng.integers(2, 12, size=2))
        problem = lp(
            rng.integers(-3, 4, size=n),
            np.vstack([rng.integers(-3, 4, size=(m, n)), np.ones((1, n))]),
            np.r_[np.zeros(m), 1.0],
            bounds=(VAR_FREE,) * n,
        )
        assert validate_outcome(problem, solve_lp(problem, tol), tol) == []
    assert len(calls) > 100, len(calls)
    assert all(got == want for got, want in calls)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, 2, DEFAULT_TOL.degeneracy_streak]),
)
def test_degenerate_lps_terminate(seed, streak):
    # integer data and a zero right-hand side: every vertex is the origin, so
    # every pivot is degenerate
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(1, 8, size=2))
    problem = LpProblem(
        objective=rng.integers(-2, 3, size=n).astype(float),
        constraint_matrix=rng.integers(-2, 3, size=(m, n)).astype(float),
        rhs=np.zeros(m),
        row_kinds=tuple(ROW_EQ if rng.random() < 0.3 else ROW_LE for _ in range(m)),
        variable_bounds=tuple(VAR_FREE if rng.random() < 0.3 else VAR_NONNEG for _ in range(n)),
    )
    tol = ToleranceConfig(degeneracy_streak=streak, max_pivots=100)
    out = solve_lp(problem, tol)  # raises NumericalBreakdownError past 100 pivots
    assert out.status is not LpStatus.INFEASIBLE
    assert validate_outcome(problem, out, tol) == []
