"""Multiplier recovery and stationary-point grid scans."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invexcheck.problems import (
    Analysis,
    InfeasiblePointError,
    Problem,
    evaluate,
    fixture,
    fixture_names,
    grid_points,
    without_constraints,
)
from invexcheck.simplex import DEFAULT_TOL, NumericalBreakdownError, solve_lp
from invexcheck.stationarity import (
    StationaryKind,
    StationaryPoint,
    scan_critical_points,
    stationary_multipliers,
)

VECTOR, KT = StationaryKind.VECTOR, StationaryKind.KT


def test_uniform_weights_at_zero_jacobian():
    # both objective gradients vanish on the flat stretch, so the canonical
    # (min-max) weight vector is uniform
    ep = evaluate(fixture("paper-example-2.1"), [0.0])
    got = stationary_multipliers(ep, VECTOR)
    assert got is not None
    assert got.lam == pytest.approx([0.5, 0.5])
    assert got.residual <= 1e-12


def test_unique_weights_are_recovered_exactly():
    # gradients (2x, 2(x-1)) balance only at lam = (1-x, x)
    p = fixture("convex-pair")
    for x in (0.25, 0.5, 0.75):
        got = stationary_multipliers(evaluate(p, [x]), VECTOR)
        assert got is not None
        assert got.lam == pytest.approx([1.0 - x, x])


def test_noncritical_point_returns_none():
    assert stationary_multipliers(evaluate(fixture("cube"), [1.0]), VECTOR) is None
    assert stationary_multipliers(evaluate(fixture("convex-pair"), [2.0]), VECTOR) is None


def test_kt_multipliers_tie_break_minimizes_constraint_weight():
    # at x = 0 the balance lam1 = mu admits a one-parameter family; the
    # canonical answer drives mu (hence lam1) to zero
    ep = evaluate(fixture("kt-linear-quad"), [0.0])
    got = stationary_multipliers(ep, KT)
    assert got is not None
    assert got.lam == pytest.approx([0.0, 1.0])
    assert got.mu == pytest.approx([0.0])
    assert got.active_indices == (0,)
    assert got.residual <= 1e-9


def test_kt_multipliers_inactive_constraint():
    ep = evaluate(fixture("two-var-convex"), [0.0, 0.0])
    got = stationary_multipliers(ep, KT)
    assert got is not None
    assert got.lam == pytest.approx([1.0, 0.0])
    assert got.active_indices == ()
    assert got.mu.size == 0


def test_kt_multipliers_requires_feasibility():
    ep = evaluate(fixture("kt-linear-quad"), [-1.0])
    with pytest.raises(InfeasiblePointError):
        stationary_multipliers(ep, KT)


def test_kt_absent_when_gradients_cannot_balance():
    # interior x > 0: lam1 + 2x lam2 > 0 for any simplex lam, mu = 0
    assert stationary_multipliers(evaluate(fixture("kt-linear-quad"), [1.0]), KT) is None


def test_critical_scan_recovers_flat_stretch():
    points = scan_critical_points(
        fixture("paper-example-2.1"), 0.01, StationaryKind.VECTOR
    )
    xs = sorted(sp.x[0] for sp in points)
    assert len(xs) == 201
    assert xs[0] == pytest.approx(-1.0)
    assert xs[-1] == pytest.approx(1.0)
    for sp in points:
        lam = sp.multipliers.lam
        assert lam.min() >= -1e-12
        assert lam.sum() == pytest.approx(1.0)
        assert float(np.max(np.abs(lam @ evaluate(
            fixture("paper-example-2.1"), sp.x
        ).objective_jacobian))) <= 1e-7


def test_critical_scan_single_point():
    points = scan_critical_points(fixture("cube"), 0.05, StationaryKind.VECTOR)
    assert [sp.x[0] for sp in points] == [0.0]


def test_critical_scan_ignores_constraints():
    # the vector-critical notion is unconstrained by definition: gradients
    # (1, 2x) balance for every x <= 0, including infeasible nodes
    points = scan_critical_points(
        fixture("kt-linear-quad"), 0.05, StationaryKind.VECTOR
    )
    xs = sorted(sp.x[0] for sp in points)
    assert len(xs) == 41
    assert xs[0] == pytest.approx(-2.0)
    assert xs[-1] == pytest.approx(0.0)


def test_kt_scan_respects_feasible_set():
    points = scan_critical_points(fixture("kt-linear-quad"), 0.05, StationaryKind.KT)
    assert [sp.x[0] for sp in points] == [0.0]
    assert points[0].kind is StationaryKind.KT

    points = scan_critical_points(fixture("two-var-convex"), 0.05, StationaryKind.KT)
    xs = np.array([sp.x for sp in points])
    assert len(points) == 21
    assert np.all(xs[:, 1] == 0.0)
    assert xs[:, 0].min() == pytest.approx(0.0)
    assert xs[:, 0].max() == pytest.approx(1.0)


def test_scan_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        scan_critical_points(fixture("cube"), 0.0, StationaryKind.VECTOR)


def test_scanned_points_are_read_only():
    p = fixture("convex-pair")
    analysis = Analysis(p)
    first = scan_critical_points(p, 0.25, StationaryKind.VECTOR, analysis=analysis)
    original = [(sp.x.copy(), sp.multipliers.lam.copy()) for sp in first]
    with pytest.raises(ValueError):
        first[0].x[0] = 9.0
    with pytest.raises(ValueError):
        first[0].multipliers.lam[:] = 0.5
    kt = scan_critical_points(fixture("kt-linear-quad"), 0.25, StationaryKind.KT)
    with pytest.raises(ValueError):
        kt[0].multipliers.mu[:] = 1.0
    # calls sharing an analysis get the same points; other calls equal ones
    again = scan_critical_points(p, 0.25, StationaryKind.VECTOR, analysis=analysis)
    assert again is first
    fresh = scan_critical_points(p, 0.25, StationaryKind.VECTOR)
    assert fresh is not first
    for points in (again, fresh):
        assert len(points) == len(original)
        for sp, (x, lam) in zip(points, original):
            assert np.array_equal(sp.x, x)
            assert np.array_equal(sp.multipliers.lam, lam)


def test_scanned_points_cannot_be_rebound():
    p = Problem(
        name="bowl", variables=("x",), objectives=("x^2",), constraints=(),
        box=((-1.0, 1.0),),
    )
    sp = scan_critical_points(p, 0.5, StationaryKind.VECTOR)[0]
    with pytest.raises(FrozenInstanceError):
        sp.x = 9
    with pytest.raises(FrozenInstanceError):
        sp.multipliers.lam = np.array([0.5])
    kt = scan_critical_points(fixture("kt-linear-quad"), 0.25, StationaryKind.KT)[0]
    with pytest.raises(FrozenInstanceError):
        kt.multipliers.mu = np.array([1.0])
    again = scan_critical_points(p, 0.5, StationaryKind.VECTOR)[0]
    assert again.x.tolist() == [0.0]


def test_kt_multipliers_without_active_constraints_are_the_vector_ones():
    # no constraint, so every node's KT multipliers answer the vector
    # question; the KT λ once came from its own LP and differed in the last
    # bit at (0.25, -0.75)
    p = Problem(
        name="three-objectives",
        variables=("x", "y"),
        objectives=(
            "(0.5) * x^1 + (1.0) * x^3 + (-1.0) * y^3",
            "(-2.0) * x^2 * y^2 + (-0.5) + (-2.0) * y^1",
            "(-1.5) * y^2 + (0.5) * x^3",
        ),
        constraints=(),
        box=((-1.0, 1.0), (-1.0, 1.0)),
    )
    critical = scan_critical_points(p, 0.25, VECTOR)
    kt = scan_critical_points(p, 0.25, KT)
    assert [0.25, -0.75] in [sp.x.tolist() for sp in critical]
    assert len(critical) == len(kt) == 17
    for a, b in zip(critical, kt):
        assert a.x.tobytes() == b.x.tobytes()
        assert a.multipliers.lam.tobytes() == b.multipliers.lam.tobytes()
        assert b.multipliers.mu.size == 0 and b.multipliers.active_indices == ()


def reference_scan(problem, grid_step, kind, tol=DEFAULT_TOL):
    """Reference scan: one multiplier LP at every (feasible, for KT) node.

    This is how `scan_critical_points` computed its result before nodes were
    ruled out by a closed-form descent direction.
    """
    if kind is StationaryKind.VECTOR:
        problem = without_constraints(problem)
    found = []
    for node in grid_points(problem, grid_step):
        ep = evaluate(problem, node, tol)
        if kind is StationaryKind.KT and not ep.feasible:
            continue
        mult = stationary_multipliers(ep, kind, tol)
        if mult is not None:
            found.append(StationaryPoint(x=ep.x, kind=kind, multipliers=mult))
    return tuple(found)


def assert_same_points(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.kind is b.kind
        assert a.x.tobytes() == b.x.tobytes()
        assert a.multipliers.lam.tobytes() == b.multipliers.lam.tobytes()
        assert a.multipliers.lam.dtype == b.multipliers.lam.dtype
        assert a.multipliers.residual == b.multipliers.residual
        assert a.multipliers.mu.tobytes() == b.multipliers.mu.tobytes()
        assert a.multipliers.mu.dtype == b.multipliers.mu.dtype
        assert a.multipliers.active_indices == b.multipliers.active_indices


# two-var-convex only at a coarse step: its reference scan costs one LP per
# node, and finer steps would lengthen the suite by seconds
SCAN_CASES = [
    (name, step)
    for name in fixture_names()
    for step in ((0.2,) if name == "two-var-convex" else (0.05, 0.0625, 0.2))
]


@pytest.mark.parametrize("kind", list(StationaryKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name,step", SCAN_CASES)
def test_scan_matches_reference(name, step, kind):
    p = fixture(name)
    assert_same_points(
        scan_critical_points(p, step, kind), reference_scan(p, step, kind)
    )


# tilted objectives have no linear term, so their gradient at the grid node
# 0 is the tilt: values on both sides of the screen's margin
# 100 * tol.stationary = 1e-5 and of the LP's tol.feasibility = 1e-8
_TILTS = st.sampled_from(
    [0.0, 1e-9, 1e-8, 3e-8, 1e-7, 5e-6, 1e-5, 2e-5, 1e-4, 1e-2, 1.0]
)
_COEFFICIENTS = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])


@st.composite
def tilted_polynomial_problems(draw):
    variables = ("x", "y")[: draw(st.integers(1, 2))]
    exponents = st.tuples(*[st.integers(0, 3) for _ in variables])

    def polynomial(tilted):
        terms = draw(
            st.lists(st.tuples(_COEFFICIENTS, exponents), min_size=1, max_size=3)
        )
        parts = []
        for coeff, powers in terms:
            if tilted and sum(powers) == 1:
                powers = tuple(2 * k for k in powers)
            factors = [f"({coeff!r})"] + [
                f"{v}^{k}" for v, k in zip(variables, powers) if k
            ]
            parts.append(" * ".join(factors))
        if tilted:
            for v in variables:
                parts.append(f"({draw(_TILTS) * draw(st.sampled_from([-1, 1]))!r}) * {v}")
        return " + ".join(parts)

    return Problem(
        name="tilted-polynomial",
        variables=variables,
        objectives=tuple(polynomial(True) for _ in range(draw(st.integers(1, 2)))),
        constraints=tuple(polynomial(False) for _ in range(draw(st.integers(0, 1)))),
        box=((-1.0, 1.0),) * len(variables),
    )


@settings(max_examples=100, deadline=None)
@given(tilted_polynomial_problems(), st.sampled_from(list(StationaryKind)))
# the LP accepts this gradient of 1e-9 at x = 0 as stationary
@example(
    Problem(
        name="tilted-polynomial",
        variables=("x",),
        objectives=("(1.0) * x^2 + (1e-09) * x",),
        constraints=(),
        box=((-1.0, 1.0),),
    ),
    StationaryKind.VECTOR,
)
# stage 2 at x = -1 ends with an artificial basic at 1, which the simplex
# once dropped to return λ = 0: both scans must raise, not accept it
@example(
    Problem(
        name="tilted-polynomial",
        variables=("x", "y"),
        objectives=("(-2.0) + (-1e-09) * x + (1e-08) * y",),
        constraints=("(-2.0) * y^1",),
        box=((-1.0, 1.0), (-1.0, 1.0)),
    ),
    StationaryKind.KT,
)
def test_scan_matches_reference_on_random_polynomials(problem, kind):
    try:
        want = reference_scan(problem, 0.5, kind)
    except NumericalBreakdownError:
        with pytest.raises(NumericalBreakdownError):
            scan_critical_points(problem, 0.5, kind)
        return
    assert_same_points(scan_critical_points(problem, 0.5, kind), want)


@st.composite
def flat_polynomial_problems(draw):
    """One to three objectives, each exactly flat on part of the box or all
    of it: a zero, a constant, or a polynomial switched off by a piecewise."""
    variables = ("x", "y")[: draw(st.integers(1, 2))]
    exponents = st.tuples(*[st.integers(0, 3) for _ in variables])

    def polynomial():
        terms = draw(
            st.lists(st.tuples(_COEFFICIENTS, exponents), min_size=1, max_size=2)
        )
        return " + ".join(
            " * ".join(
                [f"({coeff!r})"] + [f"{v}^{k}" for v, k in zip(variables, powers) if k]
            )
            for coeff, powers in terms
        )

    def objective():
        shape = draw(st.sampled_from(["zero", "constant", "switched", "switched"]))
        if shape == "zero":
            return "0"
        if shape == "constant":
            return f"({draw(_COEFFICIENTS)!r})"
        v = draw(st.sampled_from(variables))
        op = draw(st.sampled_from([">", "<"]))
        cut = draw(st.sampled_from([-0.5, 0.0, 0.5]))
        return f"piecewise({v} {op} {cut!r}: {polynomial()}; 0)"

    return Problem(
        name="flat-polynomial",
        variables=variables,
        objectives=tuple(objective() for _ in range(draw(st.integers(1, 3)))),
        constraints=tuple(polynomial() for _ in range(draw(st.integers(0, 1)))),
        box=((-1.0, 1.0),) * len(variables),
    )


@settings(max_examples=100, deadline=None)
@given(flat_polynomial_problems(), st.sampled_from(list(StationaryKind)))
# three flat objectives: the LP's weights are not uniform to the last bit
@example(
    Problem(
        name="flat-polynomial",
        variables=("x",),
        objectives=(
            "0",
            "piecewise(x > 0.5: (x - 0.5)^2; 0)",
            "piecewise(x < -0.5: (x + 0.5)^2; 0)",
        ),
        constraints=(),
        box=((-1.0, 1.0),),
    ),
    StationaryKind.VECTOR,
)
@example(
    Problem(
        name="flat-polynomial",
        variables=("x",),
        objectives=("0", "piecewise(x > 0.0: (1.0) * x^2; 0)", "(2.0)"),
        constraints=("(1.0) * x^1",),
        box=((-1.0, 1.0),),
    ),
    StationaryKind.KT,
)
def test_scan_matches_reference_on_flat_problems(problem, kind):
    """Flat nodes take closed-form multipliers for n <= 2 and the LP for
    n = 3; both must give the reference LP's bytes at every node."""
    try:
        want = reference_scan(problem, 0.25, kind)
    except NumericalBreakdownError:
        with pytest.raises(NumericalBreakdownError):
            scan_critical_points(problem, 0.25, kind)
        return
    assert_same_points(scan_critical_points(problem, 0.25, kind), want)


def test_flat_nodes_solve_no_lp(monkeypatch):
    # paper-example-2.1 at step 1/128: 257 of 769 nodes have Jf = 0, and the
    # parent solved 777 LPs for both scans (one vector, two KT per node)
    import invexcheck.stationarity as stationarity

    calls = []

    def counting_solve_lp(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(stationarity, "solve_lp", counting_solve_lp)
    p = fixture("paper-example-2.1")
    critical = scan_critical_points(p, 1 / 128, StationaryKind.VECTOR)
    kt = scan_critical_points(p, 1 / 128, StationaryKind.KT)
    assert len(critical) == len(kt) == 257
    assert len(calls) <= 10
    for sp in critical + kt:
        assert sp.multipliers.lam.tolist() == [0.5, 0.5]
        assert sp.multipliers.residual == 0.0
