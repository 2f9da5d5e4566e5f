"""Weighted-sum scalarization, globality grading, weak-efficiency scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from problemgen import small_polynomial_problems

from invexcheck.problems import (
    Problem,
    evaluate,
    fixture,
    fixture_names,
    grid_points,
)
from invexcheck.scalarization import (
    _ARMIJO,
    _CLUSTER_RADIUS,
    _POLISH_GRAD_TOL,
    _POLISH_MAX_ITERS,
    EmptyFeasibleSetError,
    Globality,
    WeightVector,
    _dedupe,
    _dominated,
    _feasible_grid,
    is_global_weighting_solution,
    simplex_weights,
    solve_weighting,
    weakly_efficient_scan,
)
from invexcheck.simplex import DEFAULT_TOL


def test_weight_vector_validation():
    w = WeightVector((0.25, 0.75))
    assert w.array == pytest.approx([0.25, 0.75])
    with pytest.raises(ValueError):
        WeightVector((-0.1, 1.1))
    with pytest.raises(ValueError):
        WeightVector((0.5, 0.25))  # does not sum to one
    with pytest.raises(ValueError):
        WeightVector(())


def test_weight_vector_normalized():
    w = WeightVector.normalized([2.0, 6.0])
    assert w.array == pytest.approx([0.25, 0.75])
    with pytest.raises(ValueError):
        WeightVector.normalized([0.0, 0.0])


def test_simplex_weights_enumeration():
    ws = simplex_weights(2, 0.1)
    assert len(ws) == 11
    assert ws[0].array == pytest.approx([1.0, 0.0])
    assert ws[-1].array == pytest.approx([0.0, 1.0])

    ws = simplex_weights(3, 0.5)
    assert len(ws) == 6  # multiset combinations of 2 steps over 3 slots
    for w in ws:
        assert w.array.sum() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "step,match", [(0.0, "positive"), (-0.5, "positive"), (0.3, "divide 1 evenly")]
)
def test_simplex_weights_refuses_bad_steps(step, match):
    with pytest.raises(ValueError, match=match):
        simplex_weights(2, step)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.sampled_from([0.5, 0.25, 0.2, 0.1]))
def test_simplex_weights_cover_vertices(n, step):
    ws = simplex_weights(n, step)
    arrays = np.array([w.array for w in ws])
    assert np.allclose(arrays.sum(axis=1), 1.0)
    for i in range(n):
        vertex = np.zeros(n)
        vertex[i] = 1.0
        assert any(np.allclose(row, vertex) for row in arrays)


def test_single_objective_weighting():
    sol = solve_weighting(fixture("cube"), WeightVector((1.0,)), 0.05)
    assert sol.value == pytest.approx(-8.0)
    assert len(sol.minimizers) == 1
    assert sol.minimizers[0] == pytest.approx([-2.0])
    assert sol.grid_step == 0.05


def test_polish_moves_off_grid_and_ties_merge():
    # step 0.2 brackets the true minimizer 0.5 with the tie {0.4, 0.6};
    # both polish to 0.5 and deduplicate
    sol = solve_weighting(fixture("convex-pair"), WeightVector((0.5, 0.5)), 0.2)
    assert len(sol.grid_minimizers) == 2
    assert len(sol.minimizers) == 1
    assert sol.minimizers[0] == pytest.approx([0.5], abs=1e-6)
    assert sol.value == pytest.approx(0.25, abs=1e-9)


def test_constrained_weighting_stays_feasible():
    sol = solve_weighting(fixture("kt-linear-quad"), WeightVector((1.0, 0.0)), 0.05)
    assert sol.minimizers[0] == pytest.approx([0.0], abs=1e-12)
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_flat_objective_keeps_all_grid_ties():
    sol = solve_weighting(
        fixture("paper-example-2.1"), WeightVector((0.5, 0.5)), 0.01
    )
    xs = sorted(x[0] for x in sol.grid_minimizers)
    assert len(xs) == 201
    assert xs[0] == pytest.approx(-1.0)
    assert xs[-1] == pytest.approx(1.0)
    assert sol.value == pytest.approx(0.0)


def test_weighting_rejects_wrong_weight_length():
    with pytest.raises(Exception):
        solve_weighting(fixture("cube"), WeightVector((0.5, 0.5)), 0.1)


def test_empty_feasible_set():
    impossible = Problem(
        name="void",
        variables=("x",),
        objectives=("x",),
        constraints=("1",),
        box=((-1.0, 1.0),),
    )
    with pytest.raises(EmptyFeasibleSetError):
        solve_weighting(impossible, WeightVector((1.0,)), 0.5)


def test_globality_not_global_carries_better_node():
    verdict = is_global_weighting_solution(
        fixture("cube"), WeightVector((1.0,)), [0.0], 0.05
    )
    assert verdict.globality is Globality.NOT_GLOBAL
    assert not verdict.is_global
    assert verdict.value == pytest.approx(0.0)
    assert verdict.witness == pytest.approx([-2.0])
    assert verdict.witness_value == pytest.approx(-8.0)


def test_globality_unique_global():
    verdict = is_global_weighting_solution(
        fixture("kt-linear-quad"), WeightVector((0.0, 1.0)), [0.0], 0.05
    )
    assert verdict.globality is Globality.UNIQUE_GLOBAL
    assert verdict.is_global
    assert verdict.witness is None


def test_globality_tied_global_has_distant_witness():
    verdict = is_global_weighting_solution(
        fixture("paper-example-2.1"), WeightVector((0.5, 0.5)), [0.0], 0.05
    )
    assert verdict.globality is Globality.GLOBAL
    assert verdict.is_global
    assert verdict.witness is not None
    assert abs(verdict.witness[0]) > 1e-6
    assert verdict.witness_value == pytest.approx(verdict.value)


def naive_dominated(values):
    """Quadratic-time reference: row i is strictly dominated by some row."""
    return np.array(
        [any(np.all(fj < fi) for fj in values) for fi in values], dtype=bool
    )


def naive_weakly_efficient(problem, step):
    """Quadratic-time reference: keep nodes not strictly dominated."""
    nodes = [
        x
        for x in grid_points(problem, step)
        if evaluate(problem, x).feasible
    ]
    values = [np.array(evaluate(problem, x).objective_values) for x in nodes]
    return np.array(nodes)[~naive_dominated(values)]


# few distinct values, so that ties in one or all objectives are common
_TIED_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, np.inf, -np.inf, np.nan])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(_TIED_VALUES, min_size=n, max_size=n), min_size=1, max_size=30
        )
    )
)
def test_dominance_scan_matches_naive_reference(rows):
    values = np.array(rows)
    assert np.array_equal(_dominated(values), naive_dominated(values))


@pytest.mark.parametrize(
    "name,step",
    [("convex-pair", 0.25), ("cube", 0.25), ("two-var-convex", 0.5)],
)
def test_weak_efficiency_matches_naive_reference(name, step):
    got = weakly_efficient_scan(fixture(name), step)
    want = naive_weakly_efficient(fixture(name), step)
    assert got.shape == want.shape
    assert np.allclose(np.sort(got, axis=0), np.sort(want, axis=0))


def test_weak_efficiency_frozen_sets():
    xs = weakly_efficient_scan(fixture("paper-example-2.1"), 0.05)[:, 0]
    assert xs.min() == pytest.approx(-1.0)
    assert xs.max() == pytest.approx(1.0)
    assert len(xs) == 41

    xs = weakly_efficient_scan(fixture("cube"), 0.05)
    assert xs.shape == (1, 1)
    assert xs[0, 0] == pytest.approx(-2.0)

    pts = weakly_efficient_scan(fixture("two-var-convex"), 0.05)
    assert len(pts) == 21
    assert np.all(pts[:, 1] == 0.0)
    assert pts[:, 0].min() == pytest.approx(0.0)
    assert pts[:, 0].max() == pytest.approx(1.0)


def test_weak_efficiency_rejects_bad_step():
    with pytest.raises(ValueError):
        weakly_efficient_scan(fixture("cube"), -0.1)


def test_weak_efficiency_scan_is_read_only():
    p = fixture("convex-pair")
    first = weakly_efficient_scan(p, 0.5)
    original = first.copy()
    with pytest.raises(ValueError):
        first[:] = 99
    assert np.array_equal(weakly_efficient_scan(p, 0.5), original)


def naive_dedupe(points, radius):
    """Reference: the greedy pass, one distance at a time."""
    kept = []
    for pt in points:
        if all(np.linalg.norm(pt - other) > radius for other in kept):
            kept.append(pt)
    return kept


# lattice spacing 5e-7 puts many pairs within, at and just beyond the radius
@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda s: st.lists(
            st.lists(st.integers(-4, 4), min_size=s, max_size=s),
            min_size=1,
            max_size=25,
        )
    )
)
def test_dedupe_matches_naive_reference(rows):
    points = [np.array(row, dtype=float) * 5e-7 for row in rows]
    got = _dedupe(points, _CLUSTER_RADIUS)
    want = naive_dedupe(points, _CLUSTER_RADIUS)
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))



def reference_polish(problem, lam, start, tol=DEFAULT_TOL):
    """Reference polish: one start at a time, one `evaluate` per trial point.

    This is how `solve_weighting` polished each grid minimizer before all
    tied starts ran in lockstep on batched evaluations.
    """
    lo, hi = problem.lower, problem.upper
    x = np.clip(start.astype(float), lo, hi)
    ep = evaluate(problem, x, tol)
    value = float(lam @ ep.objective_values)

    def worst(point_ep):
        if point_ep.constraint_values.size == 0:
            return 0.0
        return max(0.0, float(point_ep.constraint_values.max()))

    allowed = worst(ep)
    for _ in range(_POLISH_MAX_ITERS):
        grad = lam @ ep.objective_jacobian
        if np.linalg.norm(x - np.clip(x - grad, lo, hi)) <= _POLISH_GRAD_TOL:
            break
        step, accepted = 1.0, False
        while step > 1e-16:
            trial = np.clip(x - step * grad, lo, hi)
            trial_ep = evaluate(problem, trial, tol)
            if worst(trial_ep) <= allowed:
                trial_value = float(lam @ trial_ep.objective_values)
                if trial_value <= value + _ARMIJO * float(grad @ (trial - x)):
                    x, ep, value = trial, trial_ep, trial_value
                    allowed = worst(ep)
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
    return x


def reference_weighting(problem, w, grid_step, tol=DEFAULT_TOL):
    """(grid minimizers, minimizers, value) with per-start polish and the
    value re-evaluated at each kept minimizer."""
    lam = w.array
    nodes, values = _feasible_grid(problem, grid_step, tol)
    weighted = values @ lam
    grid_minimizers = nodes[weighted <= float(weighted.min()) + tol.value_tie]
    polished = [reference_polish(problem, lam, node, tol) for node in grid_minimizers]
    minimizers = _dedupe(polished, _CLUSTER_RADIUS)
    value = min(float(lam @ evaluate(problem, x, tol).objective_values) for x in minimizers)
    return grid_minimizers, minimizers, value


def assert_weighting_matches_reference(problem, w, grid_step):
    sol = solve_weighting(problem, w, grid_step)
    grid_minimizers, minimizers, value = reference_weighting(problem, w, grid_step)
    assert sol.grid_minimizers.tobytes() == grid_minimizers.tobytes()
    assert [x.tobytes() for x in sol.minimizers] == [x.tobytes() for x in minimizers]
    assert sol.value == value


# the benchmark's flat-1d settings (grid 1/128, weights 0.1); two-var-convex
# at a coarser grid, as its 513 x 513 nodes would lengthen the suite
@pytest.mark.parametrize("name", fixture_names())
def test_lockstep_polish_matches_per_start_reference(name):
    problem = fixture(name)
    step = 1 / 16 if problem.dimension == 2 else 1 / 128
    for w in simplex_weights(problem.n_objectives, 0.1):
        assert_weighting_matches_reference(problem, w, step)


@settings(max_examples=20, deadline=None)
@given(small_polynomial_problems(), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_lockstep_polish_matches_reference_on_random_polynomials(problem, w1):
    w = WeightVector((1.0 - w1, w1))
    try:
        _feasible_grid(problem, 0.25, DEFAULT_TOL)
    except EmptyFeasibleSetError:
        return
    assert_weighting_matches_reference(problem, w, 0.25)
