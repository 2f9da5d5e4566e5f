"""Problem model: fixtures, evaluation, sampling, (de)serialization."""

import json

import numpy as np
import pytest

from invexcheck import problems
from invexcheck.problems import (
    OutOfBoxError,
    Problem,
    UnknownFixtureError,
    evaluate,
    fixture,
    fixture_names,
    grid_points,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    random_points,
    without_constraints,
)

FIXTURES = (
    "convex-pair",
    "cube",
    "kt-linear-quad",
    "paper-example-2.1",
    "two-var-convex",
)


def test_fixture_registry():
    assert fixture_names() == FIXTURES
    with pytest.raises(UnknownFixtureError):
        fixture("nope")


def test_piecewise_fixture_values_and_jacobian():
    p = fixture("paper-example-2.1")
    for x, f, jac in [
        (2.0, (1.0, 1.0), (2.0, 4.0)),
        (-2.0, (1.0, 1.0), (-2.0, -4.0)),
        (0.0, (0.0, 0.0), (0.0, 0.0)),
        (1.0, (0.0, 0.0), (0.0, 0.0)),
        (1.5, (0.25, 0.0625), (1.0, 0.5)),
    ]:
        ep = evaluate(p, [x])
        assert ep.objective_values == pytest.approx(f)
        assert ep.objective_jacobian[:, 0] == pytest.approx(jac)


def test_constrained_fixture_evaluation():
    p = fixture("two-var-convex")
    ep = evaluate(p, [1.0, 1.0])
    assert ep.objective_values == pytest.approx([2.0, 1.0])
    assert ep.constraint_values == pytest.approx([0.0])
    assert ep.active_indices == (0,)
    assert ep.feasible
    assert np.allclose(ep.constraint_jacobian, [[1.0, 1.0]])
    assert ep.active_jacobian.shape == (1, 2)

    ep = evaluate(p, [0.0, 0.0])
    assert ep.active_indices == ()
    assert ep.feasible

    ep = evaluate(p, [1.5, 1.0])
    assert not ep.feasible


def test_evaluate_rejects_points_outside_box():
    p = fixture("cube")
    with pytest.raises(OutOfBoxError):
        evaluate(p, [2.5])
    # a hair beyond the edge is tolerated (grid arithmetic lands there)
    ep = evaluate(p, [2.0 + 1e-10])
    assert ep.objective_values[0] == pytest.approx(8.0)
    from invexcheck.simplex import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        evaluate(p, [1.0, 1.0])


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem("bad", ("x",), (), (), ((-1.0, 1.0),))  # no objectives
    with pytest.raises(ValueError):
        Problem("bad", ("x",), ("x",), (), ((1.0, -1.0),))  # inverted box
    with pytest.raises(ValueError):
        Problem("bad", ("x", "x"), ("x",), (), ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        Problem("bad", ("x",), ("y + 1",), (), ((-1.0, 1.0),))  # unknown var


def test_grid_points_counts_and_endpoints():
    p = fixture("cube")
    pts = grid_points(p, 0.5)
    assert pts.shape == (9, 1)
    assert pts[0, 0] == -2.0 and pts[-1, 0] == 2.0

    # a step that does not divide the box still reaches the upper edge
    pts = grid_points(p, 0.3)
    assert pts[-1, 0] == 2.0
    assert np.all(np.diff(pts[:, 0]) > 0)

    p2 = fixture("two-var-convex")
    pts = grid_points(p2, 1.0)
    assert pts.shape == (25, 2)
    # lexicographic: first coordinate varies slowest
    assert pts[0] == pytest.approx([-2.0, -2.0])
    assert pts[1] == pytest.approx([-2.0, -1.0])


def test_grid_points_refuses_oversized_grid_before_allocating(monkeypatch):
    def no_mesh(*args, **kwargs):
        raise AssertionError("grid allocated")

    p = fixture("two-var-convex")
    monkeypatch.setattr(np, "meshgrid", no_mesh)
    with pytest.raises(ValueError, match="grid step 1e-05 gives 160000800001 nodes"):
        grid_points(p, 1e-5)
    with pytest.raises(ValueError, match="too small"):
        grid_points(p, 1e-320)
    for step in ("inf", "nan"):
        with pytest.raises(ValueError, match=f"positive finite number, got {step}"):
            grid_points(p, float(step))
    monkeypatch.undo()
    # the limit counts the appended upper edge: 0.3 gives 15 nodes per axis
    monkeypatch.setattr(problems, "MAX_GRID_NODES", 225)
    assert grid_points(p, 0.3).shape == (225, 2)
    monkeypatch.setattr(problems, "MAX_GRID_NODES", 224)
    with pytest.raises(ValueError, match="225 nodes"):
        grid_points(p, 0.3)


def test_random_points_deterministic_and_inside():
    p = fixture("two-var-convex")
    a = random_points(p, 100, seed=7)
    b = random_points(p, 100, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, random_points(p, 100, seed=8))
    assert a.shape == (100, 2)
    assert np.all(a >= -2.0) and np.all(a <= 2.0)


def test_without_constraints():
    p = fixture("kt-linear-quad")
    q = without_constraints(p)
    assert q.constraints == ()
    assert q.objectives == p.objectives
    assert without_constraints(q) is q  # no-op shares the instance


_PROBLEM = {"name": "p", "variables": ["x", "y"], "objectives": ["x"],
            "box": [[0.0, 1.0], [0.0, 1.0]]}


def test_problem_dict_round_trip():
    for name in FIXTURES:
        p = fixture(name)
        again = problem_from_dict(problem_to_dict(p))
        assert again == p
    assert problem_from_dict(_PROBLEM).constraints == ()  # constraints may be absent


@pytest.mark.parametrize(
    "data,match",
    [
        ([1, 2], "JSON object"),
        ({k: v for k, v in _PROBLEM.items() if k != "box"}, "'box'"),
        ({**_PROBLEM, "box": [[0.0]]}, '"box"'),
        ({**_PROBLEM, "box": [[None, 1.0], [0.0, 1.0]]}, '"box"'),
        ({**_PROBLEM, "box": [[False, True], [0.0, 1.0]]}, '"box"'),
        ({**_PROBLEM, "name": 7}, '"name"'),
        ({**_PROBLEM, "variables": 5}, '"variables"'),
        ({**_PROBLEM, "variables": "xy"}, '"variables"'),
        ({**_PROBLEM, "objectives": ["x", 1]}, '"objectives"'),
        ({**_PROBLEM, "constraints": None}, '"constraints"'),
        ({**_PROBLEM, "constraints": "x"}, '"constraints"'),
    ],
)
def test_problem_from_dict_validation(data, match):
    with pytest.raises(ValueError, match=match):
        problem_from_dict(data)


def test_load_problem(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        json.dumps(
            {
                "name": "toy",
                "variables": ["x"],
                "objectives": ["x^2"],
                "constraints": ["-x"],
                "box": [[-1, 1]],
            }
        )
    )
    p = load_problem(str(path))
    assert p.name == "toy"
    assert p.n_constraints == 1
    assert evaluate(p, [0.5]).feasible
