"""Multiobjective problem model: boxes, evaluation, fixtures, and the
tolerances and invexity kinds that every other module shares.

A problem minimizes a vector of objectives over a closed box, subject to
inequality constraints ``g_j(x) <= 0``. Everything downstream (stationarity
scans, weighting runs, invexity certifiers) consumes the `PointBatch` and
`EvaluatedPoint` bundles produced here, so this module is the single place
where expressions are parsed and differentiated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .expressions import Expr, forward, parse

#: Half-width of the tolerance band around box edges when checking membership,
#: and the inset used when drawing random samples from the box interior.
BOX_EDGE_SLACK = 1e-9

#: Largest number of nodes `grid_points` builds.
MAX_GRID_NODES = 10**7


class DimensionMismatchError(ValueError):
    """Shapes of the problem pieces do not line up."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric thresholds shared across the package.

    pivot: entries smaller than this are treated as zero during pivoting.
    feasibility: constraint violation allowed for a point to count as feasible.
    duality_gap: allowed |primal - dual| objective gap at optimality.
    strict: margin below which a strict-inequality system is considered
        unsatisfied (alternative theorems).
    active: |g_j(x)| threshold for a constraint to count as active.
    stationary: allowed residual of multiplier stationarity conditions.
    value_tie: objective-value difference under which two points are
        considered to attain the same value on a grid.
    max_pivots: pivots one `solve_lp` call may take before it gives up.
    degeneracy_streak: pivots in a row without objective movement after
        which min-ratio ties are broken lexicographically, which rules out
        cycling, instead of by the lowest basis index.
    """

    pivot: float = 1e-9
    feasibility: float = 1e-8
    duality_gap: float = 1e-7
    strict: float = 1e-7
    active: float = 1e-7
    stationary: float = 1e-7
    value_tie: float = 1e-9
    max_pivots: int = 10_000
    degeneracy_streak: int = 10

    def __post_init__(self) -> None:
        # a NaN threshold makes every comparison false and so every check pass
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, int):
                if not value >= 1:
                    raise ValueError(f"{f.name} must be at least 1, got {value!r}")
            elif not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"tolerance {f.name} must be finite and nonnegative, got {value!r}"
                )


DEFAULT_TOL = ToleranceConfig()


def tolerances_to_dict(tol: ToleranceConfig) -> dict:
    return {f.name: getattr(tol, f.name) for f in fields(tol)}


def tolerances_from_dict(data: dict) -> ToleranceConfig:
    return ToleranceConfig(**data)


class InvexityKind(Enum):
    INVEX = "invex"
    STRICT_INVEX = "strict-invex"
    KT_INVEX = "kt-invex"
    STRICT_KT_INVEX = "strict-kt-invex"

    @property
    def is_strict(self) -> bool:
        return self in (InvexityKind.STRICT_INVEX, InvexityKind.STRICT_KT_INVEX)

    @property
    def is_kt(self) -> bool:
        return self in (InvexityKind.KT_INVEX, InvexityKind.STRICT_KT_INVEX)


class OutOfBoxError(ValueError):
    """A point lies outside the problem's box (beyond the edge slack)."""


class InfeasiblePointError(ValueError):
    """An operation that requires ``g(x) <= 0`` received an infeasible point."""


class UnknownFixtureError(KeyError):
    """Requested fixture name is not registered."""


@dataclass(frozen=True)
class Problem:
    """Immutable problem description; expression fields hold source text."""

    name: str
    variables: tuple[str, ...]
    objectives: tuple[str, ...]
    constraints: tuple[str, ...]
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "objectives", tuple(self.objectives))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(
            self, "box", tuple((float(lo), float(hi)) for lo, hi in self.box)
        )
        if not self.variables:
            raise ValueError("problem needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        if not self.objectives:
            raise ValueError("problem needs at least one objective")
        if len(self.box) != len(self.variables):
            raise DimensionMismatchError(
                f"box has {len(self.box)} intervals for {len(self.variables)} variables"
            )
        for lo, hi in self.box:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"box interval [{lo}, {hi}] is not a proper interval")
        # parse eagerly so construction fails fast on bad expressions
        self.objective_asts
        self.constraint_asts

    @cached_property
    def objective_asts(self) -> tuple[Expr, ...]:
        return tuple(parse(text, self.variables) for text in self.objectives)

    @cached_property
    def constraint_asts(self) -> tuple[Expr, ...]:
        return tuple(parse(text, self.variables) for text in self.constraints)

    @property
    def dimension(self) -> int:
        return len(self.variables)

    @property
    def n_objectives(self) -> int:
        return len(self.objectives)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    @property
    def lower(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.box])

    @property
    def upper(self) -> np.ndarray:
        return np.array([hi for _, hi in self.box])


@dataclass
class EvaluatedPoint:
    """Values, gradients, and the active set of one problem at one point."""

    problem: Problem
    x: np.ndarray
    objective_values: np.ndarray      # shape (n,)
    objective_jacobian: np.ndarray    # shape (n, s), row i = gradient of objective i
    constraint_values: np.ndarray     # shape (m,)
    constraint_jacobian: np.ndarray   # shape (m, s)
    active_indices: tuple[int, ...]   # j with |g_j(x)| <= tol.active
    feasible: bool                    # all g_j(x) <= tol.feasibility

    @property
    def active_jacobian(self) -> np.ndarray:
        """Rows of the constraint jacobian for the active constraints."""
        if not self.active_indices:
            return np.zeros((0, self.x.size))
        return self.constraint_jacobian[list(self.active_indices)]


@dataclass(frozen=True)
class PointBatch:
    """Values, Jacobians, feasibility and active sets of one problem at N points."""

    problem: Problem
    x: np.ndarray                     # shape (N, s)
    objective_values: np.ndarray      # shape (N, n)
    objective_jacobian: np.ndarray    # shape (N, n, s)
    constraint_values: np.ndarray     # shape (N, m)
    constraint_jacobian: np.ndarray   # shape (N, m, s)
    active: np.ndarray                # shape (N, m): |g_j(x)| <= tol.active
    feasible: np.ndarray              # shape (N,): all g_j(x) <= tol.feasibility

    def point(self, i: int) -> EvaluatedPoint:
        """Row ``i`` as an EvaluatedPoint whose arrays are views of the batch's."""
        return EvaluatedPoint(
            problem=self.problem,
            x=self.x[i],
            objective_values=self.objective_values[i],
            objective_jacobian=self.objective_jacobian[i],
            constraint_values=self.constraint_values[i],
            constraint_jacobian=self.constraint_jacobian[i],
            active_indices=tuple(int(j) for j in np.flatnonzero(self.active[i])),
            feasible=bool(self.feasible[i]),
        )


def as_point(problem: Problem, x) -> np.ndarray:
    """``x`` as a float array of shape (dimension,)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (problem.dimension,):
        raise DimensionMismatchError(
            f"point has shape {x.shape}, expected ({problem.dimension},)"
        )
    return x


def box_violations(problem: Problem, points: np.ndarray) -> dict[int, str]:
    """The OutOfBoxError message of each row of ``points`` (shape
    (N, dimension)) that leaves the box by more than the edge slack, by row."""
    outside = (points < problem.lower - BOX_EDGE_SLACK) | (points > problem.upper + BOX_EDGE_SLACK)
    messages = {}
    for row in np.flatnonzero(outside.any(axis=1)).tolist():
        i = int(np.flatnonzero(outside[row])[0])
        lo, hi = problem.box[i]
        messages[row] = f"{problem.variables[i]} = {points[row, i]:.6g} outside [{lo:g}, {hi:g}]"
    return messages


def evaluate_many(
    problem: Problem, points, tol: ToleranceConfig = DEFAULT_TOL
) -> PointBatch:
    """Evaluate all objectives and constraints with gradients at each row of
    ``points`` (shape (N, dimension)) in one batched pass.

    Raises what a loop of `evaluate` over the rows raises first: an
    OutOfBoxError when a point leaves the box by more than the edge slack,
    or the DomainError of expression evaluation.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] != problem.dimension:
        raise DimensionMismatchError(
            f"points have shape {x.shape}, expected (N, {problem.dimension})"
        )
    asts = problem.objective_asts + problem.constraint_asts
    outside = box_violations(problem, x)
    if outside:
        row = min(outside)
        forward(asts, x[:row])  # a DomainError at an earlier point comes first
        raise OutOfBoxError(outside[row])
    values, jacobian = forward(asts, x)
    n = problem.n_objectives
    g = np.ascontiguousarray(values[:, n:])
    return PointBatch(
        problem=problem,
        x=x,
        objective_values=np.ascontiguousarray(values[:, :n]),
        objective_jacobian=np.ascontiguousarray(jacobian[:, :n]),
        constraint_values=g,
        constraint_jacobian=np.ascontiguousarray(jacobian[:, n:]),
        active=np.abs(g) <= tol.active,
        feasible=np.all(g <= tol.feasibility, axis=1),
    )


def evaluate(
    problem: Problem, x, tol: ToleranceConfig = DEFAULT_TOL
) -> EvaluatedPoint:
    """Evaluate all objectives and constraints with gradients at ``x``.

    Raises OutOfBoxError when ``x`` leaves the box by more than the edge
    slack, and propagates DomainError from expression evaluation.
    """
    return evaluate_many(problem, as_point(problem, x)[None], tol).point(0)


def _axis_count(lo: float, hi: float, step: float) -> tuple[int, bool]:
    """How many nodes lo + k * step lie in [lo, hi], and whether the last is ``hi``."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"grid step must be a positive finite number, got {step:g}")
    span = (hi - lo) / step + 1e-9
    if not math.isfinite(span):
        raise ValueError(f"grid step {step:g} is too small for the box")
    count = math.floor(span) + 1
    return count, abs(lo + (count - 1) * step - hi) <= 1e-9 * max(1.0, abs(hi))


def axis_nodes(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive grid nodes along one axis; ``hi`` is appended if not hit."""
    count, hits = _axis_count(lo, hi, step)
    if hits:
        return np.linspace(lo, hi, count)
    nodes = lo + step * np.arange(count)
    return np.append(nodes, hi)


def grid_points(problem: Problem, step: float) -> np.ndarray:
    """All box grid nodes as an array of shape (count, dimension).

    Nodes vary fastest in the last coordinate, so output order is
    lexicographic and deterministic. A grid of more than `MAX_GRID_NODES`
    nodes raises ValueError before anything is allocated.
    """
    counts = [_axis_count(lo, hi, step) for lo, hi in problem.box]
    total = math.prod(count + (not hits) for count, hits in counts)
    if total > MAX_GRID_NODES:
        raise ValueError(
            f"grid step {step:g} gives {total} nodes, more than the limit of {MAX_GRID_NODES}"
        )
    axes = [axis_nodes(lo, hi, step) for lo, hi in problem.box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def random_points(problem: Problem, count: int, seed: int) -> np.ndarray:
    """Uniform samples from the box interior (inset by the edge slack)."""
    if count <= 0:
        raise ValueError("sample count must be positive")
    rng = np.random.default_rng(seed)
    lo = problem.lower + BOX_EDGE_SLACK
    hi = problem.upper - BOX_EDGE_SLACK
    return rng.uniform(lo, hi, size=(count, problem.dimension))


@dataclass(frozen=True)
class GridSampler:
    step: float

    def points(self, problem: Problem) -> np.ndarray:
        return grid_points(problem, self.step)

    def describe(self) -> str:
        return f"grid(step={self.step:g})"


@dataclass(frozen=True)
class RandomSampler:
    count: int
    seed: int

    def points(self, problem: Problem) -> np.ndarray:
        return random_points(problem, self.count, self.seed)

    def describe(self) -> str:
        return f"random(count={self.count}, seed={self.seed})"


class Analysis:
    """The work one run shares between its stages, for one problem and tol.

    It evaluates each point set once per problem variant (the problem and
    its unconstrained form) into a read-only `PointBatch`, and keeps each
    stage's result, so a stage asked twice returns the same object. The
    library functions take one as the keyword ``analysis``; without it,
    each call builds its own and shares nothing with other calls.
    Instances compare and hash by identity.
    """

    def __init__(self, problem: Problem, tol: ToleranceConfig = DEFAULT_TOL):
        self.problem = problem
        self.tol = tol
        self._batches: dict = {}
        self._results: dict = {}

    @cached_property
    def unconstrained(self) -> Problem:
        """The variant that the vector scan and the non-KT kinds read."""
        return without_constraints(self.problem)

    def batch(self, problem: Problem, sampler: GridSampler | RandomSampler) -> PointBatch:
        """The sampler's points of ``problem`` (a variant), evaluated once."""
        key = (problem, sampler)
        if key not in self._batches:
            batch = evaluate_many(problem, sampler.points(problem), self.tol)
            for array in vars(batch).values():
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
            self._batches[key] = batch
        return self._batches[key]

    def result(self, key: tuple, compute):
        """The stage result stored under ``key``, from ``compute()`` on first use."""
        if key not in self._results:
            self._results[key] = compute()
        return self._results[key]


def use_analysis(
    analysis: Analysis | None, problem: Problem, tol: ToleranceConfig
) -> Analysis:
    """``analysis``, or a new one when it is None, for a call on ``problem``.

    Raises ValueError unless ``problem`` is the analysis's problem or its
    unconstrained form, and ``tol`` is its tolerance.
    """
    if analysis is None:
        return Analysis(problem, tol)
    if problem not in (analysis.problem, analysis.unconstrained) or tol != analysis.tol:
        raise ValueError(
            f"the analysis of {analysis.problem.name!r} does not cover a call "
            f"on {problem.name!r} at these tolerances"
        )
    return analysis


def _fixture_table() -> dict[str, Problem]:
    ramp_sq = "piecewise(x > 1: (x - 1)^2; x < -1: (x + 1)^2; 0)"
    ramp_qt = "piecewise(x > 1: (x - 1)^4; x < -1: (x + 1)^4; 0)"
    table = [
        Problem(
            name="paper-example-2.1",
            variables=("x",),
            objectives=(ramp_sq, ramp_qt),
            constraints=(),
            box=((-3.0, 3.0),),
        ),
        Problem(
            name="cube",
            variables=("x",),
            objectives=("x^3",),
            constraints=(),
            box=((-2.0, 2.0),),
        ),
        Problem(
            name="convex-pair",
            variables=("x",),
            objectives=("x^2", "(x - 1)^2"),
            constraints=(),
            box=((-2.0, 3.0),),
        ),
        Problem(
            name="kt-linear-quad",
            variables=("x",),
            objectives=("x", "x^2"),
            constraints=("-x",),
            box=((-2.0, 2.0),),
        ),
        Problem(
            name="two-var-convex",
            variables=("x1", "x2"),
            objectives=("x1^2 + x2^2", "(x1 - 1)^2 + x2^2"),
            constraints=("x1 + x2 - 2",),
            box=((-2.0, 2.0), (-2.0, 2.0)),
        ),
    ]
    return {p.name: p for p in table}


_FIXTURES = _fixture_table()


def fixture(name: str) -> Problem:
    """Look up a built-in problem by name; see `fixture_names`."""
    try:
        return _FIXTURES[name]
    except KeyError:
        raise UnknownFixtureError(
            f"unknown fixture {name!r}; known: {', '.join(fixture_names())}"
        ) from None


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


def without_constraints(problem: Problem) -> Problem:
    """The same problem with its constraints dropped (no-op when m = 0)."""
    if problem.constraints:
        return replace(problem, constraints=())
    return problem


def problem_from_dict(data: dict) -> Problem:
    """Build a Problem from the JSON problem-file object."""
    if not isinstance(data, dict):
        raise ValueError("problem file must contain a JSON object")
    required = ("name", "variables", "objectives", "box")
    for key in required:
        if key not in data:
            raise ValueError(f"problem file missing required key {key!r}")
    if not isinstance(data["name"], str):
        raise ValueError('"name" must be a string')
    data = {"constraints": [], **data}
    for key in ("variables", "objectives", "constraints"):
        if not isinstance(data[key], list) or not all(isinstance(e, str) for e in data[key]):
            raise ValueError(f'"{key}" must be an array of strings')
    box = data["box"]
    if not isinstance(box, list) or any(
        not isinstance(iv, list) or len(iv) != 2
        or not all(
            isinstance(end, (int, float)) and not isinstance(end, bool) for end in iv
        )
        for iv in box
    ):
        raise ValueError('"box" must be a list of [lo, hi] pairs')
    return Problem(**{key: data[key] for key in (*required, "constraints")})


def read_json(path: str):
    """The JSON value in the file at ``path``.

    An unreadable file raises OSError; malformed JSON raises ValueError
    naming the byte offset of the error.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        at = len(raw[: exc.pos].encode("utf-8"))  # exc.pos counts characters
        raise ValueError(f"{path}: invalid JSON at byte {at}: {exc.msg}") from None


def load_problem(path: str) -> Problem:
    """Read a problem JSON file (`read_json`); the CLI resolves fixture names."""
    return problem_from_dict(read_json(path))


def problem_to_dict(problem: Problem) -> dict:
    return {
        "name": problem.name,
        "variables": list(problem.variables),
        "objectives": list(problem.objectives),
        "constraints": list(problem.constraints),
        "box": [[lo, hi] for lo, hi in problem.box],
    }
