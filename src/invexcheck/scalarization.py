"""Weighted-sum scalarization with grid-scoped global optimality.

The weighting problem collapses the objective vector to a single score
``w·f(x)`` for a weight vector in the unit simplex, and is solved here by
exhaustive evaluation over the box grid followed by a projected-gradient
polish of every argmin node. Reports carry the grid step, and no claim is
made about the continuum between nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations_with_replacement

import numpy as np

from .problems import (
    Analysis,
    GridSampler,
    InfeasiblePointError,
    Problem,
    as_point,
    evaluate_many,
    use_analysis,
)
from .simplex import DEFAULT_TOL, DimensionMismatchError, ToleranceConfig

_ARMIJO = 1e-4
_POLISH_MAX_ITERS = 500
_POLISH_GRAD_TOL = 1e-8
_CLUSTER_RADIUS = 1e-6


class EmptyFeasibleSetError(ValueError):
    """No grid node satisfies the constraints at the given resolution."""


@dataclass(frozen=True)
class WeightVector:
    """A point of the unit simplex: entries ≧ 0 summing to one."""

    lam: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))
        arr = np.array(self.lam)
        if arr.size == 0:
            raise ValueError("weight vector cannot be empty")
        if np.min(arr) < -1e-12:
            raise ValueError(f"negative weight {np.min(arr)!r}")
        if abs(arr.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {arr.sum()!r}, expected 1")

    @classmethod
    def normalized(cls, values) -> "WeightVector":
        arr = np.asarray(values, dtype=float)
        total = arr.sum()
        if total <= 0 or np.min(arr) < 0:
            raise ValueError("weights must be nonnegative with positive sum")
        return cls(tuple(arr / total))

    @property
    def array(self) -> np.ndarray:
        return np.array(self.lam)


def simplex_weights(n: int, step: float = 0.1) -> tuple[WeightVector, ...]:
    """All weight vectors on the simplex lattice with the given spacing."""
    if n < 1:
        raise ValueError("need at least one objective")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    levels = int(round(1.0 / step))
    if abs(levels * step - 1.0) > 1e-9 or levels < 1:
        raise ValueError("step must divide 1 evenly")
    out = []
    for slots in combinations_with_replacement(range(n), levels):
        counts = np.bincount(slots, minlength=n)
        out.append(WeightVector(tuple(counts / levels)))
    return tuple(out)


def _feasible_grid(
    problem: Problem,
    grid_step: float,
    tol: ToleranceConfig,
    analysis: Analysis | None = None,
):
    """The feasible nodes of the grid and their objective values."""
    analysis = use_analysis(analysis, problem, tol)
    batch = analysis.batch(problem, GridSampler(float(grid_step)))
    if not np.any(batch.feasible):
        raise EmptyFeasibleSetError(
            f"no feasible node on the step-{grid_step:g} grid of {problem.name!r}"
        )
    return batch.x[batch.feasible], batch.objective_values[batch.feasible]


def _worst(constraint_values: np.ndarray) -> np.ndarray:
    """Per row: the largest constraint value, floored at zero (0 when m = 0)."""
    if constraint_values.shape[1] == 0:
        return np.zeros(len(constraint_values))
    return np.fmax(constraint_values.max(axis=1), 0.0)


def _polish(
    problem: Problem, lam: np.ndarray, starts: np.ndarray, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient descent on w·f from feasible grid nodes, in lockstep.

    Each start runs its own descent: at most 500 steps, each backtracking
    from step 1 by halves until an Armijo decrease. Trial points are
    clipped to the box, and a trial may never increase the worst constraint
    value beyond the current iterate's (floored at zero), so the polish
    cannot drift into the feasibility-tolerance band; the sharpening is
    best-effort and never claims more than the grid does. All starts still
    running share one batched evaluation per round of trials. Returns the
    polished points (K, s) and their values w·f.
    """
    lo, hi = problem.lower, problem.upper
    x = np.clip(starts.astype(float), lo, hi)
    batch = evaluate_many(problem, x, tol)
    value = np.array([float(lam @ f) for f in batch.objective_values])
    allowed = _worst(batch.constraint_values)
    grad = np.empty_like(x)
    step = np.ones(len(x))
    steps_taken = np.zeros(len(x), dtype=int)
    running = np.ones(len(x), dtype=bool)

    def descend(rows, jacobians) -> None:
        """New gradients at ``rows``; stop those that converged or ran out.

        Products and norms are taken one row at a time, with the calls a
        single start makes, so that every start rounds as it would alone.
        """
        for row, jac in zip(rows, jacobians):
            grad[row] = lam @ jac
        gap = x[rows] - np.clip(x[rows] - grad[rows], lo, hi)
        norms = np.array([math.sqrt(v @ v) for v in gap])  # np.linalg.norm
        done = (norms <= _POLISH_GRAD_TOL) | (steps_taken[rows] == _POLISH_MAX_ITERS)
        running[rows[done]] = False
        step[rows] = 1.0

    descend(np.arange(len(x)), batch.objective_jacobian)
    while running.any():
        rows = np.flatnonzero(running)
        trial = np.clip(x[rows] - step[rows, None] * grad[rows], lo, hi)
        batch = evaluate_many(problem, trial, tol)
        trial_value = np.array([float(lam @ f) for f in batch.objective_values])
        accept = _worst(batch.constraint_values) <= allowed[rows]
        for i, row in enumerate(rows):
            accept[i] &= trial_value[i] <= value[row] + _ARMIJO * float(
                grad[row] @ (trial[i] - x[row])
            )
        moved = rows[accept]
        x[moved], value[moved] = trial[accept], trial_value[accept]
        allowed[moved] = _worst(batch.constraint_values[accept])
        steps_taken[moved] += 1
        step[rows[~accept]] *= 0.5
        running[rows[~accept]] = step[rows[~accept]] > 1e-16
        descend(moved, batch.objective_jacobian[accept])
    return x, value


def _dedupe(points: list[np.ndarray], radius: float) -> list[np.ndarray]:
    """Greedy in input order: keep a point farther than ``radius`` from all kept."""
    kept: list[np.ndarray] = []
    stacked = np.empty((len(points), points[0].size))
    for pt in points:
        if np.all(np.linalg.norm(stacked[: len(kept)] - pt, axis=1) > radius):
            stacked[len(kept)] = pt
            kept.append(pt)
    return kept


@dataclass
class WeightingSolution:
    minimizers: list[np.ndarray]       # polished, deduplicated, grid order
    value: float
    grid_step: float
    grid_minimizers: np.ndarray        # argmin nodes before polishing, (k, s)


def solve_weighting(
    problem: Problem,
    w: WeightVector,
    grid_step: float,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    analysis: Analysis | None = None,
) -> WeightingSolution:
    """Minimize w·f over the feasible grid, then polish each argmin node."""
    lam = w.array
    if lam.size != problem.n_objectives:
        raise DimensionMismatchError(
            f"weight has {lam.size} entries for {problem.n_objectives} objectives"
        )
    nodes, values = _feasible_grid(problem, grid_step, tol, analysis)
    weighted = values @ lam
    best = float(weighted.min())
    tie = weighted <= best + tol.value_tie
    grid_minimizers = nodes[tie]
    points, values = _polish(problem, lam, grid_minimizers, tol)
    polished = list(points)
    minimizers = _dedupe(polished, _CLUSTER_RADIUS)
    kept = {id(x) for x in minimizers}
    value = min(float(v) for x, v in zip(polished, values) if id(x) in kept)
    return WeightingSolution(
        minimizers=minimizers,
        value=value,
        grid_step=float(grid_step),
        grid_minimizers=grid_minimizers,
    )


class Globality(Enum):
    UNIQUE_GLOBAL = "unique_global"
    GLOBAL = "global"
    NOT_GLOBAL = "not_global"


@dataclass
class GlobalityVerdict:
    globality: Globality
    value: float                       # w·f at the candidate
    witness: np.ndarray | None         # better node (NotGlobal) or distant tying node (Global)
    witness_value: float | None

    @property
    def is_global(self) -> bool:
        return self.globality is not Globality.NOT_GLOBAL


def is_global_weighting_solution(
    problem: Problem,
    w: WeightVector,
    x,
    grid_step: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> GlobalityVerdict:
    """Grade a feasible candidate against every feasible grid node.

    NotGlobal carries the best strictly-better node; Global (without
    uniqueness) carries a value-tying node farther than the cluster radius.
    """
    return grade_weighting_solutions(
        problem, (w,), as_point(problem, x)[None], grid_step, tol
    )[0]


def grade_weighting_solutions(
    problem: Problem,
    weights,
    points,
    grid_step: float,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    analysis: Analysis | None = None,
) -> tuple[GlobalityVerdict, ...]:
    """`is_global_weighting_solution` for each weight and row of ``points``
    (shape (K, s)), with one batched evaluation of the candidates.

    The weighted grid values ``values @ λ`` and their argmin are computed
    once per distinct weight (equal bytes), not once per candidate, and
    shared by every candidate graded against that weight.
    """
    batch = evaluate_many(problem, points, tol)
    infeasible = np.flatnonzero(~batch.feasible)
    if infeasible.size:
        raise InfeasiblePointError(
            "candidate violates constraints by "
            f"{batch.constraint_values[infeasible[0]].max():.3e}"
        )
    nodes, values = _feasible_grid(problem, grid_step, tol, analysis)
    weighted: dict[bytes, tuple[np.ndarray, int]] = {}
    verdicts = []
    for w, x, f in zip(weights, batch.x, batch.objective_values):
        lam = w.array
        key = lam.tobytes()
        if key not in weighted:
            grid_values = values @ lam
            weighted[key] = grid_values, int(np.argmin(grid_values))
        verdicts.append(_grade(lam, x, f, nodes, *weighted[key], tol))
    return tuple(verdicts)


def _grade(
    lam, x, f, nodes, weighted, best_idx, tol: ToleranceConfig
) -> GlobalityVerdict:
    """Grade one candidate, given the grid's weighted values and their argmin."""
    candidate_value = float(lam @ f)
    if weighted[best_idx] < candidate_value - tol.strict:
        return GlobalityVerdict(
            globality=Globality.NOT_GLOBAL,
            value=candidate_value,
            witness=nodes[best_idx],
            witness_value=float(weighted[best_idx]),
        )
    attaining = weighted <= candidate_value + tol.strict
    distances = np.linalg.norm(nodes[attaining] - x, axis=1)
    far = distances > _CLUSTER_RADIUS
    if np.any(far):
        where = np.flatnonzero(attaining)[far][0]
        return GlobalityVerdict(
            globality=Globality.GLOBAL,
            value=candidate_value,
            witness=nodes[where],
            witness_value=float(weighted[where]),
        )
    return GlobalityVerdict(
        globality=Globality.UNIQUE_GLOBAL,
        value=candidate_value,
        witness=None,
        witness_value=None,
    )


def _dominated(values: np.ndarray) -> np.ndarray:
    """dominated[i] = some row of ``values`` is strictly below row i in every column.

    One objective: a node is dominated iff it is above the minimum. Two
    objectives: the maxima scan of Kung, Luccio & Preparata (1975). Sorted
    by f₁, the nodes with f₁ strictly below a node's own form a prefix, found
    by ``searchsorted``, so equal f₁ never dominate each other; the node is
    dominated iff that prefix's running minimum of f₂ is below its own f₂.
    NaN compares false, as in the direct test: it never dominates and is
    never dominated. Three or more objectives (no bundled fixture has them)
    use a chunked all-pairs comparison.
    """
    count, n = values.shape
    if n == 1:
        return values[:, 0] > np.fmin.reduce(values[:, 0])
    if n == 2:
        f1, f2 = values[:, 0], values[:, 1]
        order = np.argsort(f1, kind="stable")
        below = np.searchsorted(f1[order], f1, side="left")
        prefix_min = np.fmin.accumulate(f2[order])
        dominated = np.zeros(count, dtype=bool)
        has_prefix = (below > 0) & ~np.isnan(f1)
        dominated[has_prefix] = prefix_min[below[has_prefix] - 1] < f2[has_prefix]
        return dominated
    dominated = np.zeros(count, dtype=bool)
    chunk = max(1, 2_000_000 // max(1, count))
    for lo_idx in range(0, count, chunk):
        block = values[lo_idx : lo_idx + chunk]           # (C, n)
        dominated[lo_idx : lo_idx + chunk] = np.any(
            np.all(values[:, None, :] < block[None, :, :], axis=2), axis=0
        )
    return dominated


def weakly_efficient_scan(
    problem: Problem,
    grid_step: float,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    analysis: Analysis | None = None,
) -> np.ndarray:
    """Feasible grid nodes not strictly dominated by any feasible grid node
    (a read-only array)."""
    nodes, values = _feasible_grid(problem, grid_step, tol, analysis)
    kept = nodes[~_dominated(values)]
    kept.flags.writeable = False
    return kept
