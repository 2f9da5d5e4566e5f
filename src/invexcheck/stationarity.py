"""Stationary-point detection via LP multiplier recovery.

A point is *vector critical* when some nonzero nonnegative weight vector
lies in the left null space of the objective jacobian; it is *KT stationary*
when the weighted objective gradients can be balanced by nonnegative
multipliers on the active constraint gradients. Both conditions are linear
feasibility questions, solved here with the in-house simplex so every
returned multiplier set carries an exactly replayable residual.

Grid scans solve those LPs only where 0 may lie in conv{∇fᵢ(x)}. With
one or two objectives the point p of that hull nearest to 0 has a closed
form, and −p is then a descent direction for every objective at once; a
node is ruled out without an LP when ‖p‖ > 100·tol.stationary·max(1,
max|Jf(x)|) (and min(1, ‖p‖) > 100·tol.feasibility, which the default
tolerances imply), since no simplex weight can then bring λ·Jf within
tolerance. KT scans apply this only at nodes with no active constraint.

At a node where every entry of Jf(x) is exactly 0 and no constraint is
active, with one or two objectives, the scan takes the result without an
LP: every simplex weight balances, the min-max weight is uniform, λ = 1/n
with residual 0, and the KT kind has no μ. The LP returns exactly these
bytes there. With three or more objectives it rounds its uniform weight
differently (for n = 3, (0x1.5555555555556p-2, 0x1.5555555555556p-2,
0x1.5555555555555p-2)), so such nodes keep the LP. Nodes with active
constraints, problems with three or more objectives and every other node
that survives the screen go to the LP, so scans find exactly the points
and multipliers the LP finds at every node.

Recovered multipliers are canonicalized to make scans reproducible:
weights are normalized to sum to one, the constraint multipliers minimize
their total first, and among the remaining solutions the largest weight
component is minimized (which yields uniform weights in degenerate cases
such as a vanishing jacobian).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .problems import (
    Analysis,
    EvaluatedPoint,
    GridSampler,
    InfeasiblePointError,
    PointBatch,
    Problem,
    use_analysis,
)
from .simplex import (
    DEFAULT_TOL,
    ROW_EQ,
    ROW_LE,
    VAR_NONNEG,
    LpProblem,
    LpStatus,
    NumericalBreakdownError,
    ToleranceConfig,
    solve_lp,
)


@dataclass(frozen=True)
class CriticalMultipliers:
    """Weights λ with λ ≧ 0, Σλ = 1, and λ·Jf(x) ≈ 0."""

    lam: np.ndarray
    residual: float


@dataclass(frozen=True)
class KtMultipliers:
    """Weights λ plus active-constraint multipliers μ balancing the gradients."""

    lam: np.ndarray
    mu: np.ndarray                  # aligned with active_indices
    active_indices: tuple[int, ...]
    residual: float


class StationaryKind(Enum):
    VECTOR = "vector"
    KT = "kt"


@dataclass(frozen=True)
class StationaryPoint:
    x: np.ndarray
    kind: StationaryKind
    multipliers: CriticalMultipliers | KtMultipliers


def multiplier_lp(
    ep: EvaluatedPoint, with_active: bool, objective: np.ndarray | None = None
) -> LpProblem:
    """min objective·v over Λ(x) = {λ ≧ 0, Σλ = 1, μ ≧ 0 : λᵀJf + μᵀJg_A = 0}.

    Variables are v = (λ, μ), with μ on the active constraints when
    ``with_active`` and empty otherwise; the objective defaults to zero.
    """
    n, s = ep.objective_jacobian.shape
    jac_active = ep.active_jacobian if with_active else np.zeros((0, s))
    r = jac_active.shape[0]
    eq = np.zeros((s + 1, n + r))
    eq[:s, :n] = ep.objective_jacobian.T
    eq[:s, n:] = jac_active.T
    eq[s, :n] = 1.0
    rhs = np.zeros(s + 1)
    rhs[s] = 1.0
    return LpProblem(
        objective=np.zeros(n + r) if objective is None else objective,
        constraint_matrix=eq,
        rhs=rhs,
        row_kinds=(ROW_EQ,) * (s + 1),
        variable_bounds=(VAR_NONNEG,) * (n + r),
    )


def _min_max_weight(
    system: LpProblem, n: int, pin: float | None, tol: ToleranceConfig
) -> np.ndarray | None:
    """Minimize max λ_i over ``system``'s rows, v = (λ, μ...) ≧ 0.

    Appends a fresh variable t with rows λ_i − t ≤ 0 and objective t; a
    ``pin`` adds the row objective·v ≤ pin, holding a previous stage's
    optimum. Returns the full variable vector v (without t), or None when
    infeasible.
    """
    rows_eq, cols = system.constraint_matrix.shape
    extra = 1 if pin is not None else 0
    total_rows = rows_eq + extra + n
    matrix = np.zeros((total_rows, cols + 1))
    rhs = np.zeros(total_rows)
    matrix[:rows_eq, :cols] = system.constraint_matrix
    rhs[:rows_eq] = system.rhs
    kinds = [ROW_EQ] * rows_eq
    at = rows_eq
    if pin is not None:
        matrix[at, :cols] = system.objective
        rhs[at] = pin
        kinds.append(ROW_LE)
        at += 1
    for i in range(n):
        matrix[at + i, i] = 1.0
        matrix[at + i, cols] = -1.0
        kinds.append(ROW_LE)
    objective = np.zeros(cols + 1)
    objective[cols] = 1.0
    lp = LpProblem(
        objective=objective,
        constraint_matrix=matrix,
        rhs=rhs,
        row_kinds=tuple(kinds),
        variable_bounds=(VAR_NONNEG,) * (cols + 1),
    )
    outcome = solve_lp(lp, tol)
    if outcome.status is LpStatus.INFEASIBLE:
        return None
    if outcome.status is not LpStatus.OPTIMAL:
        raise NumericalBreakdownError(
            f"multiplier recovery LP ended {outcome.status.value}"
        )
    return outcome.primal_solution[:cols]


def _canonical_weights(
    v: np.ndarray, ep: EvaluatedPoint, with_active: bool, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """(λ, μ, residual) from an LP solution v = (λ, μ): both clipped to ≧ 0,
    λ scaled to sum to one, and the stationarity residual checked.

    The check also rejects a NaN residual, which a λ block that the LP
    returned all zero leaves after the division.
    """
    n = ep.objective_jacobian.shape[0]
    lam = np.clip(v[:n], 0.0, None)
    mu = np.clip(v[n:], 0.0, None)
    with np.errstate(invalid="ignore"):
        lam /= lam.sum()
    combination = lam @ ep.objective_jacobian
    if with_active:
        combination = combination + mu @ ep.active_jacobian
    residual = float(np.max(np.abs(combination)))
    if not residual <= tol.stationary:
        raise NumericalBreakdownError(
            f"{'KT' if with_active else 'critical'} multiplier residual {residual:.3e} exceeds tolerance"
        )
    return lam, mu, residual


def critical_multipliers(
    ep: EvaluatedPoint, tol: ToleranceConfig = DEFAULT_TOL
) -> CriticalMultipliers | None:
    """Recover weights proving ``ep`` vector critical, or None."""
    n = ep.objective_jacobian.shape[0]
    v = _min_max_weight(multiplier_lp(ep, False), n, None, tol)
    if v is None:
        return None
    lam, _, residual = _canonical_weights(v, ep, False, tol)
    return CriticalMultipliers(lam=lam, residual=residual)


def kt_multipliers(
    ep: EvaluatedPoint, tol: ToleranceConfig = DEFAULT_TOL
) -> KtMultipliers | None:
    """Recover (λ, μ) proving ``ep`` KT stationary, or None.

    μ lives only on the active set (zero elsewhere by construction, so
    complementary slackness is automatic). Requires a feasible point.
    """
    if not ep.feasible:
        raise InfeasiblePointError(
            f"KT multipliers need a feasible point; max g = {ep.constraint_values.max():.3e}"
        )
    n = ep.objective_jacobian.shape[0]
    r = len(ep.active_indices)
    # stage 1: minimize total constraint multiplier subject to stationarity
    system = multiplier_lp(ep, True, np.concatenate([np.zeros(n), np.ones(r)]))
    outcome = solve_lp(system, tol)
    if outcome.status is LpStatus.INFEASIBLE:
        return None
    if outcome.status is not LpStatus.OPTIMAL:
        raise NumericalBreakdownError(
            f"KT stage-1 LP ended {outcome.status.value}"
        )
    # stage 2: among minimal-Σμ solutions, minimize the largest weight
    v = _min_max_weight(system, n, float(outcome.objective_value), tol)
    # the stage-1 optimum meets the pin, yet the simplex can misread stage 2:
    # None here, or an all-zero λ that `_canonical_weights` rejects
    if v is None:
        raise NumericalBreakdownError("KT stage-2 LP infeasible after stage 1")
    lam, mu, residual = _canonical_weights(v, ep, True, tol)
    return KtMultipliers(
        lam=lam, mu=mu, active_indices=ep.active_indices, residual=residual
    )


def _ruled_out(jacobians: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Nodes at which no simplex weight can make λ·Jf vanish, shape (N,).

    ``jacobians`` stacks Jf(x) per node, shape (N, n, s). For n ≤ 2 the
    point p of conv{∇fᵢ(x)} nearest to 0 has a closed form, and −p is a
    common descent direction: ∇fᵢ·p ≥ ‖p‖² for every i, so ‖λ·Jf‖ ≥ ‖p‖
    for every λ in the simplex. Phase 1 of the multiplier LP then ends at
    no less than min(1, ‖p‖) and reports the node infeasible. A node is
    ruled out only when ‖p‖ exceeds 100·tol.stationary·max(1, max|Jf|)
    and min(1, ‖p‖) exceeds 100·tol.feasibility (implied by the first at
    the default tolerances), so rounding cannot flip the LP's answer. For
    n ≥ 3 nothing is ruled out.
    """
    count, n, _ = jacobians.shape
    if n == 1:
        nearest = jacobians[:, 0]
    elif n == 2:
        g1 = jacobians[:, 0]
        edge = jacobians[:, 1] - g1
        length2 = np.einsum("ij,ij->i", edge, edge)
        t = np.divide(
            -np.einsum("ij,ij->i", g1, edge),
            length2,
            out=np.zeros(count),
            where=length2 > 0,
        )
        nearest = g1 + np.clip(t, 0.0, 1.0)[:, None] * edge
    else:
        return np.zeros(count, dtype=bool)
    distance = np.linalg.norm(nearest, axis=1)
    scale = np.maximum(1.0, np.abs(jacobians).max(axis=(1, 2)))
    return (distance > 100.0 * tol.stationary * scale) & (
        np.minimum(distance, 1.0) > 100.0 * tol.feasibility
    )


def _scan(
    batch: PointBatch, kind: StationaryKind, tol: ToleranceConfig
) -> tuple[StationaryPoint, ...]:
    """The stationary points of ``kind`` among the rows of a grid batch."""
    rows = np.arange(len(batch.x))
    if kind is StationaryKind.KT:
        rows = rows[batch.feasible]
    if not rows.size:
        return ()
    # active constraint gradients can balance a descent direction; the
    # vector scan's problem has no constraints, hence no active set
    jacobians = batch.objective_jacobian[rows]
    inactive = ~batch.active[rows].any(axis=1)
    ruled_out = _ruled_out(jacobians, tol) & inactive
    n = batch.problem.n_objectives
    flat = inactive & (n <= 2) & ~jacobians.any(axis=(1, 2))
    found: list[StationaryPoint] = []
    for row, closed_form in zip(rows[~ruled_out], flat[~ruled_out]):
        x = batch.x[row]
        if closed_form:
            # the LP's answer at a flat node, bit for bit (module docstring)
            lam = np.full(n, 1.0 / n)
            lam /= lam.sum()
            if kind is StationaryKind.KT:
                mult = KtMultipliers(
                    lam=lam, mu=np.empty(0), active_indices=(), residual=0.0
                )
            else:
                mult = CriticalMultipliers(lam=lam, residual=0.0)
        elif kind is StationaryKind.KT:
            mult = kt_multipliers(batch.point(row), tol)
        else:
            mult = critical_multipliers(batch.point(row), tol)
        if mult is not None:
            # shared by every caller of one analysis: hand out read-only arrays
            mu = (mult.mu,) if kind is StationaryKind.KT else ()
            for array in (mult.lam, *mu):
                array.flags.writeable = False
            found.append(StationaryPoint(x=x, kind=kind, multipliers=mult))
    return tuple(found)


def scan_critical_points(
    problem: Problem,
    grid_step: float,
    kind: StationaryKind,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    analysis: Analysis | None = None,
) -> tuple[StationaryPoint, ...]:
    """Every grid node (feasible, for the KT kind) with recoverable multipliers.

    The vector-critical scan ignores constraints by definition, so the
    problem is normalized to its unconstrained form first. Calls sharing
    an ``analysis`` share its grid evaluation and return the same points.
    """
    analysis = use_analysis(analysis, problem, tol)
    if kind is StationaryKind.VECTOR:
        problem = analysis.unconstrained
    grid = GridSampler(float(grid_step))
    return analysis.result(
        ("scan", problem, grid, kind),
        lambda: _scan(analysis.batch(problem, grid), kind, tol),
    )
