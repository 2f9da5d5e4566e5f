"""A constructive decider for Motzkin's theorem of the alternative.

`motzkin(A, B)` decides between the system {A x < 0, B x <= 0} and its
dual {A^T y + B^T z = 0, y >= 0, y != 0, z >= 0}; without B it is
Gordan's theorem, {A x < 0} versus {A^T y = 0, y >= 0, y != 0}. Exactly
one side holds, and the returned witness can be replayed by substitution.

The decision runs through one auxiliary LP: maximize delta subject to
A x + delta <= 0 (and B x <= 0), delta <= 1. Both systems are positively
homogeneous, so the optimum is essentially binary; a strictly positive
optimum yields the primal witness, otherwise the dual witness is read off
the auxiliary LP's optimal dual values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .problems import DEFAULT_TOL, DimensionMismatchError, ToleranceConfig
from .simplex import (
    ROW_LE,
    VAR_FREE,
    LpProblem,
    LpStatus,
    NumericalBreakdownError,
    solve_lp,
)


class AlternativeBranch(Enum):
    PRIMAL = "primal"
    DUAL = "dual"


@dataclass
class MotzkinOutcome:
    branch: AlternativeBranch
    primal_witness: np.ndarray | None
    dual_witness_y: np.ndarray | None
    dual_witness_z: np.ndarray | None
    strict_margin: float

    @property
    def primal_holds(self) -> bool:
        return self.branch is AlternativeBranch.PRIMAL


def _as_matrix(mat, label: str) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{label} must be a 2-D matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{label} must have finite entries")
    return arr


def motzkin(A, B=None, tol: ToleranceConfig = DEFAULT_TOL) -> MotzkinOutcome:
    """Decide {A x < 0, B x <= 0} versus its Motzkin dual; without B (None
    or empty) this is Gordan's {A x < 0} versus {A^T y = 0, y >= 0, y != 0}."""
    A = _as_matrix(A, "A")
    if A.shape[0] == 0 or A.shape[1] == 0:
        raise DimensionMismatchError("A must be nonempty")
    if B is None:
        B = np.zeros((0, A.shape[1]))
    else:
        B = _as_matrix(B, "B")
        if B.size == 0:
            B = B.reshape(0, A.shape[1])
        if B.shape[1] != A.shape[1]:
            raise DimensionMismatchError(
                f"B has {B.shape[1]} columns, expected {A.shape[1]}"
            )
    # the auxiliary LP: max delta s.t. Ax + delta e <= 0, Bx <= 0, delta <= 1
    p, q = A.shape
    r = B.shape[0]
    top = np.hstack([A, np.ones((p, 1))])
    mid = np.hstack([B, np.zeros((r, 1))])
    cap = np.zeros((1, q + 1))
    cap[0, q] = 1.0
    matrix = np.vstack([top, mid, cap])
    rhs = np.concatenate([np.zeros(p + r), [1.0]])
    objective = np.zeros(q + 1)
    objective[q] = -1.0  # maximize delta
    lp = LpProblem(
        objective=objective,
        constraint_matrix=matrix,
        rhs=rhs,
        row_kinds=(ROW_LE,) * (p + r + 1),
        variable_bounds=(VAR_FREE,) * (q + 1),
    )
    outcome = solve_lp(lp, tol)
    if outcome.status is not LpStatus.OPTIMAL:
        raise NumericalBreakdownError(f"auxiliary LP ended {outcome.status.value}")
    delta = -float(outcome.objective_value) + 0.0  # avoid -0.0
    # duals are <= 0 on <= rows of a minimization; flip to the y >= 0 scale
    y_aug = -outcome.dual_values
    if delta > tol.strict:
        return MotzkinOutcome(
            branch=AlternativeBranch.PRIMAL,
            primal_witness=outcome.primal_solution[:q],
            dual_witness_y=None,
            dual_witness_z=None,
            strict_margin=delta,
        )
    y = np.clip(y_aug[:p], 0.0, None)
    z = np.clip(y_aug[p : p + r], 0.0, None)
    total = float(np.sum(y))
    if total <= tol.strict:
        raise NumericalBreakdownError("degenerate dual weights in Motzkin decision")
    return MotzkinOutcome(
        branch=AlternativeBranch.DUAL,
        primal_witness=None,
        dual_witness_y=y / total,
        dual_witness_z=z / total,
        strict_margin=delta,
    )


def validate_motzkin(A, B, outcome: MotzkinOutcome, tol: ToleranceConfig = DEFAULT_TOL) -> list[str]:
    """Replay a Motzkin outcome's witness; returns found defects."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float) if B is not None else np.zeros((0, A.shape[1]))
    if B.size == 0:
        B = B.reshape(0, A.shape[1])
    problems: list[str] = []
    if outcome.primal_holds:
        w = outcome.primal_witness
        if np.max(A @ w) > -outcome.strict_margin + tol.duality_gap:
            problems.append("strict rows not satisfied with margin")
        if B.shape[0] and np.max(B @ w) > tol.duality_gap:
            problems.append("weak rows violated by primal witness")
        if outcome.strict_margin <= tol.strict:
            problems.append("primal branch with nonpositive margin")
    else:
        y = outcome.dual_witness_y
        z = outcome.dual_witness_z
        if np.min(y) < -tol.duality_gap:
            problems.append("dual y has a negative weight")
        if z.size and np.min(z) < -tol.duality_gap:
            problems.append("dual z has a negative weight")
        if abs(float(np.sum(y)) - 1.0) > tol.duality_gap:
            problems.append("dual y not normalized")
        combo = A.T @ y + (B.T @ z if z.size else 0.0)
        resid = float(np.max(np.abs(combo)))
        if resid > tol.duality_gap:
            problems.append(f"dual combination residual {resid:.3e}")
    return problems
