"""Dense two-phase simplex solver with replayable certificates.

Every outcome carries evidence that can be checked by direct substitution:
optimal solutions come with dual values (strong duality), infeasible problems
with a Farkas vector, unbounded problems with a feasible point and a ray.
The solver is deterministic: identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .problems import DEFAULT_TOL, DimensionMismatchError, ToleranceConfig

ROW_LE = "<="
ROW_EQ = "="
VAR_NONNEG = "nonneg"
VAR_FREE = "free"


class NumericalBreakdownError(RuntimeError):
    """Pivoting could not continue reliably (tiny pivots or iteration cap)."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpProblem:
    """min objective @ x  subject to rows of constraint_matrix {<=,=} rhs.

    row_kinds entries are ROW_LE or ROW_EQ; variable_bounds entries are
    VAR_NONNEG (x_j >= 0) or VAR_FREE.
    """

    objective: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray
    row_kinds: tuple[str, ...]
    variable_bounds: tuple[str, ...]

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float).reshape(-1)
        self.constraint_matrix = np.asarray(self.constraint_matrix, dtype=float)
        if self.constraint_matrix.ndim != 2:
            raise DimensionMismatchError("constraint matrix must be 2-D")
        self.rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        self.row_kinds = tuple(self.row_kinds)
        self.variable_bounds = tuple(self.variable_bounds)
        m, n = self.constraint_matrix.shape
        if self.objective.shape[0] != n:
            raise DimensionMismatchError(
                f"objective has {self.objective.shape[0]} entries, matrix has {n} columns"
            )
        if self.rhs.shape[0] != m:
            raise DimensionMismatchError(f"rhs has {self.rhs.shape[0]} entries, matrix has {m} rows")
        if len(self.row_kinds) != m:
            raise DimensionMismatchError("row_kinds length does not match row count")
        if len(self.variable_bounds) != n:
            raise DimensionMismatchError("variable_bounds length does not match column count")
        for kind in self.row_kinds:
            if kind not in (ROW_LE, ROW_EQ):
                raise ValueError(f"unknown row kind {kind!r}")
        for bound in self.variable_bounds:
            if bound not in (VAR_NONNEG, VAR_FREE):
                raise ValueError(f"unknown variable bound {bound!r}")
        if not (
            np.all(np.isfinite(self.objective))
            and np.all(np.isfinite(self.constraint_matrix))
            and np.all(np.isfinite(self.rhs))
        ):
            raise ValueError("LP data must be finite")

    @property
    def shape(self) -> tuple[int, int]:
        return self.constraint_matrix.shape


@dataclass
class LpOutcome:
    status: LpStatus
    primal_solution: np.ndarray | None = None
    objective_value: float | None = None
    dual_values: np.ndarray | None = None
    farkas_certificate: np.ndarray | None = None
    ray: np.ndarray | None = None


class _Standardized:
    """Equality standard form: A z = b, z >= 0, b >= 0, with bookkeeping.

    Columns are, in order: the original variables (a free variable j is split
    into plus[j] and minus[j] = plus[j] + 1), one slack per <= row, and one
    artificial per row that has no slack in the starting basis. Artificials
    are the trailing columns, from `n_structural` on.
    """

    def __init__(self, lp: LpProblem):
        m, n = lp.shape
        A = lp.constraint_matrix
        free = np.array([b == VAR_FREE for b in lp.variable_bounds], dtype=bool)
        le_rows = np.flatnonzero([kind == ROW_LE for kind in lp.row_kinds])
        negative = lp.rhs < 0.0
        self.free = free
        self.plus = np.arange(n) + np.cumsum(free) - free
        self.minus = minus = self.plus[free] + 1
        n_split = n + minus.size
        self.n_structural = n_split + le_rows.size
        # artificial basis: reuse slack columns where they already form identity
        basis = np.full(m, -1)
        basis[le_rows] = n_split + np.arange(le_rows.size)
        basis[negative] = -1
        art_rows = np.flatnonzero(basis < 0)
        basis[art_rows] = self.n_structural + np.arange(art_rows.size)
        matrix = np.zeros((m, self.n_structural + art_rows.size))
        matrix[:, self.plus] = A
        matrix[:, minus] = -A[:, free]
        matrix[le_rows, n_split + np.arange(le_rows.size)] = 1.0
        matrix[negative, : self.n_structural] *= -1.0
        matrix[art_rows, basis[art_rows]] = 1.0
        self.matrix = matrix
        self.rhs = np.where(negative, -lp.rhs, lp.rhs)
        self.sigma = np.where(negative, -1.0, 1.0)
        self.costs = np.zeros(matrix.shape[1])
        self.costs[self.plus] = lp.objective
        self.costs[minus] = -lp.objective[free]
        self.basis = basis

    def merge(self, z: np.ndarray) -> np.ndarray:
        """Map a standard-form vector back to original variables."""
        out = z[self.plus]
        out[self.free] -= z[self.minus]
        return out


class _Unbounded(Exception):
    def __init__(self, col: int):
        self.col = col


def _pivot(T: np.ndarray, row: int, enter: int) -> None:
    """Pivot tableau T on (row, enter): scale the row, eliminate the column.

    One rank-1 update over the rows with a nonzero entering-column entry;
    each element sees the same multiply-then-subtract as a row-by-row loop.
    """
    T[row, :] /= T[row, enter]
    col = T[:, enter].copy()
    col[row] = 0.0
    rows = np.flatnonzero(col)
    T[rows] -= np.outer(col[rows], T[row])


def _ties(values: np.ndarray) -> np.ndarray:
    """Mask of the entries within rounding of the smallest one."""
    best = values.min()
    return values <= best + 1e-15 * (1.0 + abs(best))


def _lex_leave(
    T: np.ndarray,
    basis: np.ndarray,
    ties: np.ndarray,
    col: np.ndarray,
    lex_cols: np.ndarray,
    rank: np.ndarray,
) -> int:
    """The lexicographically smallest tied row of T[:, lex_cols] / col.

    `rank[j]` is column j's position in `lex_cols` (len(lex_cols) if absent).
    A column of `lex_cols` that is still basic is a unit vector, so its only
    effect is to drop its own row from the ties; those columns are skipped
    in one step, and only the columns that have left the basis are read.
    """
    m = lex_cols.size
    nonbasic = np.ones(m + 1, dtype=bool)
    nonbasic[rank[basis]] = False
    nonbasic[m] = True  # sentinel: past the last column
    own = rank[basis[ties]]
    for p in np.flatnonzero(nonbasic):
        early = own < p
        if early.all():
            return int(ties[np.argmax(own)])
        ties, own = ties[~early], own[~early]
        if p == m:
            break
        keep = _ties(T[ties, lex_cols[p]] / col[ties])
        ties, own = ties[keep], own[keep]
        if ties.size == 1:
            break
    return int(ties[0])


def _pivot_loop(
    T: np.ndarray,
    basis: np.ndarray,
    ncols: int,
    tol: ToleranceConfig,
    counter: list[int],
    allow_unbounded: bool,
) -> None:
    """Run simplex pivots on tableau T (last row = reduced costs | -objective).

    Only the first `ncols` columns may enter. Dantzig's rule picks the
    entering column, and min-ratio ties leave by the lowest basis index.
    After `degeneracy_streak` pivots without objective movement, ties are
    broken lexicographically instead (Dantzig, Orden & Wolfe 1955): the
    keys are the tied rows of the columns of the basis held at that moment,
    divided by the pivot column. Each row of [rhs | those columns] starts
    lexicographically positive and stays so, so no basis repeats while the
    objective is flat and the loop terminates. Once the objective moves the
    lowest-index tie-break returns.
    """
    m = T.shape[0] - 1
    costs = T[-1, :ncols]
    rhs = T[:m, -1]
    streak = 0
    lex_cols = rank = None
    while costs.size:
        enter = int(np.argmin(costs))
        if not costs[enter] < -tol.pivot:
            return
        col = T[:m, enter]
        rows = np.flatnonzero(col > tol.pivot)
        if rows.size == 0:
            if allow_unbounded:
                raise _Unbounded(enter)
            raise NumericalBreakdownError("no admissible pivot row")
        ties = rows[_ties(rhs[rows] / col[rows])]
        if ties.size == 1:
            leave = int(ties[0])
        elif lex_cols is None:
            leave = int(ties[np.argmin(basis[ties])])
        else:
            leave = _lex_leave(T, basis, ties, col, lex_cols, rank)
        before = T[-1, -1]
        _pivot(T, leave, enter)
        basis[leave] = enter
        counter[0] += 1
        if counter[0] > tol.max_pivots:
            raise NumericalBreakdownError(f"pivot cap of {tol.max_pivots} exceeded")
        if abs(T[-1, -1] - before) <= 1e-12 * (1.0 + abs(before)):
            streak += 1
            if streak == tol.degeneracy_streak:
                lex_cols = basis.copy()
                rank = np.full(T.shape[1], m)
                rank[lex_cols] = np.arange(m)
        else:
            streak = 0
            lex_cols = None


def _reduced_cost_row(matrix: np.ndarray, rhs: np.ndarray, costs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    row = np.concatenate([costs.astype(float), [0.0]])
    for i in np.flatnonzero(costs[basis]):
        cb = costs[basis[i]]
        row[:-1] -= cb * matrix[i, :]
        row[-1] -= cb * rhs[i]
    return row


def solve_lp(lp: LpProblem, tol: ToleranceConfig = DEFAULT_TOL) -> LpOutcome:
    """Solve the LP, returning status plus certificates (duals/Farkas/ray)."""
    std = _Standardized(lp)
    m = std.matrix.shape[0]
    N = std.costs.shape[0]
    counter = [0]

    T = np.zeros((m + 1, N + 1))
    T[:m, :N] = std.matrix
    T[:m, -1] = std.rhs
    ns = std.n_structural
    if ns < N:  # phase 1: minimize the sum of the artificials
        phase1_costs = np.zeros(N)
        phase1_costs[ns:] = 1.0
        T[-1, :] = _reduced_cost_row(std.matrix, std.rhs, phase1_costs, std.basis)
        _pivot_loop(T, std.basis, N, tol, counter, allow_unbounded=False)
        if -T[-1, -1] > tol.feasibility:
            basis_matrix = std.matrix[:, std.basis]
            try:
                y1 = np.linalg.solve(basis_matrix.T, phase1_costs[std.basis])
            except np.linalg.LinAlgError as exc:
                raise NumericalBreakdownError("singular phase-1 basis") from exc
            farkas = -std.sigma * y1
            return LpOutcome(status=LpStatus.INFEASIBLE, farkas_certificate=farkas)

    # Drive artificials out of the basis where a structural pivot exists; rows
    # where none exists are redundant and keep a zero-valued artificial.
    for i in np.flatnonzero(std.basis >= ns):
        structural = np.flatnonzero(np.abs(T[i, :ns]) > tol.pivot)
        if structural.size:
            enter = int(structural[0])
            _pivot(T, i, enter)
            std.basis[i] = enter
            counter[0] += 1

    T[-1, :] = _reduced_cost_row(T[:m, :N], T[:m, -1], std.costs, std.basis)
    try:
        _pivot_loop(T, std.basis, ns, tol, counter, allow_unbounded=True)
    except _Unbounded as ub:
        z = np.zeros(N)
        z[std.basis] = T[:m, -1]
        direction = np.zeros(N)
        direction[ub.col] = 1.0
        direction[std.basis] = -T[:m, ub.col]
        direction[ns:] = 0.0
        point = std.merge(z)
        ray = std.merge(direction)
        scale = np.max(np.abs(ray))
        if scale > 0:
            ray = ray / scale
        return LpOutcome(status=LpStatus.UNBOUNDED, primal_solution=point, ray=ray)

    basis_matrix = std.matrix[:, std.basis]
    try:
        if m:
            x_basis = np.linalg.solve(basis_matrix, std.rhs)
            y = np.linalg.solve(basis_matrix.T, std.costs[std.basis])
        else:
            x_basis = np.zeros(0)
            y = np.zeros(0)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdownError("singular optimal basis") from exc
    # an artificial left basic in a row judged redundant must be zero, or the
    # primal merged below breaks that row
    worst = np.max(np.abs(x_basis[std.basis >= ns]), initial=0.0)
    if worst > tol.feasibility:
        raise NumericalBreakdownError(f"artificial variable left basic at {worst:.3e}")
    z = np.zeros(N)
    z[std.basis] = x_basis
    x = std.merge(z)
    duals = std.sigma * y
    value = float(lp.objective @ x)
    return LpOutcome(
        status=LpStatus.OPTIMAL,
        primal_solution=x,
        objective_value=value,
        dual_values=duals,
    )


def validate_outcome(lp: LpProblem, outcome: LpOutcome, tol: ToleranceConfig = DEFAULT_TOL) -> list[str]:
    """Replay an LpOutcome's evidence by substitution; returns found defects."""
    problems: list[str] = []
    A = lp.constraint_matrix
    b = lp.rhs
    le_rows = np.array([k == ROW_LE for k in lp.row_kinds], dtype=bool)
    nonneg = np.array([v == VAR_NONNEG for v in lp.variable_bounds], dtype=bool)
    check = tol.duality_gap

    def _feasible(x: np.ndarray, label: str) -> None:
        resid = A @ x - b
        if le_rows.any() and np.max(resid[le_rows], initial=-np.inf) > check:
            problems.append(f"{label}: <= row violated by {np.max(resid[le_rows]):.3e}")
        eq = ~le_rows
        if eq.any() and np.max(np.abs(resid[eq]), initial=0.0) > check:
            problems.append(f"{label}: = row violated by {np.max(np.abs(resid[eq])):.3e}")
        if nonneg.any() and np.min(x[nonneg], initial=np.inf) < -check:
            problems.append(f"{label}: sign bound violated by {np.min(x[nonneg]):.3e}")

    if outcome.status is LpStatus.OPTIMAL:
        x = outcome.primal_solution
        y = outcome.dual_values
        if x is None or y is None or outcome.objective_value is None:
            return [f"optimal outcome missing fields"]
        _feasible(x, "primal")
        gap = abs(float(lp.objective @ x) - float(y @ b))
        if gap > check:
            problems.append(f"duality gap {gap:.3e}")
        if le_rows.any() and np.max(y[le_rows], initial=-np.inf) > check:
            problems.append("dual sign on <= row violated")
        reduced = lp.objective - A.T @ y
        if nonneg.any() and np.min(reduced[nonneg], initial=np.inf) < -check:
            problems.append(f"dual feasibility (nonneg var) violated by {np.min(reduced[nonneg]):.3e}")
        free = ~nonneg
        if free.any() and np.max(np.abs(reduced[free]), initial=0.0) > check:
            problems.append(f"dual feasibility (free var) violated by {np.max(np.abs(reduced[free])):.3e}")
    elif outcome.status is LpStatus.INFEASIBLE:
        y = outcome.farkas_certificate
        if y is None:
            return ["infeasible outcome missing certificate"]
        if le_rows.any() and np.min(y[le_rows], initial=np.inf) < -check:
            problems.append("farkas sign on <= row violated")
        yA = y @ A
        if nonneg.any() and np.min(yA[nonneg], initial=np.inf) < -check:
            problems.append("farkas combination not sign-feasible on nonneg var")
        free = ~nonneg
        if free.any() and np.max(np.abs(yA[free]), initial=0.0) > check:
            problems.append("farkas combination nonzero on free var")
        if float(y @ b) >= -tol.feasibility:
            problems.append(f"farkas value {float(y @ b):.3e} not negative")
    elif outcome.status is LpStatus.UNBOUNDED:
        x = outcome.primal_solution
        r = outcome.ray
        if x is None or r is None:
            return ["unbounded outcome missing point or ray"]
        _feasible(x, "unbounded point")
        Ar = A @ r
        if le_rows.any() and np.max(Ar[le_rows], initial=-np.inf) > check:
            problems.append("ray violates <= row direction")
        eq = ~le_rows
        if eq.any() and np.max(np.abs(Ar[eq]), initial=0.0) > check:
            problems.append("ray violates = row direction")
        if nonneg.any() and np.min(r[nonneg], initial=np.inf) < -check:
            problems.append("ray leaves a nonneg bound")
        if float(lp.objective @ r) >= -tol.pivot:
            problems.append(f"ray descent rate {float(lp.objective @ r):.3e} not negative")
    return problems
