"""The simplex pieces `solve_lp` used before lexicographic tie-breaking.

`_Standardized` built the standard form column by column. `_pivot_loop`
used Dantzig's entering rule, lowest basis index on ratio ties, and Bland's
lowest-index entering rule after `degeneracy_streak` pivots without
objective movement, until the objective moved again. Both are kept verbatim.
`reference_run` runs `invexcheck.simplex.solve_lp` with them and also
reports whether any flat streak reached `degeneracy_streak`, since only then
may the two pivot loops pivot differently.
"""

from unittest import mock

import numpy as np

from invexcheck import simplex
from invexcheck.simplex import (
    ROW_LE,
    VAR_FREE,
    LpProblem,
    NumericalBreakdownError,
    ToleranceConfig,
    _Unbounded,
)


class _Standardized:
    """Equality standard form: A z = b, z >= 0, b >= 0, with bookkeeping."""

    def __init__(self, lp: LpProblem):
        m, n = lp.shape
        cols: list[np.ndarray] = []
        costs: list[float] = []
        # var_map[j] = (plus column, minus column or -1) for the original variable j
        self.var_map: list[tuple[int, int]] = []
        for j in range(n):
            col = lp.constraint_matrix[:, j]
            plus = len(costs)
            cols.append(col)
            costs.append(lp.objective[j])
            if lp.variable_bounds[j] == VAR_FREE:
                cols.append(-col)
                costs.append(-lp.objective[j])
                self.var_map.append((plus, plus + 1))
            else:
                self.var_map.append((plus, -1))
        self.slack_col: dict[int, int] = {}
        for i in range(m):
            if lp.row_kinds[i] == ROW_LE:
                e = np.zeros(m)
                e[i] = 1.0
                self.slack_col[i] = len(costs)
                cols.append(e)
                costs.append(0.0)
        self.n_structural = len(costs)
        if cols:
            matrix = np.column_stack(cols)
        else:
            matrix = np.zeros((m, 0))
        rhs = lp.rhs.astype(float).copy()
        self.sigma = np.ones(m)
        for i in range(m):
            if rhs[i] < 0.0:
                matrix[i, :] *= -1.0
                rhs[i] *= -1.0
                self.sigma[i] = -1.0
        # artificial basis: reuse slack columns where they already form identity
        basis = np.full(m, -1, dtype=int)
        art_cols: list[int] = []
        extra: list[np.ndarray] = []
        for i in range(m):
            j = self.slack_col.get(i)
            if j is not None and self.sigma[i] > 0:
                basis[i] = j
            else:
                e = np.zeros(m)
                e[i] = 1.0
                idx = self.n_structural + len(extra)
                extra.append(e)
                basis[i] = idx
                art_cols.append(idx)
        if extra:
            matrix = np.column_stack([matrix] + extra) if matrix.size else np.column_stack(extra)
        self.matrix = matrix
        self.rhs = rhs
        self.costs = np.array(costs + [0.0] * len(art_cols))
        self.basis = basis
        self.artificial = np.zeros(self.costs.shape[0], dtype=bool)
        self.artificial[art_cols] = True

    def merge(self, z: np.ndarray) -> np.ndarray:
        """Map a standard-form vector back to original variables."""
        out = np.empty(len(self.var_map))
        for j, (plus, minus) in enumerate(self.var_map):
            out[j] = z[plus] - (z[minus] if minus >= 0 else 0.0)
        return out


def _pivot(T: np.ndarray, row: int, enter: int) -> None:
    # the flat-pivot test of `_pivot_loop`, repeated to see whether its streak
    # reached the switch
    before = T[-1, -1]
    simplex._pivot(T, row, enter)
    if abs(T[-1, -1] - before) <= 1e-12 * (1.0 + abs(before)):
        _flat[0] += 1
        _flat[1] = max(_flat[1], _flat[0])
    else:
        _flat[0] = 0


_flat = [0, 0]  # current flat streak, longest flat streak


def _pivot_loop(
    T: np.ndarray,
    basis: np.ndarray,
    allowed: np.ndarray,
    tol: ToleranceConfig,
    counter: list[int],
    allow_unbounded: bool,
) -> None:
    """Run simplex pivots on tableau T (last row = reduced costs | -objective).

    Dantzig selection by default; after `degeneracy_streak` pivots without
    objective movement the rule switches to Bland's until progress resumes.
    """
    m = T.shape[0] - 1
    streak = 0
    while True:
        rc = T[-1, :-1]
        candidates = np.where(allowed & (rc < -tol.pivot))[0]
        if candidates.size == 0:
            return
        if streak >= tol.degeneracy_streak:
            enter = int(candidates[0])  # Bland: lowest eligible index
        else:
            enter = int(candidates[np.argmin(rc[candidates])])
        col = T[:m, enter]
        rows = np.where(col > tol.pivot)[0]
        if rows.size == 0:
            if allow_unbounded:
                raise _Unbounded(enter)
            raise NumericalBreakdownError("no admissible pivot row")
        ratios = T[rows, -1] / col[rows]
        best = np.min(ratios)
        ties = rows[ratios <= best + 1e-15 * (1.0 + abs(best))]
        leave = int(ties[np.argmin(basis[ties])])
        before = T[-1, -1]
        _pivot(T, leave, enter)
        basis[leave] = enter
        counter[0] += 1
        if counter[0] > tol.max_pivots:
            raise NumericalBreakdownError(f"pivot cap of {tol.max_pivots} exceeded")
        if abs(T[-1, -1] - before) <= 1e-12 * (1.0 + abs(before)):
            streak += 1
        else:
            streak = 0


def _loop_with_mask(T, basis, ncols, tol, counter, allow_unbounded):
    _flat[0] = 0
    allowed = np.arange(T.shape[1] - 1) < ncols
    _pivot_loop(T, basis, allowed, tol, counter, allow_unbounded)


def reference_run(fn, tol: ToleranceConfig):
    """Call fn() with the reference standard form and pivot loop in `solve_lp`.

    Returns (result, reached) where reached says whether a flat streak got
    to `tol.degeneracy_streak`; fn's exception propagates.
    """
    _flat[:] = [0, 0]
    with (
        mock.patch.object(simplex, "_Standardized", _Standardized),
        mock.patch.object(simplex, "_pivot_loop", _loop_with_mask),
    ):
        result = fn()
    return result, _flat[1] >= tol.degeneracy_streak


def reference_solve_lp(lp: simplex.LpProblem, tol: ToleranceConfig = simplex.DEFAULT_TOL):
    return reference_run(lambda: simplex.solve_lp(lp, tol), tol)


def lex_leave_by_columns(T, basis, ties, col, lex_cols, rank) -> int:
    """`simplex._lex_leave` as the plain rule: compare one column at a time."""
    for j in lex_cols:
        ties = ties[simplex._ties(T[ties, j] / col[ties])]
        if ties.size == 1:
            break
    return int(ties[0])
