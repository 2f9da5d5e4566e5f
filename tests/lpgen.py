"""Random LP / matrix generators shared by the solver and acceptance tests."""

import numpy as np

from invexcheck.simplex import ROW_EQ, ROW_LE, VAR_FREE, VAR_NONNEG, LpProblem


def random_lp(rng: np.random.Generator) -> LpProblem:
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 7))
    if rng.random() < 0.5:
        # small integer entries provoke ties and degeneracy
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.integers(-2, 3, size=m).astype(float)
        c = rng.integers(-2, 3, size=n).astype(float)
    else:
        A = rng.uniform(-5, 5, size=(m, n))
        b = rng.uniform(-5, 5, size=m)
        c = rng.uniform(-5, 5, size=n)
    row_kinds = tuple(ROW_EQ if rng.random() < 0.3 else ROW_LE for _ in range(m))
    bounds = tuple(VAR_FREE if rng.random() < 0.3 else VAR_NONNEG for _ in range(n))
    return LpProblem(
        objective=c,
        constraint_matrix=A,
        rhs=b,
        row_kinds=row_kinds,
        variable_bounds=bounds,
    )


def random_matrix(rng: np.random.Generator, max_dim: int = 6) -> np.ndarray:
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    if rng.random() < 0.4:
        return rng.integers(-5, 6, size=(m, n)).astype(float)
    return rng.uniform(-5, 5, size=(m, n))


def planted_motzkin(
    rng: np.random.Generator, rows: int, weak_rows: int, cols: int, primal: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A, B) whose Motzkin branch is planted: a witness w with A w <= -1
    and B w <= 0 (primal), or y > 0, z >= 0 with A^T y + B^T z = 0 (dual)."""
    A = rng.uniform(-5.0, 5.0, (rows, cols))
    B = rng.uniform(-5.0, 5.0, (weak_rows, cols))
    if primal:
        w = rng.normal(size=cols)
        A += ((-1.0 - rng.uniform(0.0, 1.0, rows) - A @ w) / (w @ w))[:, None] * w
        B += ((-rng.uniform(0.0, 1.0, weak_rows) - B @ w) / (w @ w))[:, None] * w
    else:
        y = rng.uniform(0.5, 1.5, rows)
        A[-1] = -(y[:-1] @ A[:-1] + rng.uniform(0.0, 1.0, weak_rows) @ B) / y[-1]
    return A, B
