"""The pair engines `certify_domain` used before one LP decided every kind.

`_weak_pair` decided the nonstrict kinds: the kernels η = 0 and η = x − x̄
by substitution, then a phase-1 feasibility LP on Jf(x̄)·η ≤ Δf (plus
Jg_A(x̄)·η ≤ 0), whose Farkas vector was replaced by the minimum of λ·Δf
over Λ(x̄). `_strict_pair` decided the strict kinds by Motzkin's alternative
on a homogenized matrix, whose primal witness (ζ, ξ) rescales to η = −ζ/ξ;
a dual witness with positive violation went to the same minimum. They are
kept verbatim as the oracle for `invexcheck.invexity`'s one decider.
"""

import numpy as np

from invexcheck.alternative import motzkin
from invexcheck.invexity import (
    DEGENERATE_PAIR_RADIUS,
    DegeneratePairError,
    DualCertificate,
    InvexityKind,
    KernelWitness,
    PairVerdict,
    _require_shared_problem,
)
from invexcheck.problems import EvaluatedPoint, InfeasiblePointError
from invexcheck.simplex import (
    DEFAULT_TOL,
    ROW_EQ,
    ROW_LE,
    VAR_FREE,
    VAR_NONNEG,
    LpOutcome,
    LpProblem,
    LpStatus,
    NumericalBreakdownError,
    ToleranceConfig,
    solve_lp,
)


def _base_rows(pbar: EvaluatedPoint, p: EvaluatedPoint, with_active: bool):
    """Objective rows Jf(x̄)·η ≤ Δf, optionally plus active rows Jg_I(x̄)·η ≤ 0."""
    jac = pbar.objective_jacobian
    delta = p.objective_values - pbar.objective_values
    if not with_active:
        return jac, delta
    jac_active = pbar.active_jacobian
    matrix = np.vstack([jac, jac_active])
    rhs = np.concatenate([delta, np.zeros(jac_active.shape[0])])
    return matrix, rhs


def _kernel_margin(pbar: EvaluatedPoint, p: EvaluatedPoint, eta: np.ndarray) -> float:
    slack = (p.objective_values - pbar.objective_values) - pbar.objective_jacobian @ eta
    return max(0.0, float(slack.min()))


def _candidate_ok(
    matrix: np.ndarray, rhs: np.ndarray, eta: np.ndarray
) -> bool:
    return bool(np.all(matrix @ eta <= rhs))


def _weighted_change_lp(
    pbar: EvaluatedPoint, delta: np.ndarray, with_active: bool, tol: ToleranceConfig
) -> LpOutcome:
    """Solve min λ·Δf over Λ(x̄) = {λ ≧ 0, Σλ = 1, μ ≧ 0 : λᵀJf + μᵀJg_A = 0}.

    Variables are (λ, μ). The dual values (y, w) of the optimum satisfy
    Jf·y + w ≦ Δf and Jg_A·y ≦ 0 with w equal to the optimum, so a positive
    optimum makes y a kernel with margin w.
    """
    n, s = pbar.objective_jacobian.shape
    jac_active = pbar.active_jacobian if with_active else np.zeros((0, s))
    r = jac_active.shape[0]
    eq = np.zeros((s + 1, n + r))
    eq[:s, :n] = pbar.objective_jacobian.T
    eq[:s, n:] = jac_active.T
    eq[s, :n] = 1.0
    rhs = np.zeros(s + 1)
    rhs[s] = 1.0
    lp = LpProblem(
        objective=np.concatenate([delta, np.zeros(r)]),
        constraint_matrix=eq,
        rhs=rhs,
        row_kinds=(ROW_EQ,) * (s + 1),
        variable_bounds=(VAR_NONNEG,) * (n + r),
    )
    return solve_lp(lp, tol)


def _certificate_cleanup(
    outcome: LpOutcome,
    delta: np.ndarray,
    with_active: bool,
    fallback: DualCertificate,
    tol: ToleranceConfig,
) -> DualCertificate:
    """Canonicalize a failure certificate by minimizing λ·Δf over all valid ones.

    `outcome` is `_weighted_change_lp`'s solution. The minimum is the most
    violated weighting gap the pair admits, making the reported certificate
    deterministic and maximally informative; if the cleanup LP stumbles
    numerically the Farkas-derived fallback is returned.
    """
    if outcome.status is not LpStatus.OPTIMAL:
        return fallback
    n = delta.size
    lam = np.clip(outcome.primal_solution[:n], 0.0, None)
    mu = np.clip(outcome.primal_solution[n:], 0.0, None)
    total = lam.sum()
    if total <= tol.strict:
        return fallback
    lam /= total
    mu /= total
    return DualCertificate(
        lam=lam,
        mu=mu if with_active else None,
        violation=float(lam @ delta),
    )


def _weak_pair(
    pbar: EvaluatedPoint,
    p: EvaluatedPoint,
    kind: InvexityKind,
    tol: ToleranceConfig,
) -> PairVerdict:
    """Shared engine for the two nonstrict kinds."""
    _require_shared_problem(pbar, p)
    with_active = kind.is_kt
    if with_active:
        for ep, label in ((pbar, "base point"), (p, "comparison point")):
            if not ep.feasible:
                raise InfeasiblePointError(
                    f"{label} violates constraints by {ep.constraint_values.max():.3e}"
                )
    matrix, rhs = _base_rows(pbar, p, with_active)
    delta = p.objective_values - pbar.objective_values

    for eta in (np.zeros_like(pbar.x), p.x - pbar.x):
        if _candidate_ok(matrix, rhs, eta):
            return PairVerdict(
                kind=kind,
                xbar=pbar.x,
                x=p.x,
                kernel=KernelWitness(eta=eta, margin=_kernel_margin(pbar, p, eta)),
                certificate=None,
            )

    feasibility = LpProblem(
        objective=np.zeros(matrix.shape[1]),
        constraint_matrix=matrix,
        rhs=rhs,
        row_kinds=(ROW_LE,) * matrix.shape[0],
        variable_bounds=(VAR_FREE,) * matrix.shape[1],
    )
    result = solve_lp(feasibility, tol)
    if result.status is LpStatus.OPTIMAL:
        eta = result.primal_solution
        return PairVerdict(
            kind=kind,
            xbar=pbar.x,
            x=p.x,
            kernel=KernelWitness(eta=eta, margin=_kernel_margin(pbar, p, eta)),
            certificate=None,
        )
    assert result.status is LpStatus.INFEASIBLE
    y = np.clip(result.farkas_certificate, 0.0, None)
    n = pbar.objective_jacobian.shape[0]
    lam_raw, mu_raw = y[:n], y[n:]
    total = lam_raw.sum()
    if total <= tol.strict:
        raise NumericalBreakdownError("infeasibility certificate has empty weight block")
    fallback = DualCertificate(
        lam=lam_raw / total,
        mu=(mu_raw / total) if with_active else None,
        violation=float((lam_raw / total) @ delta),
    )
    certificate = _certificate_cleanup(
        _weighted_change_lp(pbar, delta, with_active, tol),
        delta,
        with_active,
        fallback,
        tol,
    )
    return PairVerdict(
        kind=kind, xbar=pbar.x, x=p.x, kernel=None, certificate=certificate
    )


def _strict_pair(
    pbar: EvaluatedPoint,
    p: EvaluatedPoint,
    kind: InvexityKind,
    tol: ToleranceConfig,
) -> PairVerdict:
    """Shared engine for the two strict kinds, via Gordan/Motzkin."""
    _require_shared_problem(pbar, p)
    gap = float(np.linalg.norm(p.x - pbar.x))
    if gap <= DEGENERATE_PAIR_RADIUS:
        raise DegeneratePairError(
            f"strict comparison needs distinct points (distance {gap:.3e})"
        )
    with_active = kind.is_kt
    if with_active:
        for ep, label in ((pbar, "base point"), (p, "comparison point")):
            if not ep.feasible:
                raise InfeasiblePointError(
                    f"{label} violates constraints by {ep.constraint_values.max():.3e}"
                )
    n, s = pbar.objective_jacobian.shape
    delta = p.objective_values - pbar.objective_values
    # homogenized strict block: a solution (ζ, ξ) has ξ < 0 by its first row
    strict_block = np.zeros((n + 1, s + 1))
    strict_block[0, s] = 1.0
    strict_block[1:, :s] = pbar.objective_jacobian
    strict_block[1:, s] = delta

    weak_block = None
    if with_active:
        jac_active = pbar.active_jacobian
        weak_block = np.hstack([jac_active, np.zeros((jac_active.shape[0], 1))])
    outcome = motzkin(strict_block, weak_block, tol)

    if outcome.primal_holds:
        zeta, xi = outcome.primal_witness[:s], float(outcome.primal_witness[s])
        # first strict row forces ξ ≤ −margin < 0
        eta = -zeta / xi
        margin = outcome.strict_margin / abs(xi)
        return PairVerdict(
            kind=kind,
            xbar=pbar.x,
            x=p.x,
            kernel=KernelWitness(eta=eta, margin=margin),
            certificate=None,
        )

    lam_raw = outcome.dual_witness_y[1:]  # drop the homogenizing row's multiplier
    total = lam_raw.sum()
    if total <= tol.strict:
        raise NumericalBreakdownError("strict dual witness has empty weight block")
    lam = lam_raw / total
    mu = (outcome.dual_witness_z / total) if with_active else None
    certificate = DualCertificate(lam=lam, mu=mu, violation=float(lam @ delta))
    if certificate.violation > 0:
        # a kernel margin under the pivot tolerance reads as the dual branch;
        # min λ·Δf over Λ(x̄) either refutes with a nonpositive value or is
        # that margin, with the kernel as its dual solution
        cleanup = _weighted_change_lp(pbar, delta, with_active, tol)
        if (
            cleanup.status is LpStatus.OPTIMAL
            and float(cleanup.objective_value) > 0
        ):
            return PairVerdict(
                kind=kind,
                xbar=pbar.x,
                x=p.x,
                kernel=KernelWitness(
                    eta=cleanup.dual_values[:s],
                    margin=float(cleanup.objective_value),
                ),
                certificate=None,
            )
        certificate = _certificate_cleanup(
            cleanup, delta, with_active, certificate, tol
        )
    return PairVerdict(
        kind=kind, xbar=pbar.x, x=p.x, kernel=None, certificate=certificate
    )


def reference_pair(
    pbar: EvaluatedPoint,
    p: EvaluatedPoint,
    kind: InvexityKind,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> PairVerdict:
    """The verdict the old engine of ``kind`` gives the pair (x̄, x)."""
    engine = _strict_pair if kind.is_strict else _weak_pair
    return engine(pbar, p, kind, tol)
