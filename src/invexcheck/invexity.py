"""Pairwise invexity certification, domain sampling verdicts, and cross-checks.

For one ordered pair (x̄, x) and one invexity kind, `certify_pair` decides
a linear system in the kernel vector η and returns exactly one of

* a **kernel witness** η — substituting it into the defining inequalities
  verifies the invexity relation for that pair, with a quantitative margin
  for the strict kinds; or
* a **dual certificate** (λ, μ) — nonnegative multipliers proving no kernel
  exists, which simultaneously exhibit the pair's base point as a stationary
  point that fails to be a global weighting minimizer.

Nonstrict kinds ask for componentwise ``Jf(x̄)·η ≤ f(x) − f(x̄)`` (plus
``Jg_A(x̄)·η ≤ 0`` on the active constraints for the KT kinds); strict kinds
require strict objective rows. Every kind is settled by one LP, the minimum
v* of λ·(f(x) − f(x̄)) over the multiplier set Λ(x̄) = {λ ≧ 0, Σλ = 1,
μ ≧ 0 : λᵀJf(x̄) + μᵀJg_A(x̄) = 0} (μ only for the KT kinds). By LP duality
a kernel exists exactly when v* > 0 (strict kinds) or v* ≧ 0 (nonstrict
kinds, read as v* ≧ −tol.strict), and the LP's dual is one; otherwise its
optimal (λ, μ) is the certificate (Craven & Glover 1985, and the paper's
Theorems 2.4 and 3.6).

Most pairs never reach the LP. For each base point x̄ one substitution pass
tries the kernels η = 0 (nonstrict kinds) and η = x − x̄; if pairs remain,
one Gordan/Motzkin decision on Jf(x̄) either yields a descent direction that
scales into a kernel for all of them or shows x̄ (KT-)stationary.
`certify_domain` runs these passes once per x̄ against all sampled x, and
`certify_pair` on its one pair; either way only the pairs still open solve
the LP, so a pair gets the same verdict from both.

`theorem_crosscheck` confronts the sampled verdicts with the stationarity
and weighting scans: stationary-points-are-global must agree with
all-pairs-kernel, and unique-globality must agree with the strict kinds.
A disagreement indicates an implementation bug, never new mathematics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alternative import motzkin
from .problems import (
    DEFAULT_TOL,
    Analysis,
    EvaluatedPoint,
    GridSampler,
    InfeasiblePointError,
    InvexityKind,
    PointBatch,
    Problem,
    RandomSampler,
    ToleranceConfig,
    use_analysis,
)
from .scalarization import (
    Globality,
    GlobalityVerdict,
    WeightVector,
    grade_weighting_solutions,
)
from .simplex import LpStatus, NumericalBreakdownError, solve_lp
from .stationarity import (
    StationaryKind,
    StationaryPoint,
    multiplier_lp,
    scan_critical_points,
)

#: Pairs closer than this are rejected by `certify_pair` for the strict kinds.
DEGENERATE_PAIR_RADIUS = 1e-9

_KERNEL_SAMPLE_LIMIT = 100


class DegeneratePairError(ValueError):
    """A strict kind needs two distinct points."""


@dataclass(frozen=True)
class KernelWitness:
    """A vector η making the invexity inequalities hold for one pair."""

    eta: np.ndarray
    margin: float  # worst objective-row slack; strictly positive for strict kinds


@dataclass(frozen=True)
class DualCertificate:
    """Multipliers proving no kernel exists for one pair.

    (λ, μ) is the optimum of min λ·(f(x) − f(x̄)) over the multiplier set
    Λ(x̄), so x̄ is (KT-)stationary with these multipliers. λ is normalized to
    sum to one; μ (KT kinds) carries the active-set multipliers on the same
    scale. `violation` is that minimum λ·(f(x) − f(x̄)): below −tol.strict
    for the nonstrict kinds, nonpositive for the strict kinds.
    """

    lam: np.ndarray
    mu: np.ndarray | None
    violation: float


@dataclass(frozen=True)
class PairVerdict:
    kind: InvexityKind
    xbar: np.ndarray
    x: np.ndarray
    kernel: KernelWitness | None
    certificate: DualCertificate | None

    @property
    def holds(self) -> bool:
        return self.kernel is not None


def _require_shared_problem(pbar: EvaluatedPoint, p: EvaluatedPoint) -> None:
    if pbar.problem != p.problem:
        raise ValueError("both points must come from the same problem")


def _weighted_change(
    pbar: EvaluatedPoint,
    p: EvaluatedPoint,
    kind: InvexityKind,
    tol: ToleranceConfig,
) -> PairVerdict:
    """Decide the pair (x̄, x) by min λ·Δf over Λ(x̄), Δf = f(x) − f(x̄).

    The dual values (y, w) of the optimum v* satisfy Jf·y + w ≦ Δf and
    Jg_A·y ≦ 0 (KT kinds) with w = v*. So y is a kernel with margin
    max(v*, 0) when v* > 0 (strict kinds) or v* ≧ −tol.strict (nonstrict
    kinds, the slack `verify` allows a kernel). Otherwise the optimal
    (λ, μ), scaled so that Σλ = 1, is a certificate with violation λ·Δf = v*.
    """
    n, s = pbar.objective_jacobian.shape
    r = len(pbar.active_indices) if kind.is_kt else 0
    delta = p.objective_values - pbar.objective_values
    outcome = solve_lp(
        multiplier_lp(pbar, kind.is_kt, np.concatenate([delta, np.zeros(r)])), tol
    )
    if outcome.status is not LpStatus.OPTIMAL:
        raise NumericalBreakdownError(
            f"weighted-change LP over the multiplier set ended {outcome.status.value}"
        )
    value = float(outcome.objective_value)
    holds = value > 0 if kind.is_strict else value >= -tol.strict
    if holds:
        kernel = KernelWitness(eta=outcome.dual_values[:s], margin=max(value, 0.0))
        return PairVerdict(kind=kind, xbar=pbar.x, x=p.x, kernel=kernel, certificate=None)
    lam = np.clip(outcome.primal_solution[:n], 0.0, None)
    mu = np.clip(outcome.primal_solution[n:], 0.0, None)
    total = lam.sum()
    if not total > tol.strict:
        raise NumericalBreakdownError("weighted-change LP returned an empty weight block")
    lam /= total
    certificate = DualCertificate(
        lam=lam, mu=mu / total if kind.is_kt else None, violation=float(lam @ delta)
    )
    return PairVerdict(kind=kind, xbar=pbar.x, x=p.x, kernel=None, certificate=certificate)


def certify_pair(
    pbar: EvaluatedPoint,
    p: EvaluatedPoint,
    kind: InvexityKind,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> PairVerdict:
    """Kernel or certificate for the pair (x̄, x) under one invexity kind.

    The pair is decided as a sweep decides it: substitution of the cheap
    kernels, then the weighted-change LP. Strict kinds need two distinct
    points (`DegeneratePairError`); KT kinds need both points feasible
    (`InfeasiblePointError`).
    """
    _require_shared_problem(pbar, p)
    if kind.is_strict:
        gap = float(np.linalg.norm(p.x - pbar.x))
        if gap <= DEGENERATE_PAIR_RADIUS:
            raise DegeneratePairError(
                f"strict comparison needs distinct points (distance {gap:.3e})"
            )
    if kind.is_kt:
        for ep, label in ((pbar, "base point"), (p, "comparison point")):
            if not ep.feasible:
                raise InfeasiblePointError(
                    f"{label} violates constraints by {ep.constraint_values.max():.3e}"
                )
    unresolved, etas, margins = _base_point_kernels(
        pbar, p.x[None], p.objective_values[None], np.ones(1, dtype=bool), kind, tol
    )
    if unresolved[0]:
        return _weighted_change(pbar, p, kind, tol)
    kernel = KernelWitness(eta=etas[0], margin=float(margins[0]))
    return PairVerdict(kind=kind, xbar=pbar.x, x=p.x, kernel=kernel, certificate=None)


@dataclass(frozen=True)
class DomainVerdict:
    """Outcome of sweeping one invexity kind over all sampled ordered pairs.

    `all_pairs_kernel` claims nothing beyond the recorded sampler
    resolution; `failures` holds every certificate-bearing pair, while
    `kernels` is a bounded sample of the kernel-bearing ones.
    """

    problem_name: str
    kind: InvexityKind
    sampler: GridSampler | RandomSampler
    all_pairs_kernel: bool
    checked_pairs: int
    points_sampled: int
    failures: tuple[PairVerdict, ...]
    kernels: tuple[PairVerdict, ...]


def _base_point_kernels(
    pbar: EvaluatedPoint,
    points: np.ndarray,
    values: np.ndarray,
    pending: np.ndarray,
    kind: InvexityKind,
    tol: ToleranceConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernels for the pairs (x̄, x) one substitution pass can verify.

    `pending` masks the rows of `points` to decide. Candidates are tried in
    turn on every still-open pair: η = 0 (nonstrict kinds only), then
    η = x − x̄. When pairs remain open, one Gordan/Motzkin decision on
    Jf(x̄) (and Jg_A(x̄)) either gives a descent direction d with
    Jf·d < 0 and Jg_A·d ≦ 0, so that η = t·d with
    t = max(0, maxᵢ (1 − Δfᵢ) / (−Jfᵢ·d)) leaves every objective slack at
    least 1, or shows x̄ stationary. A candidate counts only where it passes
    the substitution: every active row Jg_A·η ≦ 0, and objective slack
    Δf − Jf·η ≧ 0 (nonstrict) or above `tol.strict` (strict kinds). Only
    t·d may leave Jg_A·η up to `tol.strict`, as `verify` allows: rounding
    can lift it a few ulps above 0, and it exists only at a non-stationary
    x̄, where no certificate can exist. At a stationary x̄ that slack,
    scaled by an unbounded μ, could hide a real failure.

    Returns (unresolved, etas, margins) over the rows of `points`: the
    pending pairs that still need `_weighted_change`, and the kernel and its
    margin for every other pending pair.
    """
    jac = pbar.objective_jacobian
    jac_active = pbar.active_jacobian if kind.is_kt else np.zeros((0, jac.shape[1]))
    delta = values - pbar.objective_values
    unresolved = pending.copy()
    etas = np.zeros_like(points)
    margins = np.zeros(len(points))

    def substitute(candidates: np.ndarray, active_slack: float = 0.0) -> None:
        products = candidates @ jac.T
        slack = np.min(delta - products, axis=1)
        if kind.is_strict:
            ok = slack > tol.strict
        else:
            ok = np.all(products <= delta, axis=1)
        ok &= np.all(candidates @ jac_active.T <= active_slack, axis=1) & unresolved
        unresolved[ok] = False
        etas[ok] = candidates[ok]
        margins[ok] = np.maximum(slack[ok], 0.0)

    if not kind.is_strict:
        substitute(np.zeros_like(points))
    substitute(points - pbar.x)
    if not unresolved.any():
        return unresolved, etas, margins
    try:
        outcome = motzkin(jac, jac_active, tol)
    except NumericalBreakdownError:
        return unresolved, etas, margins
    if outcome.primal_holds:
        d = outcome.primal_witness
        descent = -(jac @ d)
        if np.all(descent > 0):
            t = np.maximum(np.max((1.0 - delta) / descent, axis=1), 0.0)
            substitute(t[:, None] * d, tol.strict)
    return unresolved, etas, margins


def _freeze(verdict: PairVerdict) -> PairVerdict:
    """Make the verdict's arrays read-only, so that a verdict shared through
    an analysis cannot be altered."""
    arrays = [verdict.xbar, verdict.x]
    if verdict.kernel is not None:
        arrays.append(verdict.kernel.eta)
    if verdict.certificate is not None:
        arrays += [verdict.certificate.lam, verdict.certificate.mu]
    for arr in arrays:
        if arr is not None:
            arr.flags.writeable = False
    return verdict


def _certify(
    batch: PointBatch,
    kind: InvexityKind,
    sampler: GridSampler | RandomSampler,
    tol: ToleranceConfig,
) -> DomainVerdict:
    """The sweep of one kind over the sampler's points, evaluated in ``batch``."""
    problem = batch.problem
    rows = np.flatnonzero(batch.feasible) if kind.is_kt else np.arange(len(batch.x))
    if not rows.size:
        raise InfeasiblePointError(
            f"sampler produced no feasible point on {problem.name!r}"
        )
    evaluated = [batch.point(row) for row in rows]
    points = batch.x[rows]
    values = batch.objective_values[rows]
    failures: list[PairVerdict] = []
    kernels: list[PairVerdict] = []
    checked = 0
    for pbar in evaluated:
        if kind.is_strict:
            distinct = np.linalg.norm(points - pbar.x, axis=1) > DEGENERATE_PAIR_RADIUS
        else:
            distinct = np.ones(len(points), dtype=bool)
        checked += int(distinct.sum())
        unresolved, etas, margins = _base_point_kernels(
            pbar, points, values, distinct, kind, tol
        )
        decided = {}
        for j in np.flatnonzero(unresolved):
            verdict = _weighted_change(pbar, evaluated[j], kind, tol)
            decided[int(j)] = verdict
            if not verdict.holds:
                failures.append(_freeze(verdict))
        for j in np.flatnonzero(distinct):
            if len(kernels) == _KERNEL_SAMPLE_LIMIT:
                break
            verdict = decided.get(int(j))
            if verdict is None:
                verdict = PairVerdict(
                    kind=kind,
                    xbar=pbar.x,
                    x=evaluated[j].x,
                    kernel=KernelWitness(eta=etas[j].copy(), margin=float(margins[j])),
                    certificate=None,
                )
            if verdict.holds:
                kernels.append(_freeze(verdict))
    return DomainVerdict(
        problem_name=problem.name,
        kind=kind,
        sampler=sampler,
        all_pairs_kernel=not failures,
        checked_pairs=checked,
        points_sampled=len(evaluated),
        failures=tuple(failures),
        kernels=tuple(kernels),
    )


def certify_domain(
    problem: Problem,
    kind: InvexityKind,
    sampler: GridSampler | RandomSampler,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    analysis: Analysis | None = None,
) -> DomainVerdict:
    """Decide one kind's invexity relation on every sampled ordered pair.

    Each base point x̄ is decided once against all sampled points: kernels
    that one pass verifies by substitution settle most pairs, and only the
    pairs left open at (KT-)stationary base points solve the weighted-change
    LP. Every verdict, kernel or certificate, is the one `certify_pair`
    returns for that pair, except that a kernel's margin may differ in its
    last bits: the sweep forms Jf(x̄)·η for all pairs of a base point in
    one matrix product, which rounds otherwise than one row.
    The returned verdicts are read-only.

    KT kinds restrict to feasible sample points; strict kinds skip
    degenerate pairs. The non-KT kinds ignore constraints entirely, so the
    problem is normalized to its unconstrained form first. Calls sharing
    an ``analysis`` share the sampled points' evaluation, and return the
    same verdict for the same kind and sampler.
    """
    analysis = use_analysis(analysis, problem, tol)
    if not kind.is_kt:
        problem = analysis.unconstrained
    return analysis.result(
        ("certify", problem, kind, sampler),
        lambda: _certify(analysis.batch(problem, sampler), kind, sampler, tol),
    )


@dataclass
class StationaryGlobality:
    """One scanned stationary point graded against its own weight vector."""

    x: np.ndarray
    lam: np.ndarray
    verdict: GlobalityVerdict


@dataclass
class TheoremCheck:
    """One equivalence instance: stationary-side L versus kernel-side R."""

    kind: InvexityKind
    stationary_side: bool                 # L: all stationary points pass the grade
    kernel_side: bool                     # R: certify_domain found no failures
    stationary_count: int
    stationary_failures: tuple[StationaryGlobality, ...]
    kernel_failures: tuple[PairVerdict, ...]

    @property
    def agreement(self) -> bool:
        return self.stationary_side == self.kernel_side


@dataclass
class CrosscheckReport:
    problem_name: str
    grid_step: float
    pair_step: float
    checks: tuple[TheoremCheck, ...]

    @property
    def agreement(self) -> bool:
        return all(check.agreement for check in self.checks)

    def check_for(self, kind: InvexityKind) -> TheoremCheck:
        for check in self.checks:
            if check.kind is kind:
                return check
        raise KeyError(getattr(kind, "value", kind))


def _grade_stationary(
    problem: Problem,
    points: tuple[StationaryPoint, ...],
    grid_step: float,
    tol: ToleranceConfig,
    *,
    analysis: Analysis | None = None,
) -> tuple[StationaryGlobality, ...]:
    """Every stationary point graded against the weighting problem of its λ."""
    if not points:
        return ()
    verdicts = grade_weighting_solutions(
        problem,
        [WeightVector(tuple(sp.multipliers.lam)) for sp in points],
        np.array([sp.x for sp in points]),
        grid_step,
        tol,
        analysis=analysis,
    )
    return tuple(
        StationaryGlobality(x=sp.x, lam=sp.multipliers.lam, verdict=verdict)
        for sp, verdict in zip(points, verdicts)
    )


def theorem_crosscheck(
    problem: Problem,
    grid_step: float,
    pair_step: float = 0.25,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    analysis: Analysis | None = None,
) -> CrosscheckReport:
    """Confront stationary/weighting scans with pairwise kernel verdicts.

    The unconstrained reading (vector critical points, invex kinds) drops
    the constraints entirely; the KT reading keeps them. For each of the
    four kinds the stationary side L and the kernel side R must agree —
    `CrosscheckReport.agreement` is the master flag CI keys off. With an
    ``analysis``, the scans and sweeps that earlier stages computed in it
    are reused.
    """
    analysis = use_analysis(analysis, problem, tol)
    sampler = GridSampler(float(pair_step))
    unconstrained = analysis.unconstrained
    critical = scan_critical_points(
        unconstrained, grid_step, StationaryKind.VECTOR, tol, analysis=analysis
    )
    kt_points = scan_critical_points(
        problem, grid_step, StationaryKind.KT, tol, analysis=analysis
    )

    checks = []
    graded = {}  # the strict and nonstrict kinds grade the same points
    for kind, base, points in (
        (InvexityKind.INVEX, unconstrained, critical),
        (InvexityKind.STRICT_INVEX, unconstrained, critical),
        (InvexityKind.KT_INVEX, problem, kt_points),
        (InvexityKind.STRICT_KT_INVEX, problem, kt_points),
    ):
        if kind.is_kt not in graded:
            graded[kind.is_kt] = _grade_stationary(
                base, points, grid_step, tol, analysis=analysis
            )
        # L side: every stationary point Global (strict: UniqueGlobal) for its λ
        l_failures = tuple(
            g
            for g in graded[kind.is_kt]
            if not (
                g.verdict.globality is Globality.UNIQUE_GLOBAL
                if kind.is_strict
                else g.verdict.is_global
            )
        )
        domain = certify_domain(base, kind, sampler, tol, analysis=analysis)
        checks.append(
            TheoremCheck(
                kind=kind,
                stationary_side=not l_failures,
                kernel_side=domain.all_pairs_kernel,
                stationary_count=len(points),
                stationary_failures=l_failures,
                kernel_failures=domain.failures,
            )
        )
    return CrosscheckReport(
        problem_name=problem.name,
        grid_step=float(grid_step),
        pair_step=float(pair_step),
        checks=tuple(checks),
    )
