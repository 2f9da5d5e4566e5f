"""Acceptance criteria: one test per criterion, one printed pass/fail line each.

These are the binding end-to-end checks. Each test gathers its findings into
a list of problem strings, records a single human-readable line (echoed in
the terminal summary), and only then asserts — so a red run still reports
every criterion's status.
"""

import time

import numpy as np
import pytest
from conftest import record_acceptance

from invexcheck.alternative import motzkin, validate_motzkin
from invexcheck.expressions import eval_value, eval_with_gradient
from invexcheck.invexity import (
    GridSampler,
    InvexityKind,
    certify_domain,
    strict_invex_pair,
    theorem_crosscheck,
)
from invexcheck.problems import (
    Problem,
    evaluate,
    fixture,
    fixture_names,
    grid_points,
    without_constraints,
)
from invexcheck.scalarization import (
    Globality,
    WeightVector,
    is_global_weighting_solution,
    solve_weighting,
    weakly_efficient_scan,
)
from invexcheck.simplex import (
    ROW_EQ,
    ROW_LE,
    VAR_FREE,
    VAR_NONNEG,
    FarkasCertificate,
    check_feasibility,
    solve_lp,
    validate_outcome,
)
from invexcheck.stationarity import StationaryKind, scan_critical_points
from lpgen import random_lp, random_matrix

FLAGSHIP = "paper-example-2.1"

# constrained companion problem for criterion 5: the fixtures never produce a
# KT certificate with an active constraint, so this one guarantees the
# mu-bearing replay path is exercised (objective pulls against the active
# boundary of a disconnected feasible set)
SPLIT_INTERVAL = Problem(
    name="split-interval",
    variables=("x",),
    objectives=("x",),
    constraints=("1 - x^2",),
    box=((-3.0, 3.0),),
)


def node_set(points):
    return {tuple(round(float(v), 9) for v in np.atleast_1d(p)) for p in points}


def finish(n, label, problems, elapsed=None, budget=None):
    if budget is not None and elapsed > budget:
        problems.append(f"runtime {elapsed:.1f}s exceeds {budget:.0f}s budget")
    status = "pass" if not problems else "FAIL"
    timing = f", {elapsed:.1f}s" if elapsed is not None else ""
    record_acceptance(f"criterion {n} ({label}{timing}): {status}")
    assert not problems, problems


def test_criterion_1_flagship_regression():
    t0 = time.perf_counter()
    problems = []
    p = fixture(FLAGSHIP)
    step = 0.01

    expected = {
        xs for xs in node_set(grid_points(p, step)) if abs(xs[0]) <= 1.0 + 1e-9
    }
    critical = node_set(sp.x for sp in scan_critical_points(p, step, StationaryKind.VECTOR))
    efficient = node_set(weakly_efficient_scan(p, step))
    weighting = node_set(
        solve_weighting(p, WeightVector((0.5, 0.5)), step).grid_minimizers
    )
    for name, got in [
        ("vector-critical", critical),
        ("weakly-efficient", efficient),
        ("weighting-minimizer", weighting),
    ]:
        stray = {
            xs
            for xs in got.symmetric_difference(expected)
            if min(abs(xs[0] - 1.0), abs(xs[0] + 1.0)) > step + 1e-9
        }
        if stray:
            problems.append(f"{name} nodes differ from [-1, 1] beyond one step: {sorted(stray)[:4]}")

    verdict = strict_invex_pair(evaluate(p, [0.0]), evaluate(p, [0.5]))
    if verdict.certificate is None:
        problems.append("strict pair (0, 0.5) did not return a certificate")

    dv = certify_domain(p, InvexityKind.INVEX, GridSampler(0.25))
    if not dv.all_pairs_kernel:
        problems.append("0.25-grid sweep did not certify every pair as invex")

    finish(1, f"{FLAGSHIP} regression", problems,
           time.perf_counter() - t0, budget=10.0)


def test_criterion_2_alternative_exactly_one_branch():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(20260816)
    for i in range(1000):
        A = random_matrix(rng)
        if i % 2 == 0:  # Gordan's theorem: no weak rows
            out = motzkin(A)
            defects = validate_motzkin(A, None, out)
            one_branch = (out.primal_witness is None) != (out.dual_witness_y is None)
            other_infeasible = _gordan_other_branch_infeasible(A, out)
        else:
            B = rng.uniform(-5, 5, size=(int(rng.integers(1, 7)), A.shape[1]))
            out = motzkin(A, B)
            defects = validate_motzkin(A, B, out)
            got_primal = out.primal_witness is not None
            got_dual = out.dual_witness_y is not None
            one_branch = got_primal != got_dual
            other_infeasible = _motzkin_other_branch_infeasible(A, B, out)
        if defects:
            problems.append(f"instance {i}: witness replay failed: {defects}")
        if not one_branch:
            problems.append(f"instance {i}: not exactly one branch")
        if not other_infeasible:
            problems.append(f"instance {i}: LP found the other branch feasible")
        if len(problems) > 5:
            break
    finish(2, "alternative theorems, 1000 instances", problems,
           time.perf_counter() - t0, budget=30.0)


def _gordan_other_branch_infeasible(A, out):
    m, n = A.shape
    if out.primal_witness is not None:
        # dual side: A^T y = 0, sum y = 1, y >= 0 must be empty
        M = np.vstack([A.T, np.ones((1, m))])
        rhs = np.zeros(n + 1)
        rhs[n] = 1.0
        got = check_feasibility(M, rhs, (ROW_EQ,) * (n + 1), (VAR_NONNEG,) * m)
    else:
        # primal side: A x <= -1 (scale-invariant form of A x < 0) must be empty
        got = check_feasibility(A, -np.ones(m), (ROW_LE,) * m, (VAR_FREE,) * n)
    return isinstance(got, FarkasCertificate)


def _motzkin_other_branch_infeasible(A, B, out):
    m, n = A.shape
    k = B.shape[0]
    if out.primal_witness is not None:
        M = np.vstack([np.hstack([A.T, B.T]), np.concatenate([np.ones(m), np.zeros(k)])])
        rhs = np.zeros(n + 1)
        rhs[n] = 1.0
        got = check_feasibility(
            M, rhs, (ROW_EQ,) * (n + 1), (VAR_NONNEG,) * (m + k)
        )
    else:
        M = np.vstack([A, B])
        rhs = np.concatenate([-np.ones(m), np.zeros(k)])
        got = check_feasibility(M, rhs, (ROW_LE,) * (m + k), (VAR_FREE,) * n)
    return isinstance(got, FarkasCertificate)


def test_criterion_3_lp_certificate_replay():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(61003)
    for i in range(1000):
        lp = random_lp(rng)
        out = solve_lp(lp)
        defects = validate_outcome(lp, out)
        if defects:
            problems.append(f"instance {i} ({out.status.value}): {defects}")
            if len(problems) > 5:
                break
    finish(3, "LP certificate replay, 1000 instances", problems,
           time.perf_counter() - t0, budget=30.0)


CROSSCHECK_FIXTURES = (FLAGSHIP, "convex-pair", "cube", "two-var-convex")


def _crosscheck(name):
    return theorem_crosscheck(fixture(name), 0.05, pair_step=0.25)


def test_criterion_4_stationary_vs_kernel_crosscheck():
    t0 = time.perf_counter()
    problems = []
    for name in CROSSCHECK_FIXTURES:
        check = _crosscheck(name).check_for(InvexityKind.INVEX)
        if not check.agreement:
            problems.append(
                f"{name}: stationary side {check.stationary_side} vs "
                f"kernel side {check.kernel_side}"
            )
    cube_check = _crosscheck("cube").check_for(InvexityKind.INVEX)
    if cube_check.stationary_side:
        problems.append("cube: stationary side unexpectedly true")
    else:
        failure = cube_check.stationary_failures[0]
        if abs(failure.x[0]) > 1e-9 or abs(failure.lam[0] - 1.0) > 1e-9:
            problems.append(f"cube witness at x={failure.x}, lam={failure.lam}")
        if failure.verdict.witness is None or (
            failure.verdict.witness_value >= failure.verdict.value
        ):
            problems.append("cube witness does not carry a strictly better point")
        if not cube_check.kernel_failures:
            problems.append("cube: no matching pairwise failure witness")
    finish(4, "stationary/kernel cross-check", problems,
           time.perf_counter() - t0, budget=10.0)


def test_criterion_5_kt_crosscheck_and_certificate_replay():
    t0 = time.perf_counter()
    problems = []
    for name in ("kt-linear-quad", "two-var-convex"):
        check = theorem_crosscheck(fixture(name), 0.05, pair_step=0.25).check_for(
            InvexityKind.KT_INVEX
        )
        if not check.agreement:
            problems.append(f"{name}: KT sides disagree")

    certificates = 0
    mu_bearing = 0
    sweeps = [(fixture(name), name) for name in fixture_names()]
    sweeps.append((SPLIT_INTERVAL, SPLIT_INTERVAL.name))
    for problem, name in sweeps:
        dv = certify_domain(problem, InvexityKind.KT_INVEX, GridSampler(0.25))
        for verdict in dv.failures:
            certificates += 1
            cert = verdict.certificate
            pbar = evaluate(problem, verdict.xbar)
            px = evaluate(problem, verdict.x)
            residual = cert.lam @ pbar.objective_jacobian
            if cert.mu is not None and cert.mu.size:
                mu_bearing += 1
                residual = residual + cert.mu @ pbar.active_jacobian
            if float(np.max(np.abs(residual))) > 1e-7:
                problems.append(f"{name} ({verdict.xbar}): certificate not KT-stationary")
            before = float(cert.lam @ np.asarray(pbar.objective_values))
            after = float(cert.lam @ np.asarray(px.objective_values))
            if not after < before:
                problems.append(
                    f"{name} ({verdict.xbar} -> {verdict.x}): paired point does "
                    f"not beat the certificate's weighting value"
                )
    if certificates == 0:
        problems.append("no KT certificates produced anywhere; replay was vacuous")
    if mu_bearing == 0:
        problems.append("no certificate used an active-constraint multiplier")
    finish(5, "KT cross-check and certificate replay", problems,
           time.perf_counter() - t0)


def test_criterion_6_strict_variants():
    t0 = time.perf_counter()
    problems = []

    p = fixture(FLAGSHIP)
    flat_mults = None
    for sp in scan_critical_points(p, 0.05, StationaryKind.VECTOR):
        if abs(sp.x[0]) < 1e-9:
            flat_mults = sp.multipliers
    if flat_mults is None:
        problems.append(f"{FLAGSHIP}: x=0 not in the critical scan")
    else:
        verdict = is_global_weighting_solution(
            p, WeightVector(tuple(flat_mults.lam)), [0.0], 0.05
        )
        if verdict.globality is Globality.UNIQUE_GLOBAL:
            problems.append(f"{FLAGSHIP}: x=0 graded UniqueGlobal on a flat tie")
        if not verdict.is_global:
            problems.append(f"{FLAGSHIP}: x=0 should still be (non-unique) global")
    strict_dv = certify_domain(p, InvexityKind.STRICT_INVEX, GridSampler(0.25))
    if strict_dv.all_pairs_kernel or not strict_dv.failures:
        problems.append(f"{FLAGSHIP}: strict sweep found no failure witness")

    ktlq = fixture("kt-linear-quad")
    kt_points = scan_critical_points(ktlq, 0.05, StationaryKind.KT)
    if len(kt_points) != 1 or abs(kt_points[0].x[0]) > 1e-9:
        problems.append(
            f"kt-linear-quad: expected the sole KT point at 0, got "
            f"{[sp.x[0] for sp in kt_points]}"
        )
    else:
        sp = kt_points[0]
        verdict = is_global_weighting_solution(
            ktlq, WeightVector(tuple(sp.multipliers.lam)), sp.x, 0.05
        )
        if verdict.globality is not Globality.UNIQUE_GLOBAL:
            problems.append(
                f"kt-linear-quad: KT point graded {verdict.globality.value}"
            )
    strict_kt_dv = certify_domain(ktlq, InvexityKind.STRICT_KT_INVEX, GridSampler(0.25))
    if not strict_kt_dv.all_pairs_kernel:
        problems.append("kt-linear-quad: strict KT sweep found an unexpected failure")

    finish(6, "strict-variant consistency", problems, time.perf_counter() - t0)


def test_criterion_7_kernel_certificate_replay_suite():
    t0 = time.perf_counter()
    problems = []
    kernels = certificates = 0
    for name in fixture_names():
        for kind in InvexityKind:
            problem = fixture(name)
            reading = problem if kind.is_kt else without_constraints(problem)
            dv = certify_domain(problem, kind, GridSampler(0.25))
            for verdict in dv.kernels:
                kernels += 1
                msg = _replay_kernel(reading, verdict, kind)
                if msg:
                    problems.append(f"{name}/{kind.value}: {msg}")
            for verdict in dv.failures:
                certificates += 1
                msg = _replay_certificate(reading, verdict, kind)
                if msg:
                    problems.append(f"{name}/{kind.value}: {msg}")
            if len(problems) > 8:
                break
    if kernels == 0 or certificates == 0:
        problems.append(f"vacuous sweep: {kernels} kernels, {certificates} certificates")
    finish(7, f"replay of {kernels} kernels / {certificates} certificates",
           problems, time.perf_counter() - t0)


def _replay_kernel(problem, verdict, kind):
    pbar = evaluate(problem, verdict.xbar)
    px = evaluate(problem, verdict.x)
    eta = verdict.kernel.eta
    slack = (
        np.asarray(px.objective_values)
        - np.asarray(pbar.objective_values)
        - pbar.objective_jacobian @ eta
    )
    if kind.is_strict:
        if verdict.kernel.margin <= 0:
            return f"strict kernel with nonpositive margin {verdict.kernel.margin}"
        if slack.min() < verdict.kernel.margin - 1e-7:
            return f"strict slack {slack.min():.3e} below margin {verdict.kernel.margin:.3e}"
    if slack.min() < -1e-7:
        return f"kernel inequality violated by {slack.min():.3e}"
    if kind.is_kt and pbar.active_indices:
        weak = pbar.active_jacobian @ eta
        if weak.max() > 1e-7:
            return f"active-constraint row violated by {weak.max():.3e}"
    return None


def _replay_certificate(problem, verdict, kind):
    pbar = evaluate(problem, verdict.xbar)
    px = evaluate(problem, verdict.x)
    cert = verdict.certificate
    if cert.lam.min() < -1e-12 or abs(cert.lam.sum() - 1.0) > 1e-9:
        return f"weights not in the simplex: {cert.lam}"
    residual = cert.lam @ pbar.objective_jacobian
    if cert.mu is not None and cert.mu.size:
        if cert.mu.min() < -1e-12:
            return f"negative constraint multiplier: {cert.mu}"
        residual = residual + cert.mu @ pbar.active_jacobian
    if float(np.max(np.abs(residual))) > 1e-7:
        return f"stationarity residual {np.max(np.abs(residual)):.3e}"
    recomputed = float(
        cert.lam @ (np.asarray(px.objective_values) - np.asarray(pbar.objective_values))
    )
    if abs(recomputed - cert.violation) > 1e-9:
        return f"stored violation {cert.violation} != recomputed {recomputed}"
    if kind.is_strict:
        if cert.violation > 1e-7:
            return f"strict certificate with positive violation {cert.violation:.3e}"
    elif cert.violation >= -1e-7:
        return f"certificate violation {cert.violation:.3e} not beyond tolerance"
    return None


def test_criterion_8_gradient_validation():
    t0 = time.perf_counter()
    problems = []
    step = 1e-6
    for name in fixture_names():
        p = fixture(name)
        rng = np.random.default_rng(88001)
        lo = np.array([b[0] for b in p.box]) + 1e-3
        hi = np.array([b[1] for b in p.box]) - 1e-3
        points = [rng.uniform(lo, hi) for _ in range(100)]
        if name == FLAGSHIP:
            # keep random samples clear of the seams, then probe the seams
            # deliberately from both sides
            points = [
                x if min(abs(x[0] - 1), abs(x[0] + 1)) > 5e-6 else x + 1e-5
                for x in points
            ]
            points += [np.array([s + d]) for s in (-1.0, 1.0) for d in (-1e-5, 1e-5)]
        exprs = p.objective_asts + p.constraint_asts
        for x in points:
            for expr in exprs:
                _, grad = eval_with_gradient(expr, x)
                for j in range(x.size):
                    e = np.zeros(x.size)
                    e[j] = step
                    fd = (eval_value(expr, x + e) - eval_value(expr, x - e)) / (2 * step)
                    if abs(grad[j] - fd) > 1e-6 * max(1.0, abs(fd)):
                        problems.append(
                            f"{name} at {x.tolist()} coord {j}: "
                            f"ad {grad[j]:.9g} vs fd {fd:.9g}"
                        )
        if len(problems) > 8:
            break
    finish(8, "gradients vs central differences", problems,
           time.perf_counter() - t0)
