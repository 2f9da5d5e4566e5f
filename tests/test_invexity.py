"""Pairwise invexity certificates, domain sweeps, theorem cross-checks."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from problemgen import small_polynomial_problems
from reference_pairs import _weighted_change_lp, reference_pair
from reference_report import validate_evaluated_pair

from invexcheck.invexity import (
    DEGENERATE_PAIR_RADIUS,
    DegeneratePairError,
    DualCertificate,
    GridSampler,
    InvexityKind,
    KernelWitness,
    PairVerdict,
    RandomSampler,
    StationaryGlobality,
    _grade_stationary,
    certify_domain,
    certify_pair,
    theorem_crosscheck,
)
from invexcheck.problems import (
    Analysis,
    InfeasiblePointError,
    Problem,
    evaluate,
    evaluate_many,
    fixture,
    fixture_names,
    grid_points,
    without_constraints,
)
from invexcheck.scalarization import (
    Globality,
    WeightVector,
    is_global_weighting_solution,
)
from invexcheck.replay import validate_evaluated_pairs, validate_pair_verdict
from invexcheck.report import canonical_json, domain_verdict_to_dict
from invexcheck.simplex import DEFAULT_TOL, NumericalBreakdownError, ToleranceConfig
from invexcheck.stationarity import (
    Multipliers,
    StationaryKind,
    StationaryPoint,
    scan_critical_points,
)

# objective pulls right at the boundary x = 1 of the disconnected feasible
# set {|x| >= 1}, while lower values live on the far component: the KT
# certificate at (1, -1) must use the constraint multiplier
SPLIT_INTERVAL = Problem(
    name="split-interval",
    variables=("x",),
    objectives=("x",),
    constraints=("1 - x^2",),
    box=((-3.0, 3.0),),
)


def same_domain_verdicts(a, b) -> bool:
    """Equal sweeps: the same report bytes, every float to the last bit."""
    return canonical_json(domain_verdict_to_dict(a)) == canonical_json(
        domain_verdict_to_dict(b)
    )


def pair(name, xbar, x, kind):
    p = SPLIT_INTERVAL if name == "split-interval" else fixture(name)
    return certify_pair(
        evaluate(p, np.atleast_1d(xbar)), evaluate(p, np.atleast_1d(x)), kind
    )


def test_kernel_found_for_convex_pair():
    verdict = pair("convex-pair", 1.0, 0.0, InvexityKind.INVEX)
    assert verdict.holds
    assert verdict.certificate is None
    assert verdict.kernel.eta == pytest.approx([-1.0])
    assert verdict.kernel.margin == pytest.approx(1.0)
    assert validate_pair_verdict(fixture("convex-pair"), verdict) == []


def test_certificate_at_saddle_of_cube():
    verdict = pair("cube", 0.0, -1.0, InvexityKind.INVEX)
    assert not verdict.holds
    assert verdict.kernel is None
    cert = verdict.certificate
    assert cert.lam == pytest.approx([1.0])
    assert cert.mu is None
    assert cert.violation == pytest.approx(-1.0)
    assert validate_pair_verdict(fixture("cube"), verdict) == []


def test_same_point_nonstrict_pair_certifies_trivially():
    verdict = pair("cube", 1.0, 1.0, InvexityKind.INVEX)
    assert verdict.holds
    assert verdict.kernel.eta == pytest.approx([0.0])


def test_strict_pair_rejects_coincident_points():
    with pytest.raises(DegeneratePairError):
        pair("paper-example-2.1", 0.0, 0.0, InvexityKind.STRICT_INVEX)
    with pytest.raises(DegeneratePairError):
        pair("two-var-convex", (0.0, 0.0), (0.0, 0.0), InvexityKind.STRICT_KT_INVEX)


def test_strict_certificate_on_flat_stretch():
    # both objectives are flat between the critical points, so no eta can be
    # strictly below zero change; the refuting weights ride the flat rows
    verdict = pair("paper-example-2.1", 0.0, 0.5, InvexityKind.STRICT_INVEX)
    assert not verdict.holds
    cert = verdict.certificate
    assert cert.lam.min() >= -1e-12
    assert cert.lam.sum() == pytest.approx(1.0)
    assert cert.violation == pytest.approx(0.0, abs=1e-12)
    assert validate_pair_verdict(fixture("paper-example-2.1"), verdict) == []


def test_strict_kernel_with_margin():
    verdict = pair("paper-example-2.1", 2.0, 0.5, InvexityKind.STRICT_INVEX)
    assert verdict.holds
    assert verdict.kernel.margin > 0
    assert validate_pair_verdict(fixture("paper-example-2.1"), verdict) == []

    verdict = pair("two-var-convex", (0.0, 0.0), (1.0, 0.0), InvexityKind.STRICT_KT_INVEX)
    assert verdict.holds
    assert verdict.kernel.eta == pytest.approx([1.0, 0.0])
    assert validate_pair_verdict(fixture("two-var-convex"), verdict) == []


def test_kt_pair_uses_active_rows():
    verdict = pair("kt-linear-quad", 0.0, 1.0, InvexityKind.KT_INVEX)
    assert verdict.holds
    assert validate_pair_verdict(fixture("kt-linear-quad"), verdict) == []


def test_kt_pair_requires_feasible_points():
    with pytest.raises(InfeasiblePointError):
        pair("kt-linear-quad", 0.0, -1.0, InvexityKind.KT_INVEX)
    with pytest.raises(InfeasiblePointError):
        pair("kt-linear-quad", -1.0, 0.0, InvexityKind.KT_INVEX)


def test_kt_certificate_carries_constraint_multiplier():
    # objective gradient points into the active constraint, and the other
    # component of the feasible set holds strictly better values
    verdict = pair("split-interval", 1.0, -1.0, InvexityKind.KT_INVEX)
    assert not verdict.holds
    cert = verdict.certificate
    assert cert.lam == pytest.approx([1.0])
    assert cert.mu == pytest.approx([0.5])
    assert cert.violation == pytest.approx(-2.0)
    assert validate_pair_verdict(SPLIT_INTERVAL, verdict) == []


@pytest.mark.parametrize("kind", [InvexityKind.KT_INVEX, InvexityKind.STRICT_KT_INVEX],
                         ids=lambda k: k.value)
def test_kt_descent_kernel_survives_rounding(kind):
    # x̄ is not KT-stationary, so the descent direction d (Jg_A·d = 0) must
    # settle the pair; t·d left Jg_A·η at a few ulps above 0, and the LP
    # over the empty Λ(x̄) then raised
    problem = Problem(
        name="random-polynomial",
        variables=("x", "y"),
        objectives=(
            "(1.5) * x^1 + (0.5) * x^3 * y^3 + (-1.0) * x^1 * y^1",
            "(-2.0) * x^2 * y^1",
        ),
        constraints=("(-2.0) * x^3 * y^1 + (1.0) * x^2 * y^3 + (-0.5)",),
        box=((-1.0, 1.0), (-1.0, 1.0)),
    )
    pbar = evaluate(problem, [-0.5, 1.0])
    assert pbar.active_indices == (0,)
    for x in ([-1.0, 0.0], [-0.5, -1.0]):
        verdict = certify_pair(pbar, evaluate(problem, x), kind)
        assert verdict.holds
        assert validate_pair_verdict(problem, verdict) == []


@pytest.mark.parametrize("kind", [InvexityKind.KT_INVEX, InvexityKind.STRICT_KT_INVEX],
                         ids=lambda k: k.value)
def test_kt_failure_with_tiny_active_gradient(kind):
    # x̄ = 0 is KT-stationary with μ = 1e7; η = x − x̄ leaves Jg_A·η = 1e-7·|x|,
    # which a slack on the active rows would accept though λ·Δf = x < 0
    problem = Problem(
        name="tiny-active-gradient",
        variables=("x",),
        objectives=("x",),
        constraints=("(-1e-07) * x + (-1.0) * x^2",),
        box=((-1.0, 1.0),),
    )
    dv = certify_domain(problem, kind, GridSampler(0.25))
    assert [(tuple(v.xbar), tuple(v.x)) for v in dv.failures] == [
        ((0.0,), (x,)) for x in (-1.0, -0.75, -0.5, -0.25)
    ]
    for verdict in dv.failures:
        assert verdict.certificate.violation == verdict.x[0]
        assert verdict.certificate.mu == pytest.approx([1e7])
        assert validate_pair_verdict(problem, verdict) == []
    assert theorem_crosscheck(problem, 0.25).check_for(kind).agreement


def test_pair_rejects_points_from_different_problems():
    a = evaluate(fixture("cube"), [0.0])
    b = evaluate(fixture("convex-pair"), [0.0])
    with pytest.raises(ValueError):
        certify_pair(a, b, InvexityKind.INVEX)


def test_validate_pair_verdict_catches_tampering():
    verdict = pair("convex-pair", 1.0, 0.0, InvexityKind.INVEX)
    verdict.kernel.eta[0] = 5.0
    assert validate_pair_verdict(fixture("convex-pair"), verdict) != []

    verdict = pair("cube", 0.0, -1.0, InvexityKind.INVEX)
    verdict.certificate.lam[0] = 0.5
    assert validate_pair_verdict(fixture("cube"), verdict) != []


def test_validate_pair_verdict_fails_an_overflowing_kernel():
    # Jf·η = 0.4e308 > Δf = 0, but a sum taken in order overflows to -inf
    # after two terms, and a slack of +inf would pass every bound
    problem = Problem(name="sum4", variables=("a", "b", "c", "d"),
                      objectives=("a + b + c + d",), constraints=(), box=((-1.0, 1.0),) * 4)
    eta = np.array([-1.5e308, -1.5e308, 1.7e308, 1.7e308])
    verdict = PairVerdict(InvexityKind.INVEX, np.zeros(4), np.zeros(4),
                          KernelWitness(eta, 0.0), None)
    (defect,) = validate_pair_verdict(problem, verdict)
    assert defect.startswith("kernel row violated by ")


def test_domain_sweep_counts_cube():
    dv = certify_domain(fixture("cube"), InvexityKind.INVEX, GridSampler(0.25))
    assert not dv.all_pairs_kernel
    assert dv.points_sampled == 17
    # nonstrict sweeps include the diagonal (eta = 0 certifies x = xbar)
    assert dv.checked_pairs == 17 * 17
    assert len(dv.failures) == 8
    assert all(f.xbar == pytest.approx([0.0]) for f in dv.failures)
    assert all(f.x[0] < 0 for f in dv.failures)


def test_domain_sweep_counts_flat_stretch_strict():
    dv = certify_domain(
        fixture("paper-example-2.1"), InvexityKind.STRICT_INVEX, GridSampler(0.25)
    )
    assert not dv.all_pairs_kernel
    assert dv.points_sampled == 25
    assert dv.checked_pairs == 25 * 24
    assert len(dv.failures) == 72  # 9 flat nodes x 8 flat partners


def test_domain_sweep_kernel_sample_is_bounded():
    dv = certify_domain(
        fixture("paper-example-2.1"), InvexityKind.INVEX, GridSampler(0.25)
    )
    assert dv.all_pairs_kernel
    assert dv.failures == ()
    assert len(dv.kernels) == 100  # capped sample of the 600 passing pairs


def test_domain_sweep_restricts_kt_kinds_to_feasible_points():
    dv = certify_domain(
        fixture("kt-linear-quad"), InvexityKind.KT_INVEX, GridSampler(0.25)
    )
    assert dv.all_pairs_kernel
    assert dv.points_sampled == 9  # 17 grid nodes, 9 with x >= 0
    assert dv.checked_pairs == 9 * 9


def test_domain_sweep_is_cached():
    # the sweep is kept in the analysis its calls share, and only there
    p = fixture("cube")
    analysis = Analysis(p)
    a = certify_domain(p, InvexityKind.INVEX, GridSampler(0.25), analysis=analysis)
    b = certify_domain(p, InvexityKind.INVEX, GridSampler(0.25), analysis=analysis)
    assert a is b
    c = certify_domain(p, InvexityKind.INVEX, GridSampler(0.25))
    assert c is not a
    assert same_domain_verdicts(a, c)


def test_domain_sweep_results_are_read_only():
    dv = certify_domain(fixture("cube"), InvexityKind.INVEX, GridSampler(0.25))
    failure, kernel = dv.failures[0], dv.kernels[0]
    for arr in (
        failure.xbar,
        failure.x,
        failure.certificate.lam,
        kernel.xbar,
        kernel.x,
        kernel.kernel.eta,
    ):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    kt = certify_domain(SPLIT_INTERVAL, InvexityKind.KT_INVEX, GridSampler(0.25))
    with pytest.raises(ValueError):
        kt.failures[0].certificate.mu[0] = 9.0
    again = certify_domain(fixture("cube"), InvexityKind.INVEX, GridSampler(0.25))
    assert again.failures[0].xbar == pytest.approx([0.0])


def test_random_sampler_is_deterministic():
    p, sampler = fixture("convex-pair"), RandomSampler(30, seed=3)
    analysis = Analysis(p)
    dv1 = certify_domain(p, InvexityKind.INVEX, sampler, analysis=analysis)
    assert certify_domain(p, InvexityKind.INVEX, sampler, analysis=analysis) is dv1
    dv2 = certify_domain(p, InvexityKind.INVEX, sampler)
    assert same_domain_verdicts(dv1, dv2)
    assert dv1.all_pairs_kernel
    assert dv1.points_sampled == 30


def test_crosscheck_convex_problem_agrees_positively():
    report = theorem_crosscheck(fixture("convex-pair"), 0.1)
    assert report.agreement
    for kind in InvexityKind:
        check = report.check_for(kind)
        assert check.agreement
        assert check.stationary_side and check.kernel_side
        assert check.stationary_count > 0


def test_crosscheck_cube_agrees_negatively():
    report = theorem_crosscheck(fixture("cube"), 0.05)
    assert report.agreement
    check = report.check_for(InvexityKind.INVEX)
    assert not check.stationary_side
    assert not check.kernel_side
    assert len(check.stationary_failures) == 1
    failure = check.stationary_failures[0]
    assert failure.x == pytest.approx([0.0])
    assert failure.lam == pytest.approx([1.0])
    assert failure.verdict.witness_value < failure.verdict.value
    assert check.kernel_failures != ()


def test_crosscheck_unknown_kind_lookup():
    report = theorem_crosscheck(fixture("cube"), 0.25)
    with pytest.raises(KeyError):
        report.check_for("nonsense")


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_convex_quadratics_always_yield_kernels(a, b, xbar, x):
    problem = Problem(
        name="random-quadratic",
        variables=("x",),
        objectives=(f"{a:.8f} * x^2 + {b:.8f} * x",),
        constraints=(),
        box=((-2.0, 2.0),),
    )
    verdict = certify_pair(
        evaluate(problem, [xbar]), evaluate(problem, [x]), InvexityKind.INVEX
    )
    assert verdict.holds
    assert validate_pair_verdict(problem, verdict) == []


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-1.5, max_value=1.5),
)
# Δf of the first objective (1e-10) is below the strict tolerance
@example(a=1.0, xbar=0.0, x=1e-5)
def test_strict_kernels_replay_for_strictly_convex_objectives(a, xbar, x):
    if abs(x - xbar) < 1e-6:
        return
    problem = Problem(
        name="random-strict-quadratic",
        variables=("x",),
        objectives=(f"{a:.8f} * x^2", f"{a:.8f} * (x - 1)^2"),
        constraints=(),
        box=((-2.0, 2.0),),
    )
    verdict = certify_pair(
        evaluate(problem, [xbar]), evaluate(problem, [x]), InvexityKind.STRICT_INVEX
    )
    assert verdict.holds
    assert verdict.kernel.margin > 0
    assert validate_pair_verdict(problem, verdict) == []


def evaluated_points(problem, kind, sampler, tol=DEFAULT_TOL):
    """The sampled points a sweep of ``kind`` decides, evaluated one by one."""
    if not kind.is_kt:
        problem = without_constraints(problem)
    evaluated = [evaluate(problem, x, tol) for x in sampler.points(problem)]
    if kind.is_kt:
        evaluated = [ep for ep in evaluated if ep.feasible]
    if not evaluated:
        raise InfeasiblePointError("sampler produced no feasible point")
    return evaluated


def ordered_pairs(evaluated, kind):
    """Every ordered pair a sweep of ``kind`` checks: strict kinds skip x = x̄."""
    return [
        (pbar, p)
        for pbar in evaluated
        for p in evaluated
        if not kind.is_strict
        or float(np.linalg.norm(p.x - pbar.x)) > DEGENERATE_PAIR_RADIUS
    ]


def pairwise_sweep(problem, kind, sampler, tol=DEFAULT_TOL):
    """Reference sweep: the old pair engines on every ordered pair.

    Returns (checked_pairs, points_sampled, failures) as `certify_domain`
    computed them before sweeps were decided per base point and one LP
    settled every kind.
    """
    evaluated = evaluated_points(problem, kind, sampler, tol)
    pairs = ordered_pairs(evaluated, kind)
    verdicts = [reference_pair(pbar, p, kind, tol) for pbar, p in pairs]
    return len(pairs), len(evaluated), [v for v in verdicts if not v.holds]


def same_certificate(got, want) -> bool:
    """Equal certificates, every float to the last bit."""
    if (got.mu is None) != (want.mu is None):
        return False
    return (
        got.lam.tobytes() == want.lam.tobytes()
        and (want.mu is None or got.mu.tobytes() == want.mu.tobytes())
        and float(got.violation).hex() == float(want.violation).hex()
    )


def assert_sweep_matches(problem, kind, sampler, reference):
    checked, sampled, failures = reference
    dv = certify_domain(problem, kind, sampler)
    assert dv.checked_pairs == checked
    assert dv.points_sampled == sampled
    assert dv.all_pairs_kernel == (not failures)
    assert [(tuple(v.xbar), tuple(v.x)) for v in dv.failures] == [
        (tuple(v.xbar), tuple(v.x)) for v in failures
    ]
    reading = problem if kind.is_kt else without_constraints(problem)
    for got, want in zip(dv.failures, failures):
        assert got.kernel is None
        assert same_certificate(got.certificate, want.certificate)
        # the single-pair certifier gives the sweep's certificate
        single = certify_pair(evaluate(reading, got.xbar), evaluate(reading, got.x), kind)
        assert same_certificate(single.certificate, got.certificate)
    for verdict in dv.kernels:
        assert validate_pair_verdict(reading, verdict) == []


SWEEP_PROBLEMS = fixture_names() + ("split-interval",)


@pytest.mark.parametrize("step", [0.25, 0.5, 2 / 3], ids=["0.25", "0.5", "2/3"])
@pytest.mark.parametrize("kind", list(InvexityKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", SWEEP_PROBLEMS)
def test_domain_sweep_matches_pairwise_reference(name, kind, step):
    problem = SPLIT_INTERVAL if name == "split-interval" else fixture(name)
    sampler = GridSampler(step)
    assert_sweep_matches(
        problem, kind, sampler, pairwise_sweep(problem, kind, sampler)
    )


@pytest.mark.parametrize("kind", list(InvexityKind), ids=lambda k: k.value)
def test_random_sweep_matches_pairwise_reference(kind):
    problem = fixture("paper-example-2.1")
    sampler = RandomSampler(24, seed=11)
    assert_sweep_matches(
        problem, kind, sampler, pairwise_sweep(problem, kind, sampler)
    )


@settings(max_examples=50, deadline=None)
@given(small_polynomial_problems(), st.sampled_from(list(InvexityKind)))
def test_sweep_matches_pairwise_reference_on_random_polynomials(problem, kind):
    """The one LP against the old engines on every ordered pair.

    Both give the same `holds`, except at strict pairs whose optimum v* of
    min λ·Δf over Λ(x̄) is zero up to rounding, which either side may read
    as a kernel. Nonstrict failures carry the same certificate bytes, as
    the old engine ended in the same LP. Strict failures may carry other
    multipliers where Λ(x̄) has several optimal ones. Every verdict of the
    single-pair certifier replays; the sweep counts the same pairs and
    points, reports the single-pair failures in pair order with their
    bytes, and samples kernels that replay.
    """
    sampler = GridSampler(0.5)
    try:
        evaluated = evaluated_points(problem, kind, sampler)
        pairs = ordered_pairs(evaluated, kind)
        reference = [reference_pair(pbar, p, kind) for pbar, p in pairs]
    except (InfeasiblePointError, NumericalBreakdownError):
        reject()
    dv = certify_domain(problem, kind, sampler)
    assert dv.checked_pairs == len(pairs)
    assert dv.points_sampled == len(evaluated)
    singles = {}
    single_failures = []
    for (pbar, p), want in zip(pairs, reference):
        got = certify_pair(pbar, p, kind)
        singles[(pbar.x.tobytes(), p.x.tobytes())] = got
        assert validate_evaluated_pair(pbar, p, got) == []
        if not got.holds:
            single_failures.append(got)
        if got.holds != want.holds:
            assert kind.is_strict
            delta = p.objective_values - pbar.objective_values
            optimum = _weighted_change_lp(pbar, delta, kind.is_kt, DEFAULT_TOL)
            assert abs(optimum.objective_value) <= 1e-15 * max(1.0, np.abs(delta).max())
        elif not got.holds and not kind.is_strict:
            assert same_certificate(got.certificate, want.certificate)
    # the sweep reports the single-pair failures, in pair order, with their bytes
    assert dv.all_pairs_kernel == (not single_failures)
    assert [(tuple(v.xbar), tuple(v.x)) for v in dv.failures] == [
        (tuple(v.xbar), tuple(v.x)) for v in single_failures
    ]
    for swept, single in zip(dv.failures, single_failures):
        assert swept.kernel is None
        assert same_certificate(swept.certificate, single.certificate)
    # and its kernel samples replay; their margins may differ from the
    # single-pair ones in the last bits, as the sweep rounds a batched product
    reading = problem if kind.is_kt else without_constraints(problem)
    for sample in dv.kernels:
        assert singles[(sample.xbar.tobytes(), sample.x.tobytes())].holds
        assert validate_pair_verdict(reading, sample) == []


@pytest.mark.parametrize("step", [0.25, 0.5], ids=["0.25", "0.5"])
@pytest.mark.parametrize("kind", list(InvexityKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", fixture_names())
def test_pair_certifier_matches_sweep_kernel_samples(name, kind, step):
    # `invexcheck pair` and a sweep decide a pair in the same passes
    problem = fixture(name)
    reading = problem if kind.is_kt else without_constraints(problem)
    dv = certify_domain(problem, kind, GridSampler(step))
    assert dv.kernels
    for sample in dv.kernels:
        got = certify_pair(evaluate(reading, sample.xbar), evaluate(reading, sample.x), kind)
        assert got.kernel.eta.tobytes() == sample.kernel.eta.tobytes()
        assert float(got.kernel.margin).hex() == float(sample.kernel.margin).hex()


def reference_grade_stationary(problem, points, grid_step, strict, tol=DEFAULT_TOL):
    """Reference L side: `is_global_weighting_solution` at one stationary
    point at a time, as the crosscheck graded them before one batched
    evaluation served all points of a kind."""
    failures = []
    for sp in points:
        lam = sp.multipliers.lam
        verdict = is_global_weighting_solution(
            problem, WeightVector(tuple(lam)), sp.x, grid_step, tol
        )
        ok = verdict.globality is Globality.UNIQUE_GLOBAL if strict else verdict.is_global
        if not ok:
            failures.append(StationaryGlobality(x=sp.x, lam=lam, verdict=verdict))
    return not failures, tuple(failures)


def same_grade(a, b):
    va, vb = a.verdict, b.verdict
    witness = (va.witness is None) == (vb.witness is None) and (
        va.witness is None or va.witness.tobytes() == vb.witness.tobytes()
    )
    return (
        a.x.tobytes() == b.x.tobytes()
        and a.lam.tobytes() == b.lam.tobytes()
        and va.globality is vb.globality
        and va.value == vb.value
        and witness
        and va.witness_value == vb.witness_value
    )


def assert_grades_match_reference(problem, grid_step):
    """Every grade of the batched L side, and the crosscheck's failures,
    against the per-point reference."""
    unconstrained = without_constraints(problem)
    crosscheck = theorem_crosscheck(problem, grid_step, pair_step=1.0)
    for kind in InvexityKind:
        base = problem if kind.is_kt else unconstrained
        points = scan_critical_points(
            base, grid_step, StationaryKind.KT if kind.is_kt else StationaryKind.VECTOR
        )
        got = _grade_stationary(base, points, grid_step, DEFAULT_TOL)
        assert len(got) == len(points)
        for graded, sp in zip(got, points):
            lam = sp.multipliers.lam
            verdict = is_global_weighting_solution(
                base, WeightVector(tuple(lam)), sp.x, grid_step
            )
            assert same_grade(graded, StationaryGlobality(sp.x, lam, verdict))
        l_side, failures = reference_grade_stationary(base, points, grid_step, kind.is_strict)
        check = crosscheck.check_for(kind)
        assert check.stationary_side == l_side
        assert len(check.stationary_failures) == len(failures)
        assert all(map(same_grade, check.stationary_failures, failures))


# the benchmark's flat-1d grid (1/128); two-var-convex at a coarser grid,
# as its 513 x 513 nodes would lengthen the suite
@pytest.mark.parametrize("name", fixture_names())
def test_batched_grading_matches_per_point_reference(name):
    problem = fixture(name)
    assert_grades_match_reference(problem, 1 / 16 if problem.dimension == 2 else 1 / 128)


@settings(max_examples=40, deadline=None)
@given(small_polynomial_problems())
def test_batched_grading_matches_reference_on_random_polynomials(problem):
    try:
        assert_grades_match_reference(problem, 0.25)
    except (InfeasiblePointError, NumericalBreakdownError):
        reject()


# few distinct weights, so that many candidates share one
_SHARED_WEIGHTS = [(0.5, 0.5), (1.0, 0.0), (0.25, 0.75)]


@settings(max_examples=40, deadline=None)
@given(small_polynomial_problems(), st.data())
def test_batched_grading_shares_weights_like_per_point_reference(problem, data):
    """Many candidates under a few interleaved weights: the weighted grid
    values computed once per distinct weight grade each candidate as the
    per-point reference does."""
    batch = evaluate_many(problem, grid_points(problem, 0.25))
    nodes = batch.x[batch.feasible]
    if not len(nodes):
        reject()
    rows = data.draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=40))
    weights = data.draw(
        st.lists(st.sampled_from(_SHARED_WEIGHTS), min_size=len(rows), max_size=len(rows))
    )
    points = tuple(
        StationaryPoint(
            x=nodes[row],
            kind=StationaryKind.VECTOR,
            multipliers=Multipliers(
                lam=np.array(lam), mu=np.empty(0), active_indices=(), residual=0.0
            ),
        )
        for row, lam in zip(rows, weights)
    )
    got = _grade_stationary(problem, points, 0.25, DEFAULT_TOL)
    for strict in (False, True):
        _, want = reference_grade_stationary(problem, points, 0.25, strict)
        failing = tuple(
            g
            for g in got
            if not (
                g.verdict.globality is Globality.UNIQUE_GLOBAL
                if strict
                else g.verdict.is_global
            )
        )
        assert len(failing) == len(want)
        assert all(map(same_grade, failing, want))
    for graded, sp in zip(got, points):
        verdict = is_global_weighting_solution(
            problem, WeightVector(tuple(sp.multipliers.lam)), sp.x, 0.25
        )
        assert same_grade(graded, StationaryGlobality(sp.x, sp.multipliers.lam, verdict))


def test_certify_domain_returns_the_cached_object():
    # the README promises this for calls sharing an analysis, and equal
    # results (not the same object) for calls without one
    p = fixture("cube")
    analysis = Analysis(p)
    first = certify_domain(p, InvexityKind.INVEX, GridSampler(0.5), analysis=analysis)
    again = certify_domain(p, InvexityKind.INVEX, GridSampler(0.5), analysis=analysis)
    assert again is first
    fresh = certify_domain(p, InvexityKind.INVEX, GridSampler(0.5))
    assert fresh is not first
    assert same_domain_verdicts(fresh, first)


def test_rebinding_a_verdict_cannot_change_later_results():
    # rebinding fields of a returned verdict once made a later call in the
    # same process report no failures, and the crosscheck disagree
    dv = certify_domain(fixture("cube"), InvexityKind.INVEX, GridSampler(0.5))
    assert dv.failures
    with pytest.raises(FrozenInstanceError):
        dv.all_pairs_kernel = True
    with pytest.raises(FrozenInstanceError):
        dv.failures = ()
    for obj, field in (
        (dv.failures[0], "kernel"),
        (dv.failures[0].certificate, "violation"),
        (dv.kernels[0].kernel, "eta"),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, None)
    again = certify_domain(fixture("cube"), InvexityKind.INVEX, GridSampler(0.5))
    assert not again.all_pairs_kernel
    assert same_domain_verdicts(again, dv)
    assert theorem_crosscheck(fixture("cube"), 0.5, 0.5).agreement


def test_analysis_must_fit_the_call():
    p = fixture("two-var-convex")
    analysis = Analysis(p)
    # the unconstrained variant is covered, as the crosscheck's sweeps need
    certify_domain(
        without_constraints(p), InvexityKind.INVEX, GridSampler(2.0), analysis=analysis
    )
    with pytest.raises(ValueError, match="does not cover"):
        certify_domain(fixture("cube"), InvexityKind.INVEX, GridSampler(2.0), analysis=analysis)
    with pytest.raises(ValueError, match="does not cover"):
        theorem_crosscheck(p, 1.0, 2.0, ToleranceConfig(strict=1e-6), analysis=analysis)
    with pytest.raises(ValueError, match="does not cover"):
        certify_domain(
            p, InvexityKind.KT_INVEX, GridSampler(2.0), analysis=Analysis(without_constraints(p))
        )


_WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, -0.25, 1e-10]) | st.floats(-1, 2)


@settings(max_examples=60, deadline=None)
@given(small_polynomial_problems(), st.sampled_from(list(InvexityKind)), st.data())
def test_grouped_pair_replay_matches_one_pair_replay(problem, kind, data):
    """Random verdicts of one kind replayed together, or one at a time by
    `validate_pair_verdict`, give each pair the problems the one-product
    reference gives it alone, in the same words."""
    # one more constraint, active where the first variable is ±0.5, so that
    # base points have different active sets
    extra = f"{problem.variables[0]}^2 - 0.25"
    problem = replace(problem, constraints=problem.constraints + (extra,))
    batch = evaluate_many(problem, grid_points(problem, 0.5))
    count = data.draw(st.integers(1, 12))
    rows = np.array(data.draw(st.lists(
        st.integers(0, len(batch.x) - 1), min_size=2 * count, max_size=2 * count
    ))).reshape(count, 2)
    s, n = problem.dimension, problem.n_objectives
    verdicts = []
    for xbar_row, x_row in rows:
        kernel = certificate = None
        if data.draw(st.booleans()):
            kernel = KernelWitness(
                eta=np.array(data.draw(st.lists(_WEIGHTS, min_size=s, max_size=s))),
                margin=data.draw(_WEIGHTS),
            )
        if kernel is None or data.draw(st.integers(0, 4)) == 0:
            active = int(batch.active[xbar_row].sum())
            mu = data.draw(st.none() | st.lists(_WEIGHTS, min_size=active, max_size=active)
                           | st.lists(_WEIGHTS, max_size=2))
            certificate = DualCertificate(
                lam=np.array(data.draw(st.lists(_WEIGHTS, min_size=n, max_size=n))),
                mu=None if mu is None else np.array(mu, dtype=float),
                violation=data.draw(_WEIGHTS),
            )
        verdicts.append(PairVerdict(kind, batch.x[xbar_row], batch.x[x_row], kernel, certificate))
    grouped = validate_evaluated_pairs(
        batch,
        kind,
        rows[:, 0],
        rows[:, 1],
        has_kernel=np.array([v.kernel is not None for v in verdicts]),
        eta=np.array([v.kernel.eta if v.kernel else np.zeros(s) for v in verdicts]),
        margin=np.array([v.kernel.margin if v.kernel else 0.0 for v in verdicts]),
        has_certificate=np.array([v.certificate is not None for v in verdicts]),
        lam=np.array([v.certificate.lam if v.certificate else np.zeros(n) for v in verdicts]),
        mu=[v.certificate.mu if v.certificate else None for v in verdicts],
        violation=np.array([v.certificate.violation if v.certificate else 0.0
                            for v in verdicts]),
    )
    for (xbar_row, x_row), verdict, problems in zip(rows, verdicts, grouped):
        single = validate_evaluated_pair(batch.point(xbar_row), batch.point(x_row), verdict)
        assert problems == single
        # the one-pair API is the grouped replay of one pair
        assert validate_pair_verdict(problem, verdict) == single
