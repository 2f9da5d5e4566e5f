"""Reference implementations kept as oracles for `invexcheck.report`.

`reference_emit` is the canonical-JSON emitter as an `isinstance` chain that
formats one value at a time. `reference_verify_report` replays a report one
lookup at a time: every point becomes an `EvaluatedPoint`, and each pair goes
through `validate_evaluated_pair`. It does not check `stationary_count`, and
a malformed shape makes it raise instead of reporting a defect.
`validate_evaluated_pair` is the pair replay with one product per pair.
"""

import json
import math

import numpy as np

from invexcheck.invexity import (
    DualCertificate,
    InvexityKind,
    KernelWitness,
    PairVerdict,
)
from invexcheck.problems import (
    EvaluatedPoint,
    Problem,
    as_point,
    evaluate_many,
    problem_from_dict,
    without_constraints,
)
from invexcheck.report import tolerances_from_dict
from invexcheck.simplex import DEFAULT_TOL, ToleranceConfig


def reference_canonical_json(value) -> str:
    pieces: list[str] = []
    reference_emit(value, pieces)
    return "".join(pieces)


def reference_emit(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value!r}")
        out.append(format(value, ".17g"))
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            reference_emit(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        for i, item in enumerate(seq):
            if i:
                out.append(",")
            reference_emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} canonically")


def validate_evaluated_pair(
    pbar: EvaluatedPoint,
    p: EvaluatedPoint,
    verdict: PairVerdict,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[str]:
    """`validate_pair_verdict` at the already evaluated points x̄ and x, one
    product per pair (the oracle for `validate_evaluated_pairs`)."""
    delta = p.objective_values - pbar.objective_values
    jac = pbar.objective_jacobian
    jac_active = pbar.active_jacobian
    problems: list[str] = []
    kind = verdict.kind

    if verdict.kernel is not None and verdict.certificate is not None:
        problems.append("verdict carries both a kernel and a certificate")
    if verdict.kernel is None and verdict.certificate is None:
        problems.append("verdict carries neither a kernel nor a certificate")

    if verdict.kernel is not None:
        eta, margin = verdict.kernel.eta, verdict.kernel.margin
        slack = delta - jac @ eta
        if kind.is_strict:
            if margin <= 0:
                problems.append(f"strict kernel margin {margin!r} not positive")
            if float(slack.min()) < margin - tol.strict:
                problems.append(
                    f"strict kernel slack {slack.min():.3e} below margin {margin:.3e}"
                )
        else:
            if float(slack.min()) < -tol.strict:
                problems.append(f"kernel row violated by {-float(slack.min()):.3e}")
            if margin < 0:
                problems.append("kernel margin negative")
        if kind.is_kt and jac_active.shape[0]:
            weak = jac_active @ eta
            if float(weak.max()) > tol.strict:
                problems.append(f"active row Jg·η = {weak.max():.3e} > 0")

    if verdict.certificate is not None:
        cert = verdict.certificate
        lam = np.asarray(cert.lam)
        if float(lam.min()) < -tol.strict:
            problems.append("certificate weight negative")
        if abs(float(lam.sum()) - 1.0) > tol.strict:
            problems.append("certificate weights not normalized")
        combo = lam @ jac
        if cert.mu is not None and jac_active.shape[0]:
            mu = np.asarray(cert.mu)
            if mu.size != jac_active.shape[0]:
                problems.append("certificate μ length mismatches active set")
            else:
                if float(mu.min()) < -tol.strict:
                    problems.append("certificate μ negative")
                combo = combo + mu @ jac_active
        resid = float(np.max(np.abs(combo))) if combo.size else 0.0
        if resid > tol.strict:
            problems.append(f"certificate stationarity residual {resid:.3e}")
        actual = float(lam @ delta)
        if abs(actual - cert.violation) > tol.strict:
            problems.append(
                f"stored violation {cert.violation:.3e} != recomputed {actual:.3e}"
            )
        if kind.is_strict:
            if actual > tol.strict:
                problems.append(f"strict certificate violation {actual:.3e} positive")
        else:
            if actual >= -tol.strict:
                problems.append(
                    f"certificate violation {actual:.3e} not strictly negative"
                )
    return problems


def pair_verdict_from_dict(data: dict) -> PairVerdict:
    kernel = None
    if data.get("kernel") is not None:
        kernel = KernelWitness(
            eta=np.array(data["kernel"]["eta"], dtype=float),
            margin=float(data["kernel"]["margin"]),
        )
    certificate = None
    if data.get("certificate") is not None:
        cert = data["certificate"]
        certificate = DualCertificate(
            lam=np.array(cert["lam"], dtype=float),
            mu=None if cert.get("mu") is None else np.array(cert["mu"], dtype=float),
            violation=float(cert["violation"]),
        )
    return PairVerdict(
        kind=InvexityKind(data["kind"]),
        xbar=np.array(data["xbar"], dtype=float),
        x=np.array(data["x"], dtype=float),
        kernel=kernel,
        certificate=certificate,
    )


class _Replay:
    """The distinct replay points of one problem variant, evaluated together.

    `add` every point first; the first lookup evaluates them in one batch.
    """

    def __init__(self, problem: Problem, tol: ToleranceConfig):
        self.problem, self.tol = problem, tol
        self._rows: dict[bytes, int] = {}
        self._batch = None

    def add(self, x) -> np.ndarray:
        x = as_point(self.problem, x)
        self._rows.setdefault(x.tobytes(), len(self._rows))
        return x

    def __getitem__(self, x: np.ndarray) -> EvaluatedPoint:
        if self._batch is None:
            points = np.frombuffer(b"".join(self._rows), dtype=float)
            self._batch = evaluate_many(
                self.problem, points.reshape(-1, self.problem.dimension), self.tol
            )
        return self._batch.point(self._rows[x.tobytes()])


def reference_verify_report(report: dict) -> list[str]:
    """`verify_report` as one `EvaluatedPoint` per lookup (the oracle)."""
    defects: list[str] = []
    try:
        problem = problem_from_dict(report["problem"])
    except (KeyError, ValueError) as exc:
        return [f"embedded problem invalid: {exc}"]
    try:
        tol = tolerances_from_dict(report["config"]["tolerances"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"tolerance block invalid: {exc}"]

    # keyed by whether the constraints count, as for the KT kinds
    unconstrained = without_constraints(problem)
    replay = {False: _Replay(unconstrained, tol), True: _Replay(problem, tol)}
    if unconstrained is problem:
        replay[False] = replay[True]
    critical = [
        (entry, replay[False].add(entry["x"]), np.array(entry["lam"]))
        for entry in report.get("critical_points", ())
    ]
    kt = [
        (entry, replay[True].add(entry["x"]), np.array(entry["lam"]))
        for entry in report.get("kt_points", ())
    ]
    minimizers = [
        (run, minimizer, replay[True].add(minimizer))
        for run in report.get("weighting_runs", ())
        for minimizer in run["minimizers"]
    ]
    pairs = []
    for kind_name, verdict_data in report.get("pair_verdicts", {}).items():
        for group in ("failures", "kernel_samples"):
            for item in verdict_data.get(group, ()):
                label = f"{kind_name} pair (xbar={item['xbar']}, x={item['x']})"
                pairs.append((label, replay[InvexityKind(kind_name).is_kt], item))
    for check in report.get("crosscheck", {}).get("checks", ()):
        for item in check.get("kernel_failures", ()):
            label = f"crosscheck {check['kind']} failure pair"
            pairs.append((label, replay[InvexityKind(check["kind"]).is_kt], item))
    for _, points, item in pairs:
        points.add(item["xbar"])
        points.add(item["x"])

    for entry, x, lam in critical:
        ep = replay[False][x]
        resid = float(np.max(np.abs(lam @ ep.objective_jacobian)))
        if resid > tol.stationary:
            defects.append(f"critical point {entry['x']}: residual {resid:.3e}")
        if float(lam.min()) < -tol.strict or abs(float(lam.sum()) - 1) > tol.strict:
            defects.append(f"critical point {entry['x']}: weights invalid")

    for entry, x, lam in kt:
        mu = np.array(entry["mu"], dtype=float)
        ep = replay[True][x]
        if not ep.feasible:
            defects.append(f"kt point {entry['x']}: infeasible")
            continue
        if tuple(entry["active_indices"]) != ep.active_indices:
            defects.append(f"kt point {entry['x']}: active set mismatch")
            continue
        combo = lam @ ep.objective_jacobian
        if mu.size:
            combo = combo + mu @ ep.active_jacobian
        resid = float(np.max(np.abs(combo)))
        if resid > tol.stationary:
            defects.append(f"kt point {entry['x']}: residual {resid:.3e}")
        if mu.size and float(mu.min()) < -tol.strict:
            defects.append(f"kt point {entry['x']}: negative constraint multiplier")

    for run, minimizer, x in minimizers:
        lam = np.array(run["lam"])
        ep = replay[True][x]
        if not ep.feasible:
            defects.append(f"weighting minimizer {minimizer}: infeasible")
        value = float(lam @ ep.objective_values)
        if value < run["value"] - tol.strict or value > run["value"] + 1e-6:
            defects.append(
                f"weighting minimizer {minimizer}: value {value:.6e} "
                f"!= recorded {run['value']:.6e}"
            )

    for label, points, item in pairs:
        verdict = pair_verdict_from_dict(item)
        pbar, p = points[verdict.xbar], points[verdict.x]
        for issue in validate_evaluated_pair(pbar, p, verdict, tol):
            defects.append(f"{label}: {issue}")
    defects.extend(_derived_flag_defects(report))
    return defects


def _derived_flag_defects(report: dict) -> list[str]:
    """Recompute the booleans a report derives from its own lists."""
    defects = []
    for kind_name, verdict in report.get("pair_verdicts", {}).items():
        if verdict.get("all_pairs_kernel") != (not verdict.get("failures")):
            defects.append(
                f"{kind_name} pair verdict: all_pairs_kernel contradicts its failures"
            )
    crosscheck = report.get("crosscheck")
    if crosscheck is None:
        return defects
    checks = crosscheck.get("checks", ())
    for check in checks:
        label = f"crosscheck {check.get('kind')}"
        for side, failures in (
            ("stationary_side", "stationary_failures"),
            ("kernel_side", "kernel_failures"),
        ):
            if check.get(side) != (not check.get(failures)):
                defects.append(f"{label}: {side} contradicts its {failures}")
        sides_agree = check.get("stationary_side") == check.get("kernel_side")
        if check.get("agreement") != sides_agree:
            defects.append(f"{label}: agreement contradicts its sides")
    if crosscheck.get("agreement") != all(check.get("agreement") for check in checks):
        defects.append("crosscheck: agreement contradicts its checks")
    return defects
