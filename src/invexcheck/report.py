"""Analysis-report assembly, canonical JSON emission, and replay verification.

Reports are plain dicts shaped for JSON. The emitter is deliberately
hand-rolled: keys are sorted and every float is printed with 17 significant
digits, so two runs with identical inputs serialize to identical bytes
(wall-clock timings are the one intentionally unstable section, and the
round-trip tests strip them before comparing).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import fields

import numpy as np

from .invexity import (
    CrosscheckReport,
    DomainVerdict,
    DualCertificate,
    GridSampler,
    InvexityKind,
    KernelWitness,
    PairVerdict,
    RandomSampler,
    certify_domain,
    theorem_crosscheck,
    validate_evaluated_pair,
)
from .problems import (
    EvaluatedPoint,
    Problem,
    as_point,
    evaluate_many,
    problem_from_dict,
    problem_to_dict,
    without_constraints,
)
from .scalarization import (
    simplex_weights,
    solve_weighting,
    weakly_efficient_scan,
)
from .simplex import DEFAULT_TOL, ToleranceConfig
from .stationarity import StationaryKind, scan_critical_points


def canonical_json(value) -> str:
    """Serialize to JSON with sorted keys and %.17g floats (byte-stable)."""
    pieces: list[str] = []
    _emit(value, pieces)
    return "".join(pieces)


def _emit(value, out: list[str]) -> None:
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
            _emit(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        for i, item in enumerate(seq):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} canonically")


def _vector(arr) -> list[float]:
    return [float(v) for v in np.atleast_1d(np.asarray(arr, dtype=float))]


def tolerances_to_dict(tol: ToleranceConfig) -> dict:
    return {f.name: getattr(tol, f.name) for f in fields(tol)}


def tolerances_from_dict(data: dict) -> ToleranceConfig:
    return ToleranceConfig(**data)


def pair_verdict_to_dict(verdict: PairVerdict) -> dict:
    kernel = None
    if verdict.kernel is not None:
        kernel = {
            "eta": _vector(verdict.kernel.eta),
            "margin": float(verdict.kernel.margin),
        }
    certificate = None
    if verdict.certificate is not None:
        cert = verdict.certificate
        certificate = {
            "lam": _vector(cert.lam),
            "mu": None if cert.mu is None else _vector(cert.mu),
            "violation": float(cert.violation),
        }
    return {
        "kind": verdict.kind.value,
        "xbar": _vector(verdict.xbar),
        "x": _vector(verdict.x),
        "kernel": kernel,
        "certificate": certificate,
    }


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


def domain_verdict_to_dict(verdict: DomainVerdict) -> dict:
    return {
        "kind": verdict.kind.value,
        "sampler": verdict.sampler.describe(),
        "all_pairs_kernel": verdict.all_pairs_kernel,
        "checked_pairs": verdict.checked_pairs,
        "points_sampled": verdict.points_sampled,
        "failures": [pair_verdict_to_dict(v) for v in verdict.failures],
        "kernel_samples": [pair_verdict_to_dict(v) for v in verdict.kernels],
    }


def crosscheck_to_dict(report: CrosscheckReport) -> dict:
    checks = []
    for check in report.checks:
        checks.append(
            {
                "kind": check.kind.value,
                "stationary_side": check.stationary_side,
                "kernel_side": check.kernel_side,
                "agreement": check.agreement,
                "stationary_count": check.stationary_count,
                "stationary_failures": [
                    {
                        "x": _vector(f.x),
                        "lam": _vector(f.lam),
                        "globality": f.verdict.globality.value,
                        "value": f.verdict.value,
                        "witness": None
                        if f.verdict.witness is None
                        else _vector(f.verdict.witness),
                        "witness_value": f.verdict.witness_value,
                    }
                    for f in check.stationary_failures
                ],
                "kernel_failures": [
                    pair_verdict_to_dict(v) for v in check.kernel_failures
                ],
            }
        )
    return {
        "problem_name": report.problem_name,
        "grid_step": report.grid_step,
        "pair_step": report.pair_step,
        "agreement": report.agreement,
        "checks": checks,
    }


def build_report(
    problem: Problem,
    grid_step: float = 0.05,
    lambda_grid_step: float = 0.1,
    pair_sampler: GridSampler | RandomSampler | None = None,
    seed: int = 42,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> dict:
    """Run the full analysis pipeline and assemble the JSON-shaped report."""
    if pair_sampler is None:
        pair_sampler = GridSampler(0.25)
    timings: dict[str, float] = {}

    def timed(label: str, fn):
        start = time.perf_counter()
        result = fn()
        timings[label] = (time.perf_counter() - start) * 1000.0
        return result

    critical = timed(
        "critical_scan",
        lambda: scan_critical_points(problem, grid_step, StationaryKind.VECTOR, tol),
    )
    kt_points = timed(
        "kt_scan",
        lambda: scan_critical_points(problem, grid_step, StationaryKind.KT, tol),
    )
    weakly = timed(
        "weakly_efficient", lambda: weakly_efficient_scan(problem, grid_step, tol)
    )

    def run_weightings():
        runs = []
        for w in simplex_weights(problem.n_objectives, lambda_grid_step):
            sol = solve_weighting(problem, w, grid_step, tol)
            runs.append(
                {
                    "lam": _vector(w.lam),
                    "minimizers": [_vector(x) for x in sol.minimizers],
                    "value": sol.value,
                    "certified": sol.certified,
                    "grid_step": sol.grid_step,
                }
            )
        return runs

    weighting_runs = timed("weighting", run_weightings)

    def run_pairs():
        return {
            kind.value: domain_verdict_to_dict(
                certify_domain(problem, kind, pair_sampler, tol)
            )
            for kind in InvexityKind
        }

    pair_verdicts = timed("pair_certification", run_pairs)

    pair_step = (
        pair_sampler.step if isinstance(pair_sampler, GridSampler) else 0.25
    )
    crosscheck = timed(
        "crosscheck",
        lambda: theorem_crosscheck(problem, grid_step, pair_step, tol),
    )

    return {
        "problem_name": problem.name,
        "problem": problem_to_dict(problem),
        "config": {
            "grid_step": float(grid_step),
            "lambda_grid_step": float(lambda_grid_step),
            "pair_sampler": pair_sampler.describe(),
            "seed": int(seed),
            "tolerances": tolerances_to_dict(tol),
        },
        "critical_points": [
            {
                "x": _vector(sp.x),
                "lam": _vector(sp.multipliers.lam),
                "residual": sp.multipliers.residual,
            }
            for sp in critical
        ],
        "kt_points": [
            {
                "x": _vector(sp.x),
                "lam": _vector(sp.multipliers.lam),
                "mu": _vector(sp.multipliers.mu)
                if sp.multipliers.mu.size
                else [],
                "active_indices": list(sp.multipliers.active_indices),
                "residual": sp.multipliers.residual,
            }
            for sp in kt_points
        ],
        "weakly_efficient_nodes": [_vector(x) for x in weakly],
        "weighting_runs": weighting_runs,
        "pair_verdicts": pair_verdicts,
        "crosscheck": crosscheck_to_dict(crosscheck),
        "timings_ms": timings,
    }


def strip_timings(report: dict) -> dict:
    """Copy of the report without its wall-clock section (for byte comparisons)."""
    return {k: v for k, v in report.items() if k != "timings_ms"}


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


def verify_report(report: dict) -> list[str]:
    """Independently replay every multiplier, kernel, and certificate.

    Returns human-readable defect strings; an empty list means the report's
    evidence checks out against the embedded problem at the recorded
    tolerances.
    """
    defects: list[str] = []
    try:
        problem = problem_from_dict(report["problem"])
    except (KeyError, ValueError) as exc:
        return [f"embedded problem invalid: {exc}"]
    try:
        tol = tolerances_from_dict(report["config"]["tolerances"])
    except (KeyError, TypeError) as exc:
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
