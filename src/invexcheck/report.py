"""Analysis-report assembly and canonical JSON emission.

Reports are plain dicts shaped for JSON. The emitter is deliberately
hand-rolled: keys are sorted and every float is printed with 17 significant
digits, so two runs with identical inputs serialize to identical bytes
(wall-clock timings are the one intentionally unstable section, and the
round-trip tests strip them before comparing).
"""

from __future__ import annotations

import math
import time
from json.encoder import encode_basestring

import numpy as np

from .invexity import (
    CrosscheckReport,
    DomainVerdict,
    PairVerdict,
    certify_domain,
    theorem_crosscheck,
)
from .problems import (
    DEFAULT_TOL,
    Analysis,
    GridSampler,
    InvexityKind,
    Problem,
    RandomSampler,
    ToleranceConfig,
    problem_to_dict,
    tolerances_to_dict,
)
from .scalarization import (
    simplex_weights,
    solve_weighting,
    weakly_efficient_scan,
)
from .stationarity import StationaryKind, scan_critical_points


def canonical_json(value) -> str:
    """Serialize to JSON with sorted keys and %.17g floats (byte-stable)."""
    pieces: list[str] = []
    _emit(value, pieces)
    return "".join(pieces)


def _emit(value, out: list[str]) -> None:
    # containers first: they are most of a report's values
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        if seq and set(map(type, seq)) == {float}:  # a vector: one format call
            out.append("[")
            _emit_floats(seq, out)
            out.append("]")
        else:
            _emit_sequence(seq, out)
    elif isinstance(value, dict):
        _emit_dict(value, out)
    elif isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, (float, np.floating)):
        _emit_floats((float(value),), out)
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} canonically")


def _emit_floats(values, out: list[str]) -> None:
    """Comma-separated %.17g floats; "inf" and "nan" are the texts with an n."""
    text = ",".join(["%.17g"] * len(values)) % tuple(values)
    if "n" in text:
        value = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    out.append(text)


def _emit_sequence(seq, out: list[str]) -> None:
    out.append("[")
    for i, item in enumerate(seq):
        if i:
            out.append(",")
        _emit(item, out)
    out.append("]")


def _emit_dict(value: dict, out: list[str]) -> None:
    out.append("{")
    for i, key in enumerate(sorted(value)):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        if i:
            out.append(",")
        out.append(encode_basestring(key))
        out.append(":")
        _emit(value[key], out)
    out.append("}")


def _vector(arr) -> list[float]:
    return [float(v) for v in np.atleast_1d(np.asarray(arr, dtype=float))]


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
    """Run the full analysis pipeline and assemble the JSON-shaped report.

    The stages share one `Analysis`, so each grid is evaluated once per
    problem variant and the crosscheck reuses the scans and sweeps. The
    weight lattice is built first, so that an oversized one is refused
    before any stage runs.
    """
    if pair_sampler is None:
        pair_sampler = GridSampler(0.25)
    weights = simplex_weights(problem.n_objectives, lambda_grid_step)
    analysis = Analysis(problem, tol)
    timings: dict[str, float] = {}

    def timed(label: str, fn):
        start = time.perf_counter()
        result = fn()
        timings[label] = (time.perf_counter() - start) * 1000.0
        return result

    critical = timed(
        "critical_scan",
        lambda: scan_critical_points(
            problem, grid_step, StationaryKind.VECTOR, tol, analysis=analysis
        ),
    )
    kt_points = timed(
        "kt_scan",
        lambda: scan_critical_points(
            problem, grid_step, StationaryKind.KT, tol, analysis=analysis
        ),
    )
    weakly = timed(
        "weakly_efficient",
        lambda: weakly_efficient_scan(problem, grid_step, tol, analysis=analysis),
    )

    def run_weightings():
        runs = []
        for w in weights:
            sol = solve_weighting(problem, w, grid_step, tol, analysis=analysis)
            runs.append(
                {
                    "lam": _vector(w.lam),
                    "minimizers": [_vector(x) for x in sol.minimizers],
                    "value": sol.value,
                    "grid_step": sol.grid_step,
                }
            )
        return runs

    weighting_runs = timed("weighting", run_weightings)

    def run_pairs():
        return {
            kind.value: domain_verdict_to_dict(
                certify_domain(problem, kind, pair_sampler, tol, analysis=analysis)
            )
            for kind in InvexityKind
        }

    pair_verdicts = timed("pair_certification", run_pairs)

    pair_step = (
        pair_sampler.step if isinstance(pair_sampler, GridSampler) else 0.25
    )
    crosscheck = timed(
        "crosscheck",
        lambda: theorem_crosscheck(
            problem, grid_step, pair_step, tol, analysis=analysis
        ),
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
