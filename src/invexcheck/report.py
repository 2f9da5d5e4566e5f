"""Analysis-report assembly, canonical JSON emission, and replay verification.

Reports are plain dicts shaped for JSON. The emitter is deliberately
hand-rolled: keys are sorted and every float is printed with 17 significant
digits, so two runs with identical inputs serialize to identical bytes
(wall-clock timings are the one intentionally unstable section, and the
round-trip tests strip them before comparing).
"""

from __future__ import annotations

import math
import time
from dataclasses import fields
from json.encoder import encode_basestring

import numpy as np

from .invexity import (
    CrosscheckReport,
    DomainVerdict,
    GridSampler,
    InvexityKind,
    PairVerdict,
    RandomSampler,
    active_groups,
    certify_domain,
    theorem_crosscheck,
    validate_evaluated_pairs,
)
from .problems import (
    Analysis,
    Problem,
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
    problem variant and the crosscheck reuses the scans and sweeps.
    """
    if pair_sampler is None:
        pair_sampler = GridSampler(0.25)
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
        for w in simplex_weights(problem.n_objectives, lambda_grid_step):
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


def _stack(values: list, shape: tuple[int, ...], point: bool = False):
    """``values`` as one float array of shape (K, *shape), and the shape of
    each entry that does not fit, by index (None: not an array of finite
    numbers; numpy reads a JSON null as NaN).

    With ``point`` a number counts as a 1-vector, as in `as_point`. Entries
    that do not fit leave zero rows.
    """
    try:
        stacked = np.array(values, dtype=float)
        if stacked.shape == (len(values), *shape) and np.isfinite(stacked).all():
            return stacked, {}
    except (TypeError, ValueError):
        pass
    stacked = np.zeros((len(values), *shape))
    misfits: dict[int, tuple[int, ...] | None] = {}
    for i, value in enumerate(values):
        try:
            array = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            array = None
        if array is None or not np.isfinite(array).all():
            misfits[i] = None
            continue
        if point:
            array = np.atleast_1d(array)
        if array.shape == shape:
            stacked[i] = array
        else:
            misfits[i] = array.shape
    return stacked, misfits


def _shape_defect(path: str, found: tuple[int, ...] | None, expected) -> str:
    if found is None:
        return f"{path} is not {'a number' if expected == () else 'an array of numbers'}"
    return f"{path} has shape {found}, expected {expected}"


def _number(value) -> float:
    """``value`` as a float, NaN if it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _kind(name) -> InvexityKind | None:
    try:
        return InvexityKind(name)
    except ValueError:
        return None


class _Flags:
    """Defect messages of one evidence group, by entry index."""

    def __init__(self, count: int):
        self._by_entry: dict[int, list[str]] = {}
        #: entries still to check: not malformed, and past every early exit
        self.ok = np.ones(count, dtype=bool)

    def add(self, where, message) -> None:
        """Append ``message(k)`` for each entry k in ``where`` (a mask or indices)."""
        where = np.asarray(where)
        for k in np.flatnonzero(where) if where.dtype == bool else where:
            self._by_entry.setdefault(int(k), []).append(message(int(k)))

    def reject(self, k: int, message: str) -> None:
        """Flag entry ``k`` as malformed (once) and check it no further."""
        if self.ok[k]:
            self.add([k], lambda _: message)
            self.ok[k] = False

    def misfit(self, k: int, path: str, found, expected) -> None:
        """`reject` entry ``k`` for the shape ``found`` of ``path`` (see `_stack`)."""
        self.reject(k, _shape_defect(path, found, expected))

    def lines(self) -> list[str]:
        return [line for k in sorted(self._by_entry) for line in self._by_entry[k]]


class _Replay:
    """The distinct replay points of one problem variant, evaluated together.

    `add` every group's points first; `evaluate` then maps each added point
    to a row of one `evaluate_many` batch, distinct points keyed by their
    bytes in first-appearance order.
    """

    def __init__(self, problem: Problem, tol: ToleranceConfig):
        self.problem, self.tol = problem, tol
        self._groups: list[tuple[np.ndarray, np.ndarray]] = []
        self._rows: list[np.ndarray] = []
        self.batch = None

    def add(self, values: list) -> tuple[int, dict]:
        """Queue ``values``; returns a handle for `rows` and the entries that
        are not points of the problem, as `_stack` gives them."""
        points, misfits = _stack(values, (self.problem.dimension,), point=True)
        fits = np.ones(len(values), dtype=bool)
        fits[list(misfits)] = False
        self._groups.append((points[fits], fits))
        return len(self._groups) - 1, misfits

    def evaluate(self) -> None:
        points = np.concatenate([points for points, _ in self._groups])
        if not len(points):
            return
        keys = points.view(np.dtype((np.void, points.itemsize * points.shape[1])))
        _, first, inverse = np.unique(
            keys.ravel(), return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self.batch = evaluate_many(self.problem, points[first[order]], self.tol)
        rows = np.split(
            rank[inverse.ravel()], np.cumsum([len(p) for p, _ in self._groups])[:-1]
        )
        for (_, fits), group_rows in zip(self._groups, rows):
            full = np.zeros(fits.size, dtype=int)
            full[fits] = group_rows
            self._rows.append(full)

    def rows(self, handle: int) -> np.ndarray:
        """Batch row of each added point (0 for the misfits)."""
        return self._rows[handle]


def verify_report(report: dict) -> list[str]:
    """Independently replay every multiplier, kernel, and certificate.

    Returns human-readable defect strings (only the missing or mistyped
    parts, if any); an empty list means the report's evidence checks out
    against the embedded problem at the recorded tolerances. Each evidence
    group is checked with array operations on one batch per problem variant.
    """
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    malformed = [defect for key, schema in _REPORT.items() if report.get(key) is not None
                 for defect in _structure_defects([report[key]], schema, lambda i, key=key: key)]
    if malformed:
        return malformed
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
    first_use: list[_Replay] = []

    def add(points: _Replay, values: list):
        if values:
            first_use.append(points)
        return points.add(values)

    critical = report.get("critical_points") or []
    kt = report.get("kt_points") or []
    runs = report.get("weighting_runs") or []
    pairs = _pair_entries(report)
    critical_x = add(replay[False], [entry["x"] for entry in critical])
    kt_x = add(replay[True], [entry["x"] for entry in kt])
    minimizer_x = add(replay[True], [x for run in runs for x in run["minimizers"]])
    by_replay: dict[_Replay, list[int]] = {}
    for i, (_, kind, _, _) in enumerate(pairs):
        by_replay.setdefault(replay[kind.is_kt], []).append(i)
    pair_x = [
        (points, members, add(points, [
            pairs[i][2][key] for i in members for key in ("xbar", "x")
        ]))
        for points, members in by_replay.items()
    ]
    # evaluated in the order of first use, so the same error surfaces first
    for points in dict.fromkeys(first_use):
        points.evaluate()

    defects = _stationary_defects(critical, replay[False], critical_x, tol, kt=False)
    defects += _stationary_defects(kt, replay[True], kt_x, tol, kt=True)
    defects += _minimizer_defects(runs, replay[True], minimizer_x, tol)
    defects += _pair_defects(pairs, pair_x, problem, tol)
    defects += _derived_flag_defects(report)
    return defects


_PAIR = {"kind": None, "xbar": None, "x": None, "kernel?": {"eta": None, "margin": None},
         "certificate?": {"lam": None, "violation": None}}
#: The objects, arrays and keys that `verify_report` reads, by top-level part
#: (each may be absent or null). An object lists its keys ("*": each key it
#: has; "?": may be absent or null, which reads as empty); an array holds the
#: schema of its entries; None is a value, checked by the replay.
_REPORT = {
    "critical_points": [{"x": None, "lam": None}],
    "kt_points": [{"x": None, "lam": None, "mu": None, "active_indices": []}],
    "weighting_runs": [{"lam": None, "minimizers": [], "value": None}],
    "pair_verdicts": {"*": {"failures?": [_PAIR], "kernel_samples?": [_PAIR]}},
    "crosscheck": {"checks?": [{"kernel_failures?": [_PAIR]}]},
}


def _structure_defects(values: list, schema, where) -> list[str]:
    """Name each of ``values`` that does not fit ``schema``, by its path
    ``where(i)``; one call checks a schema node across all the values."""
    kind = list if isinstance(schema, list) else dict
    fits = [i for i, value in enumerate(values) if isinstance(value, kind)]
    defects = [f"{where(i)} is not a JSON {'array' if kind is list else 'object'}"
               for i, value in enumerate(values) if not isinstance(value, kind)]
    parts = []  # (schema, path format, [(value index, key or index)]) to check next
    if kind is list and schema:
        parts.append((schema[0], "{}[{}]", [(i, j) for i in fits for j in range(len(values[i]))]))
    elif kind is dict:
        required = {key for key in schema if key[-1] not in "?*"}
        defects += [f"{where(i)}.{key} is missing" for i in fits
                    if not values[i].keys() >= required
                    for key in schema if key in required and key not in values[i]]
        for key, inner in schema.items():
            if key == "*":
                parts.append((inner, "{}.{}", [(i, k) for i in fits for k in values[i]]))
            elif inner is not None:  # an optional part that is null reads as absent
                name = key.rstrip("?")
                parts.append((inner, "{}.{}", [(i, name) for i in fits if name in values[i] and (
                    key in required or values[i][name] is not None)]))
    for inner, form, at in parts:
        defects += _structure_defects(
            [values[i][k] for i, k in at], inner,
            lambda n, at=at, form=form: form.format(where(at[n][0]), at[n][1]))
    return defects


def _stationary_defects(entries: list, points: _Replay, added, tol, kt: bool) -> list[str]:
    """Replay the critical points, or with ``kt`` the KT points, whose
    feasibility, active set and μ are checked as well."""
    handle, misfits = added
    s, n = points.problem.dimension, points.problem.n_objectives
    path, label = ("kt_points", "kt point") if kt else ("critical_points", "critical point")
    flags = _Flags(len(entries))
    for k, found in misfits.items():
        flags.misfit(k, f"{path}[{k}].x", found, (s,))
    ok = flags.ok
    if not ok.any():
        return flags.lines()
    batch, rows = points.batch, points.rows(handle)
    groups = []
    if kt:
        flags.add(ok & ~batch.feasible[rows], lambda k: f"kt point {entries[k]['x']}: infeasible")
        ok &= batch.feasible[rows]
        groups = list(active_groups(batch.active[rows]))
    for indices, members in groups:
        indices = tuple(int(j) for j in indices)
        mismatch = [k for k in members[ok[members]]
                    if tuple(entries[k]["active_indices"]) != indices]
        flags.add(mismatch, lambda k: f"kt point {entries[k]['x']}: active set mismatch")
        ok[mismatch] = False

    lam, lam_misfits = _stack([entry["lam"] for entry in entries], (n,))
    for k, found in lam_misfits.items():
        flags.misfit(k, f"{path}[{k}].lam", found, (n,))
    combo = (lam[:, None, :] @ batch.objective_jacobian[rows])[:, 0]
    mu_negative = np.zeros(len(entries), dtype=bool)
    for indices, members in groups:
        members = members[ok[members]]
        mu, mu_misfits = _stack([entries[k]["mu"] for k in members], (indices.size,))
        # an empty μ adds no term, whatever the active set
        uses = np.full(members.size, indices.size > 0)
        for j, found in mu_misfits.items():
            uses[j] = False
            if found is None or math.prod(found):
                k = members[j]
                flags.misfit(k, f"kt_points[{k}].mu", found, (indices.size,))
        if uses.any():
            mu, members = mu[uses], members[uses]
            jac_active = batch.constraint_jacobian[rows[members][:, None], indices]
            combo[members] = combo[members] + (mu[:, None, :] @ jac_active)[:, 0]
            mu_negative[members] = mu.min(axis=1) < -tol.strict
    resid = np.abs(combo).max(axis=1)
    flags.add(ok & (resid > tol.stationary), lambda k: (
        f"{label} {entries[k]['x']}: residual {resid[k]:.3e}"))
    invalid = (lam.min(axis=1) < -tol.strict) | (np.abs(lam.sum(axis=1) - 1) > tol.strict)
    flags.add(ok & invalid, lambda k: f"{label} {entries[k]['x']}: weights invalid")
    flags.add(ok & mu_negative, lambda k: (
        f"kt point {entries[k]['x']}: negative constraint multiplier"))
    return flags.lines()


def _minimizer_defects(runs: list, points: _Replay, added, tol) -> list[str]:
    handle, misfits = added
    s, n = points.problem.dimension, points.problem.n_objectives
    minimizers = [x for run in runs for x in run["minimizers"]]
    starts = np.cumsum([0] + [len(run["minimizers"]) for run in runs])
    flags = _Flags(len(minimizers))
    for k, found in misfits.items():
        r = int(np.searchsorted(starts, k, "right")) - 1
        flags.misfit(k, f"weighting_runs[{r}].minimizers[{k - starts[r]}]", found, (s,))
    ok = flags.ok
    if not ok.any():
        return flags.lines()
    batch, rows = points.batch, points.rows(handle)
    flags.add(ok & ~batch.feasible[rows], lambda k: (
        f"weighting minimizer {minimizers[k]}: infeasible"))
    values = np.zeros(len(minimizers))
    for r, run in enumerate(runs):
        members = np.arange(starts[r], starts[r + 1])
        members = members[ok[members]]
        if not members.size:
            continue
        lam, lam_misfits = _stack([run["lam"]], (n,))
        if lam_misfits:
            flags.misfit(members[0], f"weighting_runs[{r}].lam", lam_misfits[0], (n,))
            continue
        recorded = _number(run["value"])
        if not math.isfinite(recorded):
            flags.misfit(members[0], f"weighting_runs[{r}].value", None, ())
            continue
        # λ·f(x) per minimizer, with the shapes of a single dot product
        f_values = batch.objective_values[rows[members], :, None]
        values[members] = (lam[:, None, :] @ f_values)[:, 0, 0]
        low, high = recorded - tol.strict, recorded + 1e-6
        off = (values[members] < low) | (values[members] > high)
        flags.add(members[off], lambda k: (
            f"weighting minimizer {minimizers[k]}: value {values[k]:.6e} "
            f"!= recorded {recorded:.6e}"))
    return flags.lines()


def _pair_entries(report: dict) -> list[tuple[str, InvexityKind, dict, str]]:
    """(path, group kind, item, label) of every recorded pair verdict; the
    label is a template over the item's keys, filled only for a defect."""
    pairs = []
    # the pairs under an unknown kind are skipped; `_derived_flag_defects` names it
    for kind_name, verdict_data in (report.get("pair_verdicts") or {}).items():
        kind = _kind(kind_name)
        if kind is None:
            continue
        label = f"{kind_name} pair (xbar={{xbar}}, x={{x}})"
        for group in ("failures", "kernel_samples"):
            for i, item in enumerate(verdict_data.get(group) or ()):
                pairs.append(
                    (f"pair_verdicts.{kind_name}.{group}[{i}]", kind, item, label)
                )
    for c, check in enumerate((report.get("crosscheck") or {}).get("checks") or ()):
        kind = _kind(check.get("kind"))
        if kind is None:
            continue
        for i, item in enumerate(check.get("kernel_failures") or ()):
            pairs.append((
                f"crosscheck.checks[{c}].kernel_failures[{i}]",
                kind,
                item,
                f"crosscheck {check['kind']} failure pair",
            ))
    return pairs


def _parse_pair(item: dict):
    """(kind, (η, margin) or None, (λ, μ, violation) or None) of one verdict.

    An unknown kind is None and a margin or violation that is not a number
    is NaN; the vectors are checked by shape later.
    """
    kernel = item.get("kernel")
    if kernel is not None:
        kernel = (kernel["eta"], _number(kernel["margin"]))
    cert = item.get("certificate")
    if cert is not None:
        cert = (cert["lam"], cert.get("mu"), _number(cert["violation"]))
    return _kind(item["kind"]), kernel, cert


def _pair_defects(pairs: list, pair_x: list, problem: Problem, tol) -> list[str]:
    s, n = problem.dimension, problem.n_objectives
    flags = _Flags(len(pairs))
    parsed = [_parse_pair(item) for _, _, item, _ in pairs]
    kernels = [kernel for _, kernel, _ in parsed]
    certs = [cert for _, _, cert in parsed]
    eta, eta_misfits = _stack([k[0] if k else [0.0] * s for k in kernels], (s,))
    lam, lam_misfits = _stack([c[0] if c else [0.0] * n for c in certs], (n,))
    rows = np.zeros((len(pairs), 2), dtype=int)
    groups: dict[tuple[_Replay, InvexityKind], list[int]] = {}
    for k, (kind, _, _) in enumerate(parsed):
        path, group_kind, item, _ = pairs[k]
        if kind is None:
            flags.reject(k, f"{path}.kind {item['kind']!r} is not a known kind")
        elif kind is not group_kind:
            flags.reject(k, f"{path}.kind {item['kind']!r} does not match its group "
                            f"{group_kind.value!r}")
    for points, members, (handle, misfits) in pair_x:
        for j, found in misfits.items():
            k = members[j // 2]
            flags.misfit(k, f"{pairs[k][0]}.{('xbar', 'x')[j % 2]}", found, (s,))
        if points.batch is not None:
            rows[members] = points.rows(handle).reshape(-1, 2)
        for k in members:
            if parsed[k][0] is not None:
                groups.setdefault((points, parsed[k][0]), []).append(k)
    for k, found in eta_misfits.items():
        flags.misfit(k, f"{pairs[k][0]}.kernel.eta", found, (s,))
    for k, found in lam_misfits.items():
        flags.misfit(k, f"{pairs[k][0]}.certificate.lam", found, (n,))
    mu = [None if c is None else c[1] for c in certs]
    for k, given in enumerate(mu):
        if given is None:
            continue
        try:
            mu[k] = np.asarray(given, dtype=float)
            finite = np.isfinite(mu[k]).all()
        except (TypeError, ValueError):
            finite = False
        if not finite:
            flags.misfit(k, f"{pairs[k][0]}.certificate.mu", None, "a vector")
        elif mu[k].ndim != 1:
            flags.misfit(k, f"{pairs[k][0]}.certificate.mu", mu[k].shape, "a vector")

    has_kernel = np.array([k is not None for k in kernels], dtype=bool)
    has_certificate = np.array([c is not None for c in certs], dtype=bool)
    margin = np.array([k[1] if k else 0.0 for k in kernels])
    violation = np.array([c[2] if c else 0.0 for c in certs])
    for k in np.flatnonzero(~np.isfinite(margin)):
        flags.misfit(k, f"{pairs[k][0]}.kernel.margin", None, ())
    for k in np.flatnonzero(~np.isfinite(violation)):
        flags.misfit(k, f"{pairs[k][0]}.certificate.violation", None, ())
    for (points, kind), group in groups.items():
        group = np.array(group)
        group = group[flags.ok[group]]
        if not group.size:
            continue
        problems = validate_evaluated_pairs(
            points.batch,
            kind,
            rows[group, 0],
            rows[group, 1],
            has_kernel=has_kernel[group],
            eta=eta[group],
            margin=margin[group],
            has_certificate=has_certificate[group],
            lam=lam[group],
            mu=[mu[k] for k in group],
            violation=violation[group],
            tol=tol,
        )
        for k, issues in zip(group, problems):
            for issue in issues:
                flags.add([k], lambda k: f"{pairs[k][3].format(**pairs[k][2])}: {issue}")
    return flags.lines()


def _derived_flag_defects(report: dict) -> list[str]:
    """Recompute the booleans and counts a report derives from its own
    lists, and name each kind that is not an `InvexityKind`."""
    defects = []
    for kind_name, verdict in (report.get("pair_verdicts") or {}).items():
        if _kind(kind_name) is None:
            defects.append(f"pair_verdicts.{kind_name} is not a known kind")
        if verdict.get("all_pairs_kernel") != (not verdict.get("failures")):
            defects.append(
                f"{kind_name} pair verdict: all_pairs_kernel contradicts its failures"
            )
    crosscheck = report.get("crosscheck")
    if crosscheck is None:
        return defects
    checks = crosscheck.get("checks") or ()
    for c, check in enumerate(checks):
        label = f"crosscheck {check.get('kind')}"
        kind = _kind(check.get("kind"))
        if kind is None:
            defects.append(
                f"crosscheck.checks[{c}].kind {check.get('kind')!r} is not a known kind"
            )
        else:
            stationary = "kt_points" if kind.is_kt else "critical_points"
            count = len(report.get(stationary) or ())
            if check.get("stationary_count") != count:
                defects.append(
                    f"{label}: stationary_count {check.get('stationary_count')!r} "
                    f"!= {count} {stationary}"
                )
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
