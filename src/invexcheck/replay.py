"""Replay verification: the trusted checker of an emitted report.

`verify_report` replays a whole report; `validate_pair_verdict` replays one
pair verdict, by the same code. Both stand on the problem model alone: this
module imports nothing from the solver, the scans or the certifiers that
wrote the evidence, so a fault there cannot vouch for itself here.
"""

from __future__ import annotations

import numpy as np

from .expressions import DomainError
from .problems import (
    DEFAULT_TOL,
    InvexityKind,
    PointBatch,
    Problem,
    ToleranceConfig,
    as_point,
    box_violations,
    evaluate_many,
    problem_from_dict,
    tolerances_from_dict,
    without_constraints,
)


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
    except (TypeError, ValueError, OverflowError):
        pass
    stacked = np.zeros((len(values), *shape))
    misfits: dict[int, tuple[int, ...] | None] = {}
    for i, value in enumerate(values):
        try:
            array = np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError):
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
    if found is None or expected == ():
        return f"{path} is not {'a number' if expected == () else 'an array of numbers'}"
    return f"{path} has shape {found}, expected {expected}"


def _kind(name) -> InvexityKind | None:
    try:
        return InvexityKind(name)
    except ValueError:
        return None


class _Flags:
    """Defect messages of one evidence group, by entry index."""

    def __init__(self, count: int):
        self.by_entry: dict[int, list[str]] = {}
        #: entries still to check: not malformed, and past every early exit
        self.ok = np.ones(count, dtype=bool)

    def add(self, where, message) -> None:
        """Append ``message(k)`` for each entry k in ``where`` (a mask or indices)."""
        where = np.asarray(where)
        for k in np.flatnonzero(where) if where.dtype == bool else where:
            self.by_entry.setdefault(int(k), []).append(message(int(k)))

    def reject(self, k: int, message: str) -> None:
        """Flag entry ``k`` as malformed (once) and check it no further."""
        if self.ok[k]:
            self.add([k], lambda _: message)
            self.ok[k] = False

    def read(self, values: list, shape: tuple[int, ...], path, entry=None, point=False):
        """``values`` stacked by `_stack`, and the mask of those that fit.

        Each value i that does not fit rejects the entry ``entry[i]``
        (default i), named by its path ``path(i)``.
        """
        stacked, misfits = _stack(values, shape, point)
        fits = np.ones(len(values), dtype=bool)
        for i, found in misfits.items():
            fits[i] = False
            self.reject(i if entry is None else entry[i], _shape_defect(path(i), found, shape))
        return stacked, fits

    def lines(self) -> list[str]:
        return [line for k in sorted(self.by_entry) for line in self.by_entry[k]]


def validate_pair_verdict(
    problem: Problem, verdict, tol: ToleranceConfig = DEFAULT_TOL
) -> list[str]:
    """Replay a `PairVerdict`'s kernel or certificate by direct substitution."""
    points = [as_point(problem, verdict.xbar), as_point(problem, verdict.x)]
    batch = evaluate_many(problem, np.array(points), tol)
    kernel, cert = verdict.kernel, verdict.certificate
    s, n = problem.dimension, problem.n_objectives
    (problems,) = validate_evaluated_pairs(
        batch,
        verdict.kind,
        np.array([0]),
        np.array([1]),
        has_kernel=np.array([kernel is not None]),
        eta=np.array([kernel.eta if kernel else np.zeros(s)], dtype=float),
        margin=np.array([kernel.margin if kernel else 0.0], dtype=float),
        has_certificate=np.array([cert is not None]),
        lam=np.array([cert.lam if cert else np.zeros(n)], dtype=float),
        mu=[None if cert is None or cert.mu is None else np.asarray(cert.mu, dtype=float)],
        violation=np.array([cert.violation if cert else 0.0], dtype=float),
        tol=tol,
    )
    return problems


def _finite_rows(products: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` where every entry of the matching row of ``products`` is
    finite, else NaN: an overflowed product (±inf, or NaN from inf − inf) is
    no evidence, and every bound in this module is written so that NaN fails."""
    return np.where(np.isfinite(products).all(axis=1), values, np.nan)


def _off_simplex(lam: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the rows of ``lam`` with a weight below −tol, and of those
    whose sum is off 1 by more than tol (NaN: both)."""
    return ~(lam.min(axis=1) >= -tol), ~(np.abs(lam.sum(axis=1) - 1.0) <= tol)


def active_groups(active: np.ndarray):
    """(active indices, member positions) for each distinct row of ``active``."""
    if not active.shape[1]:
        yield np.zeros(0, dtype=int), np.arange(active.shape[0])
        return
    patterns, inverse = np.unique(active, axis=0, return_inverse=True)
    for p, pattern in enumerate(patterns):
        yield np.flatnonzero(pattern), np.flatnonzero(inverse.ravel() == p)


@np.errstate(over="ignore", invalid="ignore")  # overflow fails a bound instead
def validate_evaluated_pairs(
    batch: PointBatch,
    kind: InvexityKind,
    xbar_rows: np.ndarray,
    x_rows: np.ndarray,
    *,
    has_kernel: np.ndarray,
    eta: np.ndarray,
    margin: np.ndarray,
    has_certificate: np.ndarray,
    lam: np.ndarray,
    mu: list[np.ndarray | None],
    violation: np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[list[str]]:
    """`validate_pair_verdict` for K verdicts of one kind at once.

    Pair k has x̄ = ``batch`` row ``xbar_rows[k]`` and x = row ``x_rows[k]``.
    Its kernel (if ``has_kernel[k]``) is η = ``eta[k]`` (shape (K, s)) with
    ``margin[k]``; its certificate (if ``has_certificate[k]``) is λ =
    ``lam[k]`` (shape (K, n)), μ = ``mu[k]`` (a 1-d array or None) and
    ``violation[k]``. Returns each pair's problems in a fixed order; every
    product is taken pair by pair, so a pair's numbers do not depend on
    which other pairs share the call.
    """
    count = len(xbar_rows)
    flags = _Flags(count)
    delta = batch.objective_values[x_rows] - batch.objective_values[xbar_rows]
    jac = batch.objective_jacobian[xbar_rows]
    groups = list(active_groups(batch.active[xbar_rows]))
    jac_g = batch.constraint_jacobian[xbar_rows]

    flags.add(has_kernel & has_certificate,
              lambda k: "verdict carries both a kernel and a certificate")
    flags.add(~has_kernel & ~has_certificate,
              lambda k: "verdict carries neither a kernel nor a certificate")

    jac_eta = (jac @ eta[:, :, None])[:, :, 0]
    slack_min = _finite_rows(jac_eta, (delta - jac_eta).min(axis=1))
    if kind.is_strict:
        flags.add(has_kernel & ~(margin > 0),
                  lambda k: f"strict kernel margin {float(margin[k])!r} not positive")
        flags.add(has_kernel & ~(slack_min >= margin - tol.strict),
                  lambda k: f"strict kernel slack {slack_min[k]:.3e} "
                  f"below margin {margin[k]:.3e}")
    else:
        flags.add(has_kernel & ~(slack_min >= -tol.strict),
                  lambda k: f"kernel row violated by {-float(slack_min[k]):.3e}")
        flags.add(has_kernel & ~(margin >= 0), lambda k: "kernel margin negative")
    if kind.is_kt:
        weak_max = np.full(count, -np.inf)
        for active, members in groups:
            if active.size:
                weak = (jac_g[members[:, None], active] @ eta[members][:, :, None])[:, :, 0]
                weak_max[members] = _finite_rows(weak, weak.max(axis=1))
        flags.add(has_kernel & ~(weak_max <= tol.strict),
                  lambda k: f"active row Jg·η = {weak_max[k]:.3e} > 0")

    negative, unnormalized = _off_simplex(lam, tol.strict)
    flags.add(has_certificate & negative, lambda k: "certificate weight negative")
    flags.add(has_certificate & unnormalized, lambda k: "certificate weights not normalized")
    combo = (lam[:, None, :] @ jac)[:, 0]
    for active, members in groups:
        if not active.size:
            continue
        # a certificate's μ counts where x̄ has active rows, if its length fits
        given = [k for k in members if has_certificate[k] and mu[k] is not None]
        fits = np.array([k for k in given if mu[k].size == active.size], dtype=int)
        flags.add(np.setdiff1d(given, fits), lambda k: "certificate μ length mismatches active set")
        if fits.size:
            stacked = np.array([mu[k] for k in fits])
            flags.add(fits[~(stacked.min(axis=1) >= -tol.strict)],
                      lambda k: "certificate μ negative")
            jac_active = jac_g[fits[:, None], active]
            combo[fits] = combo[fits] + (stacked[:, None, :] @ jac_active)[:, 0]
    resid = np.abs(combo).max(axis=1)
    flags.add(has_certificate & ~(resid <= tol.strict),
              lambda k: f"certificate stationarity residual {resid[k]:.3e}")
    actual = (lam[:, None, :] @ delta[:, :, None])[:, 0, 0]
    flags.add(has_certificate & ~(np.abs(actual - violation) <= tol.strict),
              lambda k: f"stored violation {violation[k]:.3e} != recomputed {actual[k]:.3e}")
    if kind.is_strict:
        flags.add(has_certificate & ~(actual <= tol.strict),
                  lambda k: f"strict certificate violation {actual[k]:.3e} positive")
    else:
        flags.add(has_certificate & ~(actual < -tol.strict),
                  lambda k: f"certificate violation {actual[k]:.3e} not strictly negative")
    return [flags.by_entry.get(k, []) for k in range(count)]


class _Replay:
    """The distinct replay points of one problem variant, evaluated together.

    `add` every group's points first; `evaluate` then rejects each entry
    whose point cannot be evaluated, and maps every other added point to a
    row of one `evaluate_many` batch, distinct points keyed by their bytes
    in first-appearance order.
    """

    def __init__(self, problem: Problem, tol: ToleranceConfig):
        self.problem, self.tol = problem, tol
        self._groups: list[tuple[_Flags, object, object, np.ndarray, np.ndarray]] = []
        self._rows: list[np.ndarray] = []
        self.batch = None

    def add(self, flags: _Flags, values: list, path, entry=None) -> int:
        """Queue the ``values`` that are points of the problem, read by
        `_Flags.read`; returns a handle for `rows`."""
        points, fits = flags.read(values, (self.problem.dimension,), path, entry, point=True)
        self._groups.append((flags, path, entry, points[fits], fits))
        return len(self._groups) - 1

    def evaluate(self) -> None:
        points = np.concatenate([points for *_, points, _ in self._groups])
        if not len(points):
            return
        keys = points.view(np.dtype((np.void, points.itemsize * points.shape[1])))
        _, first, inverse = np.unique(
            keys.ravel(), return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        errors, kept = self._evaluate_distinct(points[first[order]])
        row = np.cumsum(kept) - 1
        sizes = [len(points) for *_, points, _ in self._groups]
        ranks = np.split(rank[inverse.ravel()], np.cumsum(sizes)[:-1])
        for (flags, path, entry, _, fits), group_ranks in zip(self._groups, ranks):
            at = np.flatnonzero(fits)
            lost = ~kept[group_ranks]
            for i, r in zip(at[lost], group_ranks[lost]):
                flags.reject(i if entry is None else entry[i], f"{path(i)}: {errors[r]}")
            full = np.zeros(fits.size, dtype=int)
            full[at[~lost]] = row[group_ranks[~lost]]
            self._rows.append(full)

    def _evaluate_distinct(self, points: np.ndarray) -> tuple[dict[int, str], np.ndarray]:
        """Evaluate the distinct ``points`` into `batch`, leaving out those
        outside the box and, only if the rest fail as one batch, those that
        raise a DomainError on their own. Returns why each point left out
        was, by index, and the mask of the points evaluated."""
        errors = box_violations(self.problem, points)
        kept = np.ones(len(points), dtype=bool)
        kept[list(errors)] = False
        try:
            self.batch = evaluate_many(self.problem, points[kept], self.tol)
        except DomainError:
            for r in np.flatnonzero(kept):
                try:
                    evaluate_many(self.problem, points[r : r + 1], self.tol)
                except DomainError as exc:
                    errors[int(r)], kept[r] = str(exc), False
            self.batch = evaluate_many(self.problem, points[kept], self.tol)
        return errors, kept

    def rows(self, handle: int) -> np.ndarray:
        """Batch row of each added point (0 for the misfits and the rejected)."""
        return self._rows[handle]


def verify_report(report: dict) -> list[str]:
    """Independently replay every multiplier, kernel, and certificate.

    Returns human-readable defect strings (only the missing or mistyped
    parts, if any); an empty list means the report's evidence checks out
    against the embedded problem at the recorded tolerances. An entry whose
    point lies outside the box or cannot be evaluated is a defect named by
    its path. Each evidence group is checked with array operations on one
    batch per problem variant.
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

    critical = report.get("critical_points") or []
    kt = report.get("kt_points") or []
    runs = report.get("weighting_runs") or []
    minimizers = [x for run in runs for x in run["minimizers"]]
    starts = np.cumsum([0] + [len(run["minimizers"]) for run in runs])
    pairs, pair_flags = _pair_entries(report)
    critical_flags, kt_flags, minimizer_flags = (
        _Flags(len(entries)) for entries in (critical, kt, minimizers)
    )

    def minimizer_path(k: int) -> str:
        r = int(np.searchsorted(starts, k, "right")) - 1
        return f"weighting_runs[{r}].minimizers[{k - starts[r]}]"

    critical_x = replay[False].add(critical_flags, [entry["x"] for entry in critical],
                                   lambda k: f"critical_points[{k}].x")
    kt_x = replay[True].add(kt_flags, [entry["x"] for entry in kt], lambda k: f"kt_points[{k}].x")
    minimizer_x = replay[True].add(minimizer_flags, minimizers, minimizer_path)
    by_replay: dict[_Replay, list[int]] = {}
    for i, (_, kind, _, _) in enumerate(pairs):
        by_replay.setdefault(replay[kind.is_kt], []).append(i)
    pair_x = []
    for points, members in by_replay.items():
        def pair_path(j: int, members=members) -> str:
            return f"{pairs[members[j // 2]][0]}.{('xbar', 'x')[j % 2]}"

        values = [pairs[i][2][key] for i in members for key in ("xbar", "x")]
        handle = points.add(pair_flags, values, pair_path, np.repeat(members, 2))
        pair_x.append((points, members, handle))
    for points in dict.fromkeys(replay.values()):
        points.evaluate()

    defects = _stationary_defects(critical, critical_flags, replay[False], critical_x, tol,
                                  kt=False)
    defects += _stationary_defects(kt, kt_flags, replay[True], kt_x, tol, kt=True)
    defects += _minimizer_defects(runs, minimizers, starts, minimizer_flags, replay[True],
                                  minimizer_x, tol)
    defects += _pair_defects(pairs, pair_flags, pair_x, problem, tol)
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


@np.errstate(over="ignore", invalid="ignore")  # overflow fails a bound instead
def _stationary_defects(entries: list, flags: _Flags, points: _Replay, handle: int, tol,
                        kt: bool) -> list[str]:
    """Replay the critical points, or with ``kt`` the KT points, whose
    feasibility, active set and μ are checked as well."""
    n = points.problem.n_objectives
    path, label = ("kt_points", "kt point") if kt else ("critical_points", "critical point")
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

    lam, _ = flags.read([entry["lam"] for entry in entries], (n,), lambda k: f"{path}[{k}].lam")
    combo = (lam[:, None, :] @ batch.objective_jacobian[rows])[:, 0]
    mu_negative = np.zeros(len(entries), dtype=bool)
    for indices, members in groups:
        # an empty μ adds no term, whatever the active set
        members = members[[ok[k] and np.asarray(entries[k]["mu"], dtype=object).size > 0
                           for k in members]]
        mu, fits = flags.read([entries[k]["mu"] for k in members], (indices.size,),
                              lambda j: f"kt_points[{members[j]}].mu", members)
        if indices.size and fits.any():
            mu, members = mu[fits], members[fits]
            jac_active = batch.constraint_jacobian[rows[members][:, None], indices]
            combo[members] = combo[members] + (mu[:, None, :] @ jac_active)[:, 0]
            mu_negative[members] = ~(mu.min(axis=1) >= -tol.strict)
    resid = np.abs(combo).max(axis=1)
    flags.add(ok & ~(resid <= tol.stationary), lambda k: (
        f"{label} {entries[k]['x']}: residual {resid[k]:.3e}"))
    invalid = np.logical_or(*_off_simplex(lam, tol.strict))
    flags.add(ok & invalid, lambda k: f"{label} {entries[k]['x']}: weights invalid")
    flags.add(ok & mu_negative, lambda k: (
        f"kt point {entries[k]['x']}: negative constraint multiplier"))
    return flags.lines()


@np.errstate(over="ignore", invalid="ignore")  # overflow fails a bound instead
def _minimizer_defects(runs: list, minimizers: list, starts: np.ndarray, flags: _Flags,
                       points: _Replay, handle: int, tol) -> list[str]:
    """Replay the weighting runs' minimizers, whose run ``r`` holds the
    entries ``starts[r]:starts[r + 1]``."""
    n = points.problem.n_objectives
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
        # a misfit rejects the run's first minimizer, once
        lam, _ = flags.read([run["lam"]], (n,), lambda _: f"weighting_runs[{r}].lam", members)
        value, _ = flags.read([run["value"]], (), lambda _: f"weighting_runs[{r}].value", members)
        if not ok[members[0]]:
            continue
        if np.logical_or(*_off_simplex(lam, tol.strict))[0]:
            flags.add(members[:1], lambda _: f"weighting_runs[{r}]: weights invalid")
        recorded = float(value[0])
        # λ·f(x) per minimizer, with the shapes of a single dot product
        f_values = batch.objective_values[rows[members], :, None]
        values[members] = (lam[:, None, :] @ f_values)[:, 0, 0]
        low, high = recorded - tol.strict, recorded + 1e-6
        off = ~((values[members] >= low) & (values[members] <= high))
        flags.add(members[off], lambda k: (
            f"weighting minimizer {minimizers[k]}: value {values[k]:.6e} "
            f"!= recorded {recorded:.6e}"))
    return flags.lines()


def _pair_entries(report: dict) -> tuple[list[tuple[str, InvexityKind, dict, str]], _Flags]:
    """(path, group kind, item, label) of every recorded pair verdict, and
    their `_Flags`, which reject each pair whose own kind is unknown or not
    its group's. The label is a template over the item's keys, filled only
    for a defect."""
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
    flags = _Flags(len(pairs))
    for k, (path, group_kind, item, _) in enumerate(pairs):
        kind = _kind(item["kind"])
        if kind is None:
            flags.reject(k, f"{path}.kind {item['kind']!r} is not a known kind")
        elif kind is not group_kind:
            flags.reject(k, f"{path}.kind {item['kind']!r} does not match its group "
                            f"{group_kind.value!r}")
    return pairs, flags


def _pair_defects(pairs: list, flags: _Flags, pair_x: list, problem: Problem,
                  tol) -> list[str]:
    s, n = problem.dimension, problem.n_objectives
    kernels = [item.get("kernel") for _, _, item, _ in pairs]
    certs = [item.get("certificate") for _, _, item, _ in pairs]

    def path(key: str):
        return lambda k: f"{pairs[k][0]}.{key}"

    eta, _ = flags.read([k["eta"] if k else [0.0] * s for k in kernels], (s,),
                        path("kernel.eta"))
    lam, _ = flags.read([c["lam"] if c else [0.0] * n for c in certs], (n,),
                        path("certificate.lam"))
    # a certificate's μ is a vector of any length: the replay checks it
    # against the active set of x̄
    mu: list[np.ndarray | None] = [None] * len(pairs)
    for k, cert in enumerate(certs):
        if cert is None or cert.get("mu") is None:
            continue
        try:
            mu[k] = np.asarray(cert["mu"], dtype=float)
            found = mu[k].shape if np.isfinite(mu[k]).all() else None
        except (TypeError, ValueError, OverflowError):
            found = None
        if found is None or len(found) != 1:
            flags.reject(k, _shape_defect(f"{pairs[k][0]}.certificate.mu", found, "a vector"))
    margin, _ = flags.read([k["margin"] if k else 0.0 for k in kernels], (),
                           path("kernel.margin"))
    violation, _ = flags.read([c["violation"] if c else 0.0 for c in certs], (),
                              path("certificate.violation"))
    has_kernel = np.array([k is not None for k in kernels], dtype=bool)
    has_certificate = np.array([c is not None for c in certs], dtype=bool)

    rows = np.zeros((len(pairs), 2), dtype=int)
    groups: dict[tuple[_Replay, InvexityKind], list[int]] = {}
    for points, members, handle in pair_x:
        if points.batch is not None:
            rows[members] = points.rows(handle).reshape(-1, 2)
        for k in members:
            groups.setdefault((points, pairs[k][1]), []).append(k)
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
