"""Checks of the program's outputs against closed forms derived by hand.

Nothing here imports invexcheck: the objectives, gradients, constraint and
grids are written out again with numpy, and every expected set follows from
the problem's closed form.  Each check returns a list of defects; an empty
list means the output is correct.

Tolerances are the package's documented defaults: 1e-8 for feasibility,
1e-7 for residuals, strict margins and active constraints.
"""

from __future__ import annotations

import re

import numpy as np

FEAS = 1e-8
TOL = 1e-7
KINDS = ("invex", "strict-invex", "kt-invex", "strict-kt-invex")


def grid(box, step: float) -> np.ndarray:
    """Inclusive box grid, last coordinate fastest (the README's grid)."""
    axes = []
    for lo, hi in box:
        count = int(round((hi - lo) / step)) + 1
        if abs(lo + (count - 1) * step - hi) > 1e-9:
            raise ValueError(f"step {step!r} does not divide [{lo}, {hi}]")
        axes.append(np.linspace(lo, hi, count))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _key(x) -> tuple:
    return tuple(float(v) + 0.0 for v in np.round(np.atleast_1d(x), 9))


def _keys(points) -> set:
    return {_key(x) for x in points}


class TwoVarConvex:
    """f = (|x|^2, |x - e1|^2), g = x1 + x2 - 2 on [-2, 2]^2."""

    box = ((-2.0, 2.0), (-2.0, 2.0))

    @staticmethod
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.array([x[0] ** 2 + x[1] ** 2, (x[0] - 1) ** 2 + x[1] ** 2])

    @staticmethod
    def jac(x):
        x = np.asarray(x, dtype=float)
        return np.array([[2 * x[0], 2 * x[1]], [2 * (x[0] - 1), 2 * x[1]]])

    @staticmethod
    def g(x):
        return np.array([x[0] + x[1] - 2.0])

    @staticmethod
    def dg(x):
        return np.array([[1.0, 1.0]])

    @staticmethod
    def stationary(nodes):
        # λ1 ∇f1 + λ2 ∇f2 = 0 forces x2 = 0 and x1 = λ2 ∈ [0, 1]; g < 0 there
        x1, x2 = nodes[:, 0], nodes[:, 1]
        return nodes[(np.abs(x2) <= 1e-12) & (x1 >= -1e-12) & (x1 <= 1 + 1e-12)]


class PaperExample21:
    """f = (r^2, r^4) with r the distance of x to [-1, 1], on [-3, 3]."""

    box = ((-3.0, 3.0),)

    @staticmethod
    def _r(x):
        x = float(np.atleast_1d(x)[0])
        return x - 1 if x > 1 else (x + 1 if x < -1 else 0.0)

    @classmethod
    def f(cls, x):
        r = cls._r(x)
        return np.array([r**2, r**4])

    @classmethod
    def jac(cls, x):
        r = cls._r(x)
        return np.array([[2 * r], [4 * r**3]])

    @staticmethod
    def g(x):
        return np.zeros(0)

    @staticmethod
    def dg(x):
        return np.zeros((0, 1))

    @staticmethod
    def stationary(nodes):
        # both gradients vanish exactly on the flat part [-1, 1], nowhere else
        return nodes[(nodes[:, 0] >= -1.0) & (nodes[:, 0] <= 1.0)]


PROBLEMS = {"two-var-convex": TwoVarConvex, "paper-example-2.1": PaperExample21}


def _weights(lambda_step: float) -> set:
    levels = int(round(1.0 / lambda_step))
    return _keys([(1 - k / levels, k / levels) for k in range(levels + 1)])


def _replay_kernel(prob, kind: str, item: dict) -> list[str]:
    xbar, x = np.array(item["xbar"]), np.array(item["x"])
    where = f"{kind} kernel (xbar={item['xbar']}, x={item['x']})"
    if item.get("certificate") is not None or item.get("kernel") is None:
        return [f"{where}: not a kernel verdict"]
    eta = np.array(item["kernel"]["eta"])
    margin = item["kernel"]["margin"]
    slack = (prob.f(x) - prob.f(xbar)) - prob.jac(xbar) @ eta
    defects = []
    if kind.startswith("strict"):
        if not (margin > 0 and slack.min() > 0 and slack.min() >= margin - TOL):
            defects.append(f"{where}: strict slack {slack.min():.3e}, margin {margin}")
    elif slack.min() < -TOL:
        defects.append(f"{where}: row violated by {-slack.min():.3e}")
    if kind.startswith(("kt", "strict-kt")):
        if prob.g(xbar).max(initial=0.0) > FEAS or prob.g(x).max(initial=0.0) > FEAS:
            defects.append(f"{where}: infeasible point in a KT pair")
        active = np.abs(prob.g(xbar)) <= TOL
        if active.any() and (prob.dg(xbar)[active] @ eta).max() > TOL:
            defects.append(f"{where}: active constraint row violated")
    return defects


def _replay_certificate(prob, kind: str, item: dict) -> list[str]:
    xbar, x = np.array(item["xbar"]), np.array(item["x"])
    where = f"{kind} certificate (xbar={item['xbar']}, x={item['x']})"
    if item.get("kernel") is not None or item.get("certificate") is None:
        return [f"{where}: not a certificate verdict"]
    lam = np.array(item["certificate"]["lam"])
    violation = float(lam @ (prob.f(x) - prob.f(xbar)))
    defects = []
    if lam.min() < -1e-12 or abs(lam.sum() - 1) > 1e-9:
        defects.append(f"{where}: weights {lam} not in the simplex")
    if np.abs(lam @ prob.jac(xbar)).max() > TOL:
        defects.append(f"{where}: base point not stationary for its weights")
    if abs(violation - item["certificate"]["violation"]) > 1e-12:
        defects.append(f"{where}: stored violation differs from λ·Δf = {violation}")
    return defects


def check_report(report: dict, fixture: str, grid_step, pair_step, lambda_step) -> list[str]:
    """Compare one analyze report with the fixture's closed form."""
    prob = PROBLEMS[fixture]
    nodes = grid(prob.box, grid_step)
    flat = prob.stationary(nodes)
    expected = _keys(flat)
    defects = []

    for section in ("critical_points", "kt_points"):
        entries = report[section]
        if _keys(e["x"] for e in entries) != expected or len(entries) != len(flat):
            defects.append(f"{section}: {len(entries)} points, expected {len(flat)}")
        for e in entries:
            lam = np.array(e["lam"])
            if lam.min() < -1e-12 or abs(lam.sum() - 1) > 1e-9:
                defects.append(f"{section} {e['x']}: weights {lam} not in the simplex")
            if np.abs(lam @ prob.jac(e["x"])).max() > TOL:
                defects.append(f"{section} {e['x']}: λ·Jf does not vanish")
            if fixture == "two-var-convex" and np.abs(lam - [1 - e["x"][0], e["x"][0]]).max() > 1e-6:
                defects.append(f"{section} {e['x']}: λ = {lam}, expected (1 - x1, x1)")
            if section == "kt_points" and (e["active_indices"] or e["mu"]):
                defects.append(f"kt point {e['x']}: constraint active on the segment")

    if _keys(report["weakly_efficient_nodes"]) != expected:
        defects.append("weakly_efficient_nodes differ from the stationary nodes")

    runs = report["weighting_runs"]
    if _keys(r["lam"] for r in runs) != _weights(lambda_step):
        defects.append("weighting runs do not cover the weight lattice")
    for run in runs:
        w = np.array(run["lam"])
        if fixture == "two-var-convex":
            # w·f is minimized at (w2, 0) with value w1·w2
            want = w[0] * w[1]
            near = all(np.abs(np.array(m) - [w[1], 0.0]).max() <= 1e-6 for m in run["minimizers"])
        else:
            # w·f is 0 exactly on the flat nodes and positive elsewhere; nodes
            # next to them may tie within the 1e-9 value tolerance
            want = 0.0
            near = expected <= _keys(run["minimizers"])
        if abs(run["value"] - want) > 1e-9 or not near or not run["minimizers"]:
            defects.append(f"weighting λ={run['lam']}: value {run['value']}, minimizers off")
        for m in run["minimizers"]:
            if abs(float(w @ prob.f(m)) - run["value"]) > 1e-9:
                defects.append(f"weighting λ={run['lam']}: minimizer {m} misses the value")

    pair_nodes = grid(prob.box, pair_step)
    feasible = np.array([prob.g(x).max(initial=0.0) <= FEAS for x in pair_nodes])
    flat_pairs = prob.stationary(pair_nodes)
    strict_failures = {
        (_key(a), _key(b)) for a in flat_pairs for b in flat_pairs if _key(a) != _key(b)
    }
    fails_strict = fixture == "paper-example-2.1"

    def failures_for(kind: str) -> set:
        return strict_failures if kind.startswith("strict") and fails_strict else set()

    for kind in KINDS:
        v = report["pair_verdicts"][kind]
        strict = kind.startswith("strict")
        count = int(feasible.sum()) if "kt" in kind else len(pair_nodes)
        checked = count * (count - 1) if strict else count * count
        if v["points_sampled"] != count or v["checked_pairs"] != checked:
            defects.append(
                f"{kind}: {v['points_sampled']} points, {v['checked_pairs']} pairs; "
                f"expected {count}, {checked}"
            )
        want = failures_for(kind)
        got = {(_key(f["xbar"]), _key(f["x"])) for f in v["failures"]}
        if got != want or len(v["failures"]) != len(want) or v["all_pairs_kernel"] != (not want):
            defects.append(f"{kind}: {len(got)} failures, expected {len(want)}")
        for item in v["failures"]:
            defects += _replay_certificate(prob, kind, item)
            if item["certificate"] and abs(item["certificate"]["violation"]) > 1e-12:
                defects.append(f"{kind}: failure with λ·Δf ≠ 0")
        for item in v["kernel_samples"]:
            defects += _replay_kernel(prob, kind, item)

    cross = report["crosscheck"]
    if cross["agreement"] is not True:
        defects.append("crosscheck disagrees")
    for check in cross["checks"]:
        want = failures_for(check["kind"])
        side = not want
        got = {(_key(f["xbar"]), _key(f["x"])) for f in check["kernel_failures"]}
        if (
            check["stationary_side"] is not side
            or check["kernel_side"] is not side
            or check["agreement"] is not True
            or check["stationary_count"] != len(flat)
            or len(check["stationary_failures"]) != (0 if side else len(flat))
            or got != want
        ):
            defects.append(f"crosscheck {check['kind']}: sides or counts off")
    return defects


_TIMINGS = re.compile(rb',?"timings_ms":\{[^{}]*\}')


def without_timings(report_bytes: bytes) -> bytes:
    """Report bytes minus the timings block the README exempts from determinism."""
    stripped, count = _TIMINGS.subn(b"", report_bytes)
    if count != 1:
        raise ValueError("report has no single timings_ms block")
    return stripped


def check_alternative(output: dict, A: np.ndarray, B, branch: str) -> list[str]:
    """Replay one alternative output against its planted system."""
    theorem = "gordan" if B is None else "motzkin"
    if output["theorem"] != theorem or output["branch"] != branch:
        return [f"{theorem} system: branch {output['branch']}, planted {branch}"]
    if branch == "primal":
        w = np.array(output["primal_witness"])
        if (A @ w).max() >= 0 or (B is not None and (B @ w).max() > TOL):
            return [f"{theorem} primal witness does not replay"]
        return []
    y = np.array(output["dual_witness" if B is None else "dual_witness_y"])
    combo = A.T @ y
    z = np.zeros(0)
    if B is not None:
        z = np.array(output["dual_witness_z"])
        combo = combo + B.T @ z
    if y.min() < 0 or z.min(initial=0.0) < 0 or abs(y.sum() - 1) > 1e-9:
        return [f"{theorem} dual witness has negative or unnormalized weights"]
    if np.abs(combo).max() > TOL:
        return [f"{theorem} dual combination residual {np.abs(combo).max():.3e}"]
    return []
