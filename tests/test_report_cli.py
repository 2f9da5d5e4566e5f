"""Report serialization, replay verification, and the command-line surface."""

import copy
import functools
import json
import math
import operator
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invexcheck.cli as cli
from invexcheck.invexity import GridSampler, InvexityKind
from invexcheck.expressions import DomainError
from invexcheck.problems import (
    OutOfBoxError,
    Problem,
    evaluate,
    fixture,
    fixture_names,
    problem_from_dict,
)
from invexcheck.replay import verify_report
from invexcheck.report import build_report, canonical_json, strip_timings
from reference_report import reference_canonical_json, reference_verify_report

# -- canonical serializer ------------------------------------------------------


def test_canonical_json_is_sorted_and_stable():
    text = canonical_json({"b": [1, -0.0, 3], "a": 0.1})
    assert text == '{"a":0.10000000000000001,"b":[1,-0,3]}'


def test_canonical_json_booleans_and_null():
    assert canonical_json({"t": True, "f": False, "n": None}) == (
        '{"f":false,"n":null,"t":true}'
    )


def test_canonical_json_floats_route_through_17_digits():
    assert canonical_json(1.0) == "1"
    assert canonical_json(2.5) == "2.5"
    assert canonical_json(1 / 3) == "0.33333333333333331"


def test_canonical_json_rejects_nonfinite_and_bad_keys():
    with pytest.raises(ValueError):
        canonical_json({"x": math.nan})
    with pytest.raises(ValueError):
        canonical_json({"x": math.inf})
    with pytest.raises(TypeError):
        canonical_json({1: "x"})


def test_canonical_json_unicode_passthrough():
    assert canonical_json("xé") == '"xé"'


_JSON_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.1, -0.0, 1e22, 5e-324, 1 / 3, math.inf, math.nan]
)
_JSON_LEAVES = (
    _JSON_FLOATS
    | st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
    | st.text(max_size=6)
    | _JSON_FLOATS.map(np.float64)
    | st.integers(-9, 9).map(np.int64)
    | st.lists(_JSON_FLOATS, max_size=4).map(np.array)
    | st.lists(st.integers(-9, 9), max_size=3).map(lambda v: np.array(v, dtype=int))
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(_JSON_FLOATS, min_size=1, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4) | st.integers(0, 3), inner, max_size=4),
    max_leaves=20,
)


def _outcome(emit, value):
    try:
        return emit(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
@example([1.0, math.nan, math.inf])
@example({"b": [0.5, 2.0], "a": (True, 1, np.float64(0.1), "é")})
def test_canonical_json_matches_reference_emitter(value):
    # same text, or the same exception type (non-finite floats, non-str keys)
    assert _outcome(canonical_json, value) == _outcome(reference_canonical_json, value)


# -- report pipeline -----------------------------------------------------------


@pytest.fixture(scope="module")
def cube_report():
    return build_report(fixture("cube"), grid_step=0.1, lambda_grid_step=0.5,
                        pair_sampler=GridSampler(0.5))


def test_report_shape(cube_report):
    expected = {
        "problem_name", "problem", "config", "critical_points", "kt_points",
        "weakly_efficient_nodes", "weighting_runs", "pair_verdicts",
        "crosscheck", "timings_ms",
    }
    assert set(cube_report) == expected
    assert cube_report["problem_name"] == "cube"
    assert set(cube_report["pair_verdicts"]) == {
        "invex", "strict-invex", "kt-invex", "strict-kt-invex",
    }
    assert cube_report["crosscheck"]["agreement"] is True
    assert all(v >= 0 for v in cube_report["timings_ms"].values())


def test_report_is_deterministic(cube_report):
    again = build_report(fixture("cube"), grid_step=0.1, lambda_grid_step=0.5,
                         pair_sampler=GridSampler(0.5))
    assert canonical_json(strip_timings(cube_report)) == canonical_json(
        strip_timings(again)
    )


def test_report_survives_json_round_trip(cube_report):
    wire = json.loads(canonical_json(cube_report))
    assert verify_report(wire) == []


def test_verify_report_clean(cube_report):
    assert verify_report(cube_report) == []


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda r: r["critical_points"][0]["lam"].__setitem__(0, 0.25), "critical"),
        (lambda r: r["weighting_runs"][0]["minimizers"].__setitem__(0, [1.7]), "weighting"),
        (
            lambda r: r["pair_verdicts"]["invex"]["failures"][0]["certificate"]
            .__setitem__("lam", [0.3]),
            "pair",
        ),
    ],
)
def test_verify_report_flags_tampering(cube_report, mutate, fragment):
    wire = json.loads(canonical_json(cube_report))
    mutate(wire)
    defects = verify_report(wire)
    assert defects != []
    assert any(fragment in d for d in defects), defects


# -- replay against the lookup-at-a-time reference ------------------------------

#: x <= 0.5 is active at the KT point x = 0.5, so its KT point and the
#: failure certificates there carry a μ
CAPPED_CONCAVE = Problem(
    name="capped-concave",
    variables=("x",),
    objectives=("-(x^2)", "-x"),
    constraints=("x - 0.5",),
    box=((-1.0, 1.0),),
)
ORACLE_PROBLEMS = {
    **{name: fixture(name) for name in fixture_names()},
    CAPPED_CONCAVE.name: CAPPED_CONCAVE,
}
_ORACLE_TEXT = {}


def oracle_report(name: str) -> dict:
    """A fresh wire copy of a small report of one oracle problem."""
    if name not in _ORACLE_TEXT:
        report = build_report(ORACLE_PROBLEMS[name], grid_step=0.25,
                              lambda_grid_step=0.25, pair_sampler=GridSampler(0.5))
        _ORACLE_TEXT[name] = canonical_json(report)
    return json.loads(_ORACLE_TEXT[name])


def _tamper_sites(node, path=()):
    """(path, mutation) for every replayed number in a report."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key not in ("problem", "config", "weakly_efficient_nodes",
                           "stationary_failures", "timings_ms"):
                yield from _tamper_sites(value, path + (key,))
    elif isinstance(node, list) and path[-1] != "active_indices":
        for i, value in enumerate(node):
            yield from _tamper_sites(value, path + (i,))
    key = path[-1] if path else None
    if key in ("lam", "mu") and node:
        yield path, "scale"
    elif key in ("x", "xbar") or (len(path) > 1 and path[-2] == "minimizers"):
        yield path, "move"
    elif key == "eta":
        yield path, "perturb"
    elif key in ("margin", "violation") or (key == "value" and path[0] == "weighting_runs"):
        yield path, "shift"
    elif key == "active_indices":
        yield path, "swap"


_DELTAS = st.sampled_from([1e-12, -1e-9, 1e-7, -1e-6, 1e-3, -0.25, 0.5, 3.0]) | st.floats(-2, 2)


def _mutate(report, problem, path, mutation, draw):
    *parents, key = path
    parent = report
    for step in parents:
        parent = parent[step]
    value = parent[key]
    if mutation == "move":
        fractions = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0]) | st.floats(0, 1)
        parent[key] = [lo + draw(fractions) * (hi - lo) for lo, hi in problem.box]
    elif mutation == "swap":
        parent[key] = [] if value else list(range(max(1, problem.n_constraints)))
    elif mutation == "shift":
        parent[key] = value + draw(_DELTAS)
    else:
        j = draw(st.integers(0, len(value) - 1))
        if mutation == "scale":
            value[j] = value[j] * draw(st.sampled_from([0.0, -1.0, 0.5, 1 + 1e-9, 2.0])
                                       | st.floats(-3, 3)) + draw(_DELTAS | st.just(0.0))
        else:
            value[j] = value[j] + draw(_DELTAS)


def _entry_of(path):
    """The path of the evidence entry (point, run or pair) holding ``path``."""
    last = max(i for i, step in enumerate(path[:-1]) if isinstance(step, int)
               and isinstance(path[i + 1], str))
    return path[: last + 1]


def _is_added_kind(defect: str) -> bool:
    """The defects that the reference does not report: recomputed counts,
    weighting-run weights, and malformed shapes, which made it raise."""
    return "stationary_count" in defect or re.search(
        r" has shape \(|is not an array of numbers|^weighting_runs\[\d+\]: weights invalid",
        defect,
    ) is not None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_report_matches_reference_on_tampered_reports(data):
    name = data.draw(st.sampled_from(sorted(ORACLE_PROBLEMS)))
    report = oracle_report(name)
    sites = {}
    for path, mutation in _tamper_sites(report):
        sites.setdefault(mutation, []).append(path)
    for _ in range(data.draw(st.integers(1, 3))):
        mutation = data.draw(st.sampled_from(sorted(sites)))
        path = data.draw(st.sampled_from(sites[mutation]))
        targets = [(path, mutation)]
        if data.draw(st.booleans()):  # tamper with every number of that entry
            entry = _entry_of(path)
            targets = [(p, m) for p, m in _tamper_sites(report) if _entry_of(p) == entry]
        for path, mutation in targets:
            _mutate(report, ORACLE_PROBLEMS[name], path, mutation, data.draw)
    try:
        expected = reference_verify_report(copy.deepcopy(report))
    except Exception as exc:  # the reference's error, or a shape defect instead
        try:
            defects = verify_report(report)
        except type(exc) as new:
            assert str(new) == str(exc)
        else:
            assert any(_is_added_kind(d) for d in defects), defects
        return
    defects = verify_report(report)
    assert [d for d in defects if not _is_added_kind(d)] == expected


_CAPPED_CERTIFICATE = ("pair_verdicts", "strict-kt-invex", "failures", 9, "certificate")


@pytest.mark.parametrize(
    "name,tampering",
    [
        # the multipliers on the active constraint x <= 0.5
        ("capped-concave", {("kt_points", 5, "mu"): [-0.5]}),
        ("capped-concave", {_CAPPED_CERTIFICATE + ("mu",): [-0.5]}),
        ("capped-concave", {_CAPPED_CERTIFICATE + ("mu",): [1.0, 1.0]}),
        ("capped-concave", {_CAPPED_CERTIFICATE + ("mu",): None}),
        ("capped-concave", {("pair_verdicts", "kt-invex", "kernel_samples", 4, "kernel", "eta"): [2.0]}),
        # several defects of one pair, in their order
        ("cube", {("pair_verdicts", "invex", "kernel_samples", 3, "kernel", "eta"): [40.0],
                  ("pair_verdicts", "invex", "kernel_samples", 3, "kernel", "margin"): -1.0}),
        ("cube", {("pair_verdicts", "invex", "failures", 0, "kernel"): {"eta": [0.0], "margin": 0.0},
                  ("pair_verdicts", "invex", "failures", 0, "certificate", "lam"): [-0.5]}),
        ("paper-example-2.1", {("pair_verdicts", "strict-invex", "failures", 2, "certificate"): None,
                               ("pair_verdicts", "strict-invex", "kernel_samples", 0, "kernel",
                                "margin"): 0.0}),
    ],
)
def test_verify_report_matches_reference_on_tampered_multipliers(name, tampering):
    report = oracle_report(name)
    for path, value in tampering.items():
        _tamper(report, path, value)
    expected = reference_verify_report(copy.deepcopy(report))
    assert expected
    assert verify_report(report) == expected


@pytest.mark.parametrize("delta", [-1e-4, -2e-6, -5e-7, 5e-8, 2e-7, 1e-3])
def test_verify_report_matches_reference_on_shifted_run_values(delta):
    # a minimizer may sit up to 1e-6 above the recorded value, and
    # tol.strict below it
    report = oracle_report("paper-example-2.1")
    report["weighting_runs"][1]["value"] += delta
    expected = reference_verify_report(copy.deepcopy(report))
    assert bool(expected) == (delta < -1e-6 or delta > 1e-7)
    assert verify_report(report) == expected


def _dotted(path) -> str:
    """A report path as `verify_report` names it, e.g. ``kt_points[0].x``."""
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)[1:]


@pytest.mark.parametrize(
    "tampering",
    [
        {("kt_points", 0, "x"): [2.5, 0.0], ("critical_points", 0, "x"): [0.0, -3.0]},
        {("kt_points", 0, "x"): [2.5, 0.0], ("weighting_runs", 0, "minimizers", 0): [3.0, 0.0]},
        {("pair_verdicts", "invex", "kernel_samples", 0, "x"): [0.0, 9.0],
         ("pair_verdicts", "kt-invex", "kernel_samples", 0, "x"): [7.0, 0.0]},
        # 0 / 0 at (0.25, 0) alone; elsewhere values and gradients are unchanged
        {("problem", "objectives", 0): "x1^2 + x2^2 + 0 / ((x1 - 0.25)^2 + x2^2)"},
    ],
)
def test_verify_report_names_each_point_the_reference_raises_on(tampering):
    # the reference stops at the first point it cannot evaluate; the replay
    # rejects each entry at such a point, by its path, and checks the rest
    report = oracle_report("two-var-convex")
    for path, value in tampering.items():
        _tamper(report, path, value)
    with pytest.raises((OutOfBoxError, DomainError)) as raised:
        reference_verify_report(copy.deepcopy(report))
    problem = problem_from_dict(report["problem"])
    expected = []
    for path, how in _tamper_sites(report):
        if how == "move":
            try:
                evaluate(problem, functools.reduce(operator.getitem, path, report))
            except (OutOfBoxError, DomainError) as exc:
                expected.append(f"{_dotted(path)}: {exc}")
    defects = verify_report(report)
    assert sorted(defects) == sorted(expected)
    assert any(defect.endswith(f": {raised.value}") for defect in defects)


@pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
def test_oracle_reports_verify_and_count_their_stationary_points(name):
    report = oracle_report(name)
    assert verify_report(report) == [] == reference_verify_report(report)
    # the count each crosscheck check records is the length of the list
    # `verify_report` compares it with (the five fixtures and capped-concave)
    for check in report["crosscheck"]["checks"]:
        is_kt = InvexityKind(check["kind"]).is_kt
        points = report["kt_points" if is_kt else "critical_points"]
        assert check["stationary_count"] == len(points)


@pytest.mark.parametrize(
    "name,path,value,defect",
    [
        ("paper-example-2.1", ("critical_points", 0, "lam"), [1.0],
         "critical_points[0].lam has shape (1,), expected (2,)"),
        ("paper-example-2.1", ("critical_points", 2, "x"), [0.0, 0.0],
         "critical_points[2].x has shape (2,), expected (1,)"),
        ("paper-example-2.1", ("weighting_runs", 1, "minimizers", 3), [[0.0]],
         "weighting_runs[1].minimizers[3] has shape (1, 1), expected (1,)"),
        ("paper-example-2.1", ("weighting_runs", 1, "lam"), [0.5, 0.25, 0.25],
         "weighting_runs[1].lam has shape (3,), expected (2,)"),
        ("paper-example-2.1",
         ("pair_verdicts", "strict-invex", "failures", 0, "certificate", "lam"), [1.0],
         "pair_verdicts.strict-invex.failures[0].certificate.lam has shape (1,), "
         "expected (2,)"),
        ("paper-example-2.1", ("pair_verdicts", "invex", "kernel_samples", 4, "kernel", "eta"),
         "a", "pair_verdicts.invex.kernel_samples[4].kernel.eta is not an array of numbers"),
        ("paper-example-2.1", ("pair_verdicts", "invex", "kernel_samples", 0, "x"), [0.0, 1.0],
         "pair_verdicts.invex.kernel_samples[0].x has shape (2,), expected (1,)"),
        ("capped-concave", ("kt_points", 5, "mu"), [1.0, 2.0],
         "kt_points[5].mu has shape (2,), expected (1,)"),
        ("capped-concave", ("crosscheck", "checks", 3, "kernel_failures", 10, "certificate", "mu"),
         "x", "crosscheck.checks[3].kernel_failures[10].certificate.mu is not an array of numbers"),
    ],
)
def test_verify_report_names_malformed_entries(name, path, value, defect):
    report = oracle_report(name)
    _tamper(report, path, value)
    # one EvaluatedPoint per lookup raised on each of these
    with pytest.raises(ValueError):
        reference_verify_report(copy.deepcopy(report))
    defects = verify_report(report)
    assert defect in defects, defects
    # the rest of the report still replays
    assert [d for d in defects if d != defect] == []


def test_verify_report_names_a_certificate_mu_that_is_not_a_vector():
    # the reference broadcasts this μ against the active row instead of raising
    report = oracle_report("capped-concave")
    _tamper(report, _CAPPED_CERTIFICATE + ("mu",), [[0.5]])
    assert verify_report(report) == [
        "pair_verdicts.strict-kt-invex.failures[9].certificate.mu has shape (1, 1), "
        "expected a vector"
    ]


def test_cli_verify_reports_malformed_entries_as_defects(tmp_path, capsys):
    report = oracle_report("paper-example-2.1")
    report["critical_points"][0]["lam"] = [1.0]
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    assert run_cli("verify", str(path)) == 1
    err = capsys.readouterr().err
    assert err == "defect: critical_points[0].lam has shape (1,), expected (2,)\n"


_KERNEL_4 = ("pair_verdicts", "invex", "kernel_samples", 4, "kernel")
_STRICT_CERTIFICATE = ("pair_verdicts", "strict-invex", "failures", 0, "certificate")


@pytest.mark.parametrize(
    "name,path,value,defect",
    [
        # numpy reads a JSON null in a list as NaN
        ("paper-example-2.1", ("critical_points", 0, "lam"), [None, None],
         "critical_points[0].lam is not an array of numbers"),
        ("paper-example-2.1", ("kt_points", 0, "lam"), [None, None],
         "kt_points[0].lam is not an array of numbers"),
        ("paper-example-2.1", ("weighting_runs", 1, "lam"), [None, None],
         "weighting_runs[1].lam is not an array of numbers"),
        ("paper-example-2.1", ("critical_points", 0, "lam"), [math.nan, 1.0],
         "critical_points[0].lam is not an array of numbers"),
        ("paper-example-2.1", ("critical_points", 2, "x"), [None],
         "critical_points[2].x is not an array of numbers"),
        ("paper-example-2.1", ("pair_verdicts", "invex", "kernel_samples", 0, "xbar"),
         [math.inf], "pair_verdicts.invex.kernel_samples[0].xbar is not an array of numbers"),
        ("paper-example-2.1", ("weighting_runs", 1, "value"), math.nan,
         "weighting_runs[1].value is not a number"),
        ("paper-example-2.1", ("weighting_runs", 1, "value"), None,
         "weighting_runs[1].value is not a number"),
        ("paper-example-2.1", _KERNEL_4 + ("margin",), math.nan,
         "pair_verdicts.invex.kernel_samples[4].kernel.margin is not a number"),
        ("paper-example-2.1", _STRICT_CERTIFICATE + ("violation",), None,
         "pair_verdicts.strict-invex.failures[0].certificate.violation is not a number"),
        ("capped-concave", ("kt_points", 5, "mu"), [math.nan],
         "kt_points[5].mu is not an array of numbers"),
        ("capped-concave", _CAPPED_CERTIFICATE + ("mu",), [None],
         "pair_verdicts.strict-kt-invex.failures[9].certificate.mu is not an array of numbers"),
        # a JSON integer beyond the float range
        ("paper-example-2.1", ("weighting_runs", 1, "lam"), [10**400, 0],
         "weighting_runs[1].lam is not an array of numbers"),
    ],
)
def test_verify_report_names_non_finite_entries(name, path, value, defect):
    # every comparison with NaN is false, so a NaN would pass each check
    report = oracle_report(name)
    _tamper(report, path, value)
    assert verify_report(report) == [defect]


def _rename_pair_kind(report):
    report["pair_verdicts"]["bogus"] = report["pair_verdicts"].pop("invex")


@pytest.mark.parametrize(
    "path,value,defect",
    [
        # a check with kernel failures, whose pairs are not replayed
        (("crosscheck", "checks", 0, "kind"), "bogus",
         "crosscheck.checks[0].kind 'bogus' is not a known kind"),
        (("crosscheck", "checks", 2, "kind"), None,
         "crosscheck.checks[2].kind None is not a known kind"),
        (("pair_verdicts", "invex", "kernel_samples", 0, "kind"), "bogus",
         "pair_verdicts.invex.kernel_samples[0].kind 'bogus' is not a known kind"),
        (None, _rename_pair_kind, "pair_verdicts.bogus is not a known kind"),
    ],
)
def test_verify_report_names_unknown_kinds(path, value, defect):
    report = oracle_report("cube")
    if path is None:
        value(report)
    else:
        _tamper(report, path, value)
    assert verify_report(report) == [defect]


def _claim_as_invex_failure(report, where):
    """Copy the first strict-invex failure (violation 0, which proves no
    invexity failure) into an invex group, with the derived flags recomputed;
    returns the copy's path and the copy."""
    failure = copy.deepcopy(report["pair_verdicts"]["strict-invex"]["failures"][0])
    if where == "pair_verdicts":
        invex = report["pair_verdicts"]["invex"]
        invex["failures"].append(failure)
        invex["all_pairs_kernel"] = False
        return f"pair_verdicts.invex.failures[{len(invex['failures']) - 1}]", failure
    checks = report["crosscheck"]["checks"]
    c = next(c for c, check in enumerate(checks) if check["kind"] == "invex")
    check = checks[c]
    check["kernel_failures"].append(failure)
    check["kernel_side"] = False
    check["agreement"] = check["stationary_side"] == check["kernel_side"]
    report["crosscheck"]["agreement"] = all(check["agreement"] for check in checks)
    return f"crosscheck.checks[{c}].kernel_failures[{len(check['kernel_failures']) - 1}]", failure


@pytest.mark.parametrize("where", ["pair_verdicts", "crosscheck"])
def test_verify_report_checks_pair_kind_against_its_group(where):
    report = oracle_report("paper-example-2.1")
    path, failure = _claim_as_invex_failure(report, where)
    assert failure["certificate"]["violation"] == 0
    assert verify_report(report) == [
        f"{path}.kind 'strict-invex' does not match its group 'invex'"
    ]
    # replayed under its group's kind, the certificate proves nothing
    failure["kind"] = "invex"
    label = "invex pair (xbar=[-1], x=[-0.5])"
    if where == "crosscheck":
        label = "crosscheck invex failure pair"
    assert verify_report(report) == [
        f"{label}: certificate violation 0.000e+00 not strictly negative"
    ]


@pytest.fixture(scope="module")
def cube_wire():
    """The report of `analyze cube --grid-step 0.25`, as JSON text."""
    return canonical_json(build_report(fixture("cube"), grid_step=0.25))


def _drop(*path):
    """An edit that deletes the key at ``path``."""
    def edit(report):
        node = report
        for step in path[:-1]:
            node = node[step]
        del node[path[-1]]
        return report
    return edit


_MALFORMED = [
    (lambda r: [], "report is not a JSON object"),
    (lambda r: {**r, "critical_points": [1]}, "critical_points[0] is not a JSON object"),
    (_drop("critical_points", 0, "x"), "critical_points[0].x is missing"),
    (_drop("kt_points", 0, "mu"), "kt_points[0].mu is missing"),
    (lambda r: {**r, "weighting_runs": "abc"}, "weighting_runs is not a JSON array"),
    (lambda r: {**r, "pair_verdicts": []}, "pair_verdicts is not a JSON object"),
    (lambda r: {**r, "crosscheck": []}, "crosscheck is not a JSON object"),
    (_drop("pair_verdicts", "invex", "failures", 0, "x"),
     "pair_verdicts.invex.failures[0].x is missing"),
]


@pytest.mark.parametrize("edit,defect", _MALFORMED, ids=[d for _, d in _MALFORMED])
def test_verify_report_names_malformed_structure(cube_wire, edit, defect):
    # each of these edits stopped the replay with a Python traceback
    assert verify_report(edit(json.loads(cube_wire))) == [defect]


def test_verify_report_checks_kt_weights(cube_wire):
    report = json.loads(cube_wire)
    assert len(report["kt_points"]) == 1
    report["kt_points"][0].update(x=[1.5], lam=[0.0])
    assert verify_report(report) == ["kt point [1.5]: weights invalid"]


@pytest.fixture(scope="module")
def two_var_wire():
    """The report of `analyze two-var-convex --grid-step 0.5 --pair-step 1.0`."""
    return canonical_json(build_report(fixture("two-var-convex"), grid_step=0.5,
                                       pair_sampler=GridSampler(1.0)))


#: edits that each verified clean while a product overflowed to NaN, or
#: while a weighting run's λ was not a weight vector; run 3 has λ = (0.7, 0.3)
#: and the one minimizer (0.3, 0), where f = (0.09, 0.49)
_UNSOUND = [
    # x̄ = x = (-2, -2): row 2 of Jf(x̄)·η is 6e308 - 4e308 > Δf = 0
    (lambda r: _tamper(r, ("pair_verdicts", "invex", "kernel_samples", 0, "kernel", "eta"),
                       [-1e308, 1e308]),
     "invex pair (xbar=[-2, -2], x=[-2, -2]): kernel row violated by nan"),
    (lambda r: r["weighting_runs"][3].update(lam=[-1.0, 2.0], value=-0.09 + 2 * 0.49),
     "weighting_runs[3]: weights invalid"),
    (lambda r: r["weighting_runs"][3].update(lam=[2.1, 0.9], value=0.63),
     "weighting_runs[3]: weights invalid"),
]


@pytest.mark.parametrize("edit,defect", _UNSOUND, ids=["overflow", "negative", "tripled"])
def test_verify_report_names_unsound_evidence(two_var_wire, edit, defect):
    report = json.loads(two_var_wire)
    assert report["weighting_runs"][3]["lam"] == [0.7, 0.3]
    assert verify_report(report) == []
    edit(report)
    assert verify_report(report) == [defect]


@pytest.mark.parametrize("name,variants", [("two-var-convex", 2), ("paper-example-2.1", 1)])
def test_verify_report_evaluates_each_variant_in_one_batch(monkeypatch, name, variants):
    from invexcheck import problems, replay

    report = oracle_report(name)
    calls = []
    real = replay.evaluate_many

    def counted(problem, points, *args, **kwargs):
        calls.append(problem)
        return real(problem, points, *args, **kwargs)

    def no_lookup(self, i):
        raise AssertionError("verify_report built an EvaluatedPoint")

    monkeypatch.setattr(replay, "evaluate_many", counted)
    monkeypatch.setattr(problems.PointBatch, "point", no_lookup)
    assert verify_report(report) == []
    assert len(calls) == variants == len({p.constraints for p in calls})


# -- CLI -----------------------------------------------------------------------


def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_analyze_stdout(capsys):
    code = run_cli("analyze", "cube", "--grid-step", "0.1",
                   "--lambda-grid-step", "0.5", "--pair-step", "0.5")
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["problem_name"] == "cube"
    assert report["config"]["grid_step"] == 0.1


def test_cli_analyze_writes_file_and_verify_accepts_it(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code = run_cli("analyze", "cube", "--grid-step", "0.1",
                   "--lambda-grid-step", "0.5", "--pair-step", "0.5",
                   "-o", str(out_path))
    assert code == 0
    code = run_cli("verify", str(out_path))
    captured = capsys.readouterr()
    assert code == 0
    assert "replays" in captured.out


def test_cli_analyze_problem_file(tmp_path, capsys):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps({
        "name": "toy",
        "variables": ["x"],
        "objectives": ["(x - 1)^2"],
        "box": [[-1, 2]],
    }))
    code = run_cli("analyze", str(path), "--grid-step", "0.25",
                   "--lambda-grid-step", "1.0", "--pair-step", "1.0")
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["problem_name"] == "toy"


def test_cli_analyze_power_overflow_is_an_input_error(tmp_path, capsys):
    # 100^200 overflows a double: a DomainError, reported like exp overflow
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "name": "big",
        "variables": ["x"],
        "objectives": ["x^200"],
        "box": [[-100, 100]],
    }))
    code = run_cli("analyze", str(path), "--grid-step", "50")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: power overflow in `x^200`")


def test_cli_analyze_domain_error_quotes_the_source(tmp_path, capsys):
    path = tmp_path / "ln-edge.json"
    path.write_text(json.dumps({
        "name": "ln-edge",
        "variables": ["x"],
        "objectives": ["ln(x+1)", "x^2"],
        "box": [[-1, 1]],
    }))
    assert run_cli("analyze", str(path)) == 1
    assert capsys.readouterr().err == "error: ln of a nonpositive value in `ln(x+1)`\n"


def test_cli_analyze_random_pair_sampler_is_reproducible(tmp_path, capsys):
    argv = ["analyze", "kt-linear-quad", "--grid-step", "0.25", "--pair-sampler", "random",
            "--pair-count", "20", "--seed", "5"]
    reports = []
    for _ in range(2):
        assert run_cli(*argv) == 0
        reports.append(json.loads(capsys.readouterr().out))
    first, second = (strip_timings(report) for report in reports)
    assert canonical_json(first) == canonical_json(second)
    assert first["config"]["pair_sampler"] == "random(count=20, seed=5)"
    # the crosscheck's grid falls back to step 0.25 under a random sampler
    assert first["crosscheck"]["pair_step"] == 0.25
    sampled = {kind: v["points_sampled"] for kind, v in first["pair_verdicts"].items()}
    assert (sampled["invex"], sampled["kt-invex"]) == (20, 9)
    path = tmp_path / "r.json"
    path.write_text(json.dumps(reports[0]))
    assert run_cli("verify", str(path)) == 0


def test_cli_analyze_nan_multipliers_are_an_input_error(tmp_path, capsys):
    # stage 2 of the KT multipliers at the nodes with x = -1 leaves an
    # artificial basic at 1; the simplex refuses that optimum, where it once
    # returned an all-zero λ whose NaN weights the report failed to serialize
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps({
        "name": "tilted-polynomial",
        "variables": ["x", "y"],
        "objectives": ["(-2.0) + (-1e-09) * x + (1e-08) * y"],
        "constraints": ["(-2.0) * y^1"],
        "box": [[-1, 1], [-1, 1]],
    }))
    code = run_cli("analyze", str(path), "--grid-step", "0.5")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: artificial variable left basic at 1.000e+00")


def test_cli_analyze_malformed_json_reports_byte_offset(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x", ')
    code = run_cli("analyze", str(path))
    err = capsys.readouterr().err
    assert code == 1
    assert "byte 14" in err


def test_cli_analyze_unknown_fixture(capsys):
    code = run_cli("analyze", "no-such-problem")
    err = capsys.readouterr().err
    assert code == 1
    assert "neither a fixture" in err


def test_cli_analyze_crosscheck_disagreement_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "build_report", lambda *a, **k: {"crosscheck": {"agreement": False}}
    )
    code = run_cli("analyze", "cube")
    err = capsys.readouterr().err
    assert code == 2
    assert "disagreement" in err


def test_cli_pair_kernel(capsys):
    code = run_cli("pair", "convex-pair", "--xbar", "1", "--x", "0",
                   "--kind", "invex")
    out = capsys.readouterr().out
    assert code == 0
    verdict = json.loads(out)
    assert verdict["kernel"]["eta"] == [-1.0]
    assert verdict["certificate"] is None


def test_cli_pair_certificate(capsys):
    code = run_cli("pair", "cube", "--xbar", "0", "--x", "-1", "--kind", "invex")
    out = capsys.readouterr().out
    assert code == 0
    verdict = json.loads(out)
    assert verdict["kernel"] is None
    assert verdict["certificate"]["violation"] == -1.0


def test_cli_pair_degenerate_strict_pair_fails(capsys):
    code = run_cli("pair", "cube", "--xbar", "1", "--x", "1",
                   "--kind", "strict-invex")
    err = capsys.readouterr().err
    assert code == 1
    assert "distinct" in err


def test_cli_pair_bad_vector(capsys):
    code = run_cli("pair", "cube", "--xbar", "a,b", "--x", "0", "--kind", "invex")
    err = capsys.readouterr().err
    assert code == 1
    assert "--xbar" in err


def test_cli_usage_errors_exit_1_not_2(capsys):
    # argparse's native exit code for usage errors is 2, which this CLI
    # reserves for crosscheck disagreements
    assert run_cli("pair", "cube", "--kind", "invex") == 1
    assert run_cli("no-such-command") == 1
    assert run_cli("analyze", "cube", "--lambda-grid-step", "0") == 1
    # weight lattices refused before any stage runs
    for step, message in (("1e-6", "1000001 weight vectors"), ("1e-320", "too small")):
        assert run_cli("analyze", "convex-pair", "--grid-step", "0.5",
                       "--lambda-grid-step", step) == 1
        assert message in capsys.readouterr().err
    for flag in ("--grid-step", "--pair-step"):
        assert run_cli("analyze", "cube", "--grid-step", "0.5", flag, "inf") == 1
        assert "grid step must be a positive finite number, got inf" in capsys.readouterr().err
    assert run_cli("--help") == 0
    capsys.readouterr()


def test_cli_pair_negative_coordinates_via_equals_form(capsys):
    code = run_cli("pair", "cube", "--xbar=-1", "--x=-0.5", "--kind", "invex")
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["xbar"] == [-1]


def test_cli_alternative_gordan(tmp_path, capsys):
    a = tmp_path / "A.csv"
    a.write_text("1\n-1\n")
    code = run_cli("alternative", str(a))
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == "gordan"
    assert payload["branch"] == "dual"
    assert payload["dual_witness"] == [0.5, 0.5]


def test_cli_alternative_motzkin(tmp_path, capsys):
    a = tmp_path / "A.csv"
    b = tmp_path / "B.csv"
    a.write_text("1\n")
    b.write_text("-1\n")
    code = run_cli("alternative", str(a), str(b))
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == "motzkin"
    assert payload["branch"] == "dual"
    assert payload["dual_witness_y"] == [1.0]
    assert payload["dual_witness_z"] == [1.0]


def test_cli_alternative_decides_dense_degenerate_system(tmp_path, capsys):
    # once stalled at the pivot cap with "pivot cap of 10000 exceeded"
    rng = np.random.default_rng(101)
    paths = []
    for name, rows in (("A.csv", 80), ("B.csv", 20)):
        path = tmp_path / name
        matrix = rng.uniform(-5, 5, (rows, 40))
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix))
        paths.append(str(path))
    code = run_cli("alternative", *paths)
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["theorem"] == "motzkin"
    assert payload["branch"] == "dual"


def test_cli_analyze_refuses_oversized_grid(monkeypatch, capsys):
    def no_mesh(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(np, "meshgrid", no_mesh)
    code = run_cli("analyze", "two-var-convex", "--grid-step", "1e-5")
    err = capsys.readouterr().err
    assert code == 1
    assert "160000800001 nodes" in err


def test_cli_alternative_csv_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    code = run_cli("alternative", str(bad))
    err = capsys.readouterr().err
    assert code == 1
    assert "row 2" in err

    bad.write_text("1,x\n")
    code = run_cli("alternative", str(bad))
    err = capsys.readouterr().err
    assert code == 1
    assert "row 1, column 2" in err


def test_cli_verify_flags_tampered_report(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    run_cli("analyze", "cube", "--grid-step", "0.1", "--lambda-grid-step", "0.5",
            "--pair-step", "0.5", "-o", str(out_path))
    capsys.readouterr()
    report = json.loads(out_path.read_text())
    report["critical_points"][0]["lam"] = [0.4]
    out_path.write_text(json.dumps(report))
    code = run_cli("verify", str(out_path))
    err = capsys.readouterr().err
    assert code == 1
    assert "defect" in err


def test_cli_verify_recomputes_derived_flags(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    run_cli("analyze", "cube", "--grid-step", "0.25", "-o", str(out_path))
    assert run_cli("verify", str(out_path)) == 0
    capsys.readouterr()
    report = json.loads(out_path.read_text())
    assert report["pair_verdicts"]["invex"]["failures"]
    report["pair_verdicts"]["invex"]["all_pairs_kernel"] = True
    report["crosscheck"]["agreement"] = not report["crosscheck"]["agreement"]
    out_path.write_text(json.dumps(report))
    code = run_cli("verify", str(out_path))
    err = capsys.readouterr().err
    assert code == 1
    assert "all_pairs_kernel" in err
    assert "crosscheck: agreement" in err


@pytest.mark.parametrize("edit,defect", _UNSOUND, ids=["overflow", "negative", "tripled"])
def test_cli_verify_names_unsound_evidence(tmp_path, capsys, edit, defect):
    path = tmp_path / "r.json"
    assert run_cli("analyze", "two-var-convex", "--grid-step", "0.5", "--pair-step", "1.0",
                   "-o", str(path)) == 0
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert run_cli("verify", str(path)) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"defect: {defect}\n")


def test_cli_verify_missing_report(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert run_cli("verify", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read report: ")
    assert "absent.json" in err


def test_cli_verify_malformed_report(tmp_path, capsys):
    # the offset counts the two bytes of the é
    path = tmp_path / "broken.json"
    path.write_text('{"problem_name": "\u00e9", "problem": ', encoding="utf-8")
    assert run_cli("verify", str(path)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: invalid JSON at byte 34: Expecting value\n"


_NEGATE = object()


def _tamper(report, path, value=_NEGATE):
    """Set the entry at ``path`` to ``value``, or negate it."""
    *parents, key = path
    for step in parents:
        report = report[step]
    report[key] = not report[key] if value is _NEGATE else value


def _flip(path, fragment, index):
    """A case that negates the flag at ``path``; its id is pytest's default
    for a (path, fragment) case, so that the id stays stable."""
    return pytest.param(path, _NEGATE, fragment, id=f"path{index}-{fragment}")


@pytest.mark.parametrize(
    "path,value,fragment",
    [
        _flip(("pair_verdicts", "invex", "all_pairs_kernel"), "invex pair verdict", 0),
        _flip(("pair_verdicts", "kt-invex", "all_pairs_kernel"), "kt-invex pair verdict", 1),
        _flip(("crosscheck", "checks", 0, "stationary_side"), "stationary_side", 2),
        _flip(("crosscheck", "checks", 1, "kernel_side"), "kernel_side", 3),
        _flip(("crosscheck", "checks", 2, "agreement"), "agreement contradicts its sides", 4),
        _flip(("crosscheck", "agreement"), "agreement contradicts its checks", 5),
        (
            ("crosscheck", "checks", 0, "stationary_count"),
            10,
            "crosscheck invex: stationary_count 10 != 1 critical_points",
        ),
        (
            ("crosscheck", "checks", 3, "stationary_count"),
            0,
            "crosscheck strict-kt-invex: stationary_count 0 != 1 kt_points",
        ),
    ],
)
def test_verify_report_flags_flipped_derived_flag(cube_report, path, value, fragment):
    wire = json.loads(canonical_json(cube_report))
    _tamper(wire, path, value)
    defects = verify_report(wire)
    assert any(fragment in d for d in defects), defects


def test_verify_report_rejects_nan_tolerances(cube_report):
    # NaN thresholds used to switch every check off, fake evidence included
    wire = json.loads(canonical_json(cube_report))
    wire["critical_points"] = [{"x": [0.75], "lam": [1.0], "residual": 0.0}]
    tolerances = wire["config"]["tolerances"]
    for name, value in tolerances.items():
        if isinstance(value, float):
            tolerances[name] = math.nan
    defects = verify_report(wire)
    assert len(defects) == 1 and defects[0].startswith("tolerance block invalid: ")


def test_verify_report_rejects_a_null_constraints_list(cube_report):
    wire = json.loads(canonical_json(cube_report))
    wire["problem"]["constraints"] = None
    assert verify_report(wire) == [
        'embedded problem invalid: "constraints" must be an array of strings'
    ]


def test_cli_rejects_a_nan_tolerance_up_front(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_report", None)  # never reached
    code = run_cli("analyze", "cube", "--tol-stationary", "nan")
    assert code == 1
    err = capsys.readouterr().err
    assert "tolerance stationary must be finite and nonnegative" in err


def test_cli_tolerance_flags_are_threaded(capsys):
    code = run_cli("pair", "convex-pair", "--xbar", "1", "--x", "0",
                   "--kind", "invex", "--tol-strict", "1e-6")
    assert code == 0
    capsys.readouterr()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "invexcheck", "pair", "cube",
         "--xbar", "0", "--x", "1", "--kind", "invex"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "invex"


# -- batched evaluation guard --------------------------------------------------


@pytest.fixture
def evaluation_log(monkeypatch):
    """Record (stage, call, problem has constraints, points) for every
    `evaluate_many` and `evaluate` call; `stage` is set by the build_report
    step that is running."""
    import invexcheck
    from invexcheck import problems, report

    log, stage = [], ["-"]
    real = {"evaluate_many": problems.evaluate_many, "evaluate": problems.evaluate}

    def counted(name):
        def call(problem, points, *args, **kwargs):
            rows = len(points) if name == "evaluate_many" else 1
            log.append((stage[0], name, bool(problem.constraints), rows))
            return real[name](problem, points, *args, **kwargs)

        return call

    for module in [invexcheck] + [
        m for name, m in vars(invexcheck).items() if name in (
            "cli", "invexity", "problems", "report", "scalarization", "stationarity"
        )
    ]:
        for name in real:
            if getattr(module, name, None) is real[name]:
                monkeypatch.setattr(module, name, counted(name))

    def staged(label, fn):
        def call(*args, **kwargs):
            stage[0] = label(*args) if callable(label) else label
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(report, "scan_critical_points", staged(
        lambda problem, step, kind, tol: f"scan-{kind.value}", report.scan_critical_points
    ))
    for name, label in (
        ("weakly_efficient_scan", "weakly"),
        ("solve_weighting", "weighting"),
        ("certify_domain", "pairs"),
        ("theorem_crosscheck", "crosscheck"),
    ):
        monkeypatch.setattr(report, name, staged(label, getattr(report, name)))
    return log


def test_build_report_evaluates_each_stage_in_one_batch(evaluation_log):
    problem = fixture("two-var-convex")
    build_report(problem, grid_step=0.25)
    grid = 17 * 17
    assert not [entry for entry in evaluation_log if entry[1] == "evaluate"]
    per_stage = {}
    for stage, _, constrained, rows in evaluation_log:
        per_stage.setdefault((stage, constrained), []).append(rows)
    # one grid batch per problem variant, made by the first stage that needs
    # it: the weakly-efficient scan, the weighting runs, the pair sweeps
    # (whose default grid has the same step) and the crosscheck reuse them
    assert per_stage.pop(("scan-vector", False)) == [grid]
    assert per_stage.pop(("scan-kt", True)) == [grid]
    # the stationary points of each variant (5 on [0, 1] x {0}), graded
    assert per_stage.pop(("crosscheck", False)) == [5]
    assert per_stage.pop(("crosscheck", True)) == [5]
    # each of the 11 weights has one grid minimizer, polished in 2 or 3
    # rounds of one batched evaluation each (27 in all)
    polish = per_stage.pop(("weighting", True))
    assert polish == [1] * len(polish) and len(polish) <= 3 * 11
    assert per_stage == {}


def test_build_report_evaluates_an_unconstrained_grid_once(evaluation_log):
    # paper-example-2.1 has no constraints: one problem variant, one batch
    build_report(fixture("paper-example-2.1"), grid_step=0.25)
    grids = [entry for entry in evaluation_log if entry[3] == 25]
    assert grids == [("scan-vector", "evaluate_many", False, 25)]


def test_polish_advances_tied_starts_together(evaluation_log):
    # paper-example-2.1 is flat on [-1, 1]: 9 tied grid minimizers at step
    # 0.25, each already stationary, polished by one batched evaluation
    from invexcheck.scalarization import WeightVector, solve_weighting

    sol = solve_weighting(fixture("paper-example-2.1"), WeightVector((0.5, 0.5)), 0.25)
    assert len(sol.grid_minimizers) == 9
    assert [rows for *_, rows in evaluation_log] == [25, 9]
