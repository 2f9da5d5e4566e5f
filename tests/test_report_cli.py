"""Report serialization, replay verification, and the command-line surface."""

import json
import math
import subprocess
import sys

import pytest

import invexcheck.cli as cli
from invexcheck.invexity import GridSampler
from invexcheck.problems import fixture
from invexcheck.report import (
    build_report,
    canonical_json,
    strip_timings,
    verify_report,
)

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


def _flip(report, *path):
    *parents, key = path
    for step in parents:
        report = report[step]
    report[key] = not report[key]


@pytest.mark.parametrize(
    "path,fragment",
    [
        (("pair_verdicts", "invex", "all_pairs_kernel"), "invex pair verdict"),
        (("pair_verdicts", "kt-invex", "all_pairs_kernel"), "kt-invex pair verdict"),
        (("crosscheck", "checks", 0, "stationary_side"), "stationary_side"),
        (("crosscheck", "checks", 1, "kernel_side"), "kernel_side"),
        (("crosscheck", "checks", 2, "agreement"), "agreement contradicts its sides"),
        (("crosscheck", "agreement"), "agreement contradicts its checks"),
    ],
)
def test_verify_report_flags_flipped_derived_flag(cube_report, path, fragment):
    wire = json.loads(canonical_json(cube_report))
    _flip(wire, *path)
    defects = verify_report(wire)
    assert any(fragment in d for d in defects), defects


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


def _clear_stage_caches():
    from invexcheck import invexity, scalarization, stationarity

    for cached in (
        stationarity._scan,
        scalarization._grid_eval,
        scalarization._weakly_efficient,
        invexity._sample,
        invexity._certify,
    ):
        cached.cache_clear()


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
    _clear_stage_caches()
    yield log
    _clear_stage_caches()


def test_build_report_evaluates_each_stage_in_one_batch(evaluation_log):
    problem = fixture("two-var-convex")
    build_report(problem, grid_step=0.25)
    grid = 17 * 17
    assert not [entry for entry in evaluation_log if entry[1] == "evaluate"]
    per_stage = {}
    for stage, _, constrained, rows in evaluation_log:
        per_stage.setdefault((stage, constrained), []).append(rows)
    # one batch per stage and problem variant; the weighting stage reuses
    # the weakly-efficient scan's grid and polishes each weight's ties
    assert per_stage.pop(("scan-vector", False)) == [grid]
    assert per_stage.pop(("scan-kt", True)) == [grid]
    assert per_stage.pop(("weakly", True)) == [grid]
    assert per_stage.pop(("pairs", False)) == [grid]
    assert per_stage.pop(("pairs", True)) == [grid]
    # the stationary points of each variant (5 on [0, 1] x {0}), and the
    # unconstrained grid that their grades compare with
    assert sorted(per_stage.pop(("crosscheck", False))) == [5, grid]
    assert per_stage.pop(("crosscheck", True)) == [5]
    # each of the 11 weights has one grid minimizer, polished in 2 or 3
    # rounds of one batched evaluation each (27 in all)
    polish = per_stage.pop(("weighting", True))
    assert polish == [1] * len(polish) and len(polish) <= 3 * 11
    assert per_stage == {}


def test_polish_advances_tied_starts_together(evaluation_log):
    # paper-example-2.1 is flat on [-1, 1]: 9 tied grid minimizers at step
    # 0.25, each already stationary, polished by one batched evaluation
    from invexcheck.scalarization import WeightVector, solve_weighting

    sol = solve_weighting(fixture("paper-example-2.1"), WeightVector((0.5, 0.5)), 0.25)
    assert len(sol.grid_minimizers) == 9
    assert [rows for *_, rows in evaluation_log] == [25, 9]
