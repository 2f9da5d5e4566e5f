"""invexcheck benchmark: end-to-end CLI timings and a traced per-layer run.

Run from the root of a source checkout (the package is imported from
``src/``)::

    python3 benchmark/run.py --workload pairs-2d --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --smoke

One driver process starts one child interpreter at a time (closed loop).
A round runs ``analyze``, then ``verify`` three times on the report it
wrote, then ``alternative`` over the workload's planted batch, each in a
fresh interpreter because the package caches analysis stages per process.
Rounds repeat while the next one is predicted to end within ``--seconds``
(at least two, so that reports can be compared byte for byte).  Every output is checked against closed forms
outside the timed calls.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` CLI calls, and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
named in BENCHMARK.json.  With ``--trace 1`` each round also runs a traced
``analyze``; the untraced one gives the tracing overhead.

``--smoke`` runs one traced round of every workload at reduced size to
exercise the harness and its checks; its numbers are not used.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_alternative, check_report, without_timings
from planted import planted_batch, write_batch
from tracer import layer_metric, layer_totals, merge_totals
from workloads import SMOKE, WORKLOADS

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 150
MIN_ROUNDS = 2
# verify is short, so each round takes several samples of it
VERIFY_REPEATS = 3


def _clock() -> float:
    # system-wide, so a child's stamp compares with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """Rounds of one workload, their samples, counts and defects."""

    def __init__(self, workload, seed: int, trace: bool, outdir: str):
        self.workload = workload
        self.trace = trace
        self.outdir = outdir
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        self.batch = planted_batch(seed, *workload.batch)
        self.alternative_calls = write_batch(self.batch, os.path.join(outdir, "matrices"))
        self.attempted = 0
        self.failed = 0
        self.defects: list[str] = []
        self.samples: dict[str, list[float]] = {
            key: []
            for key in (
                "analyze_s",
                "traced_analyze_s",
                "verify_s",
                "decisions_per_s",
                "setup_s",
                "peak_rss_mb",
            )
        }
        self.layer_rounds: list[dict] = []
        self._first_report: bytes | None = None

    def _child(self, calls: list[list[str]], tag: str, trace: bool):
        """Run CLI calls in a fresh interpreter; returns its result or None."""
        paths = {
            ext: os.path.join(self.outdir, f"{tag}.{ext}")
            for ext in ("job.json", "result.json", "trace.npz")
        }
        for path in paths.values():
            if os.path.exists(path):
                os.remove(path)
        job = {
            "src": SRC,
            "calls": calls,
            "result": paths["result.json"],
            "trace": paths["trace.npz"] if trace else None,
        }
        with open(paths["job.json"], "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        self.attempted += len(calls)
        spawned = _clock()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, paths["job.json"]],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.failed += len(calls)
            sys.stderr.write(f"{tag}: child timed out after {CHILD_TIMEOUT_S} s\n")
            return None
        if proc.returncode != 0 or not os.path.exists(paths["result.json"]):
            self.failed += len(calls)
            sys.stderr.write(f"{tag}: child exited {proc.returncode}\n")
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
            return None
        with open(paths["result.json"], "r", encoding="utf-8") as handle:
            result = json.load(handle)
        result["trace"] = paths["trace.npz"] if trace else None
        self.samples["setup_s"].append(result["loaded"] - spawned)
        for argv, call in zip(calls, result["calls"]):
            if call["code"] != 0:
                self.failed += 1
                sys.stderr.write(f"{tag}: invexcheck {' '.join(argv)} exited {call['code']}\n")
        if proc.stderr:
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        return result

    def _analyze(self, tag: str, trace: bool):
        report_path = os.path.join(self.outdir, f"{tag}.report.json")
        result = self._child([self.workload.analyze_argv(report_path)], tag, trace)
        if result is None or result["calls"][0]["code"] != 0:
            return result, report_path
        with open(report_path, "rb") as handle:
            raw = handle.read()
        w = self.workload
        try:
            self.defects += check_report(
                json.loads(raw), w.fixture, w.grid_step, w.pair_step, w.lambda_step
            )
            stripped = without_timings(raw)
        except (KeyError, TypeError, ValueError) as exc:
            self.defects.append(f"{tag}: malformed report: {exc!r}")
            return result, report_path
        if self._first_report is None:
            self._first_report = stripped
        elif stripped != self._first_report:
            self.defects.append(f"{tag}: report differs from the first outside timings_ms")
        return result, report_path

    def round(self) -> None:
        children = []
        result, report_path = self._analyze("analyze", False)
        children.append(result)
        if result is not None:
            self.samples["analyze_s"].append(result["calls"][0]["seconds"])
        if self.trace:
            result, report_path = self._analyze("analyze-traced", True)
            children.append(result)
            if result is not None:
                self.samples["traced_analyze_s"].append(result["calls"][0]["seconds"])

        for repeat in range(VERIFY_REPEATS):
            tracing = self.trace and repeat == 0
            result = self._child([["verify", report_path]], f"verify{repeat}", tracing)
            children.append(result)
            if result is not None:
                self.samples["verify_s"].append(result["calls"][0]["seconds"])

        result = self._child(self.alternative_calls, "alternative", self.trace)
        children.append(result)
        if result is not None:
            seconds = [call["seconds"] for call in result["calls"]]
            self.samples["decisions_per_s"].append(len(seconds) / sum(seconds))
            for argv, call, system in zip(self.alternative_calls, result["calls"], self.batch):
                if call["code"] != 0:
                    continue
                try:
                    with open(argv[-1], "r", encoding="utf-8") as handle:
                        output = json.load(handle)
                    self.defects += check_alternative(output, system.A, system.B, system.branch)
                except (KeyError, TypeError, ValueError) as exc:
                    self.defects.append(f"{argv[-1]}: malformed output: {exc!r}")

        done = [child for child in children if child is not None]
        if done:
            peak_kb = max(child["maxrss_kb"] for child in done)
            self.samples["peak_rss_mb"].append(peak_kb * 1024 / 1e6)
        if self.trace:
            traces = [c["trace"] for c in done if c["trace"] and os.path.exists(c["trace"])]
            self.layer_rounds.append(merge_totals([layer_totals(p) for p in traces]))

    def end_to_end(self, names: list[str]) -> dict[str, float]:
        return {name: _median(self.samples[name]) for name in names}

    def per_layer(self, names: list[str]) -> dict[str, float]:
        values = {}
        for name in names:
            if name == "trace.analyze_overhead_s":
                values[name] = _median(self.samples["traced_analyze_s"]) - _median(
                    self.samples["analyze_s"]
                )
            else:
                values[name] = _median([layer_metric(t, name) for t in self.layer_rounds])
        return values

    def absent(self) -> set[str]:
        return set().union(*(t["absent"] for t in self.layer_rounds))


def run_workload(workload, seed: int, seconds: float, trace: bool, outdir: str, min_rounds: int) -> Run:
    run = Run(workload, seed, trace, outdir)
    start = _clock()
    rounds = 0
    # whole rounds only; stop before a round that would end past the budget
    while rounds < min_rounds or (_clock() - start) * (rounds + 1) / rounds <= seconds:
        run.round()
        rounds += 1
    return run


def _result_line(run: Run, metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": not run.defects,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
    )


def _report(run: Run) -> None:
    for defect in run.defects[:50]:
        sys.stderr.write(f"defect: {defect}\n")
    if run.absent():
        print(f"absent entry points (reported as 0): {', '.join(sorted(run.absent()))}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if not os.path.isfile(os.path.join(SRC, "invexcheck", "cli.py")):
        sys.stderr.write(f"no invexcheck sources under {SRC}; run from a source checkout\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]

    if args.smoke:
        ok = True
        for name, workload in SMOKE.items():
            run = run_workload(workload, args.seed, 0, True, os.path.join(OUT, f"smoke-{name}"), 1)
            _report(run)
            values = {**run.end_to_end(e2e_names), **run.per_layer(layer_names)}
            print(f"smoke {name}: {_result_line(run, values, units)}")
            ok = ok and not run.defects and run.failed == 0
        return 0 if ok else 1

    run = run_workload(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        os.path.join(OUT, args.workload),
        MIN_ROUNDS,
    )
    _report(run)
    metrics = run.per_layer(layer_names) if args.trace else run.end_to_end(e2e_names)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"attempted {run.attempted} CLI calls, {run.failed} failed")
    print(_result_line(run, metrics, units))
    return 0 if not run.defects else 1


if __name__ == "__main__":
    sys.exit(main())
