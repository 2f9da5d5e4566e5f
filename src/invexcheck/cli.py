"""Command-line entry points.

Subcommands: ``analyze`` (full pipeline report), ``pair`` (one pairwise
certificate), ``alternative`` (Gordan/Motzkin decision on CSV matrices),
and ``verify`` (replay a previously emitted report).

Exit codes: 0 success, 1 input or validation error, 2 theorem-crosscheck
disagreement (which signals an implementation bug, never bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .alternative import motzkin
from .expressions import DomainError
from .invexity import GridSampler, InvexityKind, RandomSampler, pair_certifier
from .problems import (
    UnknownFixtureError,
    evaluate,
    fixture,
    fixture_names,
    problem_from_dict,
)
from .report import (
    build_report,
    canonical_json,
    pair_verdict_to_dict,
    verify_report,
)
from .simplex import DEFAULT_TOL, NumericalBreakdownError, ToleranceConfig

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_CROSSCHECK_DISAGREEMENT = 2


class MatrixCsvError(ValueError):
    """CSV matrix ingestion failure; message carries row/column position."""


def parse_matrix_csv(text: str, label: str) -> np.ndarray:
    """Parse a headerless comma-separated matrix, one row per line."""
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for colno, cell in enumerate(line.split(","), start=1):
            try:
                row.append(float(cell.strip()))
            except ValueError:
                raise MatrixCsvError(
                    f"{label}: row {lineno}, column {colno}: "
                    f"cannot parse {cell.strip()!r} as a number"
                ) from None
        rows.append(row)
    if not rows:
        raise MatrixCsvError(f"{label}: matrix is empty")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise MatrixCsvError(
                f"{label}: row {lineno} has {len(row)} values, expected {width}"
            )
    return np.array(rows)


def _load_problem_arg(spec: str):
    """Resolve a positional problem argument: fixture name, else JSON path."""
    try:
        return fixture(spec)
    except UnknownFixtureError:
        pass
    try:
        with open(spec, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ValueError(
            f"{spec!r} is neither a fixture ({', '.join(fixture_names())}) "
            f"nor a readable file: {exc}"
        ) from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{spec}: invalid JSON at byte {exc.pos}: {exc.msg}"
        ) from None
    return problem_from_dict(data)


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise ValueError(
            f"{flag} must be comma-separated reals, got {text!r}"
        ) from None


def _tolerances(args) -> ToleranceConfig:
    """The defaults with the tolerance flags given; ValueError if one is invalid."""
    flags = {
        "feasibility": args.tol_feas,
        "stationary": args.tol_stationary,
        "strict": args.tol_strict,
    }
    return replace(DEFAULT_TOL, **{k: v for k, v in flags.items() if v is not None})


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _add_tolerance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol-feas", type=float, default=None,
                     help="feasibility tolerance (default 1e-8)")
    sub.add_argument("--tol-stationary", type=float, default=None,
                     help="stationarity residual tolerance (default 1e-7)")
    sub.add_argument("--tol-strict", type=float, default=None,
                     help="strict-inequality decision tolerance (default 1e-7)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invexcheck",
        description="Certify invexity pairwise and cross-check stationarity "
        "against weighted-sum global optimality.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser(
        "analyze", help="full analysis report for a problem (JSON)"
    )
    analyze.add_argument(
        "problem", help="fixture name or path to a problem JSON file"
    )
    analyze.add_argument("--grid-step", type=float, default=0.05)
    analyze.add_argument("--lambda-grid-step", type=float, default=0.1)
    analyze.add_argument("--pair-step", type=float, default=0.25,
                         help="grid step for the pairwise sampler")
    analyze.add_argument("--pair-sampler", choices=("grid", "random"),
                         default="grid")
    analyze.add_argument("--pair-count", type=int, default=200,
                         help="sample count for the random pair sampler")
    analyze.add_argument("--seed", type=int, default=42)
    analyze.add_argument("-o", "--output", default=None,
                         help="write the report here instead of stdout")
    _add_tolerance_flags(analyze)

    pair = subparsers.add_parser(
        "pair", help="certify one (base point, comparison point) pair"
    )
    pair.add_argument("problem", help="fixture name or path to a problem JSON file")
    pair.add_argument("--xbar", required=True,
                      help="base point, comma-separated reals "
                      "(write --xbar=-1,0.5 when the first value is negative)")
    pair.add_argument("--x", required=True,
                      help="comparison point, comma-separated reals")
    pair.add_argument("--kind", required=True,
                      choices=[k.value for k in InvexityKind])
    pair.add_argument("-o", "--output", default=None)
    _add_tolerance_flags(pair)

    alternative = subparsers.add_parser(
        "alternative",
        help="decide a strict system {Ax < 0} (optionally with Bx <= 0) "
        "or produce its dual witness",
    )
    alternative.add_argument("matrix_a", help="CSV file with the strict rows A")
    alternative.add_argument("matrix_b", nargs="?", default=None,
                             help="optional CSV file with the weak rows B")
    alternative.add_argument("-o", "--output", default=None)
    _add_tolerance_flags(alternative)

    verify = subparsers.add_parser(
        "verify", help="replay all evidence inside an emitted report"
    )
    verify.add_argument("report", help="path to a report JSON file")

    return parser


def _cmd_analyze(args) -> int:
    problem = _load_problem_arg(args.problem)
    tol = _tolerances(args)
    if args.pair_sampler == "grid":
        sampler = GridSampler(args.pair_step)
    else:
        sampler = RandomSampler(args.pair_count, args.seed)
    report = build_report(
        problem,
        grid_step=args.grid_step,
        lambda_grid_step=args.lambda_grid_step,
        pair_sampler=sampler,
        seed=args.seed,
        tol=tol,
    )
    _write_output(canonical_json(report), args.output)
    if not report["crosscheck"]["agreement"]:
        sys.stderr.write(
            "crosscheck disagreement: stationary-side and kernel-side "
            "verdicts differ; this indicates an implementation bug\n"
        )
        return EXIT_CROSSCHECK_DISAGREEMENT
    return EXIT_OK


def _cmd_pair(args) -> int:
    problem = _load_problem_arg(args.problem)
    tol = _tolerances(args)
    xbar = _parse_vector(args.xbar, "--xbar")
    x = _parse_vector(args.x, "--x")
    kind = InvexityKind(args.kind)
    pbar = evaluate(problem, xbar, tol)
    p = evaluate(problem, x, tol)
    verdict = pair_certifier(kind)(pbar, p, tol)
    _write_output(canonical_json(pair_verdict_to_dict(verdict)), args.output)
    return EXIT_OK


def _floats(vector) -> list[float] | None:
    return None if vector is None else [float(v) for v in vector]


def _cmd_alternative(args) -> int:
    with open(args.matrix_a, "r", encoding="utf-8") as handle:
        A = parse_matrix_csv(handle.read(), args.matrix_a)
    tol = _tolerances(args)
    B = None
    if args.matrix_b is not None:
        with open(args.matrix_b, "r", encoding="utf-8") as handle:
            B = parse_matrix_csv(handle.read(), args.matrix_b)
    outcome = motzkin(A, B, tol)
    payload = {
        "theorem": "gordan" if B is None else "motzkin",
        "branch": outcome.branch.value,
        "primal_witness": _floats(outcome.primal_witness),
        "strict_margin": outcome.strict_margin,
    }
    if B is None:  # Gordan's theorem: y alone
        payload["dual_witness"] = _floats(outcome.dual_witness_y)
    else:
        payload["dual_witness_y"] = _floats(outcome.dual_witness_y)
        payload["dual_witness_z"] = _floats(outcome.dual_witness_z)
    _write_output(canonical_json(payload), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read report: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{args.report}: invalid JSON at byte {exc.pos}: {exc.msg}"
        ) from None
    defects = verify_report(report)
    if defects:
        for defect in defects:
            sys.stderr.write(f"defect: {defect}\n")
        return EXIT_INPUT_ERROR
    sys.stdout.write("report verified: all recorded evidence replays\n")
    return EXIT_OK


_HANDLERS = {
    "analyze": _cmd_analyze,
    "pair": _cmd_pair,
    "alternative": _cmd_alternative,
    "verify": _cmd_verify,
}

# ValueError covers the domain-specific subclasses (syntax, box, CSV,
# degenerate pair, ...); the rest have distinct bases.
_INPUT_ERRORS = (
    ValueError,
    DomainError,
    UnknownFixtureError,
    NumericalBreakdownError,
    OSError,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, but exit code 2 is reserved for
        # crosscheck disagreements; fold usage errors into the input-error code
        return EXIT_OK if exc.code == 0 else EXIT_INPUT_ERROR
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
