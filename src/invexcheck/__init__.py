"""invexcheck: numerical certification of invexity and weighting optimality.

Each public name is resolved on first use from the module that defines it
(PEP 562), so ``import invexcheck`` loads no submodule, and a name loads
only its own module and what that module imports.
"""

from importlib import import_module

__version__ = "0.1.0"

#: public name -> the module that defines it
_EXPORTS = {
    "AlternativeBranch": "alternative",
    "Analysis": "problems",
    "CrosscheckReport": "invexity",
    "DEFAULT_TOL": "problems",
    "DegeneratePairError": "invexity",
    "DimensionMismatchError": "problems",
    "DomainError": "expressions",
    "DomainVerdict": "invexity",
    "DualCertificate": "invexity",
    "EmptyFeasibleSetError": "scalarization",
    "EvaluatedPoint": "problems",
    "ExprSyntaxError": "expressions",
    "Globality": "scalarization",
    "GlobalityVerdict": "scalarization",
    "GridSampler": "problems",
    "InfeasiblePointError": "problems",
    "InvexityKind": "problems",
    "KernelWitness": "invexity",
    "LpOutcome": "simplex",
    "LpProblem": "simplex",
    "LpStatus": "simplex",
    "MotzkinOutcome": "alternative",
    "Multipliers": "stationarity",
    "NumericalBreakdownError": "simplex",
    "OutOfBoxError": "problems",
    "PairVerdict": "invexity",
    "PointBatch": "problems",
    "Problem": "problems",
    "RandomSampler": "problems",
    "StationaryKind": "stationarity",
    "StationaryPoint": "stationarity",
    "TheoremCheck": "invexity",
    "ToleranceConfig": "problems",
    "UnknownFixtureError": "problems",
    "UnknownFunctionError": "expressions",
    "UnknownVariableError": "expressions",
    "WeightVector": "scalarization",
    "WeightingSolution": "scalarization",
    "build_report": "report",
    "canonical_json": "report",
    "certify_domain": "invexity",
    "certify_pair": "invexity",
    "evaluate": "problems",
    "evaluate_many": "problems",
    "fixture": "problems",
    "fixture_names": "problems",
    "grade_weighting_solutions": "scalarization",
    "is_global_weighting_solution": "scalarization",
    "load_problem": "problems",
    "motzkin": "alternative",
    "parse": "expressions",
    "problem_from_dict": "problems",
    "problem_to_dict": "problems",
    "scan_critical_points": "stationarity",
    "solve_lp": "simplex",
    "solve_weighting": "scalarization",
    "stationary_multipliers": "stationarity",
    "theorem_crosscheck": "invexity",
    "validate_motzkin": "alternative",
    "validate_outcome": "simplex",
    "validate_pair_verdict": "replay",
    "verify_report": "replay",
    "weakly_efficient_scan": "scalarization",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
