#!/usr/bin/env python3
"""Stress the certificate machinery on random inputs and report replay stats.

Runs three independent audits — random LPs through the simplex solver, random
matrices through both alternative theorems, and random pair queries on the
bundled fixtures — and validates every certificate by direct substitution.
Nonzero exit means at least one certificate failed to replay.

    python3 scripts/certificate_audit.py --count 500 --seed 7
"""

import argparse
import pathlib
import sys
import time

import numpy as np

from invexcheck import (
    InfeasiblePointError,
    InvexityKind,
    certify_pair,
    evaluate,
    fixture,
    fixture_names,
    motzkin,
    solve_lp,
    validate_motzkin,
    validate_outcome,
    validate_pair_verdict,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from lpgen import random_lp, random_matrix  # noqa: E402


def audit_lps(rng, count):
    defects = []
    statuses = {}
    for i in range(count):
        lp = random_lp(rng)
        out = solve_lp(lp)
        statuses[out.status.value] = statuses.get(out.status.value, 0) + 1
        for d in validate_outcome(lp, out):
            defects.append(f"lp {i}: {d}")
    return statuses, defects


def audit_alternatives(rng, count):
    defects = []
    branches = {}
    for i in range(count):
        A = random_matrix(rng)
        B = None  # Gordan's theorem
        if i % 2:
            B = rng.uniform(-5, 5, size=(int(rng.integers(1, 7)), A.shape[1]))
        out = motzkin(A, B)
        found = validate_motzkin(A, B, out)
        theorem = "gordan" if B is None else "motzkin"
        key = f"{theorem}/" + ("primal" if out.primal_witness is not None else "dual")
        branches[key] = branches.get(key, 0) + 1
        for d in found:
            defects.append(f"alternative {i}: {d}")
    return branches, defects


def audit_pairs(rng, count):
    defects = []
    outcomes = {}
    names = fixture_names()
    kinds = list(InvexityKind)
    for i in range(count):
        problem = fixture(names[int(rng.integers(len(names)))])
        kind = kinds[int(rng.integers(len(kinds)))]
        lo = np.array([b[0] for b in problem.box])
        hi = np.array([b[1] for b in problem.box])
        xbar, x = rng.uniform(lo, hi), rng.uniform(lo, hi)
        if kind.is_strict and np.allclose(xbar, x):
            continue
        try:
            verdict = certify_pair(evaluate(problem, xbar), evaluate(problem, x), kind)
        except InfeasiblePointError:
            continue  # sampled point lands outside a KT kind's feasible set
        key = f"{kind.value}/" + ("kernel" if verdict.holds else "certificate")
        outcomes[key] = outcomes.get(key, 0) + 1
        for d in validate_pair_verdict(problem, verdict):
            defects.append(f"pair {i} ({problem.name}, {kind.value}): {d}")
    return outcomes, defects


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=500, help="instances per audit")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    failed = False
    for label, audit in [("simplex", audit_lps),
                         ("alternative", audit_alternatives),
                         ("fixture pairs", audit_pairs)]:
        t0 = time.perf_counter()
        tallies, defects = audit(rng, args.count)
        elapsed = time.perf_counter() - t0
        print(f"{label} ({args.count} instances, {elapsed:.1f}s)")
        for key in sorted(tallies):
            print(f"  {key:<28} {tallies[key]}")
        if defects:
            failed = True
            print(f"  {len(defects)} DEFECT(S):")
            for d in defects[:10]:
                print(f"    {d}")
        else:
            print("  every certificate replays")
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
