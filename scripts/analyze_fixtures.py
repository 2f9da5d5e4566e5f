#!/usr/bin/env python3
"""Run the full analysis pipeline over every bundled fixture and print a table.

Useful as a smoke run after changing the solver or the stationarity scans:

    python3 scripts/analyze_fixtures.py --grid-step 0.1 --pair-step 0.5
"""

import argparse
import sys
import time

from invexcheck import (
    Analysis,
    GridSampler,
    InvexityKind,
    certify_domain,
    fixture,
    fixture_names,
    theorem_crosscheck,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid-step", type=float, default=0.1)
    ap.add_argument("--pair-step", type=float, default=0.5)
    ap.add_argument("--fixtures", nargs="*", default=None,
                    help="subset of fixture names (default: all)")
    args = ap.parse_args(argv)

    names = args.fixtures or fixture_names()
    disagreements = 0
    header = f"{'fixture':<22} {'kind':<16} {'stationary':<11} {'kernel':<7} {'agree':<6} note"
    print(header)
    print("-" * len(header))
    for name in names:
        problem = fixture(name)
        analysis = Analysis(problem)  # the sweeps below reuse the crosscheck's
        t0 = time.perf_counter()
        report = theorem_crosscheck(
            problem, args.grid_step, pair_step=args.pair_step, analysis=analysis
        )
        elapsed = time.perf_counter() - t0
        for check in report.checks:
            note = ""
            if check.stationary_failures:
                worst = check.stationary_failures[0]
                note = f"stationary failure at x={worst.x.tolist()}"
            elif check.kernel_failures:
                worst = check.kernel_failures[0]
                note = f"pair failure at xbar={worst.xbar.tolist()}"
            agree = "yes" if check.agreement else "NO"
            if not check.agreement:
                disagreements += 1
            print(f"{name:<22} {check.kind.value:<16} "
                  f"{str(check.stationary_side):<11} {str(check.kernel_side):<7} "
                  f"{agree:<6} {note}")
        print(f"{'':<22} ({elapsed:.1f}s, grid {args.grid_step}, pairs {args.pair_step})")

        # domain sweep summary, one line per kind
        for kind in InvexityKind:
            dv = certify_domain(
                problem, kind, GridSampler(args.pair_step), analysis=analysis
            )
            tag = "all-pairs kernel" if dv.all_pairs_kernel else \
                f"{len(dv.failures)} failing pair(s)"
            print(f"{'':<22} sweep {kind.value:<16} "
                  f"{dv.points_sampled} pts / {dv.checked_pairs} pairs: {tag}")
        print()
    if disagreements:
        print(f"{disagreements} theorem check(s) disagreed", file=sys.stderr)
        return 2
    print("all theorem checks agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
