"""The benchmark's workloads: one analyze problem and one alternative batch each.

Every round of every workload runs the same CLI commands, each call in a
fresh interpreter: ``analyze`` on the workload's problem, ``verify`` on the
report just written, and ``alternative`` over the workload's planted batch.
The settings choose which layer dominates; README.md says why each was
chosen.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    fixture: str
    grid_step: float
    pair_step: float
    lambda_step: float
    #: planted alternative batch: systems, strict rows, weak rows, columns
    batch: tuple[int, int, int, int]

    def analyze_argv(self, report_path: str) -> list[str]:
        return [
            "analyze",
            self.fixture,
            "--grid-step",
            repr(self.grid_step),
            "--pair-step",
            repr(self.pair_step),
            "--lambda-grid-step",
            repr(self.lambda_step),
            "-o",
            report_path,
        ]


# small systems: the alternative call costs CSV parsing and per-LP overhead;
# dense ones: the simplex pivot loop costs the time
_SMALL_BATCH = (128, 8, 2, 4)
_DENSE_BATCH = (96, 30, 8, 15)

WORKLOADS = {
    "pairs-2d": Workload("two-var-convex", 0.2, 2 / 3, 0.1, _DENSE_BATCH),
    "scan-2d": Workload("two-var-convex", 0.0625, 1.0, 0.1, _SMALL_BATCH),
    "flat-1d": Workload("paper-example-2.1", 0.0078125, 0.25, 0.1, _SMALL_BATCH),
}

#: reduced sizes for the smoke mode, which only exercises harness and checks
SMOKE = {
    "pairs-2d": Workload("two-var-convex", 0.5, 2.0, 0.25, (4, 12, 3, 6)),
    "scan-2d": Workload("two-var-convex", 0.5, 2.0, 0.25, (4, 8, 2, 4)),
    "flat-1d": Workload("paper-example-2.1", 0.1, 1.0, 0.25, (4, 8, 2, 4)),
}
