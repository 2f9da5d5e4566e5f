"""Planted Gordan/Motzkin systems whose branch is known by construction.

Each system is dense and uniform on [-5, 5] except for one planted
property:

* primal systems get a witness ``w*`` with ``A w* <= -1`` (and
  ``B w* <= 0``): every row is shifted along ``w*`` to a chosen value;
* dual systems get ``y* > 0`` (and ``z* >= 0``) with
  ``A^T y* + B^T z* = 0``: the last strict row is solved for.

By Gordan's and Motzkin's theorems exactly one branch holds, so the planted
witness fixes the branch the program must report.  Systems alternate
Gordan (no ``B``) and Motzkin, and primal and dual, in blocks of four.

Regenerate and write the matrices of a workload as headerless CSV::

    python3 benchmark/planted.py --workload pairs-2d --seed 7 \
        --out benchmark/out/matrices
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass

import numpy as np

from workloads import WORKLOADS


@dataclass
class PlantedSystem:
    A: np.ndarray
    B: np.ndarray | None
    branch: str  # "primal" or "dual"

    @property
    def theorem(self) -> str:
        return "gordan" if self.B is None else "motzkin"


def _shift_to(M: np.ndarray, w: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Move each row of M along w so that M @ w == target."""
    return M + ((target - M @ w) / (w @ w))[:, None] * w[None, :]


def planted_batch(
    seed: int, count: int, rows: int, weak_rows: int, cols: int
) -> list[PlantedSystem]:
    rng = np.random.default_rng(seed)
    batch = []
    for i in range(count):
        with_b = i % 2 == 1
        primal = (i // 2) % 2 == 0
        A = rng.uniform(-5.0, 5.0, (rows, cols))
        B = rng.uniform(-5.0, 5.0, (weak_rows, cols)) if with_b else None
        if primal:
            w = rng.normal(size=cols)
            A = _shift_to(A, w, -1.0 - rng.uniform(0.0, 1.0, rows))
            if with_b:
                B = _shift_to(B, w, -rng.uniform(0.0, 1.0, weak_rows))
        else:
            y = rng.uniform(0.5, 1.5, rows)
            combo = y[:-1] @ A[:-1]
            if with_b:
                combo = combo + rng.uniform(0.0, 1.0, weak_rows) @ B
            A[-1] = -combo / y[-1]
        batch.append(PlantedSystem(A=A, B=B, branch="primal" if primal else "dual"))
    return batch


def write_csv(path: str, matrix: np.ndarray) -> None:
    # repr() round-trips every float exactly through the CLI's float() parse
    with open(path, "w", encoding="utf-8") as handle:
        for row in matrix:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def write_batch(batch: list[PlantedSystem], directory: str) -> list[list[str]]:
    """Write each system's CSVs; returns the CLI argv of each system."""
    os.makedirs(directory, exist_ok=True)
    argvs = []
    for i, system in enumerate(batch):
        a_path = os.path.join(directory, f"sys{i:03d}_A.csv")
        write_csv(a_path, system.A)
        argv = ["alternative", a_path]
        if system.B is not None:
            b_path = os.path.join(directory, f"sys{i:03d}_B.csv")
            write_csv(b_path, system.B)
            argv.append(b_path)
        argv += ["-o", os.path.join(directory, f"sys{i:03d}_out.json")]
        argvs.append(argv)
    return argvs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    shape = WORKLOADS[args.workload].batch
    batch = planted_batch(args.seed, *shape)
    argvs = write_batch(batch, args.out)
    manifest = [
        {"argv": argv, "theorem": s.theorem, "branch": s.branch}
        for argv, s in zip(argvs, batch)
    ]
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
    print(f"wrote {len(batch)} systems to {args.out}")


if __name__ == "__main__":
    main()
