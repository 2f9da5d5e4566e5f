"""Spans around the calls into each invexcheck module, recorded from outside.

`Tracer.install` replaces each public entry point below with a recording
wrapper in every `invexcheck` module namespace that holds it, so the calls
the package makes between its own modules are seen.  Spans (name, start,
end, parent, argument key) are kept in flat arrays in memory and written to
one ``.npz`` file when the child ends; `layer_totals`, `merge_totals` and `layer_metric`
derive the per-layer numbers from those files.

An entry point that the package no longer defines is recorded as absent and
reported with value 0; it does not stop the traced run.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from functools import update_wrapper

import numpy as np

#: span name -> (defining module, public functions traced under that name)
ENTRY_POINTS = {
    "expressions.eval_value": ("expressions", ("eval_value",)),
    "expressions.eval_with_gradient": ("expressions", ("eval_with_gradient",)),
    "problems.evaluate": ("problems", ("evaluate",)),
    "simplex.solve_lp": ("simplex", ("solve_lp",)),
    "simplex.check_feasibility": ("simplex", ("check_feasibility",)),
    "alternative.decide": ("alternative", ("gordan", "motzkin")),
    "stationarity.scan": ("stationarity", ("scan_critical_points",)),
    "stationarity.multipliers": (
        "stationarity",
        ("critical_multipliers", "kt_multipliers"),
    ),
    "scalarization.weighting": ("scalarization", ("solve_weighting",)),
    "scalarization.weakly_efficient": ("scalarization", ("weakly_efficient_scan",)),
    "scalarization.globality": ("scalarization", ("is_global_weighting_solution",)),
    # the four pair certifiers are handed out by pair_certifier(kind)
    "invexity.pair": ("invexity", ("pair_certifier",)),
    "invexity.certify_domain": ("invexity", ("certify_domain",)),
    "invexity.crosscheck": ("invexity", ("theorem_crosscheck",)),
    "report.build_report": ("report", ("build_report",)),
    "report.canonical_json": ("report", ("canonical_json",)),
    "report.verify_report": ("report", ("verify_report",)),
    "cli.parse_matrix_csv": ("cli", ("parse_matrix_csv",)),
}

#: spans whose arguments are keyed, so that repeated calls can be counted
KEYED = frozenset({"stationarity.scan", "invexity.certify_domain"})

_FACTORIES = frozenset({"invexity.pair"})

_NAMES = tuple(ENTRY_POINTS)


class Tracer:
    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.key = array("i")
        self.start = array("q")
        self.end = array("q")
        self.absent: list[str] = []
        self._stack = [-1]
        self._keys: dict = {}

    def wrap(self, span: str, fn):
        name_id = _NAMES.index(span)
        keyed = span in KEYED
        stack, keys = self._stack, self._keys
        names, parents, key_ids = self.name, self.parent, self.key
        starts, ends = self.start, self.end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            key = -1
            if keyed:
                key = keys.setdefault(
                    (name_id, args, tuple(sorted(kwargs.items()))), len(keys)
                )
            names.append(name_id)
            parents.append(stack[-1])
            key_ids.append(key)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return update_wrapper(traced, fn)

    def _factory(self, span: str, fn):
        """Wrap a function that returns callables; trace what it returns."""
        made: dict = {}

        def traced_factory(*args, **kwargs):
            product = fn(*args, **kwargs)
            if product not in made:
                made[product] = self.wrap(span, product)
            return made[product]

        return update_wrapper(traced_factory, fn)

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "invexcheck" or name.startswith("invexcheck.")
        ]
        for span, (module_name, functions) in ENTRY_POINTS.items():
            defining = importlib.import_module(f"invexcheck.{module_name}")
            found = False
            for function in functions:
                original = getattr(defining, function, None)
                if not callable(original):
                    continue
                found = True
                if span in _FACTORIES:
                    wrapped = self._factory(span, original)
                else:
                    wrapped = self.wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
            if not found:
                self.absent.append(span)

    def dump(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(_NAMES),
            absent=np.array(self.absent, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            key=np.frombuffer(self.key, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )


def _under(name: np.ndarray, parent: np.ndarray, ancestor_id: int) -> np.ndarray:
    """Mask of spans that are, or descend from, a span named ancestor_id."""
    inside = name == ancestor_id
    hop = parent.copy()
    while True:
        valid = hop >= 0
        if not valid.any():
            return inside
        step = np.zeros_like(inside)
        step[valid] = name[hop[valid]] == ancestor_id
        inside |= step
        hop[valid] = parent[hop[valid]]


def layer_totals(path: str) -> dict:
    """Per-span totals of one traced process: calls, inclusive and self seconds."""
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    name, parent, key = data["name"], data["parent"], data["key"]
    seconds = (data["end"] - data["start"]) / 1e9
    has_parent = parent >= 0
    child_seconds = np.bincount(
        parent[has_parent], weights=seconds[has_parent], minlength=name.size
    )
    self_seconds = seconds - child_seconds
    totals: dict = {"absent": set(str(a) for a in data["absent"])}
    for idx, span in enumerate(names):
        mine = name == idx
        keys = key[mine & (key >= 0)]
        totals[span] = {
            "calls": int(mine.sum()),
            "s": float(seconds[mine].sum()),
            "self_s": float(self_seconds[mine].sum()),
            "reused": int(keys.size - np.unique(keys).size),
        }
    lp = name == names.index("simplex.solve_lp")
    for ancestor in ("invexity.pair", "stationarity.multipliers"):
        under = _under(name, parent, names.index(ancestor))
        totals[ancestor]["lp"] = int((lp & under).sum())
    return totals


def merge_totals(parts: list[dict]) -> dict:
    merged: dict = {"absent": set()}
    for part in parts:
        merged["absent"] |= part["absent"]
        for span, values in part.items():
            if span == "absent":
                continue
            into = merged.setdefault(span, {})
            for field, value in values.items():
                into[field] = into.get(field, 0) + value
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metric(totals: dict, metric: str) -> float:
    """Value of one per-layer metric named ``<span>.<field>`` from merged totals."""
    span, _, field = metric.rpartition(".")
    if metric == "stationarity.lp_per_point":
        t = totals["stationarity.multipliers"]
        return _ratio(t["lp"], t["calls"])
    if metric == "invexity.lp_per_pair":
        t = totals["invexity.pair"]
        return _ratio(t["lp"], t["calls"])
    if metric == "invexity.pairs_per_s":
        return _ratio(
            totals["invexity.pair"]["calls"], totals["invexity.certify_domain"]["s"]
        )
    t = totals[span]
    if field == "us":
        return _ratio(t["s"] * 1e6, t["calls"])
    return float(t[field])
