"""Spans around nlocalnet's public functions, installed from outside the package.

`installed(tracer)` wraps each function named in LAYER_FUNCTIONS and
rebinds every reference to it across the loaded `nlocalnet.*` modules, so
calls made inside the package are recorded too.  A span holds its name,
start, end, parent span and the command it belongs to; spans stay in memory
until `save` writes them out.  Names missing from the package are skipped,
so a later version that drops a function still runs; its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

# Public functions per layer.  The statevector and Born-rule routes are
# correctness oracles and are deliberately not traced.
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "topology": ("validate", "attachments", "parse_config", "serialize_config",
                 "build_chain", "build_star", "build_tree",
                 "intermediate_nodes", "extremal_nodes"),
    "quantum": ("canonical_plan", "check_plan", "pair_expectation",
                "extremal_observable", "source_state", "concurrence",
                "normalize_angle"),
    "correlators": ("correlator_factorized", "distribution_correlator"),
    "inequality": ("evaluate_S", "evaluate_S_from_correlator", "evaluate_I",
                   "signed_y_average", "closed_form_S", "closed_form_smax"),
    "optimize": ("optimize_alpha_equal", "golden_section_max",
                 "optimize_alpha_free", "sweep"),
    "lhv": ("lhv_best_S", "lhv_evaluate_S", "lhv_distribution",
            "validate_model", "model_to_jsonable"),
    "cli": ("main", "parse_angle", "parse_angle_list"),
}

# Counters kept at a traced call: span name -> (counter, its increment from
# the call's result).  "lhv.refine" is the weight refinement's `minimize`.
COUNTERS: dict[str, tuple[str, Callable]] = {
    "optimize.sweep": ("optimize.sweep.rows", len),
    "lhv.refine": ("lhv.refine.nfev", lambda result: result.nfev),
}


class Tracer:
    """Spans of one pass, in parallel arrays, plus counters kept at the same calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.current_op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable,
             count: tuple[str, Callable] | None = None) -> Callable:
        """`fn` recording a span per call; `count` adds f(result) to a counter."""
        name_id = len(self.names)
        self.names.append(name)
        stack, starts, ends = self._stack, self.start, self.end
        names, parents, ops = self.name, self.parent, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its children.
        """
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        total = np.bincount(name, weights=duration, minlength=size)
        own = np.bincount(name, weights=duration - child, minlength=size)
        return {label: (int(calls[i]), float(total[i]), float(own[i]))
                for i, label in enumerate(self.names)}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), op=np.asarray(self.op),
                 start=np.asarray(self.start), end=np.asarray(self.end))


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route every reference to a traced function through its wrapper."""
    wrappers: dict[int, tuple[Callable, Callable]] = {}

    def add(label: str, fn: Callable) -> None:
        wrappers[id(fn)] = (fn, tracer.wrap(label, fn, COUNTERS.get(label)))

    for layer, names in LAYER_FUNCTIONS.items():
        try:
            module = importlib.import_module(f"nlocalnet.{layer}")
        except ModuleNotFoundError:
            continue
        for fname in names:
            fn = getattr(module, fname, None)
            if callable(fn):
                add(f"{layer}.{fname}", fn)
        if layer == "lhv" and callable(getattr(module, "minimize", None)):
            add("lhv.refine", module.minimize)

    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "nlocalnet" and not module_name.startswith("nlocalnet."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                patched.append((module, attr, value))
                setattr(module, attr, entry[1])
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
