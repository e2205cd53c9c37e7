"""Span tracing of kslab from outside the package.

``Tracer.install`` replaces every public function and method of the kslab
modules, and ``numpy.linalg.eigh`` / ``eigvalsh`` as the kernel, with
wrappers that record one span per call: name, parent, start and end. The
wrappers are put wherever the original object is bound in a kslab module
namespace, so calls between kslab modules are caught too. Closures built
inside a function (the falsifiers' ``defect`` and ``qform``) cannot be
reached this way; their time shows as self time of the enclosing call.

Spans stay in memory; ``write`` stores them once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("linalg", "maps", "zoo", "certify", "decompose", "serialize", "cli")
SOLVERS = ("falsify_ks", "falsify_co_ks", "check_phi_k_condition", "falsify_k_positivity")
KERNELS = ("eigh", "eigvalsh")
COUNTERS = ("restarts", "iterations", "defect_evals")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []  # (name, parent, start, end)
        self.stack: list[int] = []
        self.budgets: dict[int, dict] = {}  # span index -> budget_used of a solver call
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, solver: bool = False):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, budgets, clock = self.spans, self.stack, self.budgets, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, parent, t0, t1)
            if solver:
                budgets[idx] = dict(out.budget_used)
            return out

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        modules = [getattr(package, m) for m in MODULES]
        replacements: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._wrap(obj, f"{short}.{attr}", solver=attr in SOLVERS)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, short)
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements:
                    self._set(mod, attr, replacements[id(obj)])
        for attr in KERNELS:
            self._set(np.linalg, attr, self._wrap(getattr(np.linalg, attr), f"numpy.{attr}"))

    def _wrap_class(self, cls, short: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(obj.__func__, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries --------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; a pair of marks delimits the spans of one call."""
        return len(self.spans)

    def module_self_seconds(self, ranges: list[tuple[int, int]]) -> dict[str, float]:
        """Self time per module (span duration minus its children's), and the
        time inside the numpy kernels, over the spans of the given ranges."""
        out: dict[str, float] = defaultdict(float)
        for start, stop in ranges:
            spans = self.spans[start:stop]
            child = [0] * len(spans)
            for _, parent, t0, t1 in spans:
                if parent >= start:
                    child[parent - start] += t1 - t0
            for i, (name_id, _, t0, t1) in enumerate(spans):
                out[self.names[name_id].split(".", 1)[0]] += (t1 - t0 - child[i]) / 1e9
        return dict(out)

    def counters(self, ranges: list[tuple[int, int]]) -> dict[str, int]:
        """Solver counters summed from budget_used, and the eigh/eigvalsh
        calls made inside solver calls, over the spans of the given ranges."""
        totals = dict.fromkeys(COUNTERS, 0)
        totals["eigh_calls"] = 0
        for start, stop in ranges:
            in_solver = [False] * (stop - start)
            for i in range(start, stop):
                name_id, parent, _, _ = self.spans[i]
                if parent >= start and (in_solver[parent - start] or parent in self.budgets):
                    in_solver[i - start] = True
                    if self.names[name_id].startswith("numpy."):
                        totals["eigh_calls"] += 1
                if i in self.budgets:
                    for key in COUNTERS:
                        totals[key] += int(self.budgets[i].get(key, 0))
        return totals

    def write(self, path) -> None:
        """Store the spans as gzipped JSON lines: [name, parent, start_ns, end_ns]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
