"""In-memory span tracer that wraps the public functions of each ipmdro layer.

A layer is one package module.  Its public functions are the module-level
functions it defines whose names do not start with an underscore.  While a
``Tracer`` is installed, every module namespace that holds one of those
functions by name (``ipmdro.dro.solve_lp``, ``ipmdro.penalties.solve_lp``,
``ipmdro.solvers.project_simplex`` itself, ...) holds a wrapper instead, so
calls made inside a layer are caught as well as calls made across layers.

Spans are tuples ``(name_id, start, end, parent, ok)`` kept in memory; the
benchmark opens one root span per operation, so every span of an operation
descends from that root.  Self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("solvers", "penalties", "ipm", "dro", "critic", "core", "gan", "cli")


def _lp_rows(problem) -> int:
    """Rows of the standard form the dense simplex factorizes: equality and
    inequality rows plus one row per variable bounded on both sides."""
    lo, up = problem.bounds[:, 0], problem.bounds[:, 1]
    two_sided = int(((lo > float("-inf")) & (up < float("inf"))).sum())
    return int(problem.a_eq.shape[0] + problem.a_ub.shape[0] + two_sided)


class Tracer:
    """Collects spans and solver counters while installed on the package."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.lp_iterations = 0
        self.lp_update_bytes = 0
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index

    def close(self, index: int, name_id: int, start: float, ok: bool) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans[index] = (name_id, start, end, self.stack[-1], ok)

    @contextmanager
    def root(self, label: str):
        """Root span of one benchmark operation."""
        name_id = self._name_id(f"op.{label}")
        index = self.open()
        start = perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            self.close(index, name_id, start, ok)

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        tracer = self
        count_lp = name == "solvers.solve_lp"

        def wrapper(*args, **kwargs):
            index = tracer.open()
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer.close(index, name_id, start, ok)
            if count_lp:
                rows = _lp_rows(args[0] if args else kwargs["problem"])
                tracer.lp_iterations += result.iterations
                tracer.lp_update_bytes += result.iterations * rows * rows * 8
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        pkg = self.package
        modules = [pkg] + [
            importlib.import_module(f"{pkg.__name__}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{pkg.__name__}.{layer}")
            for fname, fn in inspect.getmembers(module, inspect.isfunction):
                if fname.startswith("_") or fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def per_function(self) -> dict:
        """{name: {"calls", "self_s", "fail"}} over every span recorded."""
        child_time = defaultdict(float)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict = {}
        for index, (name_id, start, end, _, ok) in enumerate(self.spans):
            name = self.names[name_id]
            if name.startswith("op."):
                name = "bench"
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "fail": 0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[index]
            row["fail"] += 0 if ok else 1
        return table

    def write(self, path: Path, summary: dict) -> None:
        """Write names, spans and the per-function summary as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "span_fields": ["name", "start_s", "end_s", "parent", "ok"],
            "names": self.names,
            "spans": [
                [n, round(s - t0, 9), round(e - t0, 9), p, int(ok)]
                for n, s, e, p, ok in self.spans
            ],
            "summary": summary,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
