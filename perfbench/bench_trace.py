"""Span tracing around calls into each symcond module, from outside it.

Every public function of each layer module, and every public method of
its classes, is replaced by a wrapper at every namespace that binds it:
``cli`` and ``symmetry`` import names directly, so patching only the
defining module would miss their calls. Spans (name, start, end, parent,
op id, raised) are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("cli", "scenario", "jaynes_cummings", "objects", "engine", "symmetry", "linalg", "sampling")

FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "raised")


class Tracer:
    """Spans stored column-wise in typed arrays, one entry per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.columns = {
            "name": array("i"), "start_ns": array("q"), "end_ns": array("q"),
            "parent": array("i"), "op": array("i"), "raised": array("b"),
        }
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        c = self.columns
        names, starts, ends, parents, ops, raised = (c[f] for f in FIELDS)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            raised.append(0)
            starts.append(0)
            ends.append(0)
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[index] = 1
                raise
            finally:
                ends[index] = perf_counter_ns()
                starts[index] = start
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"symcond.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(fn, f"{layer}.{attr}.{meth}"))
        for namespace in (sys.modules["symcond"], *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per-layer calls, self time and raised exceptions, calls per
        (function, op), and inclusive time per function counting only
        outermost spans (a recursive ``validate`` is counted once)."""
        c = self.columns
        names, starts, ends, parents, ops, raised = (c[f] for f in FIELDS)
        count = len(names)
        child_ns = [0] * count
        for i in range(count):
            if parents[i] >= 0:
                child_ns[parents[i]] += ends[i] - starts[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        layers = {layer: {"calls": 0, "self_ns": 0, "errors": 0} for layer in LAYERS}
        calls_by_op: dict[str, dict[int, int]] = {}
        incl_ns: dict[str, int] = {}
        for i in range(count):
            name_id = names[i]
            duration = ends[i] - starts[i]
            entry = layers[layer_of[name_id]]
            entry["calls"] += 1
            # One thread: child spans never overlap, so the time they cover
            # is the sum of their durations.
            entry["self_ns"] += duration - child_ns[i]
            entry["errors"] += raised[i]
            name = self.names[name_id]
            counts = calls_by_op.setdefault(name, {})
            counts[ops[i]] = counts.get(ops[i], 0) + 1
            parent = parents[i]
            while parent >= 0 and names[parent] != name_id:
                parent = parents[parent]
            if parent < 0:
                incl_ns[name] = incl_ns.get(name, 0) + duration
        return {"layers": layers, "calls_by_op": calls_by_op, "incl_ns": incl_ns}

    def write(self, path: Path) -> None:
        """One header line (span names, fields), then one JSON array per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "fields": FIELDS}) + "\n")
            for field in FIELDS:
                fh.write(json.dumps(self.columns[field].tolist()) + "\n")
