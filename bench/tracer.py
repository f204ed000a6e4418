"""Outside-in tracing of the dgkit layers, installed from the benchmark.

Each layer is one dgkit module.  ``Tracer.install`` replaces the module's
public functions, and the ``__init__``, public and arithmetic methods of its
public classes, with wrappers, then rebinds every alias another dgkit module
made with ``from .x import f``.  Calls inside one layer pass straight through;
a call that crosses into another layer opens a span (name, start, end, parent
span, command id).  A layer's self time is its spans' durations minus the time
covered by their child spans and by the tracer's counting hooks.  ``Field``
methods are counted only: a timer around each scalar operation would cost more
than the operation.  Modules that are not layers (``dga``, ``modops``,
``standard``) are not wrapped, so their time counts to the layer that called
them.

Counters are exact: the same inputs give the same counts on every run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

LAYERS = ("linalg", "complexes", "homtensor", "resolutions", "derived", "epicheck", "parser", "cli")

# methods that only read stored state: wrapping them would time the wrapper
READERS = frozenset(
    {
        "basis_vector", "column", "columns", "d", "degrees", "dim", "f", "h", "intersect",
        "is_zero", "label", "max_degree", "min_degree", "row", "section", "struct_index",
        "struct_pair",
    }
)
OPERATORS = ("__init__", "__add__", "__sub__", "__mul__", "__neg__")
FIELD_ARITH = ("add", "sub", "mul", "neg", "inv", "div")
CANONICAL_MAPS = ("unit_map", "counit_map", "duality_map", "multiplication_map")


def _canon(table: dict) -> tuple:
    return tuple(sorted((k, tuple(sorted(v.items()))) for k, v in table.items()))


def _content_key(M, D) -> str:
    A = M.algebra
    raw = repr(
        (M.side, M.basis, _canon(M.act), _canon(M.diff), A.basis, _canon(A.mul), _canon(A.diff), D)
    )
    return hashlib.sha1(raw.encode()).hexdigest()


class Tracer:
    def __init__(self, window: tuple[int, int]):
        self.window = window
        # frame: [layer, name, start, time covered by children, span id]
        self.stack = [["bench", "bench", 0.0, 0.0, 0]]
        self.spans: list[tuple] = []
        self.command = 0
        self._next_id = 1
        self._resolved: set = set()
        self._field = {"of": [0], "arith": [0]}
        self.reset()

    # -- per-pass results ---------------------------------------------------------

    def reset(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts: dict = {}
        self.tensor_dims = [0, 0]  # [within window ± 1, total]
        self.max_dim = 0
        self.max_cells = 0
        self.nnz = 0
        for cell in self._field.values():
            cell[0] = 0

    def take(self) -> tuple[dict, dict]:
        """Self time per layer and counters since the last call; then reset."""
        c = self.counts
        counts = {
            "field.of_calls": self._field["of"][0],
            "field.arith_calls": self._field["arith"][0],
            "linalg.calls": c.get("linalg.calls", 0),
            "linalg.eliminations": c.get("linalg.eliminations", 0),
            "linalg.cells": c.get("linalg.cells", 0),
            "linalg.max_cells": self.max_cells,
            "linalg.nnz_share": self.nnz / c["linalg.cells"] if c.get("linalg.cells") else 0.0,
            "complexes.cone_calls": c.get("complexes.cone_calls", 0),
            "complexes.cone_dim": c.get("complexes.cone_dim", 0),
            "complexes.homology_calls": c.get("complexes.homology_calls", 0),
            "complexes.quasi_iso_calls": c.get("complexes.quasi_iso_calls", 0),
            "homtensor.tensor_calls": c.get("homtensor.tensor_calls", 0),
            "homtensor.hom_calls": c.get("homtensor.hom_calls", 0),
            "homtensor.max_dim": self.max_dim,
            "homtensor.window_share": (
                self.tensor_dims[0] / self.tensor_dims[1] if self.tensor_dims[1] else 0.0
            ),
            "resolutions.calls": c.get("resolutions.calls", 0),
            "resolutions.generators": c.get("resolutions.generators", 0),
            "resolutions.repeat_share": (
                c.get("resolutions.repeats", 0) / c["resolutions.calls"]
                if c.get("resolutions.calls")
                else 0.0
            ),
            "derived.canonical_maps": c.get("derived.canonical_maps", 0),
            "derived.iso_checks": c.get("derived.iso_checks", 0),
            "epicheck.family_dim": c.get("epicheck.family_dim", 0),
        }
        self_s = dict(self.self_s)
        self.reset()
        return self_s, counts

    def begin_command(self, command: int):
        self.command = command
        self._resolved.clear()

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, cmd in self.spans:
                span = {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "cmd": cmd}
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    # -- counters -------------------------------------------------------------------

    def _add(self, key: str, k: int = 1):
        self.counts[key] = self.counts.get(key, 0) + k

    def _on_elimination(self, args, result):
        A = args[0]
        cells = A.rows * A.cols
        self._add("linalg.eliminations")
        self._add("linalg.cells", cells)
        self.max_cells = max(self.max_cells, cells)
        self.nnz += sum(1 for row in A.entries for x in row if x != 0)

    def _on_cone(self, args, result):
        self._add("complexes.cone_calls")
        self._add("complexes.cone_dim", result[0].space.total_dim)

    def _on_product(self, key):
        lo, hi = self.window

        def hook(args, result):
            dims = args[0].complex.space.dims
            total = sum(dims.values())
            self._add(key)
            self.max_dim = max(self.max_dim, total)
            self.tensor_dims[0] += sum(v for n, v in dims.items() if lo - 1 <= n <= hi + 1)
            self.tensor_dims[1] += total

        return hook

    def _on_resolution(self, args, result):
        self._add("resolutions.calls")
        self._add("resolutions.generators", len(result.generators))
        key = _content_key(args[0], args[1])
        if key in self._resolved:
            self._add("resolutions.repeats")
        self._resolved.add(key)

    def _on_family(self, args, result):
        self._add("epicheck.family_dim", sum(m.total_dim for _, m in result.left + result.right))

    def _hooks(self) -> dict:
        count = lambda key: lambda args, result: self._add(key)  # noqa: E731
        hooks = {
            "linalg._rref_with_transform": self._on_elimination,
            "complexes.cone": self._on_cone,
            "complexes.homology_at": count("complexes.homology_calls"),
            "complexes.quasi_iso": count("complexes.quasi_iso_calls"),
            "homtensor.TensorProduct.__init__": self._on_product("homtensor.tensor_calls"),
            "homtensor.HomComplex.__init__": self._on_product("homtensor.hom_calls"),
            "resolutions.semifree_resolution": self._on_resolution,
            "derived.is_derived_iso": count("derived.iso_checks"),
            "epicheck.generate_test_family": self._on_family,
        }
        hooks.update({f"derived.{n}": count("derived.canonical_maps") for n in CANONICAL_MAPS})
        return hooks

    # -- wrappers -------------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, hook, entry: bool):
        stack, spans, perf = self.stack, self.spans, time.perf_counter
        calls_key = f"{layer}.calls"
        tracer = self

        def run_hook(args, result):
            # counted as covered time of the frame on top, so no layer's
            # self time includes the tracer's own work
            t0 = perf()
            hook(args, result)
            stack[-1][3] += perf() - t0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if hook is not None:
                    run_hook(args, result)
                return result
            if entry:
                tracer._add(calls_key)
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [layer, name, perf(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[2]
                tracer.self_s[layer] += dur - frame[3]
                parent = stack[-1]
                parent[3] += dur
                spans.append((sid, parent[4], name, frame[2], end, tracer.command))
            if hook is not None:
                run_hook(args, result)
            return result

        return wrapper

    def _counted(self, fn, cell: list):
        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def install(self):
        """Wrap every dgkit layer; call once, before any traced work."""
        hooks = self._hooks()
        replaced: dict[int, object] = {}  # id(original function) -> wrapper

        field = importlib.import_module("dgkit.field").Field
        field.of = self._counted(field.of, self._field["of"])
        for name in FIELD_ARITH:
            setattr(field, name, self._counted(getattr(field, name), self._field["arith"]))

        for layer in LAYERS:
            mod = importlib.import_module(f"dgkit.{layer}")
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                if inspect.isfunction(obj) and (not name.startswith("_") or key in hooks):
                    # every elimination entry point counts as a linalg call
                    w = self._wrap(obj, layer, key, hooks.get(key), entry=layer == "linalg")
                    replaced[id(obj)] = w
                    setattr(mod, name, w)
                elif inspect.isclass(obj) and not name.startswith("_") and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer, hooks)

        # rebind aliases made by `from .x import f` in every loaded module
        for modname, mod in list(sys.modules.items()):
            if modname == "dgkit" or modname.startswith("dgkit."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in replaced and inspect.isfunction(obj):
                        setattr(mod, name, replaced[id(obj)])

    def _wrap_class(self, cls, layer: str, hooks: dict):
        record = dataclasses.is_dataclass(cls)
        for name, raw in list(vars(cls).items()):
            if name in READERS or (name.startswith("_") and name not in OPERATORS):
                continue
            if record and name == "__init__":
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            # the elimination API (functions and LinearSolver) counts as an entry,
            # Matrix arithmetic does not
            entry = layer == "linalg" and cls.__name__ == "LinearSolver"
            if isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(raw.__func__, layer, key, hooks.get(key), entry)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(raw, layer, key, hooks.get(key), entry))
