"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of every quivercoalg module (the
layers) from outside the package: each wrapper replaces the function in
every module namespace that binds it, because callers use
``from .x import f``.  A wrapped call records a span -- name, start, end,
parent span and operation id -- and adds its self time (duration minus
the time of wrapped calls made inside it) to its layer.  Functions called
hundreds of thousands of times per operation are aggregated into
per-parent counters instead of one span per call.

Scalar arithmetic (``scalars`` field objects, ``Fraction``) and the methods
of value classes (``SparseVector``, ``Path``, elements, functionals) are not
wrapped, so their cost counts in the self time of the layer that calls
them; dict operations that hash ``Path`` labels count in the caller's self
time the same way.  Calls reached only through module-level tables (such
as ``suites.SUITES``) bypass the wrappers.

Spans stay in memory; ``write`` stores them once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "cli",
    "suites",
    "finite_dual",
    "algebra",
    "dual",
    "products",
    "representation",
    "incidence",
    "coalgebra",
    "quiver",
    "linalg",
    "textio",
    "corpus",
    "scalars",
)

# Methods wrapped besides module-level functions: constructors that verify
# a structure and the methods other layers call for that layer's work.
METHODS = {
    "quiver": ("QuiverFamily.truncate",),
    "incidence": ("Poset.__init__",),
    "finite_dual": (
        "StructuredAlgebra.__init__",
        "StructuredAlgebra.product",
        "DualCoalgebra.__init__",
        "DualCoalgebra.comultiply",
        "DualCoalgebra.counit",
    ),
    "representation": ("LeftModule.__init__",),
    "dual": ("RationalCertificate.verify",),
}

# Called so often that a span per call would dominate the trace.
AGGREGATED = frozenset(
    {
        "algebra.multiply",
        "quiver.compose_paths",
        "coalgebra.comultiply",
        "coalgebra.counit",
        "linalg.label_sort_key",
        "linalg.det2",
        "finite_dual.StructuredAlgebra.product",
    }
)

ROOT = -1  # parent id of spans opened directly by the benchmark


def _materialize_first(args):
    """Turn the first argument into a list so its length can be counted
    without consuming an iterator the wrapped function needs."""
    if args and not isinstance(args[0], (list, tuple)):
        return (list(args[0]),) + tuple(args[1:])
    return args


def _count_enumeration(rec, parent_layer, args, result):
    rec.count("quiver.enumerate_calls")
    rec.count("quiver.paths_enumerated", len(result.paths))


def _count_multiply(rec, parent_layer, args, result):
    rec.count("algebra.multiply_calls")
    if result.is_zero():
        rec.count("algebra.zero_products")


def _count_identities(rec, parent_layer, args, result):
    rec.count("algebra.identities_checked", result.identities_checked)


def _counter(name):
    def hook(rec, parent_layer, args, result):
        rec.count(name)

    return hook


def _count_elimination(pivots_of):
    def hook(rec, parent_layer, args, result):
        rows = len(args[0])
        rec.count("linalg.rows_in", rows)
        rec.count("linalg.pivots_out", pivots_of(rows, result))

    return hook


def _count_linalg_boundary(inner):
    """Counts calls into linalg from other layers, then runs ``inner``."""

    def hook(rec, parent_layer, args, result):
        if parent_layer != "linalg":
            rec.count("linalg.calls")
        if inner is not None:
            inner(rec, parent_layer, args, result)

    return hook


# Runs before the call: may replace the positional arguments.
BEFORE = {
    "linalg.rref": _materialize_first,
    "linalg.rank": _materialize_first,
    "linalg.kernel_of_map": _materialize_first,
}

# Runs after the call with (recorder, caller's layer, arguments, result).
AFTER = {
    "quiver.enumerate_paths": _count_enumeration,
    "quiver.compose_paths": _counter("quiver.compose_calls"),
    "algebra.multiply": _count_multiply,
    "algebra.build_cycle_counterexample": _count_identities,
    "algebra.build_multiarrow_counterexample": _count_identities,
    "coalgebra.comultiply": _counter("coalgebra.comultiply_calls"),
    "dual.RationalCertificate.verify": _counter("dual.certs_verified"),
    "products.verify_factorization": _counter("products.certs_verified"),
    "linalg.rref": _count_elimination(lambda rows, basis: len(basis)),
    "linalg.rank": _count_elimination(lambda rows, rank: rank),
    "linalg.kernel_of_map": _count_elimination(lambda rows, kernel: rows - len(kernel)),
}


class Recorder:
    """Collects spans, aggregated calls, per-layer self time and counters,
    all keyed by the operation id in ``op`` when the call started."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # span id -> (name id, start, end, parent id, op)
        self.aggregates: dict = {}  # (parent id, op, name id) -> [calls, seconds]
        self.self_time: dict = {}  # (layer, op) -> seconds
        self.counts: dict = {}  # (counter, op) -> number
        self.stack = [[ROOT, 0.0, None]]  # frames: [span id, child seconds, layer]
        self.op = None
        self.scale: dict = {}  # op -> factor applied to its self times
        self._patches: list = []

    def count(self, name, amount=1):
        key = (name, self.op)
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installing the wrappers -------------------------------------------

    def install(self, extra_namespaces=()):
        modules = {layer: importlib.import_module(f"quivercoalg.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", layer, value))
            for dotted in METHODS.get(layer, ()):
                cls_name, method = dotted.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(f"{layer}.{dotted}", layer, original))
        namespaces = [m for name, m in sys.modules.items() if name == "quivercoalg" or name.startswith("quivercoalg.")]
        namespaces += list(extra_namespaces)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, entry[1])

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _wrap(self, name, layer, fn):
        name_id = len(self.names)
        self.names.append(name)
        before = BEFORE.get(name)
        after = AFTER.get(name)
        if layer == "linalg":
            after = _count_linalg_boundary(after)
        stack = self.stack
        perf = time.perf_counter
        self_time = self.self_time
        rec = self

        if name in AGGREGATED:
            aggregates = self.aggregates

            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                parent = stack[-1]
                # Calls inside an aggregated call attach to the enclosing span.
                frame = [parent[0], 0.0, layer]
                stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf() - start
                    stack.pop()
                    parent[1] += elapsed
                    op = rec.op
                    key = (parent[0], op, name_id)
                    slot = aggregates.get(key)
                    if slot is None:
                        aggregates[key] = [1, elapsed]
                    else:
                        slot[0] += 1
                        slot[1] += elapsed
                    key = (layer, op)
                    self_time[key] = self_time.get(key, 0.0) + elapsed - frame[1]
                if after is not None:
                    after(rec, parent[2], args, result)
                return result

            return aggregated

        spans = self.spans

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if before is not None:
                args = before(args)
            parent = stack[-1]
            span_id = len(spans)
            spans.append(None)
            frame = [span_id, 0.0, layer]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                op = rec.op
                spans[span_id] = (name_id, start, end, parent[0], op)
                key = (layer, op)
                self_time[key] = self_time.get(key, 0.0) + elapsed - frame[1]
            if after is not None:
                after(rec, parent[2], args, result)
            return result

        return spanned

    # -- reading the results -----------------------------------------------

    def layer_self(self, ops) -> dict:
        """Self seconds per layer summed over the given operation ids, each
        multiplied by the operation's factor in ``scale`` (default 1)."""
        ops = set(ops)
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, op), seconds in self.self_time.items():
            if op in ops:
                out[layer] += seconds * self.scale.get(op, 1.0)
        return out

    def counter_totals(self, ops) -> dict:
        ops = set(ops)
        out: dict = {}
        for (name, op), amount in self.counts.items():
            if op in ops:
                out[name] = out.get(name, 0) + amount
        return out

    def write(self, path, op_meta: dict, extra: dict):
        """Store every span, aggregate and operation label in one gzip'd
        JSON file."""
        payload = {
            "names": self.names,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "aggregate_fields": ["parent", "op", "name", "calls", "seconds"],
            "aggregates": [[p, op, n, c, s] for (p, op, n), (c, s) in self.aggregates.items()],
            "ops": {str(op): meta for op, meta in op_meta.items()},
            **extra,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
