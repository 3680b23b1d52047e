"""Outside-in tracing of the tsplinedim layers.

The tracer wraps the public functions of each package module by rebinding
every name under which a ``tsplinedim.*`` module holds the function, so calls
made through ``from .mesh import build_mesh`` are traced too.  Nothing under
``src/`` changes.  Each call becomes a span (name, start, end, parent span,
query id); spans are held in compact arrays and written out at the end of a
run.  Self time -- a span's duration minus the time covered by its child
spans -- is aggregated while the spans are recorded.

``restore`` puts every original binding back and checks that it did.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# Package modules that form the layers, in call order from the outside in.
LAYERS = ("cli", "formats", "hierarchy", "dimension", "oracle", "segments", "smoothness", "mesh", "linalg")

# Public functions left unwrapped.  The cli command handlers are dispatched
# through a dict built at import, so rebinding their names has no effect;
# their time stays in ``cli.main``.  The leaf helpers take well under a
# microsecond per call, so a span would cost more than the work it measures;
# their time stays in their callers' self time.
SKIP = {
    "cli": None,  # everything except main
    "mesh": {"as_fraction"},
    "formats": {"format_rational", "parse_rational"},
    "smoothness": {"edge_smoothness", "edge_bidegree", "vertex_orders", "vertex_bidegree"},
}

# Methods counted (not timed) because they run once per matrix entry.
COUNTED_METHODS = (("linalg", "SparseRationalMatrix", "add", "linalg.matrix_add.calls"),)


def layer_functions():
    """(module, attribute) for every traced public function."""
    targets = []
    for layer in LAYERS:
        module = importlib.import_module(f"tsplinedim.{layer}")
        skip = SKIP.get(layer, set())
        for name, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__ or name.startswith("_"):
                continue
            if skip is None and name != "main" or skip and name in skip:
                continue
            targets.append((module, name))
    return targets


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "tsplinedim" or name.startswith("tsplinedim.")]


class Tracer:
    """Span recorder.  ``install`` wraps, ``restore`` unwraps."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # Span arrays (one entry per span), kept while ``keep_spans`` is set.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.keep_spans = True
        self.query_id = -1
        # Aggregates since the last ``reset_totals``.
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []  # [span index, child time] per open span
        self._saved = []  # (owner, attribute, original)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def reset_totals(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()

    def _wrap(self, name, fn, on_return):
        nid = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            index = -1
            if self.keep_spans:
                index = len(self.span_start)
                self.span_name.append(nid)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_query.append(self.query_id)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            if index >= 0:
                self.span_start[index] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if index >= 0:
                    self.span_end[index] = end
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if on_return is not None:
                on_return(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_calls(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, hooks):
        """Rebind every traced function in every package module that holds it.

        ``hooks`` maps a span name to ``hook(counts, args, result)``, called
        after each return to add counts read from the call.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for module, attr in layer_functions():
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            wrapper = self._wrap(name, original, hooks.get(name))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)
        for layer, cls_name, method, key in COUNTED_METHODS:
            cls = getattr(importlib.import_module(f"tsplinedim.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._count_calls(key, original))

    def restore(self):
        """Put back every original binding; raise if one did not come back."""
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        bad = [f"{getattr(h, '__name__', h)}.{k}" for h, k, o in self._saved if vars(h)[k] is not o]
        self._saved = []
        if bad:
            raise RuntimeError(f"tracer left bindings patched: {bad}")

    def write_spans(self, path):
        """Write the kept spans: a JSON header and a raw array file beside it."""
        path = Path(path)
        raw = path.with_suffix(".bin")
        arrays = (self.span_name, self.span_parent, self.span_query, self.span_start, self.span_end)
        with open(raw, "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)
        header = {
            "spans": len(self.span_start),
            "names": self.names,
            "layout": [
                {"field": field, "typecode": arr.typecode, "itemsize": arr.itemsize}
                for field, arr in zip(("name", "parent", "query", "start", "end"), arrays)
            ],
            "data": raw.name,
            "byteorder": sys.byteorder,
        }
        path.write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")
