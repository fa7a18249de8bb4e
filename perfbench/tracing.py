"""Span tracing of zdcert's layers, installed from outside the package.

``Tracer.install`` replaces each public function of the traced modules (and
a few named methods) with a wrapper, at every place a module binds it:
``certify`` does ``from .orders import class_group``, so patching only
``zdcert.orders`` would miss those calls.  A timed wrapper records a span
(name, start, end, parent span, operation id) and adds its duration minus
its wrapped children's to the name's self time.  A counting wrapper only
counts calls; it is for dunders hot enough that timing them would distort
the run.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import pstats
import sys
from array import array
from time import perf_counter

LAYERS = ("quadratic", "polynomials", "orders", "weil", "steinitz", "monoidring", "certify", "cli")
TIMED_METHODS = (("certify", "Certificate", "to_json"), ("certify", "Certificate", "render_text"))
COUNTED_METHODS = (("orders", "FracIdeal", "__mul__"), ("quadratic", "QuadElement", "__mul__"))
MAX_SPANS = 50_000  # spans kept for writing out; later ones still count toward the totals


def _targets():
    """(layer.name, owner, attribute, original, timed) for everything the tracer wraps."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"zdcert.{layer}")
        for attr, fn in sorted(vars(mod).items()):
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_") and not inspect.isgeneratorfunction(fn)):
                out.append((f"{layer}.{attr}", mod, attr, fn, True))
    for methods, timed in ((TIMED_METHODS, True), (COUNTED_METHODS, False)):
        for layer, cls_name, attr in methods:
            cls = getattr(importlib.import_module(f"zdcert.{layer}"), cls_name)
            out.append((f"{layer}.{cls_name}.{attr}", cls, attr, vars(cls)[attr], timed))
    return out


class Tracer:
    """Wrappers for every target, built once; ``install``/``uninstall`` swap them in and out."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.timed: set[str] = set()
        # per phase: name id -> calls, self seconds
        self.calls: dict[str, list[int]] = {}
        self.self_s: dict[str, list[float]] = {}
        self._calls: list[int] = []
        self._self: list[float] = []
        self.op = 0
        # the first MAX_SPANS spans, one field per array
        self.dropped_spans = 0
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self._stack: list[list] = []  # [span index or -1, start, children's seconds]
        self.originals: dict[str, object] = {}
        self._patches: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        packages = [m for n, m in sys.modules.items() if n == "zdcert" or n.startswith("zdcert.")]
        for name, owner, attr, fn, timed in _targets():
            wrapper = self._timed(name, fn) if timed else self._counted(name, fn)
            self.originals[name] = fn
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn, wrapper))
                continue
            for mod in packages:
                for binding, value in vars(mod).items():
                    if value is fn:
                        self._patches.append((mod, binding, fn, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    def _id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            for table in (*self.calls.values(), *self.self_s.values()):
                table.append(0)
        return self._index[name]

    def begin_phase(self, phase: str) -> None:
        if phase not in self.calls:
            self.calls[phase] = [0] * len(self.names)
            self.self_s[phase] = [0.0] * len(self.names)
        self._calls = self.calls[phase]
        self._self = self.self_s[phase]

    def enter(self, i: int) -> None:
        idx = len(self.span_name)
        if idx < MAX_SPANS:
            self.span_name.append(i)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.dropped_spans += 1
        self._stack.append([idx, perf_counter(), 0.0])

    def leave(self, i: int) -> None:
        end = perf_counter()
        idx, start, children = self._stack.pop()
        if idx >= 0:
            self.span_start[idx] = start
            self.span_end[idx] = end
        duration = end - start
        self._calls[i] += 1
        self._self[i] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span called name (the operation's root span)."""
        i = self._id(name)
        self.timed.add(name)
        self.enter(i)
        try:
            return fn(*args)
        finally:
            self.leave(i)

    def _timed(self, name: str, fn):
        i = self._id(name)
        self.timed.add(name)
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(i)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(i)

        return wrapper

    def _counted(self, name: str, fn):
        i = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._calls[i] += 1
            return fn(*args, **kwargs)

        return wrapper

    def per_call(self, phase: str, n: int) -> dict[str, tuple[float, float]]:
        """name -> (calls per unit, self milliseconds per unit) over n units of a phase."""
        calls, self_s = self.calls[phase], self.self_s[phase]
        return {name: (calls[i] / n, self_s[i] * 1e3 / n) for i, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as out:
            out.write(f"# {self.dropped_spans} later spans were counted but not kept\n")
            out.write("span,name,parent,op,start_us,end_us\n")
            for k in range(len(self.span_name)):
                out.write(f"{k},{self.names[self.span_name[k]]},{self.span_parent[k]},"
                          f"{self.span_op[k]},{(self.span_start[k] - origin) * 1e6:.1f},"
                          f"{(self.span_end[k] - origin) * 1e6:.1f}\n")


def profiled_functions(fn, *args) -> tuple[object, set[tuple[str, int, str]]]:
    """Run fn(*args) under cProfile; return its result and the code keys it called."""
    prof = cProfile.Profile()
    result = prof.runcall(fn, *args)
    stats = pstats.Stats(prof).stats  # type: ignore[attr-defined]
    return result, {key for key, (cc, nc, *_rest) in stats.items() if nc}


def code_key(fn) -> tuple[str, int, str]:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name
