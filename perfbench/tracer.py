"""Spans around the public functions of every permcross module.

``install(tracer)`` replaces each public function and each public method
(plus the arithmetic operators of the polynomial classes) of the layers below
with a wrapper that records a span.  A name bound in more than one place,
such as ``crossing_count`` in ``distributions``, ``checks``, ``bijections``
and the ``STATISTICS`` dict, is replaced at every binding: module globals of
every package module and the values of module-level dicts.  Private helpers
are not wrapped, nor are the hot helpers in ``UNWRAPPED``; their time is
charged to the span that called them, which keeps the tracing overhead down
without moving time between layers.

A call that returns an iterator (``class_words``, ``enumerate_class``) gets one span for the call and one for every ``next()``
on the result, so the time inside a generator is charged to the function
that made it, whoever consumes it.

Spans are folded into per-function totals in memory as they close, and
``report()`` returns the totals once at the end.  For each span:

* its layer self time is its duration minus all its child spans; the layer
  self times of all spans partition the time covered by spans;
* its function self time is its duration minus only the child spans of
  *other* layers, so same-layer helpers (``nestings`` under
  ``nesting_count``, ``invert`` under ``transients``) count toward
  the function that called them.  Function self times are therefore not
  additive across functions of one layer; layer self times are.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Iterator
from types import FunctionType

LAYERS = ("cli", "checks", "distributions", "patterns", "perm", "bijections", "polynomials")
# as_word is the coercion at the top of nearly every perm function;
# pruned_words/filtered_words are the generators behind class_words (a span
# per word on both doubled the spans) and pattern_of is the containment test
# they call once per candidate (3M calls in one class-sweep pass).
UNWRAPPED = frozenset(
    {"perm.as_word", "patterns.pruned_words", "patterns.filtered_words", "patterns.pattern_of"}
)
OPERATORS = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__"}
)


class Tracer:
    def __init__(self):
        self.funcs: dict[str, list] = {}  # name -> [layer, calls, self_s, items]
        self.layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.stack: list[list] = []  # open spans: [layer, child_all, child_other]

    def wrap(self, name: str, layer: str, fn):
        rec = self.funcs.setdefault(name, [layer, 0, 0.0, 0])
        stack = self.stack
        layer_self = self.layer_self
        clock = time.perf_counter

        def close(frame, dt):
            stack.pop()
            rec[2] += dt - frame[2]
            layer_self[layer] += dt - frame[1]
            if stack:
                parent = stack[-1]
                parent[1] += dt
                parent[2] += frame[2] if parent[0] == layer else dt

        def traced_iter(it):
            while True:
                frame = [layer, 0.0, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    close(frame, clock() - t0)
                    return
                except BaseException:
                    close(frame, clock() - t0)
                    raise
                close(frame, clock() - t0)
                rec[3] += 1
                yield item

        def wrapper(*args, **kwargs):
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, clock() - t0)
                rec[1] += 1
            if isinstance(result, Iterator):
                return traced_iter(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def report(self) -> dict:
        return {
            "funcs": {
                name: {"layer": layer, "calls": calls, "self_s": self_s, "items": items}
                for name, (layer, calls, self_s, items) in self.funcs.items()
            },
            "layer_self_s": dict(self.layer_self),
        }


def _own(obj, modname: str) -> bool:
    return callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == modname


def install(tracer: Tracer) -> None:
    modules = {layer: sys.modules[f"permcross.{layer}"] for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or f"{layer}.{name}" in UNWRAPPED:
                continue
            if _own(obj, mod.__name__):
                replaced[id(obj)] = tracer.wrap(f"{layer}.{name}", layer, obj)
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                _wrap_methods(tracer, layer, obj)
    package = [m for n, m in sys.modules.items() if n == "permcross" or n.startswith("permcross.")]
    for mod in package:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in replaced:
                        obj[key] = replaced[id(value)]


def _wrap_methods(tracer: Tracer, layer: str, cls: type) -> None:
    for attr, val in list(vars(cls).items()):
        if attr.startswith("_") and attr not in OPERATORS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(val, (staticmethod, classmethod)):
            setattr(cls, attr, type(val)(tracer.wrap(name, layer, val.__func__)))
        elif isinstance(val, FunctionType):
            setattr(cls, attr, tracer.wrap(name, layer, val))
