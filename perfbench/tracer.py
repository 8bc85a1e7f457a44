"""Span tracer that rebinds public functions of a package at run time.

Each listed function is replaced, at every module attribute of the package
that refers to it, by a wrapper that records one span (name, start, end,
parent) per call.  Modules that import a name directly (``from .geometry
import tangent_gauge``) hold their own reference, so every such attribute is
rebound, not only the defining one.

* A call made while the same function is already on the stack (recursion,
  such as ``member`` on a nested expression) is counted but gets no span of
  its own: its time stays in the outer span.
* A returned generator is wrapped so that every ``next()`` is one span.
* A listed function missing from its module is reported as absent.

Self time is a span's duration minus the time its child spans cover.
Spans are kept in memory and folded into per-name totals by ``fold``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict


def rebind(prefix: str, original, replacement) -> list[tuple[object, str, object]]:
    """Point every attribute of the ``prefix`` modules that is ``original``
    at ``replacement``; returns what ``restore`` needs to undo it."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Self time of each span: its duration minus its children's durations.

    Children of one parent never overlap (one thread), so the time they
    cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


class Tracer:
    def __init__(self, prefix: str, names, clock=time.perf_counter):
        """``names`` are ``"module.function"`` relative to the package ``prefix``."""
        self.prefix = prefix
        self.names = list(names)
        self.clock = clock
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.returned: Counter = Counter()  # spans whose result was not None
        self.self_s: defaultdict = defaultdict(float)
        self.absent: list[str] = []
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for name in self.names:
            mod_name, _, fn_name = name.rpartition(".")
            try:
                module = importlib.import_module(f"{self.prefix}.{mod_name}")
            except ImportError:
                module = None
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            self._undo += rebind(self.prefix, fn, self._wrap(name, fn))
        return self

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self.stack.append(index)
        self.depth[name] += 1
        return index

    def _close(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, self.clock(), parent)
        self.stack.pop()
        self.depth[name] -= 1

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if tracer.depth[name]:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if result is not None:
                tracer.returned[name] += 1
            if inspect.isgenerator(result):
                return tracer._steps(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _steps(self, name: str, gen):
        while True:
            if self.active and not self.depth[name]:
                span = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(span)
            else:
                try:
                    item = next(gen)
                except StopIteration:
                    return
            yield item

    def fold(self) -> None:
        """Add the recorded spans to the per-name self times and drop them."""
        for (name, _, _, _), own in zip(self.spans, self_times(self.spans)):
            self.self_s[name] += own
        self.spans.clear()
