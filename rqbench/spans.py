"""Outside-in span tracing of rqshot's layers.

The tracer replaces public names with timing wrappers where the calling
module looks them up: a function imported into ``rqshot.driver`` is wrapped
in that module's namespace, a method on its class.  Each call records a span
(name, start, end, parent) in memory; nothing is written until the run
ends.  A name that no longer exists is reported as an absent layer, so a
later change that moves code still gets its end-to-end numbers.  The
untraced run never constructs a tracer and so installs no wrapper.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter


def _resolve(target: str):
    """'pkg.module' or 'pkg.module:Class' to the object that owns the name."""
    module_name, _, class_name = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name:
        owner = getattr(owner, class_name, None)
    return owner


class Tracer:
    """Installs wrappers, records spans and counters while ``recording``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.recording = False
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self, hooks) -> None:
        """hooks: (span name, 'module[:Class]', attribute, observer or None)."""
        for name, target, attr, observer in hooks:
            owner = _resolve(target)
            raw = None if owner is None else vars(owner).get(attr)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if not callable(fn):
                self.absent.append(f"{name} ({target}.{attr})")
                continue
            wrapped = self._wrap(name, fn, observer)
            setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def take(self) -> tuple[list[list], dict[str, float]]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters

    def _wrap(self, name, fn, observer):
        tracer = self
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            entry = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(entry)
            entry[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = perf_counter()
                stack.pop()
            if observer is not None:
                observer(tracer.counters, args, result)
            return result

        return traced


def self_times(spans: list[list]) -> tuple[dict[str, int], dict[str, float], float]:
    """Calls and self seconds per span name, and the summed self seconds.

    A span's self time is its duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    for i, (name, t0, t1, _) in enumerate(spans):
        calls[name] += 1
        own[name] += (t1 - t0) - child[i]
    return calls, own, sum(own.values())
