"""In-memory span tracing of calls into pecshift, installed from outside.

The tracer replaces public functions and methods on their module or class
with wrappers that record a span (name, start, end, parent) around each
call. Nothing inside the program changes. A function imported by value
into another module before patching keeps its original binding there, so
only targets that their callers look up at call time can be traced.

A target that no longer exists is listed in ``Tracer.missing``; metrics
built on it are reported missing, never as zero.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 at the top


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so self time is never negative.
    """
    children: dict = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for k, s in enumerate(spans):
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(k, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans: list) -> dict:
    """name -> {"calls", "total_s", "self_s"} over all spans."""
    out: dict = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += s.end - s.start
        agg["self_s"] += own
    return out


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, self.clock(), float("nan"), parent)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._stack.pop()

    def patch(self, target: str, name: str,
              call: Optional[Callable] = None) -> bool:
        """Record span ``name`` around every call of ``target``.

        ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.
        ``call(fn, *args, **kwargs)``, when given, makes the call itself,
        e.g. to pass a hook or read the result. Returns False, and lists
        the target as missing, when it cannot be found.
        """
        module_name, _, path = target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return False
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                if call is None:
                    return fn(*args, **kwargs)
                return call(fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attr, raw))
        return True

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def dump(self, path) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent} for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": rows}, fh)
