"""In-memory span and count recorder that wraps functions from outside.

A span is one call of a wrapped function: its name, start, end and the span
that was open on the same thread when the call began. Hooks add counts at the
same boundaries. Spans and counts stay in memory until the caller reads them.
"""

import functools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "failed", "extra")

    def __init__(self, name: str, parent: Optional["Span"], start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0  # summed durations of the spans opened inside this one
        self.failed = False  # the call raised
        self.extra = None  # scratch slot for hooks of child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Point(NamedTuple):
    """One binding to wrap: `owner.attr` becomes a span named `name`.

    hook(tracer, span, args, kwargs, result) runs after a call returns.
    adapt(tracer, fn) may replace the function before it is wrapped.
    """

    owner: object
    attr: str
    name: str
    hook: Optional[Callable] = None
    adapt: Optional[Callable] = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def clear(self):
        self.spans.clear()
        self.counts.clear()

    def count(self, name: str, n: int):
        with self._lock:  # hooks run on campaign worker threads too
            self.counts[name] += n

    def wrap(self, fn, name: str, hook=None):
        """fn, recording one span per call."""
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = Span(name, parent, perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                spans.append(span)
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, points):
        """Patch every point's binding for the duration of the block."""
        patched = []
        try:
            for p in points:
                original = getattr(p.owner, p.attr)
                inner = p.adapt(self, original) if p.adapt else original
                setattr(p.owner, p.attr, self.wrap(inner, p.name, p.hook))
                patched.append((p.owner, p.attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def span_faults(spans) -> list:
    """Spans with negative self time or that do not nest inside their parent."""
    return [
        s
        for s in spans
        if s.self_s < 0
        or (s.parent is not None and not s.parent.start <= s.start <= s.end <= s.parent.end)
    ]
