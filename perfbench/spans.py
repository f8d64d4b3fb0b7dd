"""In-memory timing spans: name, start, end, parent and thread.

Each thread keeps its own stack of open spans, so a span's parent is the
innermost span open in the same thread when it started, and its self time is
its duration minus the time its direct children in that thread cover.
Spans are only appended to a list while running; callers aggregate them after
the run ends.  Uses the standard library only.
"""
from __future__ import annotations

import threading
import time

__all__ = ["Span", "Tracer"]


class Span:
    """One timed interval.  `attrs` carries counts recorded at the boundary."""

    __slots__ = ("name", "start", "end", "parent", "thread", "child_s", "attrs")

    def __init__(self, name: str, start: float, parent: "Span | None", thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.child_s = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None,
                    threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def clear(self) -> None:
        self.spans = []
