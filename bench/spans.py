"""In-memory spans recorded by the benchmark around calls into p2flis.

A span is (name, start, end, parent, note): `name` is "<module>.<what>",
start and end are `time.perf_counter()` readings, `parent` is the index
of the enclosing span (-1 at the top) and `note` is an optional small
value such as the search order.  Spans are kept in a list and written
out by the caller when the run ends.
"""
from __future__ import annotations

import time


class NullTracer:
    """Untraced runs: call straight through, record nothing."""

    def call(self, name, fn, *args, note=None, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name, fn, note=None):
        return fn


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, note=None, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, note)

    def wrap(self, name, fn, note=None):
        """fn with every call recorded as a span; note(args) sets the
        span's note."""
        def traced(*args, **kwargs):
            return self.call(name, fn, *args,
                             note=note(args) if note else None, **kwargs)
        return traced


def total(spans, name: str, note=None) -> float:
    """Summed duration of the spans called `name` (and with `note`)."""
    return sum(s[2] - s[1] for s in spans
               if s[0] == name and (note is None or s[4] == note))


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s[0] == name)


def self_times(spans) -> dict[str, float]:
    """Self time per module: each span's duration minus the time its
    direct children cover, summed by the module part of the name."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: dict[str, float] = {}
    for s, c in zip(spans, child):
        module = s[0].split(".")[0]
        out[module] = out.get(module, 0.0) + (s[2] - s[1]) - c
    return out


def span_cost(n: int = 20000) -> float:
    """Seconds that recording one span adds to a call, measured on a
    scratch tracer around a trivial function."""
    tr = Tracer()
    start = time.perf_counter()
    for _ in range(n):
        int()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n):
        tr.call("bench.noop", int)
    return max(0.0, time.perf_counter() - start - plain) / n
