"""In-memory spans around the benchmark's calls into bubblelab.

A span holds a name, a start, an end and the index of its parent span. Every
op is one root span named ``bench.op``; each public bubblelab call the op
makes is a child span named ``<module>.<function>``. Spans are only recorded
by the benchmark's own code, never inside the package.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

ROOT = "bench.op"
GLUE = "bench.glue"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; otherwise calls straight through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        except BaseException:
            record.error = True
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)


def calibrate_span_cost(calls: int = 20_000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op call."""
    tracer = Tracer(enabled=True)
    start = time.perf_counter()
    for _ in range(calls):
        tracer.call("calibrate", int)
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        int()
    return max(traced - (time.perf_counter() - start), 0.0) / calls


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            children.setdefault(span.parent, []).append(
                (max(span.start, parent.start), min(span.end, parent.end)))
    return [span.duration - union_length(children.get(idx, []))
            for idx, span in enumerate(spans)]


@dataclass
class SpanStats:
    busy_s: float = 0.0
    calls: int = 0
    errors: int = 0


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    """Busy time, call and error counts per span name, plus bench.glue.

    A name's busy time is the length of the union of its spans, so a name
    nested inside itself is not counted twice. bench.glue is the summed self
    time of the root spans: op time spent in no child span.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    out = {name: SpanStats(union_length((s.start, s.end) for s in group),
                           len(group), sum(s.error for s in group))
           for name, group in by_name.items()}
    roots = [idx for idx, span in enumerate(spans) if span.parent is None]
    own = self_times(spans)
    out[GLUE] = SpanStats(sum(own[idx] for idx in roots), len(roots),
                          sum(spans[idx].error for idx in roots))
    return out
