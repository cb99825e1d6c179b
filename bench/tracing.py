"""Spans and work counters for the benchmark.

A ``Meter`` is handed to every workload.  Workloads route each public
viscoshock call through ``Meter.call``.  With tracing off that is a
plain call; with tracing on it records a span (name, tag, start, end,
parent, case id) in memory.  Counters are always on: they are integer
additions at case granularity, so they cost nothing measurable and let
two commits be shown to have done the same work.
"""

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


class Span:
    __slots__ = ("name", "tag", "start", "end", "parent", "case", "raised")

    def __init__(self, name, tag, start, parent, case):
        self.name = name
        self.tag = tag
        self.start = start
        self.end = start
        self.parent = parent
        self.case = case
        self.raised = False


class Meter:
    def __init__(self, trace: bool):
        self.trace = trace
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._case = None

    def count(self, name, n=1):
        self.counts[name] += n

    def call(self, fn, *args, tag=None, **kwargs):
        """Call fn(*args, **kwargs); traced as "<module>.<function>"."""
        if not self.trace:
            return fn(*args, **kwargs)
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"
        with self._span(name, tag) as span:
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise

    @contextmanager
    def case(self, case_id, name="bench.case"):
        """Root span shared by every call made for one case."""
        self._case = case_id
        if not self.trace:
            yield
            return
        with self._span(name, None):
            yield

    @contextmanager
    def _span(self, name, tag):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, tag, perf_counter_ns(), parent, self._case)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = perf_counter_ns()
            self._stack.pop()

    def self_times(self):
        """Per span: its duration minus the part its children cover."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [(s.end - s.start - c) * 1e-9
                for s, c in zip(self.spans, child)]

    def write_spans(self, path):
        t0 = self.spans[0].start if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "tag": s.tag,
                    "start_ns": s.start - t0, "end_ns": s.end - t0,
                    "parent": s.parent, "case": s.case,
                    "raised": s.raised}) + "\n")
