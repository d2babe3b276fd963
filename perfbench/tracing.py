"""In-memory spans recorded around the benchmark's calls into sphereflow.

A span is a dict with an id, a name, an optional size label (``l127``,
``n4096``), start and end times from ``time.perf_counter``, the id of its
parent span, the id of the job it belongs to, and any extra attributes the
caller passes (``steps`` of an evolve call).  Spans stay in memory until
the run ends and are then written out as one JSON file.  The untraced run
uses :class:`NullTracer`, whose spans record nothing.
"""

from __future__ import annotations

import contextlib
import statistics
import time


class NullTracer:
    """Tracer that records nothing; the untraced run uses it."""

    @contextlib.contextmanager
    def span(self, name, size=None, **attrs):
        yield None

    @contextlib.contextmanager
    def job(self, job_id):
        yield None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None

    @contextlib.contextmanager
    def span(self, name, size=None, **attrs):
        rec = {
            **attrs,
            "id": len(self.spans),
            "name": name,
            "size": size,
            "parent": self._stack[-1] if self._stack else None,
            "job": self._job,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def job(self, job_id):
        """Root span of one job; every span opened inside carries ``job_id``."""
        outer = self._job
        self._job = job_id
        try:
            with self.span("bench.job") as rec:
                yield rec
        finally:
            self._job = outer

    @contextlib.contextmanager
    def under(self, span):
        """Parent the spans opened inside to ``span``, which may have ended.

        The decomposition pass runs after its job returns and hangs its spans
        off that job's span.
        """
        outer_stack, outer_job = self._stack, self._job
        self._stack, self._job = [span["id"]], span["job"]
        try:
            yield span
        finally:
            self._stack, self._job = outer_stack, outer_job

    def durations(self, name, size=None):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["size"] == size]

    def has(self, name, size=None):
        return any(s["name"] == name and s["size"] == size for s in self.spans)

    def self_times(self):
        """Each span's duration minus the part of it its children cover."""
        children = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            cursor = s["start"]
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def export(self):
        """Spans as plain records, times relative to the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0]["start"]
        selfs = self.self_times()
        return [
            {
                **s,
                "start": s["start"] - t0,
                "end": s["end"] - t0,
                "self": selfs[s["id"]],
            }
            for s in self.spans
        ]


def span_cost_seconds(n=20000):
    """Median cost of opening and closing one span, from a throwaway tracer."""
    samples = []
    for _ in range(5):
        t = Tracer()
        t0 = time.perf_counter()
        for _ in range(n):
            with t.span("probe"):
                pass
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)
