"""In-memory span recorder for the traced benchmark run.

A span is (id, name, parent id, operation id, start ns, end ns). Spans are
kept in a list while the run goes and written out once at the end. Times
are integer nanoseconds from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on
Linux, so spans from different processes on one machine share a clock),
which keeps self-time arithmetic exact.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "op": self.op_id, "start": time.perf_counter_ns(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()

    def adopt(self, spans, parent, op_id):
        """Append spans recorded in another process, re-rooted under ``parent``."""
        base = len(self.spans)
        for s in spans:
            self.spans.append({**s, "id": base + s["id"], "op": op_id,
                               "parent": parent if s["parent"] is None
                               else base + s["parent"]})


def duration_ns(span):
    return span["end"] - span["start"]


def self_times(spans):
    """{span id: duration minus the time its direct children cover}."""
    out = {s["id"]: duration_ns(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration_ns(s)
    return out


def totals_by_name(spans, op_id):
    """{name: (summed duration in seconds, call count)} over one operation."""
    out = {}
    for s in spans:
        if s["op"] == op_id:
            total, calls = out.get(s["name"], (0, 0))
            out[s["name"]] = (total + duration_ns(s), calls + 1)
    return {name: (ns * 1e-9, calls) for name, (ns, calls) in out.items()}
