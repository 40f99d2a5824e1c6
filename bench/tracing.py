"""Spans recorded by the benchmark around its own calls into the package.

A span is (id, name, start, end, parent).  The first dotted part of the name
is the layer: a `graphentropy` module name such as `optimize` or `cli`, or
`op` for the benchmark's own root span of each operation.  Spans stay in
memory and are written out once, as JSON lines, when the run ends.  Nothing
inside the package is instrumented: a layer's time here is the time of the
public calls the benchmark makes into it.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def span_cost_s(number=2000, batches=7):
    """Seconds one span enter and exit cost: the median over batches of the
    mean over `number` empty spans, timed on a scratch Tracer."""
    times = []
    for _ in range(batches):
        tracer = Tracer()
        t0 = perf_counter()
        for _ in range(number):
            with tracer.span("overhead"):
                pass
        times.append((perf_counter() - t0) / number)
    return statistics.median(times)


class NullTracer:
    """Same interface as Tracer, recording nothing; used for timed passes."""

    def span(self, name):
        return contextlib.nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)
