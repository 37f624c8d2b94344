"""Spans recorded around the benchmark's own calls into the package.

A span holds its name (``layer.function``), start and end on the
``perf_counter`` clock, the index of its parent span (-1 for a root) and
the id of the request or job it belongs to.  Spans stay in memory and
are written out once, when the run ends.  With tracing off, ``span``
returns a shared no-op context, so traced and untraced runs execute the
same code.
"""

from __future__ import annotations

import contextlib
import time

_NO_SPAN = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent, job]
        self._open = []

    def span(self, name: str, job=None):
        if not self.enabled:
            return _NO_SPAN
        return self._record(name, job)

    @contextlib.contextmanager
    def _record(self, name, job):
        parent = self._open[-1] if self._open else -1
        if job is None and parent >= 0:
            job = self.spans[parent][4]
        record = [name, 0.0, 0.0, parent, job]
        index = len(self.spans)
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
