"""Spans recorded by the benchmark around calls into eeikit's public API.

An untraced :class:`Tracer` just calls through.  A traced one keeps one
span per call (name, start, end, parent span, operation id) in memory;
the run writes them out when it ends.  Composite calls may name
attribution sub-calls: in a traced run only, these public functions are
timed again on the same inputs, as children of the composite's span, so
the composite's self time (duration minus its children's) is what the
composite adds on top of them.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = -1

    def call(self, name: str, fn, *args, sub=None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``sub(result)`` makes the attribution sub-calls, through this
        tracer, after the composite returns; it runs only when tracing.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if sub is not None:
            self._stack.append(span["id"])
            try:
                sub(result)
            finally:
                self._stack.pop()
        return result

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for s in self.spans:
            out.setdefault(s["name"], []).append(s["end"] - s["start"])
        return out

    def self_times(self, base: str) -> list[float]:
        """Self time of each span called ``base`` or ``base.<tag>``."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [
            s["end"] - s["start"] - child_time[s["id"]]
            for s in self.spans
            if s["name"] == base or s["name"].startswith(base + ".")
        ]
