"""The benchmark's own in-memory span recorder.

Spans wrap the calls the benchmark makes into each layer's public functions
(this PR traces from *outside*; deriving the table from ``repro.obs`` spans
inside the program is a later issue).  A span has a name, a start, an end,
the span that caused it and the id of the request it belongs to; counts are
recorded at the same boundaries.  Everything stays in memory until
:meth:`SpanRecorder.dump`.  The recorder is single-threaded on purpose: the
traced pass replays requests one at a time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Records nested spans and counts; ``enabled=False`` records nothing.

    The disabled recorder keeps the call shape of the enabled one so the
    same staged pipeline can run both ways — the difference between the two
    is the tracing overhead the benchmark reports.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._request: str | None = None

    @contextmanager
    def span(self, name: str, request: str | None = None):
        """Time the enclosed block as a child of the innermost open span."""
        if not self.enabled:
            yield
            return
        if request is not None:
            self._request = request
        index = len(self.spans)
        record = {"id": index, "name": name, "request": self._request,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if not self._stack:
                self._request = None

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        if self.enabled:
            self.counts[name] += value

    # -- summaries -----------------------------------------------------------
    def durations_ms(self, name: str) -> list[float]:
        """Duration of every finished span called ``name``, in order."""
        return [(s["end"] - s["start"]) * 1e3 for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def mean_ms(self, name: str) -> float:
        """Mean duration of the spans called ``name`` (0.0 when none ran)."""
        values = self.durations_ms(name)
        return sum(values) / len(values) if values else 0.0

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        children: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span["end"] is not None:
                totals[span["name"]] += (
                    span["end"] - span["start"] - children[span["id"]]) * 1e3
        return dict(totals)

    def dump(self, path: Path, **extra) -> None:
        """Write spans, counts and per-name self times as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra, self_ms=self.self_ms(), counts=dict(self.counts),
                       spans=self.spans)
        path.write_text(json.dumps(payload, indent=1))
