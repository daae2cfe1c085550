"""Spans recorded by the harness around its calls into each layer.

A span is ``{id, name, start, end, parent, run}``: ``run`` names the
workload and repeat it belongs to, ``parent`` is the id of the enclosing
span or ``None``.  Times are seconds on the system-wide monotonic clock,
so spans taken in a repeat's interpreter and in the driver line up.
Spans stay in memory; :func:`finish` adds self times and the driver
writes the lot once, when it exits.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Recorder:
    def __init__(self, run: str, first_id: int = 0) -> None:
        self.run = run
        self.spans: List[dict] = []
        self._next = first_id
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        """Record a span whose ends were measured elsewhere."""
        sid = self._next
        self._next += 1
        self.spans.append({"id": sid, "name": name, "start": start,
                           "end": end, "parent": parent, "run": self.run})
        return sid

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, time.monotonic(), 0.0, parent)
        span = self.spans[-1]
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            span["end"] = time.monotonic()


def finish(spans: List[dict]) -> List[dict]:
    """Add ``self_s``: a span's duration minus what its children cover."""
    by_id: Dict[int, dict] = {s["id"]: s for s in spans}
    covered: Dict[int, float] = {s["id"]: 0.0 for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent is not None and parent in by_id:
            p = by_id[parent]
            overlap = min(s["end"], p["end"]) - max(s["start"], p["start"])
            covered[parent] += max(0.0, overlap)
    for s in spans:
        s["duration_s"] = s["end"] - s["start"]
        s["self_s"] = max(0.0, s["duration_s"] - covered[s["id"]])
    return spans
