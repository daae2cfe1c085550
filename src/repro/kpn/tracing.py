"""Execution tracing: a timeline of census readings.

Capacities, high-water marks, bytes through and capacity growths are kept
by the channels and read with :meth:`Network.census`; what nobody keeps is
how that state moved *over time*.  ``with Tracer(net) as tracer:
net.run()`` reads the census on a fixed period and keeps each channel's
occupancy and the blocked-actor counts as timelines; the totals of
``tracer.report()`` are the final census, never a maximum over samples.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List

from repro.kpn.network import Network

__all__ = ["Tracer", "TraceReport", "ChannelTrace"]

#: readings after which the sampling thread stops (bounds the timelines)
MAX_SAMPLES = 100000


@dataclass
class ChannelTrace:
    """One channel's final census row plus its ``(t, buffered)`` timeline."""

    name: str
    capacity_initial: int
    capacity_final: int
    high_water: int
    total_bytes: int
    fused: bool = False
    occupancy: List[tuple] = field(default_factory=list)

    @property
    def grew(self) -> bool:
        return self.capacity_final > self.capacity_initial

    @property
    def peak_utilization(self) -> float:
        return self.high_water / max(self.capacity_final, 1)


@dataclass
class TraceReport:
    """The final census, and the timelines sampled on the way there."""

    duration: float
    samples: int
    channels: Dict[str, ChannelTrace]
    #: (t, read_blocked, write_blocked) actor counts
    blocked_timeline: List[tuple] = field(default_factory=list)
    #: the census' ``growths``: every capacity change, with its cause
    growth_events: List[dict] = field(default_factory=list)

    def hottest_channels(self, n: int = 5) -> List[ChannelTrace]:
        return sorted(self.channels.values(),
                      key=lambda c: c.high_water, reverse=True)[:n]

    def total_bytes_moved(self) -> int:
        return sum(c.total_bytes for c in self.channels.values())

    def max_blocked(self) -> tuple:
        """Peak simultaneous (read-blocked, write-blocked) actor counts."""
        return (max((e[1] for e in self.blocked_timeline), default=0),
                max((e[2] for e in self.blocked_timeline), default=0))

    def summary(self) -> str:
        fused = sum(c.fused for c in self.channels.values())
        # a fused channel's ring is bypassed: it is unmetered, not idle
        moved = (f"{fused} fused channel(s) not metered" if fused
                 and fused == len(self.channels)
                 else f"{self.total_bytes_moved()} bytes moved"
                 + (f" (+{fused} fused, not metered)" if fused else ""))
        r, w = self.max_blocked()
        lines = [f"trace: {self.duration:.3f}s, {self.samples} samples, "
                 f"{moved}, {len(self.growth_events)} growths",
                 f"peak blocked actors: {r} reading, {w} writing"]
        lines += [f"  {c.name}: fused into a chain" if c.fused else
                  f"  {c.name}: high-water {c.high_water}B of {c.capacity_final}B"
                  f" (initially {c.capacity_initial}B), {c.total_bytes}B through"
                  for c in self.hottest_channels()]
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(asdict(self))


class Tracer:
    """Reads :meth:`Network.census` every ``period`` seconds; channels
    created during the run appear in the next reading."""

    def __init__(self, network: Network, period: float = 0.005) -> None:
        self.network = network
        self.period = period
        self._occupancy: Dict[str, List[tuple]] = {}
        self._blocked: List[tuple] = []
        self._t0 = time.monotonic()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="tracer",
                                        daemon=True)

    def start(self) -> "Tracer":
        self._t0 = time.monotonic()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5)
        self._read()    # the post-run state; its time is the duration

    def __enter__(self) -> "Tracer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.is_set() and len(self._blocked) < MAX_SAMPLES:
            self._read()
            self._stop.wait(self.period)

    def _read(self) -> None:
        census = self.network.census()
        now = round(time.monotonic() - self._t0, 6)
        for name, row in census["channels"].items():
            self._occupancy.setdefault(name, []).append((now, row["buffered"]))
        modes = [b["mode"] for b in census["blocked"]]
        self._blocked.append((now, modes.count("read"), modes.count("write")))

    def report(self) -> TraceReport:
        census = self.network.census()
        channels = {
            name: ChannelTrace(name, row["initial_capacity"], row["capacity"],
                               row["high_watermark"], row["total_written"],
                               row["fused"], list(self._occupancy.get(name, ())))
            for name, row in census["channels"].items()}
        blocked = list(self._blocked)
        return TraceReport(blocked[-1][0] if blocked else 0.0, len(blocked),
                           channels, blocked, census["growths"])
