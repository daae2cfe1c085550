"""Execution tracing: observe a running network without perturbing it.

The paper's systems story (fairness from bounded buffers, overlap of
communication and computation, buffer growth under Parks scheduling) is
about *dynamics*; this module makes those dynamics measurable:

* :class:`Tracer` samples every channel's occupancy and the network's
  blocked-thread census on a fixed period (pure readers — no locks taken
  beyond the buffers' own, no channel semantics touched);
* the result is a :class:`TraceReport` with per-channel high-water marks,
  occupancy/blocked timelines, throughput figures, and capacity-growth
  events, exportable as JSON or a text summary.

Typical use::

    net = Network(); ...build...
    with Tracer(net, period=0.005) as tracer:
        net.run()
    print(tracer.report().summary())
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.kpn.network import Network
from repro.telemetry.core import TELEMETRY as _telemetry, Event

__all__ = ["Tracer", "TraceReport", "ChannelTrace"]


@dataclass
class ChannelTrace:
    """Per-channel observations."""

    name: str
    capacity_initial: int
    capacity_final: int = 0
    high_water: int = 0
    total_bytes: int = 0
    #: (t, occupancy) samples
    occupancy: List[tuple] = field(default_factory=list)

    @property
    def grew(self) -> bool:
        return self.capacity_final > self.capacity_initial

    @property
    def peak_utilization(self) -> float:
        cap = max(self.capacity_final, 1)
        return self.high_water / cap


@dataclass
class TraceReport:
    """Everything a trace run collected."""

    duration: float
    samples: int
    channels: Dict[str, ChannelTrace]
    #: (t, read_blocked, write_blocked) census timeline
    blocked_timeline: List[tuple] = field(default_factory=list)
    growth_events: List[dict] = field(default_factory=list)

    def hottest_channels(self, n: int = 5) -> List[ChannelTrace]:
        return sorted(self.channels.values(),
                      key=lambda c: c.high_water, reverse=True)[:n]

    def total_bytes_moved(self) -> int:
        return sum(c.total_bytes for c in self.channels.values())

    def max_blocked(self) -> tuple:
        """Peak simultaneous (read-blocked, write-blocked) thread counts."""
        r = max((entry[1] for entry in self.blocked_timeline), default=0)
        w = max((entry[2] for entry in self.blocked_timeline), default=0)
        return r, w

    def summary(self) -> str:
        lines = [
            f"trace: {self.duration:.3f}s, {self.samples} samples, "
            f"{self.total_bytes_moved()} bytes moved, "
            f"{len(self.growth_events)} growths",
        ]
        r, w = self.max_blocked()
        lines.append(f"peak blocked threads: {r} reading, {w} writing")
        for ch in self.hottest_channels():
            grown = (f" (grew {ch.capacity_initial}->{ch.capacity_final})"
                     if ch.grew else "")
            lines.append(
                f"  {ch.name}: high-water {ch.high_water}B of "
                f"{ch.capacity_final}B{grown}, {ch.total_bytes}B through")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "duration": self.duration,
            "samples": self.samples,
            "growth_events": self.growth_events,
            "blocked_timeline": self.blocked_timeline,
            "channels": {
                name: {
                    "capacity_initial": c.capacity_initial,
                    "capacity_final": c.capacity_final,
                    "high_water": c.high_water,
                    "total_bytes": c.total_bytes,
                    "occupancy": c.occupancy,
                }
                for name, c in self.channels.items()
            },
        })


class Tracer:
    """Periodic sampler over a network's channels and accounting.

    Channels created *during* the run (self-reconfiguring graphs) are
    picked up automatically on the next sample.
    """

    def __init__(self, network: Network, period: float = 0.005,
                 keep_timelines: bool = True, max_samples: int = 100000) -> None:
        self.network = network
        self.period = period
        self.keep_timelines = keep_timelines
        self.max_samples = max_samples
        self._channels: Dict[str, ChannelTrace] = {}
        self._blocked: List[tuple] = []
        self._samples = 0
        self._t0 = 0.0
        self._elapsed = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: growth events collected off the telemetry bus (when enabled),
        #: replacing the monitor double-bookkeeping
        self._bus_growths: List[dict] = []
        self._bus_lock = threading.Lock()
        self._subscribed = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Tracer":
        self._t0 = time.monotonic()
        if _telemetry.enabled:
            # Event-bus mode: growth events arrive as channel.grow
            # instants; the sampling loop below still owns the occupancy
            # and blocked-census timelines (those are censuses, not
            # events).
            _telemetry.subscribe(self._on_event)
            self._subscribed = True
        self._thread = threading.Thread(target=self._run, name="tracer",
                                        daemon=True)
        self._thread.start()
        return self

    def _on_event(self, event: Event) -> None:
        if event.name == "channel.grow" and event.args:
            with self._bus_lock:
                self._bus_growths.append({
                    "channel": event.args.get("channel"),
                    "old": event.args.get("old"),
                    "new": event.args.get("new"),
                })

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        if self._subscribed:
            _telemetry.unsubscribe(self._on_event)
            self._subscribed = False
        # Final sample *before* freezing the duration (it catches post-run
        # totals), so its timestamp cannot land past the reported duration
        # in to_json() timelines; _sample additionally clamps.
        self._sample()
        self._elapsed = time.monotonic() - self._t0

    def __enter__(self) -> "Tracer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- sampling ----------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set() and self._samples < self.max_samples:
            self._sample()
            self._stop.wait(self.period)

    def _sample(self) -> None:
        now = time.monotonic() - self._t0
        if self._elapsed:
            now = min(now, self._elapsed)
        self._samples += 1
        with self.network._lock:
            channels = list(self.network.channels)
        for ch in channels:
            trace = self._channels.get(ch.name)
            if trace is None:
                trace = ChannelTrace(ch.name, ch.capacity)
                self._channels[ch.name] = trace
            occupancy = ch.buffered()
            trace.high_water = max(trace.high_water, occupancy)
            trace.capacity_final = ch.capacity
            trace.total_bytes = ch.buffer.total_written
            if self.keep_timelines:
                trace.occupancy.append((round(now, 6), occupancy))
        acct = self.network.accounting
        if self.keep_timelines:
            self._blocked.append((round(now, 6), acct.read_blocked,
                                  acct.write_blocked))

    # -- results ------------------------------------------------------------
    def report(self) -> TraceReport:
        with self.network._lock:
            known = {ch.name for ch in self.network.channels}
        with self._bus_lock:
            # the bus is process-wide; keep only this network's channels
            growths = [g for g in self._bus_growths if g["channel"] in known]
        if not growths:
            # Telemetry was off during the run: fall back to the
            # monitor's own growth bookkeeping.
            growths = [
                {"channel": e.channel_name, "old": e.old_capacity,
                 "new": e.new_capacity}
                for e in (self.network.monitor.growth_events
                          if self.network.monitor else [])
            ]
        duration = self._elapsed or (time.monotonic() - self._t0)
        return TraceReport(duration=duration, samples=self._samples,
                           channels=dict(self._channels),
                           blocked_timeline=list(self._blocked),
                           growth_events=growths)
