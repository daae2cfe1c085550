"""Telemetry core: a process-wide event bus and counter registry.

The paper's entire evaluation is about runtime *dynamics* — buffer growth
under Parks scheduling, blocked-thread censuses, per-host load shares —
so the runtime needs a way to narrate what it is doing that is

* **off by default and near-free when off**: every instrumentation site
  guards on a single attribute read (``if TELEMETRY.enabled:``), so the
  hot paths (buffer reads/writes, frame send/recv) pay one branch;
* **thread-safe**: processes are one thread each, pumps and monitors add
  more; events and counters may be produced from any of them concurrently;
* **uniform across the three layers**: the KPN runtime, the distributed
  wire, and the parallel farm all speak the same vocabulary, so one
  exporter (:mod:`repro.telemetry.export`) can render a local run and a
  cluster-wide aggregate alike.

Three instrument kinds:

* **events** — timestamped records in a bounded ring buffer.  Phases use
  the Chrome trace-event convention directly: ``"B"``/``"E"`` bracket a
  span on one thread (process lifetime, a blocked read), ``"i"`` is an
  instant (a capacity growth, a deadlock verdict).  Subscribers (the
  profiler, tests) receive each event as it is emitted.  The hub tells
  what *happened*; what is true *now* — capacities, high-water marks,
  growths so far — is the channels' own record
  (:meth:`repro.kpn.network.Network.census`), not something to rebuild
  from events.
* **counters** — monotonically increasing values keyed by name plus
  optional labels (``inc("wire.frames_sent", 1, tag="DATA")``).
* **histograms** — count/sum/min/max plus power-of-two bucket counts,
  for per-task latency distributions.

Timestamps are seconds since the hub's epoch (reset by :meth:`reset`),
monotonic, so exported traces are internally consistent.

Enable programmatically (``TELEMETRY.enable()``), per scope
(``with TELEMETRY.enabled_scope(): ...``), or for a whole process via the
run configuration's ``telemetry`` switch (:mod:`repro.config`), which
:mod:`repro.telemetry` applies when it is first imported — the knob used
to start instrumented compute servers.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Tuple)

__all__ = ["Event", "HistogramData", "TelemetryHub", "TELEMETRY", "render_key"]

#: label tuple type: sorted ((key, value), ...) pairs
LabelItems = Tuple[Tuple[str, str], ...]


class Event:
    """One telemetry event (phases follow the Chrome trace convention)."""

    __slots__ = ("ts", "phase", "name", "category", "tid", "thread_name", "args")

    def __init__(self, ts: float, phase: str, name: str, category: str,
                 tid: int, thread_name: str,
                 args: Optional[Dict[str, Any]]) -> None:
        self.ts = ts
        self.phase = phase          # "B" | "E" | "i" | flow "s"/"t"/"f"
        self.name = name
        self.category = category
        self.tid = tid
        self.thread_name = thread_name
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Event {self.phase} {self.name!r} cat={self.category!r} "
                f"t={self.ts:.6f}>")


class HistogramData:
    """Running distribution summary: count/sum/min/max + log2 buckets.

    Buckets are powers of two in seconds starting at ~1 µs; bucket ``i``
    counts observations with ``value <= 2**(i - 20)`` seconds (the last
    bucket is unbounded).  Coarse, but enough to separate "microseconds"
    from "milliseconds" from "seconds" per-task latencies without a
    dependency.
    """

    N_BUCKETS = 32
    _BOUNDS = tuple(2.0 ** (i - 20) for i in range(N_BUCKETS - 1))

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.buckets = [0] * self.N_BUCKETS

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self._BOUNDS):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile from the log2 buckets.

        Linear interpolation inside the containing bucket, clamped to the
        observed min/max so the estimate never leaves the data's range.
        Coarse (bucket bounds are powers of two) but monotone in ``q``
        and exact at q=0/q=1 — enough for p50/p95/p99 exposition.
        """
        if not self.count:
            return 0.0
        if q <= 0:
            return self.min
        if q >= 1:
            return self.max
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.buckets):
            cumulative += n
            if cumulative >= rank and n:
                lo = 0.0 if i == 0 else self._BOUNDS[i - 1]
                hi = self._BOUNDS[i] if i < len(self._BOUNDS) else self.max
                frac = (rank - (cumulative - n)) / n
                est = lo + frac * (hi - lo)
                return min(max(est, self.min), self.max)
        return self.max

    def as_dict(self) -> Dict[str, float]:
        return {"count": self.count, "sum": self.total,
                "min": self.min if self.count else 0.0, "max": self.max,
                "mean": self.mean()}

    def snapshot(self) -> Dict[str, Any]:
        """Picklable full state (incl. buckets) for the ``metrics`` op."""
        return {"count": self.count, "sum": self.total,
                "min": self.min if self.count else 0.0, "max": self.max,
                "buckets": list(self.buckets)}

    @classmethod
    def from_snapshot(cls, data: Mapping[str, Any]) -> "HistogramData":
        """Rebuild from :meth:`snapshot` output (exporter-side)."""
        hist = cls()
        hist.count = int(data.get("count", 0))
        hist.total = float(data.get("sum", 0.0))
        hist.min = float(data.get("min", 0.0)) if hist.count else float("inf")
        hist.max = float(data.get("max", 0.0))
        buckets = list(data.get("buckets", ()))
        hist.buckets = (buckets + [0] * cls.N_BUCKETS)[:cls.N_BUCKETS]
        return hist


class _ThreadLocal(threading.local):
    """Whom the calling thread is working for (:attr:`TelemetryHub.local`)."""

    #: ``(tid, name)`` the thread's events are attributed to instead of
    #: the OS thread, or None: then ``task``'s lane, if a task is set
    actor: Optional[Tuple[int, str]] = None
    #: the cooperative task whose step runs on this thread, or None.  The
    #: async backend sets it around each resume (one store on one
    #: thread-local); the thread's events land in the task's ``lane``,
    #: and the channel buffers read it to find a task whose step has to
    #: sleep.
    task: Any = None


def _labels_key(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def render_key(name: str, labels: LabelItems) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,k2=v2}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def parse_key(key: str) -> Tuple[str, LabelItems]:
    """Inverse of :func:`render_key` (used by the exporters)."""
    if "{" not in key:
        return key, ()
    name, _, rest = key.partition("{")
    inner = rest.rstrip("}")
    labels = tuple(tuple(item.split("=", 1)) for item in inner.split(",") if item)
    return name, labels  # type: ignore[return-value]


class TelemetryHub:
    """The event bus + counter registry.  One process-wide instance.

    All mutating entry points are cheap no-ops while :attr:`enabled` is
    False; call sites additionally guard on the attribute to skip argument
    construction entirely.
    """

    def __init__(self, max_events: int = 200_000) -> None:
        #: the one flag hot paths read.  Plain attribute on purpose.
        self.enabled = False
        #: lane name this hub's events appear under in merged cluster
        #: traces; compute servers overwrite it with their server name.
        self.node = f"pid-{os.getpid()}"
        self._lock = threading.Lock()
        self._events: deque[Event] = deque(maxlen=max_events)
        self._counters: Dict[Tuple[str, LabelItems], float] = {}
        self._hists: Dict[Tuple[str, LabelItems], HistogramData] = {}
        self._gauges: Dict[Tuple[str, LabelItems], float] = {}
        #: immutable tuple, replaced wholesale on (un)subscribe so _emit
        #: can read it without copying — one attribute read per event
        self._subscribers: Tuple[Callable[[Event], None], ...] = ()
        self._t0 = time.monotonic()
        #: total events ever emitted (survives ring-buffer eviction)
        self.events_emitted = 0
        #: per-thread state: ``actor``, the ``(tid, name)`` override
        #: attributed to events instead of the OS thread, and ``task``.
        #: The async scheduler backend sets ``task`` around each task
        #: resume so events from tasks that share one event-loop thread
        #: land in distinct virtual lanes, the tasks' own.
        self.local = _ThreadLocal()

    # ------------------------------------------------------------------
    # actor attribution (async scheduler backend)
    # ------------------------------------------------------------------
    def swap_actor(self, actor: Optional[Tuple[int, str]]) -> Optional[Tuple[int, str]]:
        """Install an ``(tid, name)`` actor override for the calling
        thread, returning the previous override (None if none).

        Virtual tids should not collide with OS thread idents — the async
        backend uses negative integers."""
        prev = self.local.actor
        self.local.actor = actor
        return prev

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> "TelemetryHub":
        self.enabled = True
        return self

    def disable(self) -> "TelemetryHub":
        self.enabled = False
        return self

    def reset(self) -> "TelemetryHub":
        """Drop all recorded data and restart the clock (keeps ``enabled``)."""
        with self._lock:
            self._events.clear()
            self._counters.clear()
            self._hists.clear()
            self._gauges.clear()
            self._t0 = time.monotonic()
            self.events_emitted = 0
        return self

    @contextmanager
    def enabled_scope(self, reset: bool = False) -> Iterator["TelemetryHub"]:
        """Enable for the duration of a ``with`` block, restoring after."""
        was = self.enabled
        if reset:
            self.reset()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = was

    def now(self) -> float:
        """Seconds since the hub epoch (monotonic)."""
        return time.monotonic() - self._t0

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def _emit(self, phase: str, name: str, category: str,
              args: Optional[Dict[str, Any]]) -> None:
        if not self.enabled:
            return
        local = self.local
        actor = local.actor
        if actor is None and local.task is not None:
            actor = local.task.lane
        if actor is not None:
            tid, thread_name = actor
        else:
            t = threading.current_thread()
            tid, thread_name = t.ident or 0, t.name
        event = Event(self.now(), phase, name, category, tid,
                      thread_name, args or None)
        with self._lock:
            self._events.append(event)
            self.events_emitted += 1
        subscribers = self._subscribers
        # Outside the lock: a subscriber may itself query the hub.  Note
        # that emit sites inside buffer critical sections still hold the
        # *buffer* lock here, so subscribers must never touch channels —
        # append-to-list / set-an-Event only (same rule as buffer
        # listeners).
        for cb in subscribers:
            try:
                cb(event)
            except Exception:
                pass

    def begin(self, name: str, category: str = "repro", **args: Any) -> None:
        """Open a span on the calling thread (Chrome ``B`` phase)."""
        self._emit("B", name, category, args)

    def end(self, name: str, category: str = "repro", **args: Any) -> None:
        """Close the innermost span of ``name`` on this thread (``E``)."""
        self._emit("E", name, category, args)

    def instant(self, name: str, category: str = "repro", **args: Any) -> None:
        """A point event (``i`` phase)."""
        self._emit("i", name, category, args)

    def flow(self, phase: str, name: str, category: str = "repro",
             flow_id: int = 0, **args: Any) -> None:
        """A Chrome flow event: ``s`` start, ``t`` step, ``f`` end.

        Flow events with the same ``flow_id`` are drawn as arrows between
        the slices enclosing them — across threads, and (in merged
        cluster traces) across node lanes.  Emit them *inside* an open
        span on the same thread.
        """
        if phase not in ("s", "t", "f"):
            raise ValueError(f"flow phase must be s/t/f, not {phase!r}")
        self._emit(phase, name, category, dict(args, flow_id=flow_id))

    @contextmanager
    def span(self, name: str, category: str = "repro", **args: Any) -> Iterator[None]:
        self.begin(name, category, **args)
        try:
            yield
        finally:
            self.end(name, category)

    def subscribe(self, callback: Callable[[Event], None]) -> Callable[[Event], None]:
        """Register ``callback`` for every subsequent event; returns it
        (handy for later :meth:`unsubscribe`)."""
        with self._lock:
            self._subscribers = self._subscribers + (callback,)
        return callback

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        with self._lock:
            self._subscribers = tuple(
                cb for cb in self._subscribers if cb is not callback)

    def events(self) -> List[Event]:
        """Snapshot of the ring buffer, oldest first."""
        with self._lock:
            return list(self._events)

    # ------------------------------------------------------------------
    # counters / histograms
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        """Add ``amount`` to the counter ``name`` with ``labels``."""
        if not self.enabled:
            return
        key = (name, _labels_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record ``value`` into the histogram ``name`` with ``labels``."""
        if not self.enabled:
            return
        key = (name, _labels_key(labels))
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = self._hists[key] = HistogramData()
            hist.observe(value)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name`` with ``labels`` (last write wins).

        Gauges are sampled values — channel occupancy, process
        utilization — where summing across scrapes would be meaningless.
        """
        if not self.enabled:
            return
        key = (name, _labels_key(labels))
        with self._lock:
            self._gauges[key] = value

    def gauges(self) -> Dict[str, float]:
        """Consistent flat snapshot: ``{rendered_key: value}``."""
        with self._lock:
            return {render_key(n, l): v for (n, l), v in self._gauges.items()}

    def counter(self, name: str, **labels: Any) -> float:
        """Current value of one counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get((name, _labels_key(labels)), 0)

    def counters(self) -> Dict[str, float]:
        """Consistent flat snapshot: ``{rendered_key: value}``.

        Histograms are folded in as ``name.count`` / ``name.sum`` /
        ``name.max`` (picklable, so this is exactly what the compute
        server's ``metrics`` op returns).
        """
        with self._lock:
            out = {render_key(n, l): v for (n, l), v in self._counters.items()}
            for (n, l), h in self._hists.items():
                out[render_key(f"{n}.count", l)] = h.count
                out[render_key(f"{n}.sum", l)] = h.total
                out[render_key(f"{n}.max", l)] = h.max
        return out

    def histograms(self) -> Dict[str, HistogramData]:
        """Rendered-key snapshot of histogram objects (local use only)."""
        with self._lock:
            return {render_key(n, l): h for (n, l), h in self._hists.items()}

    def histogram_snapshots(self) -> Dict[str, Dict[str, Any]]:
        """Picklable histogram state incl. buckets (the ``metrics`` op's
        quantile-capable counterpart of :meth:`counters`)."""
        with self._lock:
            return {render_key(n, l): h.snapshot()
                    for (n, l), h in self._hists.items()}


#: the process-wide hub every instrumentation site uses
TELEMETRY = TelemetryHub()
