"""Cluster-causal tracing: trace contexts, merged traces, live views.

The paper's headline mechanism — network connections established
automatically *during* object serialization — means the interesting
behaviour happens across machine boundaries, exactly where node-local
telemetry goes blind.  This module supplies the three distributed pieces
on top of :mod:`repro.telemetry.core`:

* :class:`TraceContext` — a compact trace/span-id pair that rides the
  wire protocol (an envelope on ``send_obj``, see
  :mod:`repro.distributed.wire`) so a Runnable or Task dispatched to a
  remote :class:`~repro.distributed.server.ComputeServer` continues the
  dispatching trace.  Chrome-trace *flow events* (phases ``s``/``t``/``f``)
  link the send span on one node to the execute span on another.
* :func:`merge_node_traces` — per-node event buffers (fetched with the
  ``trace`` RPC op), mapped onto a single timeline with the clock
  offsets :mod:`repro.telemetry.clock` estimates, rendered as one
  Perfetto-loadable document with one process lane per node.
* :func:`render_top` — the ``repro top`` screen: per-server stats,
  blocked reads/writes with buffer fill levels, and per-worker load
  shares, from the ``stats``/``wait_snapshot``/``metrics`` RPC ops.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.telemetry.core import Event, parse_key

__all__ = [
    "TraceContext", "current_context", "set_current_context", "activate",
    "event_to_dict", "merge_node_traces", "write_merged_trace", "render_top",
]


# ---------------------------------------------------------------------------
# trace-context propagation
# ---------------------------------------------------------------------------

_local = threading.local()


class TraceContext:
    """A (trace_id, span_id) pair identifying one causal chain.

    ``trace_id`` names the whole distributed run; ``span_id`` names one
    hop.  Both are 16-hex-digit strings, so a context costs ~32 bytes on
    the wire and pickles as a plain tuple.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    @classmethod
    def new_root(cls) -> "TraceContext":
        """A fresh trace (new trace id, new root span)."""
        return cls(os.urandom(8).hex(), os.urandom(8).hex())

    def child(self) -> "TraceContext":
        """A new span continuing this trace."""
        return TraceContext(self.trace_id, os.urandom(8).hex())

    @property
    def flow_id(self) -> int:
        """The span id as the integer Chrome flow-event ``id``."""
        return int(self.span_id, 16) & 0x7FFFFFFFFFFFFFFF

    # -- wire form ----------------------------------------------------------
    def to_wire(self) -> tuple:
        return (self.trace_id, self.span_id)

    @classmethod
    def from_wire(cls, pair: Sequence[str]) -> "TraceContext":
        trace_id, span_id = pair
        return cls(str(trace_id), str(span_id))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TraceContext)
                and self.trace_id == other.trace_id
                and self.span_id == other.span_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TraceContext {self.trace_id}/{self.span_id}>"


def current_context() -> Optional[TraceContext]:
    """The calling thread's active trace context, if any."""
    return getattr(_local, "ctx", None)


def set_current_context(ctx: Optional[TraceContext]) -> None:
    """Set the thread's context *stickily* (until replaced).

    The wire's ``decode_obj`` uses this on server connection threads: each
    incoming envelope re-points the handler thread at the sender's context,
    which then covers everything the handler does for that request.
    """
    _local.ctx = ctx


class activate:
    """Scope a context to a ``with`` block, restoring the previous one.

    Usable as a context manager; also safe to hand the *enter/exit* pair
    to code that brackets work manually (the client request path).
    """

    def __init__(self, ctx: Optional[TraceContext]) -> None:
        self._ctx = ctx
        self._prev: Optional[TraceContext] = None

    def __enter__(self) -> Optional[TraceContext]:
        self._prev = current_context()
        set_current_context(self._ctx)
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> None:
        set_current_context(self._prev)


# ---------------------------------------------------------------------------
# event serialization + merged multi-node traces
# ---------------------------------------------------------------------------

def event_to_dict(event: Event) -> Dict[str, Any]:
    """A picklable, JSON-able form of one hub event (the ``trace`` op)."""
    return {"ts": event.ts, "ph": event.phase, "name": event.name,
            "cat": event.category, "tid": event.tid,
            "thread": event.thread_name, "args": event.args}


def _trace_item(ev: Mapping[str, Any], pid: int, offset: float) -> Dict[str, Any]:
    """One Chrome trace-event item from an event dict, time-shifted."""
    item: Dict[str, Any] = {
        "name": ev["name"], "cat": ev.get("cat") or "repro",
        "ph": ev["ph"], "ts": (ev["ts"] + offset) * 1e6,
        "pid": pid, "tid": ev["tid"],
    }
    args = dict(ev.get("args") or {})
    phase = ev["ph"]
    if phase == "i":
        item["s"] = "t"
    elif phase in ("s", "t", "f"):
        item["id"] = args.pop("flow_id", 0)
        if phase == "f":
            item["bp"] = "e"  # bind the flow end to the enclosing slice
    if args:
        item["args"] = args
    return item


def merge_node_traces(nodes: Iterable[Mapping[str, Any]]) -> dict:
    """One Chrome trace document over several nodes' event buffers.

    ``nodes`` is an iterable of ``{"name", "events", "offset"}`` where
    ``events`` is a list of :func:`event_to_dict` dicts on that node's
    hub clock and ``offset`` is the seconds to add to land them on the
    merged timeline (see :mod:`repro.telemetry.clock`; the observer node
    passes 0.0).  Each node becomes one process lane, named and ordered
    as given, so a cluster run reads as one application: flow arrows
    drawn by matching ``s``/``f`` ids cross between the lanes.
    """
    trace: List[dict] = []
    for pid, node in enumerate(nodes, start=1):
        name = node.get("name") or f"node-{pid}"
        offset = float(node.get("offset", 0.0))
        trace.append({"name": "process_name", "ph": "M", "pid": pid,
                      "args": {"name": name}})
        trace.append({"name": "process_sort_index", "ph": "M", "pid": pid,
                      "args": {"sort_index": pid}})
        seen_tids: set = set()
        for ev in node.get("events", ()):
            tid = ev["tid"]
            if tid not in seen_tids:
                seen_tids.add(tid)
                trace.append({"name": "thread_name", "ph": "M", "pid": pid,
                              "tid": tid,
                              "args": {"name": ev.get("thread", str(tid))}})
            trace.append(_trace_item(ev, pid, offset))
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_merged_trace(path: str, nodes: Iterable[Mapping[str, Any]]) -> str:
    """Write :func:`merge_node_traces` output to ``path``; returns it."""
    doc = merge_node_traces(nodes)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# the `repro top` screen
# ---------------------------------------------------------------------------

_TOP_COLUMNS = ("SERVER", "UP", "BACK", "TASKS", "PROCS", "THR", "CHAN",
                "BLK-R", "BLK-W", "BUF-B", "TELEM")


def _fmt_uptime(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    seconds = int(seconds)
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"


def _worker_shares(counters: Mapping[str, float]) -> Dict[str, float]:
    """Per-worker load shares from ``parallel.tasks_processed`` counters."""
    per_worker: Dict[str, float] = {}
    for key, value in counters.items():
        name, labels = parse_key(key)
        if name != "parallel.tasks_processed":
            continue
        worker = dict(labels).get("worker", "?")
        per_worker[worker] = per_worker.get(worker, 0) + value
    total = sum(per_worker.values())
    if not total:
        return {}
    return {w: v / total for w, v in sorted(per_worker.items())}


def render_top(rows: Sequence[Mapping[str, Any]],
               show_blocked: bool = True) -> str:
    """The ``repro top`` screen as a string (pure; testable).

    Each row is ``{"name", "stats", "snapshot", "counters", "profile"}`` —
    the ``stats`` / ``wait_snapshot`` / ``metrics`` replies for one server
    (any of the last four may be None if the call failed).  ``profile`` is
    a :meth:`Profiler.snapshot` dict; when present, each hosted process
    gets a state line (running / read-blocked / write-blocked with the
    channel name, plus utilization) sourced from the profiler's
    accounting rather than the instantaneous wait snapshot.
    """
    widths = (14, 7, 6, 7, 7, 5, 5, 6, 6, 9, 6)
    header = " ".join(f"{c:>{w}}" for c, w in zip(_TOP_COLUMNS, widths))
    lines = [header, "-" * len(header)]
    details: List[str] = []
    for row in rows:
        name = row.get("name", "?")
        stats = row.get("stats") or {}
        snap = row.get("snapshot") or {}
        blocked = snap.get("blocked", [])
        blk_r = sum(1 for b in blocked if b.get("mode") == "read")
        blk_w = sum(1 for b in blocked if b.get("mode") == "write")
        buffered = sum(b.get("buffered", 0) for b in blocked)
        telem = stats.get("telemetry_enabled")
        cells = (
            name,
            _fmt_uptime(stats.get("uptime_seconds")),
            stats.get("backend") or snap.get("backend") or "?",
            stats.get("tasks_run", "?"),
            stats.get("processes_hosted", "?"),
            stats.get("live_threads", "?"),
            stats.get("channels", "?"),
            blk_r, blk_w, buffered,
            "on" if telem else ("off" if telem is not None else "?"),
        )
        lines.append(" ".join(f"{str(c):>{w}}" for c, w in zip(cells, widths)))
        if show_blocked:
            for b in blocked:
                fill = f"{b.get('buffered', 0)}/{b.get('capacity', '?')}B"
                # async-backend waiters are parked tasks, not threads —
                # tag them so a wait-graph reader knows what's suspended
                kind = ""
                if b.get("kind") == "task":
                    kind = " [task+thread]" if b.get("on_thread") else " [task]"
                details.append(f"  {name}: {b.get('thread')} blocked-"
                               f"{b.get('mode')} on {b.get('channel')} "
                               f"({fill}){kind}")
        profile = row.get("profile") or {}
        if profile.get("processes"):
            from repro.telemetry.profile import process_utilization

            utils = process_utilization(profile)
            for pname in sorted(profile["processes"]):
                p = profile["processes"][pname]
                state = p.get("state") or "?"
                if p.get("channel"):
                    state = f"{state} on {p['channel']}"
                details.append(f"  {name}: proc {pname:<18} {state:<32} "
                               f"util {utils.get(pname, 0.0):6.1%}")
        shares = _worker_shares(row.get("counters") or {})
        for worker, share in shares.items():
            details.append(f"  {name}: load {worker} "
                           f"{'#' * int(share * 20):<20} {share:5.1%}")
        for failure in stats.get("failures", []):
            details.append(f"  {name}: FAILED {failure.get('process')}: "
                           f"{failure.get('error')}")
    if details:
        lines.append("")
        lines.extend(details)
    return "\n".join(lines)
