"""Continuous KPN profiler: blocked-time attribution and capacity advice.

The paper's entire performance story is about *where processes wait* —
blocking reads (section 3.1), bounded blocking writes (3.5), and Parks'
capacity growth resolving artificial deadlocks — but raw ``block.read`` /
``block.write`` spans answer none of the operator's questions ("which
channel is the bottleneck, and what capacity should it have had?").  This
module turns the event stream into answers, in three pieces:

* :class:`Profiler` — an always-cheap accounting layer that subscribes to
  the telemetry hub and attributes each process's wall time to
  ``running`` / ``read-blocked-on-<channel>`` / ``write-blocked-on-<channel>``.
  It is a per-thread state machine over two span kinds (process
  begin/end, block begin/end), so the cost per event is a category
  check plus a couple of dict updates — safe under the buffer critical
  sections that emit block spans, because the profiler never touches
  channels or the hub from its callback.  Time is all it keeps: what a
  channel's capacity was, is, and why it changed is the channel's own
  record, read through :meth:`Network.census` when a snapshot is taken
  with ``network=``.
* :func:`analyze` — the analyzer over a profile snapshot plus the
  ``Network`` graph: ranks bottleneck channels by total blocked time,
  computes per-process utilization, walks the backpressure chain from the
  hottest channel to the root cause, and attaches a **capacity advisor**
  recommendation per channel (channels that grew under Parks scheduling
  should be pre-sized to their final capacity; channels with sustained
  write pressure get doubled headroom).
* :func:`write_capacity_spec` — serializes the advisor's recommendations
  to a JSON spec file, the "initial buffer capacities from traced
  history" input the ROADMAP's graph compiler will consume.

Snapshots are plain picklable dicts, so the compute server's ``metrics``
RPC op ships them and :meth:`LocalCluster.merged_profile` merges per-node
attributions (:func:`merge_profiles`).  :func:`fold_stacks` renders a
snapshot as folded-stack lines for flamegraph tooling.

Enable with :data:`PROFILER` (``PROFILER.enable()`` — implies telemetry),
per server with ``--profile``, or process-wide via the run
configuration's ``profile`` switch (``REPRO_PROFILE=1``; see
:mod:`repro.config`).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.telemetry.core import TELEMETRY, Event, TelemetryHub

__all__ = [
    "Profiler", "PROFILER", "analyze", "fold_stacks", "merge_profiles",
    "process_utilization", "render_profile", "write_capacity_spec",
]

#: advisor threshold: writers blocked for more than this fraction of the
#: wall time marks a channel as under sustained write pressure
_PRESSURE_FRACTION = 0.02


class _ThreadState:
    """What one thread is doing right now, and since when."""

    __slots__ = ("process", "state", "channel", "since")

    def __init__(self, process: str, state: str, channel: Optional[str],
                 since: float) -> None:
        self.process = process
        self.state = state          # "running" | "read" | "write"
        self.channel = channel
        self.since = since


def _proc_entry() -> Dict[str, Any]:
    return {"kind": None, "state": "running", "channel": None,
            "running_s": 0.0, "blocked": {}, "started": None,
            "finished": None}


class Profiler:
    """Blocked-time accounting over the hub's event stream.

    One process-wide instance (:data:`PROFILER`) subscribes to the global
    hub; tests may build private instances and feed events directly via
    :meth:`_on_event` for deterministic timelines.
    """

    def __init__(self, hub: Optional[TelemetryHub] = None) -> None:
        self._hub = hub or TELEMETRY
        self._lock = threading.Lock()
        self.enabled = False
        self._subscribed = False
        #: tid -> current :class:`_ThreadState`
        self._threads: Dict[int, _ThreadState] = {}
        #: process name -> accumulated attribution
        self._procs: Dict[str, Dict[str, Any]] = {}
        #: events the state machine actually consumed (diagnostics)
        self.events_seen = 0

    # -- lifecycle ---------------------------------------------------------
    def enable(self, reset: bool = False) -> "Profiler":
        """Start accounting.  Implies enabling the telemetry hub: the
        profiler is fed by its events."""
        if reset:
            self.reset()
        self._hub.enable()
        if not self._subscribed:
            self._hub.subscribe(self._on_event)
            self._subscribed = True
        self.enabled = True
        return self

    def disable(self) -> "Profiler":
        """Stop accounting (leaves the telemetry hub as it is)."""
        if self._subscribed:
            self._hub.unsubscribe(self._on_event)
            self._subscribed = False
        self.enabled = False
        return self

    def reset(self) -> "Profiler":
        with self._lock:
            self._threads.clear()
            self._procs.clear()
            self.events_seen = 0
        return self

    # -- the state machine -------------------------------------------------
    def _proc(self, name: str) -> Dict[str, Any]:
        """Accumulator for ``name`` (atomic get-or-create under the GIL)."""
        proc = self._procs.get(name)
        if proc is None:
            proc = self._procs[name] = _proc_entry()
        return proc

    def _on_event(self, event: Event) -> None:
        # Hot path: every hub event lands here, including wire/rpc
        # traffic, often from inside a buffer critical section — so this
        # runs LOCK-FREE.  Correctness argument: every thread only ever
        # mutates its own _ThreadState and its own process's accumulator
        # (process names are unique per thread in a KPN), each dict
        # operation is atomic under the GIL, and :meth:`snapshot` reads
        # through atomic ``list(...)`` copies.  A concurrent snapshot may
        # catch one thread mid-transition — the error is bounded by a
        # single event interval, fine for a profiler.  A contended
        # threading.Lock here meant a futex wait inside the buffer lock,
        # which is exactly the overhead this layer must not add.
        cat = event.category
        if cat != "kpn.block" and cat != "kpn.process":
            return
        ts = event.ts
        phase = event.phase
        self.events_seen += 1  # approximate under concurrency: diagnostic only
        if cat == "kpn.block":
            if phase == "B":
                self._enter_block(event, ts)
            elif phase == "E":
                self._exit_block(event, ts)
        elif phase == "B":
            self._enter_process(event, ts)
        elif phase == "E":
            self._exit_process(event, ts)

    def _enter_process(self, event: Event, ts: float) -> None:
        name = event.name
        proc = self._proc(name)
        if proc["started"] is None:
            proc["started"] = ts
        proc["kind"] = (event.args or {}).get("kind")
        proc["state"] = "running"
        self._threads[event.tid] = _ThreadState(name, "running", None, ts)

    def _exit_process(self, event: Event, ts: float) -> None:
        proc = self._procs.get(event.name)
        if proc is None:
            return
        state = self._threads.pop(event.tid, None)
        if state is not None and state.process == event.name:
            self._charge(state, ts)
        proc["finished"] = ts
        proc["state"] = "done"
        proc["channel"] = None

    # The two block handlers are the profiler's hottest code: they run
    # inside buffer critical sections (block.* events are emitted with
    # the buffer lock held), so the interval-charging from _charge() is
    # inlined here to touch the proc dict exactly once per event.
    def _enter_block(self, event: Event, ts: float) -> None:
        args = event.args or {}
        state = self._threads.get(event.tid)
        if state is None:
            # a thread we never saw a process span for (a pump, or the
            # profiler was enabled mid-run): attribute by thread name
            name = args.get("process") or event.thread_name
            state = self._threads[event.tid] = _ThreadState(
                name, "running", None, ts)
            proc = self._proc(name)
            if proc["started"] is None:
                proc["started"] = ts
        else:
            proc = self._proc(state.process)
            dt = ts - state.since
            if dt > 0:
                if state.state == "running":
                    proc["running_s"] += dt
                else:
                    key = state.state + ":" + (state.channel or "")
                    blocked = proc["blocked"]
                    blocked[key] = blocked.get(key, 0.0) + dt
        mode = "read" if event.name == "block.read" else "write"
        channel = args.get("channel") or ""
        state.state = mode
        state.channel = channel
        state.since = ts
        proc["state"] = mode + "-blocked"
        proc["channel"] = channel

    def _exit_block(self, event: Event, ts: float) -> None:
        state = self._threads.get(event.tid)
        if state is None or state.state == "running":
            return
        proc = self._proc(state.process)
        dt = ts - state.since
        if dt > 0:
            key = state.state + ":" + (state.channel or "")
            blocked = proc["blocked"]
            blocked[key] = blocked.get(key, 0.0) + dt
        state.state = "running"
        state.channel = None
        state.since = ts
        proc["state"] = "running"
        proc["channel"] = None

    def _charge(self, state: _ThreadState, ts: float) -> None:
        """Close the thread's open interval at ``ts``."""
        dt = ts - state.since
        if dt <= 0:
            return
        proc = self._proc(state.process)
        if state.state == "running":
            proc["running_s"] += dt
        else:
            key = f"{state.state}:{state.channel}"
            proc["blocked"][key] = proc["blocked"].get(key, 0.0) + dt

    # -- snapshots ---------------------------------------------------------
    def snapshot(self, network=None, now: Optional[float] = None) -> dict:
        """Picklable attribution snapshot, open intervals charged to now.

        ``network`` additionally copies its census (:func:`_channel_facts`)
        into ``channels`` and publishes the per-channel occupancy and
        per-process utilization gauges on the hub.  The census is read
        *outside* the profiler lock — buffer locks and the profiler lock
        must never nest in both orders.  ``now`` overrides the hub clock
        (deterministic tests).
        """
        t = self._hub.now() if now is None else now
        # the lock serializes concurrent snapshot/reset callers, not the
        # event path: _on_event is lock-free, so all reads below go
        # through list(...)/dict(...) copies (atomic under the GIL) and
        # tolerate one thread being caught mid-transition
        with self._lock:
            procs: Dict[str, Dict[str, Any]] = {}
            for name, p in list(self._procs.items()):
                procs[name] = {"kind": p["kind"], "state": p["state"],
                               "channel": p["channel"],
                               "running_s": p["running_s"],
                               "blocked": dict(p["blocked"]),
                               "started": p["started"],
                               "finished": p["finished"]}
            # charge open intervals up to t without closing them: a
            # currently-blocked process shows its blocked time still
            # accumulating, and it stops the moment the span ends
            for state in list(self._threads.values()):
                entry = procs.get(state.process)
                if entry is None:
                    continue
                dt = max(0.0, t - state.since)
                if state.state == "running":
                    entry["running_s"] += dt
                else:
                    key = f"{state.state}:{state.channel}"
                    entry["blocked"][key] = entry["blocked"].get(key, 0.0) + dt
        snap: Dict[str, Any] = {"node": self._hub.node, "pid": os.getpid(),
                                "t": t, "processes": procs, "channels": {}}
        if network is not None:
            snap["network"] = network.name
            snap["channels"] = _channel_facts(network.census())
            if self._hub.enabled:
                from repro.telemetry.core import parse_key
                from repro.telemetry.export import profile_gauges

                for key, value in profile_gauges(snap).items():
                    name, labels = parse_key(key)
                    self._hub.set_gauge(name, value, **dict(labels))
        return snap


def _channel_facts(census: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """A census as the snapshot's ``channels``: each row, plus what the
    advisor asks of the growth list — ``grown_to`` (the capacity, once
    above the initial one, whatever raised it), ``grow_events`` (how many
    raises resolved an artificial deadlock) and ``growers`` (the blocked
    writers those resolutions freed)."""
    from repro.kpn.buffers import PARKS_CAUSES   # kpn imports telemetry

    parks = [g for g in census["growths"] if g["cause"] in PARKS_CAUSES]
    facts = {}
    for name, row in census["channels"].items():
        freed = [g["process"] for g in parks if g["channel"] == name]
        grew = row["capacity"] > row["initial_capacity"]
        facts[name] = dict(row, grown_to=row["capacity"] if grew else None,
                           grow_events=len(freed),
                           growers=sorted(set(filter(None, freed))))
    return facts


#: the process-wide profiler over the global hub
PROFILER = Profiler(TELEMETRY)


# ---------------------------------------------------------------------------
# snapshot arithmetic
# ---------------------------------------------------------------------------

def process_utilization(snapshot: Mapping[str, Any]) -> Dict[str, float]:
    """``{process: running / span}`` over one snapshot.

    The span is start to finish (or to the snapshot instant for live
    processes); when a process was never bracketed by a lifecycle span,
    the running/blocked split itself is the denominator.
    """
    t = snapshot.get("t")
    out: Dict[str, float] = {}
    for name, p in (snapshot.get("processes") or {}).items():
        started = p.get("started")
        end = p.get("finished")
        if end is None:
            end = t
        running = p.get("running_s", 0.0)
        blocked = sum((p.get("blocked") or {}).values())
        if started is not None and end is not None and end > started:
            out[name] = min(1.0, running / (end - started))
        elif running + blocked > 0:
            out[name] = running / (running + blocked)
        else:
            out[name] = 0.0
    return out


def merge_profiles(per_node: Mapping[str, Mapping[str, Any]]) -> dict:
    """Merge per-node snapshots into one cluster-wide attribution.

    ``per_node`` maps a node label to a :meth:`Profiler.snapshot` dict.
    Process names colliding across nodes are disambiguated as
    ``node/name``; channel facts merge (growth events sum, capacities and
    watermarks take the max — a channel stretched over a socket link has
    a buffer on each side).
    """
    merged: Dict[str, Any] = {"node": "cluster",
                              "nodes": sorted(per_node), "t": 0.0,
                              "processes": {}, "channels": {}}
    for label in sorted(per_node):
        snap = per_node[label] or {}
        merged["t"] = max(merged["t"], snap.get("t") or 0.0)
        if snap.get("network") and "network" not in merged:
            merged["network"] = snap["network"]
        node = snap.get("node") or label
        for name, p in (snap.get("processes") or {}).items():
            key = name if name not in merged["processes"] else f"{node}/{name}"
            entry = dict(p)
            entry["node"] = node
            merged["processes"][key] = entry
        for cname, c in (snap.get("channels") or {}).items():
            tgt = merged["channels"].setdefault(
                cname, {"grow_events": 0, "growers": []})
            for field in ("initial_capacity", "grown_to", "capacity",
                          "high_watermark", "buffered"):
                value = c.get(field)
                if value is not None:
                    tgt[field] = max(tgt.get(field) or 0, value)
            tgt["grow_events"] = (tgt.get("grow_events", 0)
                                  + (c.get("grow_events") or 0))
            for grower in c.get("growers") or ():
                if grower not in tgt["growers"]:
                    tgt["growers"].append(grower)
    return merged


# ---------------------------------------------------------------------------
# the analyzer
# ---------------------------------------------------------------------------

def _pow2ceil(n: float) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


def _wall_seconds(snapshot: Mapping[str, Any]) -> float:
    t = snapshot.get("t") or 0.0
    starts = [p["started"] for p in (snapshot.get("processes") or {}).values()
              if p.get("started") is not None]
    if not starts:
        return float(t)
    ends = [p.get("finished") if p.get("finished") is not None else t
            for p in (snapshot.get("processes") or {}).values()
            if p.get("started") is not None]
    return max(0.0, max(ends) - min(starts))


def _channel_stats(snapshot: Mapping[str, Any],
                   channel_map: Optional[Mapping[str, Mapping[str, Any]]]
                   ) -> Dict[str, Dict[str, Any]]:
    chans: Dict[str, Dict[str, Any]] = {}

    def entry(name: str) -> Dict[str, Any]:
        e = chans.get(name)
        if e is None:
            e = chans[name] = {"name": name, "read_blocked_s": 0.0,
                               "write_blocked_s": 0.0, "readers": {},
                               "writers": {}}
        return e

    for pname, p in (snapshot.get("processes") or {}).items():
        for key, secs in (p.get("blocked") or {}).items():
            mode, _, cname = key.partition(":")
            e = entry(cname)
            side = "readers" if mode == "read" else "writers"
            e[f"{mode}_blocked_s"] += secs
            e[side][pname] = e[side].get(pname, 0.0) + secs
    for cname, c in (snapshot.get("channels") or {}).items():
        e = entry(cname)
        for field in ("initial_capacity", "grown_to", "grow_events",
                      "growers", "capacity", "high_watermark", "buffered",
                      "fused"):
            if c.get(field) is not None:
                e[field] = c[field]
    for cname, e in chans.items():
        info = (channel_map or {}).get(cname) or {}
        e["producer"] = info.get("producer") or _top_key(e["writers"])
        e["consumer"] = info.get("consumer") or _top_key(e["readers"])
        if e.get("capacity") is None and info.get("capacity") is not None:
            e["capacity"] = info["capacity"]
        e["blocked_s"] = e["read_blocked_s"] + e["write_blocked_s"]
    return chans


def _top_key(scores: Mapping[str, float]) -> Optional[str]:
    return max(scores, key=lambda k: scores[k]) if scores else None


def _advise(ranked: List[Dict[str, Any]], wall: float,
            default_capacity: int) -> None:
    for e in ranked:
        if e.get("fused"):
            # the graph compiler bypassed this channel's ring with an
            # unbounded intra-chain pipe: capacity is moot, and its
            # occupancy reads zero by construction
            e["recommended_capacity"] = int(e.get("capacity")
                                            or default_capacity)
            e["reason"] = "fused into a chain by the graph compiler; keep"
            continue
        initial = e.get("initial_capacity") or default_capacity
        cap = e.get("capacity") or e.get("grown_to") or initial
        watermark = e.get("high_watermark") or 0
        grown = e.get("grown_to")
        if grown and grown > initial and e.get("grow_events"):
            e["recommended_capacity"] = int(grown)
            e["reason"] = (
                f"grew {initial}->{grown}B under Parks scheduling "
                f"({e['grow_events']} deadlock resolution(s)); "
                f"pre-size to the final capacity")
        elif wall > 0 and e["write_blocked_s"] > _PRESSURE_FRACTION * wall:
            e["recommended_capacity"] = _pow2ceil(max(cap, watermark) * 2)
            share = e["write_blocked_s"] / wall
            e["reason"] = (
                f"writers blocked {e['write_blocked_s']:.3f}s "
                f"({share:.0%} of wall); double the headroom")
        else:
            e["recommended_capacity"] = int(cap)
            e["reason"] = "no sustained write pressure; keep"


def _backpressure_chain(ranked: List[Dict[str, Any]],
                        chans: Mapping[str, Mapping[str, Any]],
                        procs: Mapping[str, Mapping[str, Any]],
                        utils: Mapping[str, float]
                        ) -> Tuple[List[dict], Optional[dict]]:
    """Walk from the hottest channel to the process causing the pressure.

    Write-blocked on a full channel points *downstream* (the consumer is
    not draining it); read-blocked on an empty channel points *upstream*
    (the producer is not filling it).  The walk stops at a process that
    is mostly running — the compute-bound root cause — or when the chain
    cycles (a feedback loop: every member is part of the cause).
    """
    if not ranked or ranked[0]["blocked_s"] <= 0:
        return [], None
    top = ranked[0]
    mode = "write" if top["write_blocked_s"] >= top["read_blocked_s"] else "read"
    chain: List[dict] = []
    visited: set = set()
    current, root = top["name"], None
    for _ in range(64):
        chain.append({"kind": "channel", "name": current, "mode": mode})
        info = chans.get(current) or {}
        pname = info.get("consumer") if mode == "write" else info.get("producer")
        if not pname or pname in visited:
            break
        visited.add(pname)
        util = utils.get(pname, 0.0)
        chain.append({"kind": "process", "name": pname, "utilization": util})
        blocked = (procs.get(pname) or {}).get("blocked") or {}
        if util >= 0.5 or not blocked:
            root = {"process": pname, "utilization": util,
                    "why": "compute-bound" if util >= 0.5 else "terminal"}
            break
        key = max(blocked, key=lambda k: blocked[k])
        mode, _, current = key.partition(":")
    if root is None:
        members = [c for c in chain if c["kind"] == "process"]
        if members:
            root = {"process": members[-1]["name"],
                    "utilization": members[-1]["utilization"],
                    "why": "backpressure cycle"}
    return chain, root


def analyze(snapshot: Mapping[str, Any],
            channel_map: Optional[Mapping[str, Mapping[str, Any]]] = None
            ) -> dict:
    """Turn one snapshot (plus the graph's producer/consumer map) into a
    bottleneck report with a capacity-advisor spec attached.

    ``channel_map`` is :meth:`repro.kpn.network.Network.channel_map`
    output; without it, producers/consumers are inferred from who blocked
    on each channel (enough for merged cluster snapshots).
    """
    # stands in where a hand-built or shipped snapshot lacks a capacity
    from repro.kpn.buffers import DEFAULT_CAPACITY as default_capacity
    wall = _wall_seconds(snapshot)
    procs = snapshot.get("processes") or {}
    utils = process_utilization(snapshot)
    chans = _channel_stats(snapshot, channel_map)
    ranked = sorted(chans.values(), key=lambda e: -e["blocked_s"])
    _advise(ranked, wall, default_capacity)
    chain, root = _backpressure_chain(ranked, chans, procs, utils)
    processes = []
    for name in sorted(procs, key=lambda n: utils.get(n, 0.0)):
        p = procs[name]
        processes.append({
            "name": name, "node": p.get("node"), "kind": p.get("kind"),
            "utilization": utils.get(name, 0.0),
            "running_s": p.get("running_s", 0.0),
            "blocked_s": sum((p.get("blocked") or {}).values()),
            "state": p.get("state"), "channel": p.get("channel"),
        })
    spec = {
        "version": 1,
        "network": snapshot.get("network") or snapshot.get("node") or "network",
        "source": "repro.telemetry.profile capacity advisor",
        "wall_s": round(wall, 6),
        "default_capacity": default_capacity,
        "channels": {e["name"]: {"initial_capacity": e["recommended_capacity"],
                                 "reason": e["reason"]}
                     for e in ranked if not e.get("fused")},
    }
    return {"network": spec["network"], "node": snapshot.get("node"),
            "wall_s": wall, "processes": processes, "channels": ranked,
            "chain": chain, "root_cause": root, "spec": spec}


def write_capacity_spec(report: Mapping[str, Any], path: str) -> str:
    """Write the report's capacity-advisor spec as JSON; returns ``path``.

    The file is the graph compiler's future input: ``{"channels":
    {name: {"initial_capacity": bytes, "reason": ...}}}``.
    """
    with open(path, "w") as fh:
        json.dump(report["spec"], fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def fold_stacks(snapshot: Mapping[str, Any]) -> List[str]:
    """Folded-stack lines (``a;b;c <microseconds>``) for flamegraph tools.

    One frame chain per attribution bucket: ``node;process;running`` and
    ``node;process;<mode>-blocked;<channel>``.
    """
    node = snapshot.get("node") or "local"
    lines: List[str] = []
    for name, p in sorted((snapshot.get("processes") or {}).items()):
        usec = int(p.get("running_s", 0.0) * 1e6)
        if usec > 0:
            lines.append(f"{node};{name};running {usec}")
        for key, secs in sorted((p.get("blocked") or {}).items()):
            mode, _, cname = key.partition(":")
            usec = int(secs * 1e6)
            if usec > 0:
                lines.append(f"{node};{name};{mode}-blocked;{cname} {usec}")
    return lines


def render_profile(report: Mapping[str, Any], top: int = 10) -> str:
    """The ranked bottleneck report as text (``repro profile`` output)."""
    lines = [
        f"profile: {report.get('network')} — wall {report['wall_s']:.3f}s, "
        f"{len(report['processes'])} process(es), "
        f"{len(report['channels'])} channel(s)",
        "",
        "bottleneck channels (by blocked time):",
        f"  {'#':>2} {'CHANNEL':<22} {'PRODUCER->CONSUMER':<28} "
        f"{'RD-BLK':>8} {'WR-BLK':>8} {'CAP':>8} {'GROWN':>7} {'ADVISE':>8}",
    ]
    for i, e in enumerate(report["channels"][:top], start=1):
        pair = f"{e.get('producer') or '?'}->{e.get('consumer') or '?'}"
        grown = e.get("grown_to") or "-"
        cap = e.get("capacity") or e.get("initial_capacity") or "?"
        lines.append(
            f"  {i:>2} {e['name']:<22} {pair:<28} "
            f"{e['read_blocked_s']:>8.3f} {e['write_blocked_s']:>8.3f} "
            f"{str(cap):>8} {str(grown):>7} {e['recommended_capacity']:>8}")
    hidden = len(report["channels"]) - top
    if hidden > 0:
        lines.append(f"  ... {hidden} more channel(s) not shown")
    lines += ["", "process utilization:",
              f"  {'PROCESS':<22} {'UTIL':>6} {'RUN-s':>8} {'BLK-s':>8}  STATE"]
    for p in report["processes"]:
        state = p.get("state") or "?"
        if p.get("channel"):
            state = f"{state} on {p['channel']}"
        label = f"{p['node']}/{p['name']}" if p.get("node") else p["name"]
        lines.append(f"  {label:<22} {p['utilization']:>6.1%} "
                     f"{p['running_s']:>8.3f} {p['blocked_s']:>8.3f}  {state}")
    chain = report.get("chain") or []
    if chain:
        hops = []
        for item in chain:
            if item["kind"] == "channel":
                hops.append(f"[{item['name']} {item['mode']}-blocked]")
            else:
                hops.append(f"{item['name']}({item['utilization']:.0%})")
        lines += ["", f"backpressure chain: {' -> '.join(hops)}"]
    root = report.get("root_cause")
    if root:
        lines.append(f"root cause: {root['process']} "
                     f"({root['why']}, utilization {root['utilization']:.0%})")
    grows = [e for e in report["channels"]
             if e["recommended_capacity"] != (
                 e.get("capacity") or e.get("initial_capacity")
                 or report["spec"]["default_capacity"])]
    lines.append(f"capacity advisor: {len(grows)} channel(s) should be "
                 f"pre-sized; see the spec file for all "
                 f"{len(report['channels'])} recommendation(s)")
    return "\n".join(lines)
