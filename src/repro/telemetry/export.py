"""Telemetry exporters: Chrome trace JSON, Prometheus text, cluster report.

Three consumers of the data :mod:`repro.telemetry.core` collects:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the hub's event ring
  as a Chrome trace-event JSON object (the ``traceEvents`` array format),
  loadable in Perfetto / ``chrome://tracing``.  Process lifecycle spans and
  blocked-read/blocked-write spans become nested slices per thread;
  capacity growths and deadlock verdicts become instants.
* :func:`prometheus_text` — a counter snapshot in the Prometheus text
  exposition format (``repro metrics <host:port>`` prints this).
* :func:`merge_counters` / :func:`cluster_report` — sum per-server counter
  snapshots into one cluster-wide view, the metrics analogue of how a
  driver's deadlock monitor merges its sites' ``wait_snapshot`` replies.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, Iterable, List, Mapping, Optional

from repro.telemetry.core import TELEMETRY, Event, HistogramData, parse_key

__all__ = ["chrome_trace", "write_chrome_trace", "prometheus_text",
           "profile_gauges", "merge_counters", "cluster_report"]


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------

def chrome_trace(events: Optional[Iterable[Event]] = None,
                 pid: Optional[int] = None,
                 process_name: str = "repro") -> dict:
    """Render events as a Chrome trace-event JSON object.

    ``events`` defaults to the global hub's current ring buffer.  Chrome
    timestamps are microseconds; the hub records seconds since its epoch.
    """
    if events is None:
        events = TELEMETRY.events()
    if pid is None:
        pid = os.getpid()
    trace: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": pid,
        "args": {"name": process_name},
    }]
    seen_tids: set[int] = set()
    for e in events:
        if e.tid not in seen_tids:
            seen_tids.add(e.tid)
            trace.append({"name": "thread_name", "ph": "M", "pid": pid,
                          "tid": e.tid, "args": {"name": e.thread_name}})
        item: dict = {"name": e.name, "cat": e.category or "repro",
                      "ph": e.phase, "ts": e.ts * 1e6, "pid": pid,
                      "tid": e.tid}
        args = dict(e.args) if e.args else {}
        if e.phase == "i":
            item["s"] = "t"  # instant scoped to its thread
        elif e.phase in ("s", "t", "f"):
            # flow events: the id pairs a start on one thread/node with
            # the end on another; "bp": "e" binds the end to its
            # enclosing slice (the rpc.execute span).
            item["id"] = args.pop("flow_id", 0)
            if e.phase == "f":
                item["bp"] = "e"
        if args:
            item["args"] = args
        trace.append(item)
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, events: Optional[Iterable[Event]] = None,
                       pid: Optional[int] = None,
                       process_name: str = "repro") -> str:
    """Write :func:`chrome_trace` output to ``path``; returns the path."""
    doc = chrome_trace(events, pid=pid, process_name=process_name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str) -> str:
    flat = _NAME_OK.sub("_", name)
    return f"{prefix}_{flat}" if prefix else flat


#: quantiles exposed per histogram in the Prometheus summary blocks
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def _as_histogram(data) -> HistogramData:
    if isinstance(data, HistogramData):
        return data
    return HistogramData.from_snapshot(data)


def prometheus_text(counters: Optional[Mapping[str, float]] = None,
                    prefix: str = "repro",
                    histograms: Optional[Mapping[str, object]] = None,
                    gauges: Optional[Mapping[str, float]] = None) -> str:
    """Render counter + histogram + gauge snapshots in the Prometheus
    text format.

    ``counters`` is a flat ``{rendered_key: value}`` snapshot (the shape
    :meth:`TelemetryHub.counters` and the ``metrics`` RPC op produce);
    defaults to the global hub's counters.  ``histograms`` maps rendered
    keys to :class:`HistogramData` objects or their picklable
    :meth:`~HistogramData.snapshot` dicts (what the ``metrics`` op ships)
    and defaults to the global hub's histograms when ``counters`` is
    defaulted too; each becomes a ``summary`` block with p50/p95/p99
    quantile lines plus ``_sum`` and ``_count``.  ``gauges`` is a flat
    snapshot like ``counters`` (:meth:`TelemetryHub.gauges` or
    :func:`profile_gauges` output), rendered as ``gauge`` blocks; it also
    defaults to the hub's when ``counters`` is defaulted.
    """
    if counters is None:
        counters = TELEMETRY.counters()
        if histograms is None:
            histograms = TELEMETRY.histograms()
        if gauges is None:
            gauges = TELEMETRY.gauges()
    hists: Dict[str, tuple] = {}
    hist_names: set = set()
    for key, data in (histograms or {}).items():
        name, labels = parse_key(key)
        hist_names.add(name)
        hists.setdefault(name, ())
        hists[name] = hists[name] + ((labels, _as_histogram(data)),)
    #: counters() folds histograms in as name.count/.sum/.max — drop those
    #: flat keys when the full histogram is being rendered as a summary.
    folded = {f"{n}.{suffix}" for n in hist_names
              for suffix in ("count", "sum", "max")}
    by_name: Dict[str, List[tuple]] = {}
    for key, value in counters.items():
        name, labels = parse_key(key)
        if name in folded:
            continue
        by_name.setdefault(name, []).append((labels, value))
    lines: List[str] = []
    for name in sorted(by_name):
        prom = _prom_name(name, prefix)
        lines.append(f"# TYPE {prom} counter")
        for labels, value in sorted(by_name[name]):
            if labels:
                inner = ",".join(f'{k}="{v}"' for k, v in labels)
                lines.append(f"{prom}{{{inner}}} {value:g}")
            else:
                lines.append(f"{prom} {value:g}")
    gauge_by_name: Dict[str, List[tuple]] = {}
    for key, value in (gauges or {}).items():
        name, labels = parse_key(key)
        gauge_by_name.setdefault(name, []).append((labels, value))
    for name in sorted(gauge_by_name):
        prom = _prom_name(name, prefix)
        lines.append(f"# TYPE {prom} gauge")
        for labels, value in sorted(gauge_by_name[name]):
            if labels:
                inner = ",".join(f'{k}="{v}"' for k, v in labels)
                lines.append(f"{prom}{{{inner}}} {value:g}")
            else:
                lines.append(f"{prom} {value:g}")
    for name in sorted(hists):
        prom = _prom_name(name, prefix)
        lines.append(f"# TYPE {prom} summary")
        for labels, hist in sorted(hists[name], key=lambda p: p[0]):
            for q in SUMMARY_QUANTILES:
                q_labels = labels + (("quantile", f"{q:g}"),)
                inner = ",".join(f'{k}="{v}"' for k, v in q_labels)
                lines.append(f"{prom}{{{inner}}} {hist.quantile(q):g}")
            suffix_inner = ",".join(f'{k}="{v}"' for k, v in labels)
            braces = f"{{{suffix_inner}}}" if labels else ""
            lines.append(f"{prom}_sum{braces} {hist.total:g}")
            lines.append(f"{prom}_count{braces} {hist.count:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def profile_gauges(snapshot: Mapping[str, object]) -> Dict[str, float]:
    """Flat gauge snapshot derived from a profiler snapshot.

    Lets a shipped (or merged) :meth:`Profiler.snapshot` dict be rendered
    as Prometheus gauges even when the originating hub is out of reach:
    per-channel occupancy/capacity/high-watermark and per-process
    utilization, keyed exactly like :meth:`TelemetryHub.gauges` output.
    """
    from repro.telemetry.profile import process_utilization

    out: Dict[str, float] = {}
    for cname, c in (snapshot.get("channels") or {}).items():
        for field, metric in (("buffered", "kpn.channel.occupancy_bytes"),
                              ("capacity", "kpn.channel.capacity_bytes"),
                              ("high_watermark",
                               "kpn.channel.high_watermark_bytes")):
            value = c.get(field)
            if value is not None:
                out[f'{metric}{{channel={cname}}}'] = float(value)
    for pname, util in process_utilization(snapshot).items():
        out[f'kpn.process.utilization{{process={pname}}}'] = round(util, 4)
    return out


# ---------------------------------------------------------------------------
# cluster-wide aggregation
# ---------------------------------------------------------------------------

def merge_counters(snapshots: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Sum flat counter snapshots key-by-key (cluster-wide totals)."""
    merged: Dict[str, float] = {}
    for snap in snapshots:
        for key, value in snap.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def cluster_report(per_server: Mapping[str, Mapping[str, float]],
                   top: int = 0) -> str:
    """Human-readable merged report over per-server counter snapshots.

    ``per_server`` maps server name -> flat counter snapshot (what
    ``ServerClient.metrics()[\"counters\"]`` returns).  Lists the
    cluster-wide total for every counter, with the per-server breakdown
    inline; ``top`` > 0 limits the listing to the largest ``top`` totals.
    """
    names = sorted(per_server)
    merged = merge_counters(per_server.values())
    lines = [f"cluster metrics over {len(names)} server(s): {', '.join(names)}"]
    keys = sorted(merged, key=lambda k: -abs(merged[k]))
    if top:
        keys = keys[:top]
    for key in sorted(keys):
        parts = []
        for name in names:
            v = per_server[name].get(key)
            if v:
                parts.append(f"{name}={v:g}")
        breakdown = f"  ({', '.join(parts)})" if len(names) > 1 and parts else ""
        lines.append(f"  {key} = {merged[key]:g}{breakdown}")
    return "\n".join(lines)
