"""repro.telemetry — low-overhead observability for all three layers.

* :mod:`repro.telemetry.core` — the process-wide event bus, counter
  registry, and latency histograms behind the :data:`TELEMETRY` hub;
* :mod:`repro.telemetry.export` — Chrome trace-event JSON (Perfetto),
  Prometheus text exposition, and cluster-wide merged reports;
* :mod:`repro.telemetry.clock` — NTP-style clock-offset estimation that
  maps every server's hub clock onto one cluster timeline;
* :mod:`repro.telemetry.distributed` — trace-context propagation across
  the wire, merged multi-node traces, and the ``repro top`` renderer;
* :mod:`repro.telemetry.profile` — the continuous KPN profiler behind
  the :data:`PROFILER` accounting layer (blocked-time attribution,
  bottleneck analysis, the buffer-capacity advisor).

Quickstart::

    from repro.telemetry import TELEMETRY
    from repro.telemetry.export import write_chrome_trace

    TELEMETRY.enable()
    ...run a network...
    print(TELEMETRY.counters()["kpn.channel.bytes_written{channel=ch-0}"])
    write_chrome_trace("trace.json")
"""

import os

from repro._lazy import lazy_exports
from repro.telemetry.core import (Event, HistogramData, TELEMETRY,
                                  TelemetryHub, render_key)

# the runtime only needs the hub; exporters, clock sync, the profiler and
# the trace merger load when first used
__getattr__ = lazy_exports(__name__, {
    "export": ("chrome_trace", "cluster_report", "merge_counters",
               "profile_gauges", "prometheus_text", "write_chrome_trace"),
    "clock": ("OffsetEstimate", "ProbeSample", "estimate_offset"),
    "profile": ("PROFILER", "Profiler", "analyze", "fold_stacks",
                "merge_profiles", "process_utilization", "render_profile",
                "write_capacity_spec"),
    "distributed": ("TraceContext", "current_context", "event_to_dict",
                    "merge_node_traces", "render_top", "write_merged_trace"),
})

if os.environ.get("REPRO_PROFILE"):
    # the profiler's module reads the variable and switches itself on
    # process-wide when it is imported; asked for, it cannot be deferred
    from repro.telemetry import profile as _profile  # noqa: F401

__all__ = [
    "Event", "HistogramData", "TELEMETRY", "TelemetryHub", "render_key",
    "chrome_trace", "cluster_report", "merge_counters", "profile_gauges",
    "prometheus_text", "write_chrome_trace",
    "OffsetEstimate", "ProbeSample", "estimate_offset",
    "PROFILER", "Profiler", "analyze", "fold_stacks", "merge_profiles",
    "process_utilization", "render_profile", "write_capacity_spec",
    "TraceContext", "current_context", "event_to_dict", "merge_node_traces",
    "render_top", "write_merged_trace",
]
