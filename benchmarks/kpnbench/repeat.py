"""One repeat of one workload, in an interpreter of its own.

Cold set-up, the closed-loop phase, the paced phase, teardown.  The
driver (:mod:`kpnbench.runner`) starts one through :mod:`kpnbench.child`
and takes the medians.  A fresh interpreter per repeat is what makes
``setup_s`` a cold start, and keeps one repeat's garbage, warmed caches
and leaked threads out of the next.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from kpnbench import host
from kpnbench.spans import Recorder
from kpnbench.workloads import WORKLOADS, Context, Sizes


def percentile(sorted_values, share: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(share * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def closed_slices(sent, received, items: int, weight: int) -> list:
    """[items, wall s, cpu s] of each full slice of the closed phase.

    A slice's wall time is the longer of the time the source took to
    send its items and the time the sink took to receive them: the
    channels and sockets between the two hold a good part of a slice, and
    neither filling them nor draining them is the program's speed.
    """
    sent_at = dict(sent)

    def one(first, last) -> list:
        (i0, t0, c0), (i1, t1, c1) = first, last
        wall = max(t1 - t0, sent_at[i1] - sent_at[i0])
        return [(i1 - i0) * weight, wall, c1 - c0]

    full = [one(a, b) for a, b in zip(received, received[1:])
            if b[0] - a[0] == items]
    # a phase shorter than a slice (smoke sizes) is one slice
    return full or [one(received[0], received[-1])]


def run_repeat(cfg: Dict[str, Any]) -> Dict[str, Any]:
    t_enter = time.monotonic()
    workload = WORKLOADS[cfg["workload"]]
    sizes = Sizes(**cfg["sizes"])
    recorder = (Recorder(cfg["run"], cfg.get("first_span_id", 0))
                if cfg.get("trace") else None)
    ctx = Context(cfg["seed"], sizes, recorder, cfg.get("fault"),
                  cfg.get("child_cpu"))

    t = time.monotonic()
    with ctx.span("harness.prepare"):   # the benchmark's work, not the program's
        inputs = workload.prepare(ctx)
    prepare_s = time.monotonic() - t

    error = None
    finished = False
    t_ready = None
    try:
        with ctx.span("setup"):
            workload.setup(ctx, inputs)
        t_ready = time.monotonic()
        ctx.go.set()
        finished = ctx.network.join(timeout=cfg["timeout"])
    except Exception as exc:  # noqa: BLE001 - a crash fails the remaining items
        error = f"{type(exc).__name__}: {exc}"
    if t_ready is None:                 # it never came up: charge it all
        t_ready = time.monotonic()

    rss = host.peak_rss_mb(ctx.children)
    with ctx.span("teardown"):
        if ctx.network is not None and not finished:
            ctx.network.shutdown()
            try:
                ctx.network.join(timeout=5.0)
            except Exception:  # noqa: BLE001 - already recorded as failed items
                pass
        for close in reversed(ctx.closers):
            close()

    load, sink = ctx.load, ctx.sink
    received = sink.count if sink is not None else 0
    wrong = sink.wrong if sink is not None else 0
    result: Dict[str, Any] = {
        "workload": workload.name,
        "run": cfg["run"],
        "attempted": sizes.total,
        "failed": wrong + (sizes.total - received),
        "wrong": wrong,
        "missing": sizes.total - received,
        "error": error if error or finished else "timeout",
        "setup_s": t_ready - cfg["t_spawn"] - prepare_s,
        "peak_rss_mb": rss,
        "facts": ctx.facts,
    }
    weight = workload.weight
    if sink is not None and len(sink.marks) >= 2:
        (i_warm, t_warm, cpu_warm), (i_end, t_end, cpu_end) = (
            sink.marks[0], sink.marks[-1])
        counted = (i_end - i_warm) * weight
        result["items_per_s"] = counted / (t_end - t_warm)
        result["cpu_ms_per_item"] = (cpu_end - cpu_warm) * 1000.0 / counted
        result["closed_slices"] = closed_slices(load.marks, sink.marks,
                                                sizes.closed_slice, weight)
        if recorder is not None and i_end == sizes.closed - 1:
            recorder.add("run.closed", load.t_first, t_end)
    if sink is not None and len(sink.received):
        lat = [(got - due) * 1000.0
               for got, due in zip(sink.received, load.due)]
        step = min(sizes.paced_slice, len(lat))
        # the median latency of each full slice
        result["paced_slices"] = [
            percentile(sorted(lat[k:k + step]), 0.50)
            for k in range(0, len(lat) - step + 1, step)]
        lat.sort()
        result["latency_n"] = len(lat)
        result["latency_p50_ms"] = percentile(lat, 0.50)
        result["latency_p99_ms"] = percentile(lat, 0.99)
        result["gen_max_late_ms"] = load.max_late * 1000.0
        if recorder is not None:
            recorder.add("run.paced", load.t0, sink.received[-1])
    if ctx.network is not None:
        result["growth_events"] = len(ctx.network.growth_events())
    if workload.name == "farm_telemetry":
        from repro import TELEMETRY
        result["telemetry_events_per_item"] = (
            TELEMETRY.events_emitted / max(1, received))
    if recorder is not None:
        result["spans"] = recorder.spans
        result["t_enter"] = t_enter
    return result
