"""Telemetry wired into the KPN runtime, the Tracer, and the farm."""

import time

from repro.kpn import IterativeProcess, Network
from repro.kpn.tracing import Tracer
from repro.parallel import CallableTask, RangeProducerTask, build_farm
from repro.processes import Collect, MapProcess, Sequence
from repro.processes.codecs import LONG
from repro.processes.networks import modulo_merge

from tests.conftest import run_network


class _SlowCollect(IterativeProcess):
    """Reads one long per step with a delay — forces writers to block."""

    def __init__(self, source, into, delay):
        super().__init__()
        self.source = source
        self.into = into
        self.delay = delay
        self.track(source)

    def step(self):
        self.into.append(LONG.read(self.source))
        time.sleep(self.delay)


def _build_pipeline(net, n=10):
    raw, squared = net.channels_n(2)
    out = []
    net.add(Sequence(raw.get_output_stream(), start=1, iterations=n))
    net.add(MapProcess(raw.get_input_stream(), squared.get_output_stream(),
                       lambda x: x * x))
    net.add(Collect(squared.get_input_stream(), out))
    return out


# ---------------------------------------------------------------------------
# KPN pipeline: byte counters and span ordering
# ---------------------------------------------------------------------------

def test_pipeline_byte_counters_match_buffer_totals(hub):
    net = Network(name="telemetry-pipe")
    out = _build_pipeline(net, n=10)
    run_network(net)
    assert out == [k * k for k in range(1, 11)]
    for ch in net.channels:
        written = hub.counter("kpn.channel.bytes_written", channel=ch.name)
        read = hub.counter("kpn.channel.bytes_read", channel=ch.name)
        assert written == ch.buffer.total_written
        assert read == written  # fully drained pipeline
        assert written > 0
    assert hub.counter("kpn.channel.created") >= 2


def test_pipeline_process_spans_are_ordered_and_balanced(hub):
    net = Network(name="telemetry-spans")
    _build_pipeline(net, n=10)
    run_network(net)
    spans = [e for e in hub.events() if e.category == "kpn.process"]
    by_name = {}
    for e in spans:
        by_name.setdefault(e.name, []).append(e)
    assert len(by_name) == 3  # Sequence, MapProcess, Collect
    for name, events in by_name.items():
        phases = [e.phase for e in events]
        assert phases == ["B", "E"], f"{name}: {phases}"
        begin, end = events
        assert begin.ts <= end.ts
        assert begin.tid == end.tid  # a process lives on one thread
        assert "reason" in end.args and "steps" in end.args
    assert hub.counter("kpn.process.started") == 3
    terminated = sum(v for k, v in hub.counters().items()
                     if k.startswith("kpn.process.terminated"))
    assert terminated == 3


def test_blocking_spans_appear_when_capacity_is_tight(hub):
    net = Network(name="telemetry-block")
    src = net.channel(8, name="tight")  # one long: the writer must block
    out = []
    net.add(Sequence(src.get_output_stream(), start=1, iterations=10))
    net.add(_SlowCollect(src.get_input_stream(), out, delay=0.001))
    run_network(net)
    assert out == list(range(1, 11))
    assert hub.counter("kpn.channel.write_blocks", channel="tight") > 0
    blocks = [e for e in hub.events() if e.name == "block.write"]
    assert blocks and blocks[0].phase == "B"
    assert [e.phase for e in blocks].count("B") == \
        [e.phase for e in blocks].count("E")


# ---------------------------------------------------------------------------
# Parks scheduling: growth instants + deadlock counters
# ---------------------------------------------------------------------------

def test_growth_emits_instants_and_counters(hub):
    net = Network()
    built = modulo_merge(200, divisor=10, network=net, channel_capacity=16)
    assert built.run(timeout=60) == list(range(1, 201))
    grows = [e for e in hub.events() if e.name == "channel.grow"]
    assert grows, "expected channel.grow instants"
    for e in grows:
        assert e.phase == "i"
        assert e.args["new"] > e.args["old"]
    assert hub.counter("kpn.scheduler.artificial_deadlocks") >= 1
    grown_total = sum(v for k, v in hub.counters().items()
                      if k.startswith("kpn.channel.grow_events"))
    assert grown_total == len(grows)


# ---------------------------------------------------------------------------
# Tracer: bus-fed growth events + stop() sampling order (satellite fix)
# ---------------------------------------------------------------------------

def test_tracer_collects_growths_from_event_bus(hub):
    net = Network()
    built = modulo_merge(200, divisor=10, network=net, channel_capacity=16)
    with Tracer(net, period=0.002) as tracer:
        assert built.run(timeout=60) == list(range(1, 201))
    report = tracer.report()
    assert report.growth_events
    known = {ch.name for ch in net.channels}
    assert all(g["channel"] in known for g in report.growth_events)


def test_tracer_final_sample_lands_before_frozen_duration():
    """stop() must take its last census *before* freezing _elapsed, and no
    sample timestamp may exceed the reported duration (the old ordering
    produced timeline points past the end of the trace)."""
    net = Network(name="tracer-order")
    _build_pipeline(net, n=50)
    tracer = Tracer(net, period=0.001).start()
    run_network(net)
    time.sleep(0.02)  # let a few idle samples land
    tracer.stop()
    report = tracer.report()
    assert report.duration > 0
    for t, _r, _w in report.blocked_timeline:
        assert t <= report.duration + 1e-9
    for ch in report.channels.values():
        for t, _occ in ch.occupancy:
            assert t <= report.duration + 1e-9
        # stop()'s final sample sees the post-run totals
        assert ch.total_bytes == net.channel_by_name(ch.name).buffer.total_written


# ---------------------------------------------------------------------------
# parallel farm: per-worker counts, shares, latencies
# ---------------------------------------------------------------------------

def test_farm_load_accounting_and_latencies(hub):
    n_tasks, n_workers = 24, 3
    handle = build_farm(
        RangeProducerTask(n_tasks, lambda i: CallableTask(pow, i, 2)),
        n_workers=n_workers, mode="dynamic")
    assert handle.run(timeout=60) == [i * i for i in range(n_tasks)]
    harness = handle.harness
    counts = harness.task_counts()
    assert set(counts) == {f"Worker-{i}" for i in range(n_workers)}
    assert sum(counts.values()) == n_tasks
    shares = harness.load_shares()
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    latencies = harness.latency_report()
    for name, stats in latencies.items():
        assert stats["count"] == counts[name]
        assert stats["max"] >= stats["min"] >= 0
    assert sum(s["count"] for s in latencies.values()) == n_tasks
    assert hub.counter("parallel.tasks_produced", producer="Producer") == n_tasks
    assert hub.counter("parallel.results_consumed", consumer="Consumer") == n_tasks


def test_farm_task_counts_from_explicit_snapshot(hub):
    n_tasks = 12
    handle = build_farm(
        RangeProducerTask(n_tasks, lambda i: CallableTask(abs, -i)),
        n_workers=2, mode="static")
    handle.run(timeout=60)
    snapshot = hub.counters()
    hub.reset()  # live hub wiped: only the snapshot can answer now
    counts = handle.harness.task_counts(snapshot)
    assert sum(counts.values()) == n_tasks
