"""Network.census(): the channel keeps its own record (initial capacity,
capacity, exact high-water mark, bytes through, every capacity change
with its cause) and every observer — Tracer, profiler, capacity advisor,
visualiser, growth_events() — reads it instead of keeping a copy."""

import pytest

from repro.kpn import Network, Tracer
from repro.kpn.visual import to_ascii, to_dot
from repro.parallel import CallableTask, RangeProducerTask
from repro.parallel.farm import build_farm
from repro.processes import (Collect, FromIterable, Scale, Sequence,
                             fibonacci, hamming, modulo_merge, newton_sqrt,
                             primes)
from repro.telemetry.core import TELEMETRY
from repro.telemetry.profile import PROFILER, analyze


def _farm(mode):
    return build_farm(RangeProducerTask(8, lambda i: CallableTask(pow, i, 2)),
                      n_workers=3, mode=mode)


BUILDERS = {
    "fibonacci": lambda: fibonacci(10),
    "primes": lambda: primes(count=10),
    "hamming": lambda: hamming(15, channel_capacity=16),    # Parks growth
    "newton": lambda: newton_sqrt(2.0),
    "fig13": lambda: modulo_merge(60, 10, channel_capacity=16),
    "farm-static": lambda: _farm("static"),
    "farm-dynamic": lambda: _farm("dynamic"),
}


@pytest.fixture
def telemetry_off_again():
    yield
    PROFILER.disable().reset()
    TELEMETRY.disable().reset()


def pipeline(iterations=2000):
    net = Network()
    a, b = net.channel(64, name="a"), net.channel(64, name="b")
    out = []
    net.add(Sequence(a.get_output_stream(), iterations=iterations))
    net.add(Scale(a.get_input_stream(), b.get_output_stream(), 3))
    net.add(Collect(b.get_input_stream(), out))
    return net, out


# ---------------------------------------------------------------------------
# one record, many readers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
@pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("which", sorted(BUILDERS))
def test_every_reader_reports_the_channels_own_record(
        which, telemetry, fused, telemetry_off_again):
    if telemetry:
        PROFILER.reset().enable()
    built = BUILDERS[which]()
    net = built.network
    if fused:
        net.optimize()
    with Tracer(net, period=0.002) as tracer:
        built.run(timeout=120)

    census = net.census()
    traced = tracer.report().channels
    profiled = PROFILER.snapshot(network=net)["channels"]
    dot, text = to_dot(net), to_ascii(net)
    assert set(census["channels"]) == set(traced) == set(profiled) \
        == {ch.name for ch in net.channels}
    for ch in net.channels:
        row = census["channels"][ch.name]
        facts = (row["capacity"], row["initial_capacity"],
                 row["high_watermark"], row["total_written"])
        assert facts == (ch.buffer.capacity, ch.buffer.initial_capacity,
                         ch.buffer.high_watermark, ch.buffer.total_written)
        t, p, o = traced[ch.name], profiled[ch.name], ch.occupancy()
        assert (t.capacity_final, t.capacity_initial, t.high_water,
                t.total_bytes) == facts
        for reader in (p, o):
            assert (reader["capacity"], reader["initial_capacity"],
                    reader["high_watermark"],
                    reader["total_written"]) == facts
        assert t.fused == row["fused"] == ch.fused \
            == bool(p.get("fused")) == bool(o.get("fused"))
        note = ("fused" if ch.fused else f"{row['total_written']}B, "
                f"hw {row['high_watermark']}/{row['capacity']}")
        assert f'"{ch.name}\\n{note}"' in dot
        assert f"--{ch.name}-->" in text and f"[{note}]" in text
        assert row["initial_capacity"] <= row["capacity"]
        assert row["high_watermark"] <= row["capacity"]
        assert t.peak_utilization <= 1
        assert t.grew == (p["grown_to"] is not None) \
            == any(g["channel"] == ch.name for g in census["growths"])
    # the growth list is one chronological record, and growth_events()
    # and the profile's counts are views of it
    stamps = [g["t"] for g in census["growths"]]
    assert stamps == sorted(stamps)
    assert [(e.channel_name, e.old_capacity, e.new_capacity)
            for e in net.growth_events()] \
        == [(g["channel"], g["old"], g["new"]) for g in census["growths"]]
    assert sum(p["grow_events"] for p in profiled.values()) \
        == len(census["growths"])
    names = [p.name for p in net.topology().leaves]
    assert len(names) == len(set(names))


def test_two_stage_pipeline_has_one_high_water_mark():
    net, out = pipeline()
    with Tracer(net, period=0.001) as tracer:
        net.run(timeout=60)
    assert out == [3 * k for k in range(2000)]
    report = tracer.report()
    profile = PROFILER.snapshot(network=net)["channels"]
    for name in "ab":
        # polled ring + read-ahead used to reach 120 B "of 64"
        assert report.channels[name].high_water == 64 \
            == profile[name]["high_watermark"]
        assert report.channels[name].peak_utilization == 1.0
    assert report.total_bytes_moved() == 2 * 2000 * 8


# ---------------------------------------------------------------------------
# the initial capacity is remembered by the channel, not by whoever
# happened to be listening when it was created
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", ["enable-then-build", "build-then-enable"])
def test_advisor_does_not_depend_on_when_the_profiler_was_enabled(
        order, telemetry_off_again):
    def advice():
        if order == "enable-then-build":
            PROFILER.reset().enable()
        net = Network(name="advised")
        net.channel(16, name="x")
        net.channel(name="y")
        if order == "build-then-enable":
            PROFILER.reset().enable()
        assert net.grow_channel("x", 64, "writer")
        report = analyze(PROFILER.snapshot(network=net), net.channel_map())
        return {e["name"]: (e["initial_capacity"], e.get("grown_to"),
                            e["recommended_capacity"], e["reason"])
                for e in report["channels"]}

    assert advice() == {
        "x": (16, 64, 64, "grew 16->64B under Parks scheduling (1 deadlock "
                          "resolution(s)); pre-size to the final capacity"),
        "y": (1024, None, 1024, "no sustained write pressure; keep"),
    }


@pytest.mark.parametrize("order", ["enable-then-build", "build-then-enable"])
def test_hamming_advice_knows_every_initial_capacity(
        order, telemetry_off_again):
    if order == "enable-then-build":
        PROFILER.reset().enable()
    built = hamming(40, channel_capacity=16)
    if order == "build-then-enable":
        PROFILER.reset().enable()
    built.run(timeout=120)
    net = built.network
    report = analyze(PROFILER.snapshot(network=net), net.channel_map())
    grown = [e for e in report["channels"] if e.get("grown_to")]
    assert grown, "16-byte channels must have grown"
    for e in report["channels"]:
        assert e["initial_capacity"] == 16
        assert e["high_watermark"] <= e["capacity"]
    for e in grown:
        assert e["recommended_capacity"] == e["capacity"] == e["grown_to"]
        assert e["reason"].startswith(
            f"grew 16->{e['capacity']}B under Parks scheduling "
            f"({e['grow_events']} deadlock resolution(s))")


# ---------------------------------------------------------------------------
# one growth book: every capacity change, each with its cause
# ---------------------------------------------------------------------------

def test_compiler_presize_is_not_a_parks_resolution(telemetry_off_again):
    PROFILER.reset().enable()
    net = Network()
    b = net.channel(64, name="b")
    out = []
    # a custom run loop is never fused, so `b` survives to be pre-sized
    net.add(FromIterable(b.get_output_stream(), range(50)))
    net.add(Collect(b.get_input_stream(), out))
    net.optimize(spec={"b": 4096})
    assert not b.fused
    (growth,) = net.census()["growths"]
    assert (growth["channel"], growth["old"], growth["new"],
            growth["cause"]) == ("b", 64, 4096, "presize")
    net.run(timeout=60)
    assert out == list(range(50))
    assert net.growth_events() == []
    report = analyze(PROFILER.snapshot(network=net), net.channel_map())
    (entry,) = report["channels"]
    assert (entry["initial_capacity"], entry["capacity"],
            entry["grow_events"]) == (64, 4096, 0)
    assert "Parks" not in entry["reason"]
    assert entry["recommended_capacity"] == 4096


def test_grow_channel_lands_in_every_book():
    net = Network()
    net.channel(16, name="x")
    assert net.grow_channel("x", 64, "site/writer")
    (event,) = net.growth_events()
    assert (event.channel_name, event.old_capacity, event.new_capacity,
            event.blocked_processes) == ("x", 16, 64, ("site/writer",))
    (growth,) = net.census()["growths"]
    assert growth["cause"] == "parks-distributed"
    with Tracer(net) as tracer:
        pass
    report = tracer.report()
    assert report.channels["x"].grew
    assert [g["channel"] for g in report.growth_events] == ["x"]
    assert net.monitor.growth_events == net.growth_events()
    assert not net.grow_channel("nonesuch", 64)


def test_local_parks_growth_names_cause_writer_and_blocked():
    built = modulo_merge(200, divisor=10, channel_capacity=16)
    built.run(timeout=60)
    growths = built.network.census()["growths"]
    assert growths and {g["cause"] for g in growths} == {"parks"}
    for g in growths:
        assert g["new"] == 2 * g["old"]
        assert g["process"] in g["blocked"]


# ---------------------------------------------------------------------------
# fused channels are fused, not idle
# ---------------------------------------------------------------------------

def test_fused_run_does_not_report_zero_bytes_moved():
    net, out = pipeline(iterations=100)
    net.optimize()
    assert all(ch.fused for ch in net.channels)
    with Tracer(net, period=0.001) as tracer:
        net.run(timeout=60)
    assert out == [3 * k for k in range(100)]
    summary = tracer.report().summary()
    assert "0 bytes moved" not in summary
    assert "2 fused channel(s) not metered" in summary
    dot = to_dot(net)
    assert "0B, hw 0/64" not in dot
    assert dot.count("fused") == 2 and dot.count("style=dotted") == 2
    assert to_ascii(net).count("[fused]") == 2
