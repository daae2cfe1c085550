"""Tracer and graph consistency checker."""

import json

import pytest

from repro.kpn import Network
from repro.analysis import graph_findings
from repro.errors import GraphConsistencyError
from repro.kpn.scheduler import DeadlockPolicy
from repro.kpn.tracing import Tracer
from repro.processes import (Collect, Duplicate, FromIterable, MapProcess,
                             Scale, Sequence, fibonacci, hamming, primes)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_tracer_collects_channel_stats():
    net = Network()
    ch = net.channel(name="traced")
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=500))
    net.add(Collect(ch.get_input_stream(), out))
    with Tracer(net, period=0.001) as tracer:
        net.run(timeout=60)
    report = tracer.report()
    assert report.samples >= 1
    assert report.channels["traced"].total_bytes == 500 * 8
    # the buffer's own exact mark, not a maximum over samples
    assert (8 <= report.channels["traced"].high_water
            == ch.buffer.high_watermark <= 1024)
    assert report.total_bytes_moved() == 500 * 8


def test_tracer_sees_dynamic_channels():
    net = Network()
    built = primes(count=10, network=net)
    with Tracer(net, period=0.001) as tracer:
        built.run(timeout=60)
    report = tracer.report()
    # one channel per inserted Modulo filter, named after the sift
    assert any("mod" in name for name in report.channels)


def test_tracer_records_growth_events():
    net = Network(policy=DeadlockPolicy(growth_factor=2))
    built = hamming(25, network=net, channel_capacity=16)
    with Tracer(net, period=0.002) as tracer:
        built.run(timeout=120)
    report = tracer.report()
    assert report.growth_events
    grown = {e["channel"] for e in report.growth_events}
    assert any(report.channels[name].grew for name in grown
               if name in report.channels)


def test_tracer_summary_and_json():
    net = Network()
    ch = net.channel(name="j")
    net.add(Sequence(ch.get_output_stream(), iterations=10))
    net.add(Collect(ch.get_input_stream(), []))
    with Tracer(net) as tracer:
        net.run(timeout=30)
    report = tracer.report()
    assert "bytes moved" in report.summary()
    parsed = json.loads(report.to_json())
    assert parsed["channels"]["j"]["total_bytes"] == 80


def test_tracer_blocked_timeline():
    net = Network()
    ch = net.channel(capacity=8)  # tiny: the producer will block
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=2000))
    net.add(Collect(ch.get_input_stream(), out))
    with Tracer(net, period=0.0005) as tracer:
        net.run(timeout=60)
    r, w = tracer.report().max_blocked()
    assert w >= 1  # the write-blocked producer was observed


# ---------------------------------------------------------------------------
# checker
# ---------------------------------------------------------------------------

def codes(issues):
    return {i.rule for i in issues}


def test_clean_pipeline_passes():
    net = Network()
    a, b = net.channels_n(2)
    net.add(FromIterable(a.get_output_stream(), [1]))
    net.add(MapProcess(a.get_input_stream(), b.get_output_stream(), abs))
    net.add(Collect(b.get_input_stream(), []))
    net.preflight()  # must not raise
    issues = graph_findings(net)
    assert not any(i.severity == "error" for i in issues)


def test_multi_consumer_detected():
    net = Network()
    ch = net.channel()
    net.add(FromIterable(ch.get_output_stream(), [1]))
    net.add(Collect(ch.get_input_stream(), [], name="c1"))
    net.add(Collect(ch.get_input_stream(), [], name="c2"))
    issues = graph_findings(net)
    assert "multi-consumer" in codes(issues)
    with pytest.raises(GraphConsistencyError):
        net.preflight()


def two_readers():
    net = Network(name="two-readers")
    a, b = net.channel(name="a"), net.channel(name="b")
    net.add(Sequence(a.get_output_stream(), iterations=10, name="src"))
    net.add(Collect(a.get_input_stream(), [], name="thief"))
    net.add(Scale(a.get_input_stream(), b.get_output_stream(), 2, name="m"))
    net.add(Collect(b.get_input_stream(), [], name="sink"))
    return net


def test_lint_network_reports_what_preflight_refuses():
    # lint_network used to run the proofs without the construction rules
    # and called this network proved-bounded and clean
    from repro.analysis import lint_network

    (finding,) = [f for f in lint_network(two_readers())
                  if f.severity == "error"]
    assert finding.rule == "multi-consumer"
    assert "read by ['thief', 'm']" in finding.message
    with pytest.raises(GraphConsistencyError, match="multi-consumer"):
        two_readers().preflight()


def test_repro_lint_fails_on_a_network_with_two_readers(monkeypatch, capsys):
    from types import SimpleNamespace

    from repro import cli

    monkeypatch.setattr(cli, "_figure_builders", lambda: {
        "fibonacci": lambda: SimpleNamespace(network=two_readers())})
    assert cli.main(["lint", "fibonacci"]) == 1
    assert "[error:multi-consumer]" in capsys.readouterr().out


def test_long_writer_wired_to_double_reader_detected():
    net = Network()
    ch = net.channel(name="typed")
    out = []
    net.add(Sequence(ch.get_output_stream(), start=1, iterations=3))
    net.add(Collect(ch.get_input_stream(), out, codec="double", name="sink"))
    (finding,) = [f for f in graph_findings(net) if f.severity == "error"]
    assert finding.rule == "codec-mismatch"
    assert "'long'" in finding.message and "'double'" in finding.message
    with pytest.raises(GraphConsistencyError, match="codec-mismatch"):
        net.preflight()
    assert out == []  # refused before anything ran


def test_side_input_read_through_another_codec_is_no_mismatch():
    # Guard declares the codec of its data input and reads its control
    # input as BOOL: a consumer with several inputs is not judged
    from repro.processes import newton_sqrt

    findings = graph_findings(newton_sqrt(2.0).network)
    assert "codec-mismatch" not in codes(findings)


def test_multi_producer_detected():
    net = Network()
    ch = net.channel()
    net.add(FromIterable(ch.get_output_stream(), [1], name="p1"))
    net.add(FromIterable(ch.get_output_stream(), [2], name="p2"))
    net.add(Collect(ch.get_input_stream(), []))
    assert "multi-producer" in codes(graph_findings(net))


def test_no_producer_detected():
    net = Network()
    ch = net.channel()
    net.add(Collect(ch.get_input_stream(), []))
    assert "no-producer" in codes(graph_findings(net))


def test_no_consumer_detected():
    net = Network()
    ch = net.channel()
    net.add(FromIterable(ch.get_output_stream(), [1]))
    assert "no-consumer" in codes(graph_findings(net))


def test_orphan_channel_warned():
    net = Network()
    net.channel(name="floating")
    assert "orphan-channel" in codes(graph_findings(net))


def test_self_loop_detected():
    net = Network()
    ch = net.channel()
    net.add(MapProcess(ch.get_input_stream(), ch.get_output_stream(), abs,
                       name="ouroboros"))
    assert "self-loop" in codes(graph_findings(net))


def test_fibonacci_cycle_proved_bounded():
    # fibonacci's feedback loops all carry initial tokens (Cons defers its
    # tail), so the blanket cycle flag is discharged by the static proof
    built = fibonacci(5)
    issues = graph_findings(built.network)
    assert "proved-bounded" in codes(issues)
    assert "cycle-unproved" not in codes(issues)
    assert not any(i.severity == "error" for i in issues)


def test_unproved_cycle_reported_as_info_with_monitor():
    # hamming's OrderedMerge carries no rate-balance declaration (it is
    # genuinely unbounded at fixed capacities), so no proof discharges it
    built = hamming(5)
    issues = graph_findings(built.network)
    assert "cycle-unproved" in codes(issues)
    assert not any(i.severity == "error" for i in issues)


def test_proved_bounded_cycle_not_warned_without_monitor():
    # a proof makes the monitor unnecessary: no warning even when it is off
    net = Network(bounded=False)
    built = fibonacci(5, network=net)
    issues = graph_findings(built.network)
    assert "proved-bounded" in codes(issues)
    assert "cycle-unbounded-monitorless" not in codes(issues)


def test_unproved_cycle_warned_without_monitor():
    net = Network(bounded=False)
    built = hamming(5, network=net)
    issues = graph_findings(built.network)
    assert "cycle-unbounded-monitorless" in codes(issues)


def test_non_terminating_flagged():
    net = Network()
    ch = net.channel()
    net.add(Sequence(ch.get_output_stream()))          # unbounded
    net.add(Collect(ch.get_input_stream(), []))        # unbounded
    assert "non-terminating" in codes(graph_findings(net))


def test_checked_graph_actually_runs():
    """A graph that passes strict checking runs to completion."""
    built = fibonacci(10)
    built.network.preflight()
    assert built.run(timeout=60) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


# ---------------------------------------------------------------------------
# composite recursion
# ---------------------------------------------------------------------------

def test_checker_recurses_into_nested_composites():
    from repro.kpn.process import CompositeProcess

    net = Network()
    ch = net.channel(name="contested")
    inner = CompositeProcess(
        [Sequence(ch.get_output_stream(), name="writer-a")], name="inner")
    outer = CompositeProcess([inner], name="outer")
    net.add(outer)
    net.add(Sequence(ch.get_output_stream(), name="writer-b"))
    net.add(Collect(ch.get_input_stream(), []))
    issues = graph_findings(net)
    multi = [i for i in issues if i.rule == "multi-producer"]
    assert multi, "producer buried two composites deep must still be seen"
    assert "writer-a" in multi[0].message


def test_composite_tracked_boundary_stream_counts_as_endpoint():
    # a composite may track a boundary stream itself (so it migrates and
    # closes with the group) without any leaf tracking it: the channel is
    # connected, not a no-producer error
    from repro.kpn.process import CompositeProcess

    net = Network()
    ch = net.channel(name="boundary")
    comp = CompositeProcess([], name="facade")
    comp.track(ch.get_output_stream())
    net.add(comp)
    net.add(Collect(ch.get_input_stream(), []))
    issues = graph_findings(net)
    assert not any(i.rule == "no-producer" for i in issues)


def test_composite_retracking_member_stream_not_multi_producer():
    # re-tracking a member's endpoint at the composite boundary is the
    # grouping idiom, not a second producer
    from repro.kpn.process import CompositeProcess

    net = Network()
    ch = net.channel(name="shared-track")
    leaf = Sequence(ch.get_output_stream(), name="leaf-writer")
    comp = CompositeProcess([leaf], name="group")
    comp.track(ch.get_output_stream())
    net.add(comp)
    net.add(Collect(ch.get_input_stream(), []))
    issues = graph_findings(net)
    assert not any(i.rule == "multi-producer" for i in issues)
