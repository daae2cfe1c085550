"""Network.topology(): the one view of the program graph every reader
(prover, rules, compiler, history decoding, exports) starts from."""

import random

import pytest

from repro.analysis.graphproofs import _edges, graph_findings
from repro.kpn.compile import compile_network
from repro.kpn.history import infer_codecs
from repro.kpn.network import Network
from repro.kpn.process import CompositeProcess
from repro.parallel import CallableTask, RangeProducerTask
from repro.parallel.farm import build_farm
from repro.processes import (Collect, Duplicate, Identity, Scale, Sequence,
                             fibonacci, hamming, modulo_merge, newton_sqrt,
                             primes)
from repro.processes.codecs import LONG
from repro.semantics.randomnets import build_operational, random_spec


def names(processes):
    return [p.name for p in processes]


def edge_named(topology, name):
    (edge,) = [e for e in topology.edges if e.name == name]
    return edge


# ---------------------------------------------------------------------------
# leaves, containers, order
# ---------------------------------------------------------------------------

def nested_network():
    net = Network()
    a, b, c = (net.channel(name=n) for n in "abc")
    src = Sequence(a.get_output_stream(), iterations=3, name="src")
    first = Scale(a.get_input_stream(), b.get_output_stream(), 2, name="first")
    second = Scale(b.get_input_stream(), c.get_output_stream(), 2,
                   name="second")
    sink = Collect(c.get_input_stream(), [], name="sink")
    inner = CompositeProcess([first], name="inner")
    outer = CompositeProcess([inner, second], name="outer")
    net.add(src)
    net.add(outer)
    net.add(sink)
    return net, inner, outer


def test_leaves_come_in_declaration_order_with_their_container():
    net, inner, outer = nested_network()
    topo = net.topology()
    assert names(topo.leaves) == ["src", "first", "second", "sink"]
    containers = [topo.containers[id(p)] for p in topo.leaves]
    assert containers == [net, inner, outer, net]


def test_edges_follow_channel_order_and_name_every_owner():
    net, _, _ = nested_network()
    topo = net.topology()
    assert [e.name for e in topo.edges] == ["a", "b", "c"]
    assert [(e.producer_names, e.consumer_names) for e in topo.edges] == [
        (["src"], ["first"]), (["first"], ["second"]), (["second"], ["sink"])]
    assert all(e.spsc and not e.remote for e in topo.edges)


def test_every_reader_sees_the_same_declaration_order():
    net = Network()
    ch = net.channel(name="contested")
    net.add(Sequence(ch.get_output_stream(), iterations=1, name="w"))
    for name in ("c1", "c2", "c3"):
        net.add(Collect(ch.get_input_stream(), [], name=name))
    expected = ["c1", "c2", "c3"]
    assert edge_named(net.topology(), "contested").consumer_names == expected
    assert edge_named(net.topology(), "contested").consumer_names == expected
    (finding,) = [f for f in graph_findings(net)
                  if f.rule == "multi-consumer"]
    assert "read by ['c1', 'c2', 'c3']" in finding.message
    assert [c for _, c, d in net.graph().edges(data=True)] == expected
    assert [e.consumer for e in _edges(net)[0]] == expected
    assert net.channel_map()["contested"]["consumer"] == "c1"
    assert "['c1', 'c2', 'c3']" in dict(compile_network(net).refusals)[
        "contested"]


def test_an_edge_carries_the_tracked_stream_that_binds_each_owner():
    net, _, _ = nested_network()
    edge = edge_named(net.topology(), "b")
    (producer, out), = edge.producers
    (consumer, inp), = edge.consumers
    assert out is producer.out and inp is consumer.source
    assert any(inp is s for s in consumer.awaits())


# ---------------------------------------------------------------------------
# the composite-boundary rule
# ---------------------------------------------------------------------------

def test_composite_tracked_boundary_stream_is_the_endpoint():
    net = Network()
    ch = net.channel(name="boundary")
    facade = CompositeProcess([], name="facade")
    facade.track(ch.get_output_stream())
    net.add(facade)
    net.add(Collect(ch.get_input_stream(), [], name="sink"))
    edge = edge_named(net.topology(), "boundary")
    assert edge.producer_names == ["facade"] and edge.spsc
    assert net.channel_map()["boundary"]["producer"] == "facade"


def test_composite_retracking_a_members_stream_is_no_second_producer():
    net = Network()
    ch = net.channel(name="shared-track")
    leaf = Sequence(ch.get_output_stream(), iterations=1, name="leaf-writer")
    group = CompositeProcess([leaf], name="group")
    group.track(ch.get_output_stream())
    net.add(group)
    net.add(Collect(ch.get_input_stream(), [], name="sink"))
    assert edge_named(net.topology(),
                      "shared-track").producer_names == ["leaf-writer"]


# ---------------------------------------------------------------------------
# remote, orphan, loose
# ---------------------------------------------------------------------------

def test_remote_pumped_and_orphan_channels():
    net = Network()
    inbound = net.channel(name="inbound")
    net.channel(name="floating")
    inbound.receiver_pump = object()  # what migration installs
    net.add(Collect(inbound.get_input_stream(), [], name="sink"))
    topo = net.topology()
    assert edge_named(topo, "inbound").remote
    assert edge_named(topo, "inbound").consumer_names == ["sink"]
    floating = edge_named(topo, "floating")
    assert not floating.remote
    assert not floating.producers and not floating.consumers
    assert {f.rule for f in graph_findings(net)
            if f.severity != "info"} == {"orphan-channel"}
    assert net.has_remote_links()


def test_streams_without_a_channel_are_counted_loose():
    from repro.kpn.streams import LocalOutputStream

    net = Network()
    ch = net.channel(name="in")
    net.add(Sequence(ch.get_output_stream(), iterations=1, name="src"))
    relay = Identity(ch.get_input_stream(),
                     LocalOutputStream(net.channel(name="raw").buffer),
                     name="relay")
    net.add(relay)
    topo = net.topology()
    assert topo.loose_outputs[id(relay)] == 1
    assert not topo.loose_inputs.get(id(relay))
    assert topo.outputs[id(relay)] == []
    assert names(e.consumer for e in topo.inputs[id(relay)]) == ["relay"]
    # a loose output can end a chain, never continue one
    (chain,) = compile_network(net).chains
    assert names(chain[0]) == ["src", "relay"]


def test_channel_reachable_only_through_a_stream_is_still_an_edge():
    from repro.kpn.channel import Channel

    net = Network()
    stray = Channel(name="stray")
    net.add(Sequence(stray.get_output_stream(), iterations=1, name="src"))
    net.add(Collect(stray.get_input_stream(), [], name="sink"))
    assert edge_named(net.topology(), "stray").spsc


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------

def test_element_codec_propagates_through_byte_level_processes():
    net = Network()
    a, b, c, d = (net.channel(name=n) for n in "abcd")
    net.add(Sequence(a.get_output_stream(), iterations=2, name="src"))
    net.add(Identity(a.get_input_stream(), b.get_output_stream(), name="id"))
    net.add(Duplicate(b.get_input_stream(),
                      [c.get_output_stream(), d.get_output_stream()],
                      name="dup"))
    net.add(Collect(c.get_input_stream(), [], name="k1"))
    net.add(Collect(d.get_input_stream(), [], codec="double", name="k2"))
    topo = net.topology()
    assert [e.codec for e in topo.edges] == [LONG] * 4
    assert [e.write_codec for e in topo.edges] == [LONG, None, None, None]
    assert edge_named(topo, "a").read_codec is None
    assert infer_codecs(net) == dict.fromkeys("abcd", LONG)
    # ... so a mismatch is seen behind the byte-level stages too
    assert [f.subject for f in graph_findings(net)
            if f.rule == "codec-mismatch"] == ["d"]


# ---------------------------------------------------------------------------
# after the compiler rewired the network
# ---------------------------------------------------------------------------

def test_fused_channels_are_still_listed_after_optimize():
    net = Network()
    a, b = net.channel(name="a"), net.channel(name="b")
    out = []
    net.add(Sequence(a.get_output_stream(), iterations=3, name="src"))
    net.add(Scale(a.get_input_stream(), b.get_output_stream(), 2, name="map"))
    net.add(Collect(b.get_input_stream(), out, name="sink"))

    def view(topo):
        return (names(topo.leaves),
                [(e.name, e.producer_names, e.consumer_names)
                 for e in topo.edges])

    before = view(net.topology())
    net.optimize()
    assert net.fusion_plan.fused_channel_names == ["a", "b"]
    (chain,) = net.processes
    after = net.topology()
    assert view(after) == before
    assert {after.containers[id(p)] for p in after.leaves} == {chain}
    assert net.channel_map().keys() == {"a", "b"}
    assert not [f for f in graph_findings(net) if f.severity == "error"]
    net.run(timeout=30)
    assert out == [0, 2, 4]


# ---------------------------------------------------------------------------
# every reader names the same producer and consumer for every channel
# ---------------------------------------------------------------------------

def _farm(mode):
    return build_farm(
        RangeProducerTask(8, lambda i: CallableTask(pow, i, 2)),
        n_workers=3, mode=mode).network


def _random_net(seed):
    return build_operational(random_spec(random.Random(seed), max_nodes=8))[0]


BUILDERS = {
    "fibonacci": lambda: fibonacci(10).network,
    "primes": lambda: primes(count=10).network,
    "hamming": lambda: hamming(10).network,
    "newton": lambda: newton_sqrt(2.0).network,
    "fig13": lambda: modulo_merge(50, 10).network,
    "farm-static": lambda: _farm("static"),
    "farm-dynamic": lambda: _farm("dynamic"),
    **{f"random-{seed}": (lambda seed=seed: _random_net(seed))
       for seed in (5, 77, 1234, 98765)},
}


@pytest.mark.parametrize("which", sorted(BUILDERS))
def test_every_reader_names_the_same_owners(which):
    net = BUILDERS[which]()
    topo = net.topology()
    owners = {e.name: (e.producer.name, e.consumer.name) for e in topo.edges}
    assert all(e.spsc for e in topo.edges)

    assert {d["channel"]: (u, v)
            for u, v, d in net.graph().edges(data=True)} == owners
    assert {name: (row["producer"], row["consumer"])
            for name, row in net.channel_map().items()} == owners
    assert {e.channel: (e.producer, e.consumer)
            for e in _edges(net)[0]} == owners
    findings = graph_findings(net)
    assert not [f for f in findings if f.severity in ("error", "warning")]

    by_name = {p.name: p for p in topo.leaves}
    for channel, codec in infer_codecs(net).items():
        writer = by_name[owners[channel][0]]
        declared = getattr(writer, "out_codec", None) or getattr(
            writer, "codec", None)
        if declared is not None:
            assert codec is declared, channel
    for stages, channels, _, _ in compile_network(net).chains:
        for a, ch, b in zip(stages, channels, stages[1:]):
            assert owners[ch.name] == (a.name, b.name)
