"""Migration: automatic connection establishment (sections 4.2–4.3).

These tests exercise the four channel-boundary cases plus internal
channels, using in-process compute servers (full socket protocol, one
interpreter — fast and deterministic).
"""

import time

import pytest

from repro.errors import MigrationError
from repro.kpn import Network
from repro.kpn.process import CompositeProcess, IterativeProcess
from repro.distributed.migration import (dumps_migration, import_network,
                                         loads_migration, migrate_live,
                                         owned_endpoints)
from repro.distributed.server import ComputeServer, ServerClient
from repro.processes import Collect, FromIterable, Scale, Sequence
from repro.processes.codecs import LONG

from tests.conftest import hosted


@pytest.fixture
def server():
    s = ComputeServer(name="mig").start()
    client = ServerClient("127.0.0.1", s.port)
    yield s, client
    client.close()
    s.stop()


# ---------------------------------------------------------------------------
# serialization plumbing without a server (local loopback)
# ---------------------------------------------------------------------------

def test_internal_channel_travels_whole():
    """Both endpoints inside the migrating composite: the channel is
    rebuilt fresh on the other side, buffered bytes included."""
    net = Network()
    inner = net.channel(name="inner")
    inner.get_output_stream().write(b"\x00" * 8 + b"\x00" * 7 + b"\x2a")
    out = []
    comp = CompositeProcess(name="whole")
    comp.add(Sequence(inner.get_output_stream(), start=1, iterations=0,
                      name="src"))
    comp.add(Collect(inner.get_input_stream(), out, iterations=3,
                     name="dst"))
    data = dumps_migration(comp)

    target_net = Network(name="target")
    clone = loads_migration(data, network=target_net)
    # the original channel must NOT be the one inside the clone
    cloned_collect = clone.processes[1]
    assert cloned_collect.source.channel is not inner
    # buffered bytes (two longs: 0 and 42) preceded the sequence's output
    target_net.spawn(clone)
    target_net.join(timeout=30)
    assert cloned_collect.into[:2] == [0, 42]


def test_owned_endpoints_cover_members():
    net = Network()
    ch = net.channel()
    comp = CompositeProcess()
    src = Sequence(ch.get_output_stream(), iterations=1)
    comp.add(src)
    owned = owned_endpoints(comp)
    assert id(ch.get_output_stream()) in owned
    assert id(ch.get_input_stream()) not in owned


def test_spliced_input_cannot_migrate():
    net = Network()
    a, b = net.channels_n(2)
    b.get_input_stream().splice_from(a.get_input_stream())
    out = []
    c = Collect(b.get_input_stream(), out)
    with pytest.raises(MigrationError, match="spliced"):
        dumps_migration(c)


class _Naughty(CompositeProcess):
    """Holds a raw channel buffer — illegal for migration."""

    def __init__(self, buffer):
        super().__init__()
        self.buffer = buffer


class _HoldsChannel(CompositeProcess):
    """Holds a Channel object directly instead of endpoint streams."""

    def __init__(self, ch):
        super().__init__()
        self.ch = ch


def test_direct_buffer_reference_rejected():
    net = Network()
    ch = net.channel()
    with pytest.raises(MigrationError, match="raw channel buffer"):
        dumps_migration(_Naughty(ch.buffer))


def test_boundary_channel_direct_reference_rejected():
    net = Network()
    ch = net.channel()
    ch.get_output_stream()  # endpoint exists but is not owned
    with pytest.raises(MigrationError, match="boundary channel"):
        dumps_migration(_HoldsChannel(ch))


# ---------------------------------------------------------------------------
# boundary migrations through a real server
# ---------------------------------------------------------------------------

def test_producer_migrates_consumer_stays(server):
    _, client = server
    net = Network()
    ch = net.channel(name="case2")
    out = []
    client.run(Sequence(ch.get_output_stream(), start=0, iterations=20,
                        name="remote-src"))
    net.add(Collect(ch.get_input_stream(), out, name="local-sink"))
    net.run(timeout=60)
    assert out == list(range(20))


def test_consumer_migrates_producer_stays(server):
    _, client = server
    net = Network()
    outbound = net.channel(name="case1-out")
    inbound = net.channel(name="case1-in")
    out = []
    # remote: reads outbound, scales, writes inbound (round trip)
    client.run(Scale(outbound.get_input_stream(), inbound.get_output_stream(),
                     3, name="remote-x3"))
    net.add(FromIterable(outbound.get_output_stream(), [1, 2, 3, 4]))
    net.add(Collect(inbound.get_input_stream(), out))
    net.run(timeout=60)
    assert out == [3, 6, 9, 12]


def test_backpressure_crosses_network(server):
    """Tiny remote-side channel: the local producer must be throttled by
    end-to-end backpressure, not buffer unboundedly."""
    _, client = server
    net = Network()
    ch = net.channel(capacity=64, name="narrow")
    out = []
    client.run(Scale(ch.get_input_stream(),
                     (back := net.channel(capacity=64, name="narrow-back"))
                     .get_output_stream(), 1, name="echo"))
    net.add(Sequence(ch.get_output_stream(), iterations=500))
    net.add(Collect(back.get_input_stream(), out))
    net.run(timeout=120)
    assert out == list(range(500))


def test_termination_cascade_crosses_network_downstream(server):
    """Remote producer stops → local consumer drains then ends."""
    _, client = server
    net = Network()
    ch = net.channel()
    out = []
    client.run(Sequence(ch.get_output_stream(), iterations=5, name="finite"))
    net.add(Collect(ch.get_input_stream(), out))
    net.run(timeout=60)
    assert out == [0, 1, 2, 3, 4]


def test_termination_cascade_crosses_network_upstream(server):
    """Local consumer hits its limit → remote producer must stop too
    ('No remote processes are left running, consuming resources')."""
    srv, client = server
    net = Network()
    ch = net.channel(capacity=64)
    out = []
    client.run(Sequence(ch.get_output_stream(), iterations=0,
                        name="infinite-remote"))
    net.add(Collect(ch.get_input_stream(), out, iterations=5))
    net.run(timeout=60)
    assert out == [0, 1, 2, 3, 4]
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline and srv.network.live_threads():
        time.sleep(0.05)
    assert srv.network.live_threads() == [], \
        "remote producer still running after local termination"


def test_composite_with_internal_and_boundary_channels(server):
    """A composite spanning both kinds: internal channel migrates whole,
    boundary channels become socket links."""
    _, client = server
    net = Network()
    inbound = net.channel(name="to-remote")
    outbound = net.channel(name="from-remote")
    internal = net.channel(name="mid")
    comp = CompositeProcess(name="two-stage")
    comp.add(Scale(inbound.get_input_stream(), internal.get_output_stream(),
                   2, name="x2"))
    comp.add(Scale(internal.get_input_stream(), outbound.get_output_stream(),
                   5, name="x5"))
    out = []
    client.run(comp)
    net.add(FromIterable(inbound.get_output_stream(), [1, 2, 3]))
    net.add(Collect(outbound.get_input_stream(), out))
    net.run(timeout=60)
    assert out == [10, 20, 30]


def test_remigration_producer_fig15(server):
    """A → B, then the upstream producer A → C: C must connect to B."""
    serverC = ComputeServer(name="C").start()
    clientC = ServerClient("127.0.0.1", serverC.port)
    try:
        _, clientB = server
        net = Network()
        ch1 = net.channel(name="p-to-m")
        ch2 = net.channel(name="m-to-s")
        out = []
        clientB.run(Scale(ch1.get_input_stream(), ch2.get_output_stream(),
                          7, name="middle"))
        time.sleep(0.1)
        clientC.run(Sequence(ch1.get_output_stream(), start=1, iterations=6,
                             name="moved-producer"))
        time.sleep(0.1)
        net.add(Collect(ch2.get_input_stream(), out))
        net.run(timeout=60)
        assert out == [7 * k for k in range(1, 7)]
        # the origin's pumps wound down: channel ch1 on A is fully closed
        assert ch1.buffer.write_closed
    finally:
        clientC.close()
        serverC.stop()


class _Paced(IterativeProcess):
    """Emits consecutive integers a millisecond apart, so the stream
    outlasts a hop made while it runs."""

    def __init__(self, out, iterations):
        super().__init__(iterations=iterations, name="paced")
        self.out = out
        self.track(out)

    def step(self):
        LONG.write(self.out, self.steps_completed)
        time.sleep(0.001)


def test_remigration_consumer(server):
    """Consumer hops twice: local → B, then B → C while it runs;
    unconsumed bytes travel along, and the origin's link ends, once C
    has dialled in, hold no listener that could take a stray dial-in."""
    serverC = ComputeServer(name="C2").start()
    clientC = ServerClient("127.0.0.1", serverC.port)
    try:
        srvB, clientB = server
        net = Network()
        ch = net.channel(name="hop")
        back = net.channel(name="hop-back")
        out = []
        total = 1000
        # hop 1: the consumer to B before the stream starts
        clientB.run(Scale(ch.get_input_stream(), back.get_output_stream(), 10,
                          name="hopper"))
        net.add(_Paced(ch.get_output_stream(), total))
        net.add(Collect(back.get_input_stream(), out))
        net.start()
        hopper = hosted(srvB, "hopper")
        deadline = time.monotonic() + 30
        while len(out) < 20 and time.monotonic() < deadline:
            time.sleep(0.002)
        # hop 2: B's running consumer to C
        migrate_live(hopper, clientC, timeout=30)
        hopped = len(out)
        while len(out) < hopped + 50 and time.monotonic() < deadline:
            time.sleep(0.002)
        assert len(out) >= hopped + 50, "no output came back through C"
        assert ch.sender_pump.listener is None
        assert back.receiver_pump.listener is None
        assert net.join(timeout=60)
        assert out == [10 * k for k in range(total)]
        [moved] = serverC.network.processes
        assert moved.name == "hopper"
        # the channel's bound made both hops
        ring = moved.source.channel.buffer
        assert ring.initial_capacity == ch.capacity
        assert [g["cause"] for g in ring.growths] in ([], ["migration"])
    finally:
        clientC.close()
        serverC.stop()


def test_import_network_context_adopts_channels():
    net = Network()
    inner = net.channel(name="adopt-me")
    comp = CompositeProcess()
    comp.add(Sequence(inner.get_output_stream(), iterations=1))
    comp.add(Collect(inner.get_input_stream(), [], iterations=1))
    data = dumps_migration(comp)
    target = Network(name="importer")
    loads_migration(data, network=target)
    assert any(ch.name == "adopt-me" for ch in target.channels)
