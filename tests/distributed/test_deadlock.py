"""Deadlocks across servers (paper section 6.2): one Parks resolver.

The network that shipped parts to a server decides its stalls across
every site it shipped to; none of these tests builds a detector.
"""

import time

import pytest

from repro.errors import TrueDeadlockError
from repro.kpn import Network
from repro.kpn.process import CompositeProcess, IterativeProcess
from repro.distributed.server import ComputeServer, ServerClient
from repro.processes import (Collect, MapProcess, ModuloRouter, OrderedMerge,
                             Scale, Sequence)
from repro.distributed import sockets
from repro.processes.codecs import LONG


@pytest.fixture
def server():
    s = ComputeServer(name="ddl").start()
    client = ServerClient("127.0.0.1", s.port)
    yield s, client
    client.close()
    s.stop()


class ReadForever(IterativeProcess):
    def __init__(self, stream, name=None):
        super().__init__(name=name)
        self.stream = stream
        self.track(stream)

    def step(self):
        self.stream.read_exactly(8)


class SlowCollect(IterativeProcess):
    """A sink that takes 50 ms per element."""

    def __init__(self, stream, out, name=None):
        super().__init__(name=name)
        self.stream = stream
        self.out = out
        self.track(stream)

    def step(self):
        self.out.append(LONG.read(self.stream))
        time.sleep(0.05)


def slow_identity(value):
    time.sleep(0.05)
    return value


@pytest.fixture
def small_socket_buffers(monkeypatch):
    """Link sockets with the kernel's smallest buffers: a producer faster
    than its consumer fills them, and blocks, within milliseconds."""
    monkeypatch.setattr(sockets, "LINK_SOCKBUF", 4096)


def parks_growths(census, cause):
    return [g for g in census["growths"] if g["cause"] == cause]


def _wait_for(condition, seconds=10):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_wait_snapshot_shape_local(hold_monitor):
    net = Network()
    ch = net.channel(name="empty")
    net.add(ReadForever(ch.get_input_stream(), name="r"))
    net.start()
    time.sleep(0.1)
    snap = net.wait_snapshot()
    assert snap["live"] == ["r"]
    assert snap["blocked"][0]["mode"] == "read"
    assert snap["blocked"][0]["channel"] == "empty"
    assert snap["links"] == []
    net.shutdown()
    net.join(timeout=10)


def test_wait_snapshot_via_rpc(server):
    srv, client = server
    snap = client.wait_snapshot()
    assert snap["live"] == [] and snap["blocked"] == []


def test_wait_snapshot_reports_both_ends_of_a_link(server):
    """Each pump reports its link's id and the bytes it moved; a link's
    two ends, on two sites, share the id and agree once it is idle."""
    srv, client = server
    net = Network(name="ends")
    ch = net.channel(name="across")
    out = []
    client.run(Sequence(ch.get_output_stream(), iterations=10, name="src"))
    net.add(Collect(ch.get_input_stream(), out, name="sink"))
    assert net.run(timeout=30)
    # the pumps' threads end just after the stream does
    _wait_for(lambda: not net.has_remote_links()
              and not srv.network.has_remote_links())
    (here,) = net.wait_snapshot()["links"]
    (there,) = [end for end in client.wait_snapshot()["links"]
                if end["link"] == here["link"]]
    assert (here["role"], there["role"]) == ("recv", "send")
    # ten longs and the EOF
    assert here["moved"] == there["moved"] == 10 * 8 + 1
    assert not here["live"] and not there["live"]
    assert out == list(range(10))


def test_grow_channel_via_rpc(server):
    srv, client = server
    ch = srv.network.channel(16, name="growme")
    assert client.grow_channel("growme", 64) is True
    assert ch.capacity == 64
    assert client.grow_channel("nonesuch", 64) is False


def test_shipping_makes_the_server_a_site(server):
    srv, client = server
    net = Network(name="driver")
    ch = net.channel(name="to-server")
    assert net.sites == {}
    client.run(ReadForever(ch.get_input_stream(), name="remote-reader"))
    assert list(net.sites.values()) == [client]
    client.run(Scale(net.channel().get_input_stream(),
                     net.channel().get_output_stream(), 1))
    assert list(net.sites.values()) == [client]     # one site per server
    net.shutdown()


# ---------------------------------------------------------------------------
# purely local networks
# ---------------------------------------------------------------------------

def test_no_stall_reported_while_running():
    net = Network()
    ch = net.channel()
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=200))
    net.add(Collect(ch.get_input_stream(), out))
    # may or may not see a transient; must never declare a deadlock
    assert net.run(timeout=30)
    assert net.growth_events() == []
    assert out == list(range(200))


def test_true_deadlock_detected_locally():
    net = Network()
    a, b = net.channels_n(2)
    net.add(ReadForever(a.get_input_stream(), name="ra"))
    net.add(ReadForever(b.get_input_stream(), name="rb"))
    with pytest.raises(TrueDeadlockError) as caught:
        net.run(timeout=10)
    assert caught.value.blocked == ("ra", "rb")


# ---------------------------------------------------------------------------
# Figure 13 across two sites
# ---------------------------------------------------------------------------

def _fig13_channels(net):
    return [net.channel(16, name=f"d13-{part}")
            for part in ("src", "upper", "lower", "merged", "back")]


def test_distributed_fig13_resolved_by_global_parks_rule(server):
    """The Figure-13 write block happens on the driver, whose graph also
    spans a stage on the server: the driver's monitor polls the server,
    sees the whole partition stalled and grows a channel of its own."""
    srv, client = server
    net = Network(name="fig13-client")
    src, upper, lower, merged, back = _fig13_channels(net)
    out = []
    n_values = 200
    net.add(Sequence(src.get_output_stream(), start=1, iterations=n_values,
                     name="Source"))
    net.add(ModuloRouter(src.get_input_stream(), upper.get_output_stream(),
                         lower.get_output_stream(), 10, name="Mod"))
    net.add(OrderedMerge(upper.get_input_stream(), lower.get_input_stream(),
                         merged.get_output_stream(), name="Merge"))
    # an identity stage on the server: the network now has remote links
    client.run(Scale(merged.get_input_stream(), back.get_output_stream(), 1,
                     name="RemoteEcho"))
    net.add(Collect(back.get_input_stream(), out, name="Sink"))
    assert net.run(timeout=120)
    assert out == list(range(1, n_values + 1))
    grown = parks_growths(net.census(), "parks")
    assert grown, "growth should have been needed"
    assert {g["channel"] for g in grown} & {"d13-lower", "d13-upper",
                                            "d13-src", "d13-merged"}
    assert parks_growths(client.census(), "parks-distributed") == []


def test_distributed_fig13_write_block_on_the_server(server):
    """Mod and Merge run on the server as one composite: the write block
    is there, the server's own monitor stands down (its network has
    links), and the driver grows the server's channel over the RPC."""
    srv, client = server
    net = Network(name="fig13-driver")
    src, upper, lower, merged, _ = _fig13_channels(net)
    out = []
    n_values = 200
    net.add(Sequence(src.get_output_stream(), start=1, iterations=n_values,
                     name="Source"))
    client.run(CompositeProcess([
        ModuloRouter(src.get_input_stream(), upper.get_output_stream(),
                     lower.get_output_stream(), 10, name="Mod"),
        OrderedMerge(upper.get_input_stream(), lower.get_input_stream(),
                     merged.get_output_stream(), name="Merge")],
        name="ModMerge"))
    net.add(Collect(merged.get_input_stream(), out, name="Sink"))
    assert net.run(timeout=120)
    assert out == list(range(1, n_values + 1))
    grown = parks_growths(client.census(), "parks-distributed")
    assert grown, "the server's channel should have been grown"
    assert {g["channel"] for g in grown} <= {"d13-upper", "d13-lower"}
    assert parks_growths(net.census(), "parks") == []


def test_a_server_whose_links_finished_decides_alone(server):
    """Links whose pumps have all finished carry nothing more: a part
    shipped later with no link at all gets Parks growth from the
    server's own monitor, as on a server that never had links."""
    srv, client = server
    net = Network(name="earlier")
    ch = net.channel(name="done-link")
    out = []
    client.run(Sequence(ch.get_output_stream(), iterations=3, name="early"))
    net.add(Collect(ch.get_input_stream(), out, name="sink"))
    assert net.run(timeout=30) and out == [0, 1, 2]
    _wait_for(lambda: not srv.network.has_remote_links())
    src, upper, lower, merged = Network().channels_n(4, capacity=16,
                                                     prefix="own")
    client.run(CompositeProcess([
        Sequence(src.get_output_stream(), start=1, iterations=100),
        ModuloRouter(src.get_input_stream(), upper.get_output_stream(),
                     lower.get_output_stream(), 10),
        OrderedMerge(upper.get_input_stream(), lower.get_input_stream(),
                     merged.get_output_stream()),
        Collect(merged.get_input_stream(), [])], name="SelfContained"))
    _wait_for(lambda: srv.network.live_count() == 0, seconds=60)
    assert parks_growths(client.census(), "parks")
    assert not any(p.failure for p in srv.network.processes)


# ---------------------------------------------------------------------------
# a cross-site true deadlock
# ---------------------------------------------------------------------------

def _readers_on_both_sites(net, client):
    local_ch = net.channel(name="t-local")
    cross = net.channel(name="t-cross")
    net.add(ReadForever(local_ch.get_input_stream(), name="local-reader"))
    client.run(ReadForever(cross.get_input_stream(), name="remote-reader"))


def test_distributed_true_deadlock_reported(server):
    """Readers on both sites, no producers anywhere: true global deadlock,
    raised by the default policy within the caller's timeout."""
    srv, client = server
    net = Network(name="true-client")
    _readers_on_both_sites(net, client)
    started = time.monotonic()
    with pytest.raises(TrueDeadlockError) as caught:
        net.run(timeout=5)
    assert time.monotonic() - started < 5
    # both the client and the server are stuck
    assert set(caught.value.blocked) == {
        "local-reader", f"{srv.network.name}/remote-reader"}


class _SiteThatRaises:
    host, port = "fake", 1

    def wait_snapshot(self):
        raise ConnectionError("site unreachable")


class _SiteInFlight:
    """A stalled site whose one link has bytes on the wire."""

    host, port = "fake", 2

    def wait_snapshot(self):
        return {"network": "fake", "backend": "thread", "generation": 0,
                "live": [], "blocked": [],
                "links": [
                    {"link": "x", "role": "send", "moved": 16,
                     "live": True, "full": False, "channel": "x"},
                    {"link": "x", "role": "recv", "moved": 8,
                     "live": True, "full": False, "channel": "x"}]}


@pytest.mark.parametrize("fake", [_SiteThatRaises, _SiteInFlight])
def test_a_site_without_a_clear_view_gets_no_verdict(server, fake):
    srv, client = server
    net = Network(name="guarded")
    _readers_on_both_sites(net, client)
    net.add_site(fake())
    net.start()
    assert not net.join(timeout=1.5)        # no verdict ...
    assert net.monitor.error is None
    assert net.monitor.thread.is_alive()    # ... and the monitor runs on
    del net.sites[(fake.host, fake.port)]
    with pytest.raises(TrueDeadlockError):
        net.join(timeout=5)


# ---------------------------------------------------------------------------
# a slow consumer on the far side of a link is not a stall
# ---------------------------------------------------------------------------

def test_a_slow_remote_consumer_grows_nothing(server, small_socket_buffers):
    srv, client = server
    net = Network(name="fast-producer")
    up = net.channel(64, name="up")
    down = net.channel(name="down")
    out = []
    net.add(Sequence(up.get_output_stream(), name="Source"))
    client.run(MapProcess(up.get_input_stream(), down.get_output_stream(),
                          slow_identity, name="SlowMap"))
    net.add(Collect(down.get_input_stream(), out, name="Sink"))
    net.start()
    time.sleep(3)
    assert up.capacity == 64
    assert net.census()["growths"] == []
    assert client.census()["growths"] == []
    assert out and out == list(range(len(out)))
    net.shutdown()
    net.join(timeout=10)


def test_a_slow_driver_sink_grows_nothing_on_the_server(
        server, small_socket_buffers):
    srv, client = server
    net = Network(name="slow-sink")
    up = net.channel(64, name="up")
    out = []
    client.run(Sequence(up.get_output_stream(), name="RemoteSource"))
    net.add(SlowCollect(up.get_input_stream(), out, name="SlowSink"))
    net.start()
    time.sleep(3)
    assert up.capacity == 64
    assert srv.network.channel_by_name("up").capacity == 64
    assert client.census()["growths"] == []
    assert net.census()["growths"] == []
    assert out and out == list(range(len(out)))
    net.shutdown()
    net.join(timeout=10)
