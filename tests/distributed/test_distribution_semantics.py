"""The paper's headline semantic claims, under distribution.

1. "the results of a computation are unique and correct whether the
   program is executed on a computer with a single processor, a computer
   with multiple processors, or many computers distributed across a
   network" — the same graph run locally, split two ways, and split three
   ways must produce identical histories.
2. "In our system the program can be self-modifying, so reconfigurations
   occur locally rather than centrally" (vs the CORBA system's central
   console) — a Sift shipped to a compute server must perform its
   self-reconfiguration *on that server*, inserting Modulo processes into
   the server's network with no involvement from the client.
"""

import time

import pytest

from repro.kpn import Network
from repro.distributed import ComputeServer, ServerClient
from repro.processes import Collect, FromIterable, Scale, Sequence, Sift
from repro.semantics import primes_reference


@pytest.fixture
def servers():
    s1 = ComputeServer(name="ds1").start()
    s2 = ComputeServer(name="ds2").start()
    c1 = ServerClient("127.0.0.1", s1.port)
    c2 = ServerClient("127.0.0.1", s2.port)
    yield (s1, c1), (s2, c2)
    c1.close()
    c2.close()
    s1.stop()
    s2.stop()


def build_three_stage(net):
    """source → ×3 → ×5 → collect, returning the stage processes."""
    a, b, c = net.channels_n(3, capacity=256)
    out = []
    src = FromIterable(a.get_output_stream(), list(range(40)), name="src")
    st1 = Scale(a.get_input_stream(), b.get_output_stream(), 3, name="x3")
    st2 = Scale(b.get_input_stream(), c.get_output_stream(), 5, name="x5")
    sink = Collect(c.get_input_stream(), out, name="sink")
    return src, st1, st2, sink, out


def test_same_results_local_and_distributed(servers):
    (s1, c1), (s2, c2) = servers
    expected = [15 * k for k in range(40)]

    # single machine
    net = Network(name="local")
    src, st1, st2, sink, out_local = build_three_stage(net)
    for p in (src, st1, st2, sink):
        net.add(p)
    net.run(timeout=60)
    assert out_local == expected

    # two machines
    net = Network(name="split2")
    src, st1, st2, sink, out2 = build_three_stage(net)
    c1.run(st1)
    for p in (src, st2, sink):
        net.add(p)
    net.run(timeout=60)
    assert out2 == expected

    # three machines (client + two servers)
    net = Network(name="split3")
    src, st1, st2, sink, out3 = build_three_stage(net)
    c1.run(st1)
    time.sleep(0.1)
    c2.run(st2)
    time.sleep(0.1)
    for p in (src, sink):
        net.add(p)
    net.run(timeout=60)
    assert out3 == expected

    assert out_local == out2 == out3  # the determinacy claim, distributed


def test_self_reconfiguration_happens_on_the_server(servers):
    (s1, c1), _ = servers
    net = Network(name="sieve-client")
    feed = net.channel(name="sieve-feed")
    found = net.channel(name="sieve-found")
    out = []
    # ship the Sift: its self-reconfiguration (new channels + Modulo
    # processes per prime) must happen inside the server's network
    sift = Sift(feed.get_input_stream(), found.get_output_stream(),
                name="remote-sift")
    c1.run(sift)
    net.add(Sequence(feed.get_output_stream(), start=2, iterations=40,
                     name="feeder"))
    net.add(Collect(found.get_input_stream(), out, name="collector"))
    net.run(timeout=120)
    assert out == primes_reference(below=42)

    # evidence of *local* (server-side) reconfiguration:
    modulos = [p for p in s1.network.processes
               if type(p).__name__ == "ModuloFilter"]
    assert len(modulos) == len(out)  # one inserted filter per prime
    dynamic_channels = [ch for ch in s1.network.channels
                        if "mod" in ch.name]
    assert len(dynamic_channels) == len(out)
    # and the client network gained none of them
    assert not any("mod" in ch.name for ch in net.channels)


def test_distributed_sieve_matches_local_sieve(servers):
    (s1, c1), _ = servers

    def run_local():
        net = Network()
        feed, found = net.channels_n(2)
        out = []
        net.add(Sequence(feed.get_output_stream(), start=2, iterations=60))
        net.add(Sift(feed.get_input_stream(), found.get_output_stream()))
        net.add(Collect(found.get_input_stream(), out))
        net.run(timeout=120)
        return out

    def run_remote():
        net = Network()
        feed, found = net.channels_n(2)
        out = []
        c1.run(Sift(feed.get_input_stream(), found.get_output_stream(),
                    name="sift-2"))
        net.add(Sequence(feed.get_output_stream(), start=2, iterations=60))
        net.add(Collect(found.get_input_stream(), out))
        net.run(timeout=120)
        return out

    assert run_local() == run_remote() == primes_reference(below=62)
