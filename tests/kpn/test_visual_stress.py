"""Graph rendering + scale/stress tests."""

import time

import pytest

from repro.kpn import Network
from repro.kpn.tracing import Tracer
from repro.kpn.visual import to_ascii, to_dot
from repro.processes import (Collect, Duplicate, MapProcess, Scale, Sequence,
                             fibonacci)


# ---------------------------------------------------------------------------
# visual export
# ---------------------------------------------------------------------------

def test_dot_export_structure():
    built = fibonacci(5)
    dot = to_dot(built.network, title="fibonacci")
    assert dot.startswith("digraph kpn {")
    assert dot.rstrip().endswith("}")
    assert '"Cons-b"' in dot and '"Add-g"' in dot
    assert "->" in dot
    assert "fibonacci" in dot


def test_dot_role_colors_differ():
    built = fibonacci(5)
    dot = to_dot(built.network)
    # sink (Collect) and routing (Duplicate) nodes get distinct fills
    assert "#fde9e7" in dot and "#e7eefb" in dot


def test_dot_with_trace_annotations():
    net = Network()
    ch = net.channel(name="annotated")
    net.add(Sequence(ch.get_output_stream(), iterations=100, name="s"))
    net.add(Collect(ch.get_input_stream(), [], name="c"))
    with Tracer(net, period=0.001) as tracer:
        net.run(timeout=30)
    dot = to_dot(net)
    assert "800B" in dot  # 100 longs through the annotated channel


def test_dot_marks_remote_links():
    from repro.distributed import ComputeServer, ServerClient

    server = ComputeServer(name="viz").start()
    client = ServerClient("127.0.0.1", server.port)
    try:
        net = Network()
        ch = net.channel(name="outbound")
        out = []
        client.run(Sequence(ch.get_output_stream(), iterations=3, name="r"))
        net.add(Collect(ch.get_input_stream(), out, name="c"))
        net.run(timeout=30)
        dot = to_dot(net)
        assert "(remote)" in dot and "dashed" in dot
    finally:
        client.close()
        server.stop()


def test_ascii_export():
    built = fibonacci(5)
    text = to_ascii(built.network)
    assert "processes" in text.splitlines()[0]
    assert "--fib-" in text


# ---------------------------------------------------------------------------
# stress / scale
# ---------------------------------------------------------------------------

def test_deep_pipeline_100_stages():
    net = Network()
    stages = 100
    chans = net.channels_n(stages + 1)
    out = []
    net.add(Sequence(chans[0].get_output_stream(), iterations=50))
    for i in range(stages):
        net.add(MapProcess(chans[i].get_input_stream(),
                           chans[i + 1].get_output_stream(),
                           lambda x: x + 1, name=f"st{i}"))
    net.add(Collect(chans[-1].get_input_stream(), out))
    net.run(timeout=120)
    assert out == [stages + k for k in range(50)]


def test_wide_fanout_32_branches():
    net = Network()
    src = net.channel()
    branches = net.channels_n(32, prefix="fan")
    outs = [[] for _ in range(32)]
    net.add(Sequence(src.get_output_stream(), iterations=40))
    net.add(Duplicate(src.get_input_stream(),
                      [b.get_output_stream() for b in branches]))
    for b, o in zip(branches, outs):
        net.add(Collect(b.get_input_stream(), o))
    net.run(timeout=120)
    assert all(o == list(range(40)) for o in outs)


def test_high_volume_throughput():
    """100k elements through a three-stage pipeline in bounded time."""
    net = Network()
    a, b = net.channels_n(2, capacity=1 << 16)
    out = []
    n = 100_000
    net.add(Sequence(a.get_output_stream(), iterations=n))
    net.add(Scale(a.get_input_stream(), b.get_output_stream(), 2))
    net.add(Collect(b.get_input_stream(), out))
    t0 = time.perf_counter()
    net.run(timeout=300)
    elapsed = time.perf_counter() - t0
    assert len(out) == n
    assert out[-1] == 2 * (n - 1)
    assert elapsed < 120  # generous; typical is a few seconds


def test_many_small_networks_sequentially():
    """Churn: create/run/destroy 50 networks; no cross-talk, no leak."""
    for k in range(50):
        net = Network(name=f"churn-{k}")
        ch = net.channel()
        out = []
        net.add(Sequence(ch.get_output_stream(), start=k, iterations=5))
        net.add(Collect(ch.get_input_stream(), out))
        net.run(timeout=30)
        assert out == list(range(k, k + 5))


def test_sieve_at_depth():
    """A few hundred dynamically inserted processes (one per prime)."""
    from repro.processes import primes
    from repro.semantics import primes_reference

    out = primes(below=1000).run(timeout=300)
    assert out == primes_reference(below=1000)
    assert len(out) == 168
