"""Unit tests for Network lifecycle, graph export, and analysis."""

import threading
import time

import pytest

from repro.errors import TrueDeadlockError
from repro.kpn import Network
from repro.kpn.process import IterativeProcess
from repro.processes import Collect, Duplicate, MapProcess, Sequence
from repro.processes.networks import fibonacci, modulo_merge


def simple_net(n=10):
    net = Network()
    ch = net.channel(name="only")
    out = []
    net.add(Sequence(ch.get_output_stream(), start=0, iterations=n, name="Src"))
    net.add(Collect(ch.get_input_stream(), out, name="Dst"))
    return net, out


def test_run_joins_and_collects():
    net, out = simple_net()
    assert net.run(timeout=30)
    assert out == list(range(10))


@pytest.mark.parametrize("backend", ["thread", "async"])
def test_processes_that_share_a_name_all_start(backend):
    """start() skips what is already running by identity, not by name:
    a second process named like the first must run too."""
    net = Network(backend=backend)
    a, b = net.channel(name="a"), net.channel(name="b")
    out_a, out_b = [], []
    net.add(Sequence(a.get_output_stream(), iterations=3, name="src"))
    net.add(Sequence(b.get_output_stream(), iterations=3, name="src"))
    net.add(Collect(a.get_input_stream(), out_a, name="sink-a"))
    net.add(Collect(b.get_input_stream(), out_b, name="sink-b"))
    assert net.run(timeout=30)
    assert out_a == out_b == [0, 1, 2]


def test_a_process_spawned_before_start_is_not_started_again():
    net = Network()
    ch = net.channel(name="only")
    out = []
    net.spawn(Sequence(ch.get_output_stream(), iterations=3, name="Src"))
    net.add(Collect(ch.get_input_stream(), out, name="Dst"))
    assert net.run(timeout=30)
    assert out == [0, 1, 2]
    assert len(net._threads) == 2


def test_double_start_rejected():
    net, _ = simple_net()
    net.start()
    with pytest.raises(RuntimeError):
        net.start()
    net.join(timeout=30)


def test_join_timeout_returns_false():
    net = Network()
    ch = net.channel()

    class Forever(IterativeProcess):
        def __init__(self, stream):
            super().__init__()
            self.stream = stream
            self.track(stream)

        def step(self):
            self.stream.read(1)  # blocks forever; no writer

    net.monitor.policy.on_true = "ignore"  # keep it blocked
    net.add(Forever(ch.get_input_stream()))
    net.start()
    assert net.join(timeout=0.3) is False
    net.shutdown()
    assert net.join(timeout=10)


def test_process_failure_raised_from_join():
    class Bad(IterativeProcess):
        def step(self):
            raise RuntimeError("kaput")

    net = Network()
    net.add(Bad(iterations=1))
    with pytest.raises(RuntimeError, match="kaput"):
        net.run(timeout=30)


def test_shutdown_closes_all_channels():
    net, _ = simple_net()
    net.shutdown()
    assert all(ch.buffer.write_closed and ch.buffer.read_closed
               for ch in net.channels)


def test_channels_get_shared_accounting():
    net = Network()
    a, b = net.channels_n(2)
    assert a.buffer.accounting is net.accounting
    assert b.buffer.accounting is net.accounting


def test_adopt_channel():
    from repro.kpn.channel import Channel

    net = Network()
    ch = Channel(16)
    net.adopt_channel(ch)
    assert ch in net.channels
    assert ch.buffer.accounting is net.accounting


def test_ensure_running_allows_spawn_only_use():
    net = Network()
    net.ensure_running()
    done = []

    class One(IterativeProcess):
        def step(self):
            done.append(1)

    net.spawn(One(iterations=1))
    assert net.join(timeout=30)
    assert done == [1]


def _gone_within(names, before, seconds=1.0):
    """True once no thread started since ``before`` has a name in ``names``."""
    deadline = time.monotonic() + seconds
    while True:
        left = [t for t in threading.enumerate()
                if t not in before and t.name in names]
        if not left or time.monotonic() >= deadline:
            return not left
        time.sleep(0.01)


@pytest.mark.parametrize("backend", ["thread", "async"])
def test_shutdown_stops_the_monitor_and_the_idle_loop(backend):
    class Blocked(IterativeProcess):
        def __init__(self, stream):
            super().__init__(name="blocked")
            self.stream = stream
            self.track(stream)

        def step(self):
            self.stream.read(1)  # no writer: blocks until shutdown

    before = set(threading.enumerate())
    net = Network(name="stopper", backend=backend)
    net.monitor.policy.on_true = "ignore"  # keep it blocked
    net.add(Blocked(net.channel().get_input_stream()))
    net.start()
    time.sleep(0.05)
    net.shutdown()
    assert _gone_within({"deadlock-monitor", "stopper-loop", "blocked"},
                        before)
    assert net.join(timeout=10)


def test_a_verdict_shuts_down_from_the_monitor_thread():
    """The monitor's own shutdown must not join the monitor's thread."""
    before = set(threading.enumerate())
    net = Network()
    net.add(Collect(net.channel().get_input_stream(), [], name="starved"))
    with pytest.raises(TrueDeadlockError):
        net.run(timeout=30)
    assert _gone_within({"deadlock-monitor"}, before)


def test_context_manager_stops_monitor():
    with Network() as net:
        ch = net.channel()
        out = []
        net.add(Sequence(ch.get_output_stream(), iterations=5))
        net.add(Collect(ch.get_input_stream(), out))
        net.run(timeout=30)
    assert out == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# graph export and analysis
# ---------------------------------------------------------------------------

def test_graph_export_nodes_and_edges():
    net = Network()
    a, b = net.channels_n(2)
    out = []
    net.add(Sequence(a.get_output_stream(), iterations=1, name="s"))
    net.add(MapProcess(a.get_input_stream(), b.get_output_stream(),
                       abs, name="m"))
    net.add(Collect(b.get_input_stream(), out, name="c"))
    g = net.graph()
    assert set(g.nodes) == {"s", "m", "c"}
    assert g.number_of_edges() == 2
    assert g.has_edge("s", "m") and g.has_edge("m", "c")


def test_pipeline_has_no_undirected_cycle():
    net = Network()
    a, b = net.channels_n(2)
    net.add(Sequence(a.get_output_stream(), iterations=1, name="s"))
    net.add(MapProcess(a.get_input_stream(), b.get_output_stream(), abs, name="m"))
    net.add(Collect(b.get_input_stream(), [], name="c"))
    assert net.has_undirected_cycle() is False


def test_fibonacci_has_undirected_cycle():
    built = fibonacci(5)
    assert built.network.has_undirected_cycle() is True


def test_fig13_has_undirected_cycle_though_acyclic_directed():
    """Figure 13: directed-acyclic but undirected-cyclic — the class of
    graph whose default capacities may deadlock (section 3.5)."""
    import networkx as nx

    built = modulo_merge(10, 5)
    g = built.network.graph()
    assert nx.is_directed_acyclic_graph(nx.DiGraph(g))
    assert built.network.has_undirected_cycle() is True


def test_diamond_counts_as_undirected_cycle():
    net = Network()
    a, b, c, d = net.channels_n(4)
    from repro.processes import Add

    net.add(Sequence(a.get_output_stream(), iterations=3, name="src"))
    net.add(Duplicate(a.get_input_stream(),
                      [b.get_output_stream(), c.get_output_stream()],
                      name="dup"))
    net.add(Add(b.get_input_stream(), c.get_input_stream(),
                d.get_output_stream(), name="add"))
    net.add(Collect(d.get_input_stream(), [], name="sink"))
    assert net.has_undirected_cycle() is True


def test_total_buffered_bytes():
    net = Network()
    ch = net.channel()
    ch.get_output_stream().write(b"12345")
    assert net.total_buffered_bytes() == 5
