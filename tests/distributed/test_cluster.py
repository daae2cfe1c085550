"""LocalCluster and the Figure 14/15 partitioned workflow."""

import os
import sys

import pytest

from repro.config import RunConfig, use
from repro.kpn import Network
from repro.distributed import LocalCluster, run_partitioned
from repro.parallel import CallableTask
from repro.parallel.executor import shutdown_shared_executors
from repro.processes import Collect, FromIterable, Scale, Sequence


@pytest.fixture(scope="module")
def thread_cluster():
    with LocalCluster(3, mode="thread") as cluster:
        yield cluster


def test_ping_all(thread_cluster):
    assert thread_cluster.ping_all() == ["server-0", "server-1", "server-2"]


def test_registry_lists_servers(thread_cluster):
    assert set(thread_cluster.registry.list()) >= {
        "server-0", "server-1", "server-2"}


def test_calls_round_robin(thread_cluster):
    results = [thread_cluster.client(i % 3).call(CallableTask(pow, i, 2))
               for i in range(9)]
    assert results == [i * i for i in range(9)]


def test_stats_all(thread_cluster):
    stats = thread_cluster.stats()
    assert set(stats) == {"server-0", "server-1", "server-2"}


def test_run_partitioned_pipeline(thread_cluster):
    net = Network(name="client-side")
    a, b, c = net.channels_n(3)
    out = []
    # remote stages on two different servers; source and sink stay local
    stage1 = Scale(a.get_input_stream(), b.get_output_stream(), 2, name="x2")
    stage2 = Scale(b.get_input_stream(), c.get_output_stream(), 3, name="x3")
    net.add(FromIterable(a.get_output_stream(), [1, 2, 3, 4]))
    net.add(Collect(c.get_input_stream(), out))
    run_partitioned(None, [stage1, stage2], thread_cluster, network=net,
                    timeout=60)
    assert out == [6, 12, 18, 24]


def test_thread_mode_servers_size_their_pool_from_the_config():
    shutdown_shared_executors()
    config = RunConfig(executor="process", pool_size=1)
    try:
        with LocalCluster(1, mode="thread", config=config) as cluster:
            assert cluster.client(0).call(CallableTask(pow, 2, 5)) == 32
            executor = cluster.stats()["server-0"]["executor"]
    finally:
        shutdown_shared_executors()
    assert executor["kind"] == "process" and executor["size"] == 1


@pytest.mark.slow
def test_process_mode_servers_get_the_process_config_as_argv(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    with use(RunConfig(backend="async")):
        with LocalCluster(1, mode="process") as cluster:
            stats = cluster.stats()["server-0"]
    assert stats["backend"] == "async"
    assert "REPRO_BACKEND" not in os.environ


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        LocalCluster(1, mode="carrier-pigeon")


@pytest.mark.slow
def test_process_mode_cluster_real_parallelism():
    """Servers as separate OS processes (own GILs).  Slow: interpreter
    startup; exercised once here and in the real-execution benchmark."""
    with LocalCluster(2, mode="process") as cluster:
        assert sorted(cluster.ping_all()) == ["server-0", "server-1"]
        results = [cluster.client(i % 2).call(CallableTask(pow, i, 3))
                   for i in range(4)]
        assert results == [0, 1, 8, 27]
        # distributed KPN across OS processes
        net = Network(name="xp")
        a, b = net.channels_n(2)
        out = []
        cluster.client(0).run(Scale(a.get_input_stream(),
                                    b.get_output_stream(), 5, name="x5"))
        net.add(Sequence(a.get_output_stream(), start=1, iterations=6))
        net.add(Collect(b.get_input_stream(), out))
        net.run(timeout=60)
        assert out == [5, 10, 15, 20, 25, 30]
