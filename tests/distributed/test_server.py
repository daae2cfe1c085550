"""Compute server RPC: ping/run/call/stats/shutdown, error transport."""

import threading
import time

import pytest

from repro.distributed.registry import RegistryClient, RegistryServer
from repro.distributed.server import ComputeServer, ServerClient
from repro.errors import RemoteError
from repro.kpn.process import IterativeProcess
from repro.parallel import CallableTask


class _Once(IterativeProcess):
    """A do-nothing one-step process (module-level: must pickle)."""

    def step(self):
        pass


@pytest.fixture
def server_client():
    server = ComputeServer(name="test-server").start()
    client = ServerClient("127.0.0.1", server.port)
    yield server, client
    client.close()
    server.stop()


def test_ping(server_client):
    _, client = server_client
    assert client.ping() == "test-server"


def test_call_returns_result(server_client):
    _, client = server_client
    assert client.call(CallableTask(pow, 2, 10)) == 1024


def test_call_many_sequential(server_client):
    _, client = server_client
    assert [client.call(CallableTask(abs, -i)) for i in range(10)] == \
        list(range(10))


def test_call_exception_becomes_remote_error(server_client):
    _, client = server_client
    with pytest.raises(RemoteError, match="ZeroDivisionError") as exc_info:
        client.call(CallableTask(divmod, 1, 0))
    assert "Traceback" in exc_info.value.remote_traceback


def test_run_async_runnable(server_client):
    """run() returns immediately; the runnable executes server-side.
    The observable side effect is a marker file (picklable spy)."""
    server, client = server_client
    client.run(CallableTask(_touch_file_task, _tmp_marker()))
    deadline = time.monotonic() + 10
    import os

    while time.monotonic() < deadline and not os.path.exists(_tmp_marker()):
        time.sleep(0.02)
    assert os.path.exists(_tmp_marker())
    os.unlink(_tmp_marker())


def _tmp_marker() -> str:
    return "/tmp/repro-test-run-marker"


def _touch_file_task(path: str) -> None:
    with open(path, "w") as fh:
        fh.write("ran")


def test_run_process_hosted_on_server_network(server_client):
    server, client = server_client
    client.run(_Once(iterations=1))
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and server.processes_hosted < 1:
        time.sleep(0.02)
    assert server.processes_hosted == 1


def test_run_rejects_non_runnable(server_client):
    _, client = server_client
    with pytest.raises(RemoteError, match="no run"):
        client.run(42)


def test_stats(server_client):
    _, client = server_client
    client.call(CallableTask(abs, -1))
    stats = client.stats()
    assert stats["name"] == "test-server"
    assert stats["tasks_run"] >= 1
    assert stats["uptime_seconds"] >= 0.0
    assert isinstance(stats["telemetry_enabled"], bool)


def test_registry_integration():
    registry = RegistryServer().start()
    server = ComputeServer(name="reg-me",
                           registry=("127.0.0.1", registry.port)).start()
    reg_client = RegistryClient("127.0.0.1", registry.port)
    try:
        client = ServerClient.from_registry(reg_client, "reg-me")
        assert client.ping() == "reg-me"
        server.stop()
        # server unregisters on stop
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and "reg-me" in reg_client.list():
            time.sleep(0.02)
        assert "reg-me" not in reg_client.list()
    finally:
        reg_client.close()
        server.stop()
        registry.stop()


def test_shutdown_via_client():
    server = ComputeServer(name="bye").start()
    client = ServerClient("127.0.0.1", server.port)
    client.shutdown()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and not server._stop.is_set():
        time.sleep(0.02)
    assert server._stop.is_set()
    client.close()


def test_two_clients_concurrently(server_client):
    server, _ = server_client
    results = []

    def hammer():
        c = ServerClient("127.0.0.1", server.port)
        results.extend(c.call(CallableTask(pow, 2, k)) for k in range(5))
        c.close()

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert sorted(results) == sorted([2 ** k for k in range(5)] * 4)


def test_call_routes_through_server_executor():
    """A server built with executor="process" executes shipped tasks in
    a pool child, and its stats expose the pool's counters."""
    from repro.parallel.executor import ProcessPool

    pool = ProcessPool(size=1)
    server = ComputeServer(name="exec-server", executor=pool).start()
    client = ServerClient("127.0.0.1", server.port)
    try:
        assert client.call(CallableTask(pow, 3, 4)) == 81
        stats = client.stats()
        assert stats["executor"]["kind"] == "process"
        assert stats["executor"]["resolved"] is True
        assert stats["executor"]["tasks_completed"] >= 1
    finally:
        client.close()
        server.stop()
        pool.close()


def test_stats_report_unresolved_executor_spec():
    server = ComputeServer(name="lazy-server", executor="process").start()
    client = ServerClient("127.0.0.1", server.port)
    try:
        stats = client.stats()
        # no call yet: the spec is reported but nothing was built
        assert stats["executor"] == {"kind": "process", "resolved": False}
    finally:
        client.close()
        server.stop()
