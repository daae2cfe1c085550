"""Shared test helpers.

Networks in tests always run under a timeout so a regression that
deadlocks (ironically, in a deadlock-management library) fails fast
instead of hanging CI.

Nothing is left behind: a test (or a module-scoped fixture, at its
teardown) that leaves one of the runtime's threads alive — a deadlock
monitor, an event loop, a network actor, a link pump or a request
server's — fails once it has had :data:`LEFTOVER_GRACE_S` to end.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.kpn import scheduler

#: default per-network timeout for tests (seconds)
NET_TIMEOUT = 60.0


@pytest.fixture
def net_timeout() -> float:
    return NET_TIMEOUT


def run_network(net, timeout: float = NET_TIMEOUT):
    """Run a network, failing the test on timeout instead of hanging."""
    finished = net.run(timeout=timeout)
    assert finished, f"network {net.name!r} did not finish within {timeout}s"
    return net


def start_thread(fn, *args, name: str = "test-helper") -> threading.Thread:
    t = threading.Thread(target=fn, args=args, name=name, daemon=True)
    t.start()
    return t


def hosted(server, name: str, timeout: float = 10.0):
    """The process called ``name`` once compute server ``server`` has
    spawned it (a part shipped with ``client.run`` arrives
    asynchronously)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for p in list(server.network.processes):
            if p.name == name:
                return p
        time.sleep(0.005)
    raise AssertionError(f"{name} never arrived on {server.name}")


@pytest.fixture
def hold_monitor(monkeypatch):
    """A settle window longer than any test: the deadlock monitor never
    rules while the network has a live actor (one that waits on the
    test's own writes, say).  It still ends with the last actor."""
    monkeypatch.setattr(scheduler, "SETTLE_MS", 30_000.0)


# ---------------------------------------------------------------------------
# threads left behind
# ---------------------------------------------------------------------------

#: how long a runtime thread may outlive the test that started it
LEFTOVER_GRACE_S = 0.5

#: the runtime's threads, by the function they run
_RUNTIME_THREADS = {
    "DeadlockMonitor._run": "deadlock-monitor",
    "EventLoop._run": "event-loop",
    "Network._run_process": "network-actor",
    "SenderPump._run": "link-pump",
    "SenderPump._control_loop": "link-pump",
    "ReceiverPump._run": "link-pump",
    "RequestServer._accept": "request-server",
    "RequestServer._serve": "request-server",
}


def _runtime_kind(thread):
    target = getattr(thread, "_target", None)   # deleted once run() ends
    func = getattr(target, "__func__", target)
    return _RUNTIME_THREADS.get(getattr(func, "__qualname__", None))


def _owner(thread):
    """The thread that stands for the object ``thread`` runs for: its
    ``_thread`` (a request server's accept thread for its connection
    threads, a sender pump's data thread for its control thread), or
    itself."""
    obj = getattr(getattr(thread, "_target", None), "__self__", None)
    return getattr(obj, "_thread", thread)


def _leftovers(before):
    """Runtime threads not owned by one in ``before`` still alive after
    the grace."""
    deadline = time.monotonic() + LEFTOVER_GRACE_S
    while True:
        left = [f"{_runtime_kind(t)} {t.name!r}" for t in threading.enumerate()
                if _runtime_kind(t) is not None and _owner(t) not in before]
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.01)


@pytest.fixture(autouse=True, scope="module")
def _module_leaves_no_runtime_threads():
    before = set(threading.enumerate())
    yield
    left = _leftovers(before)
    if left:
        pytest.fail(f"module fixtures left runtime threads alive: {left}")


@pytest.fixture(autouse=True)
def _test_leaves_no_runtime_threads():
    # set up after every wider-scoped fixture: their threads are theirs
    before = set(threading.enumerate())
    yield
    left = _leftovers(before)
    if left:
        pytest.fail(f"test left runtime threads alive: {left}")
