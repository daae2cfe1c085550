"""The one request/reply endpoint, exercised through each of its three
dispatch tables: the registry, a compute server and a pool child.

What a caller may rely on is the same everywhere: a bad *frame* ends the
connection, a bad *request* gets an error reply in the stub's own error
type (with the far side's traceback) and the connection carries on, and a
transport failure drops the socket so the next request starts afresh.
"""

import socket
import struct
import threading
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.distributed import wire
from repro.distributed.registry import RegistryClient, RegistryServer
from repro.distributed.server import ComputeServer, ServerClient
from repro.distributed.wire import FrameError, open_listener
from repro.errors import RegistryError, RemoteError
from repro.parallel.executor import ProcessPool
from repro.parallel.tasks import CallableTask
from repro.telemetry.core import TELEMETRY


class _BadState:
    """Pickles fine, refuses to unpickle: a well-framed bad request."""

    def run(self):
        return "never"

    def __getstate__(self):
        return {"x": 1}

    def __setstate__(self, state):
        raise ValueError("refusing this state")


@dataclass
class _Endpoint:
    """One dispatch table behind the endpoint, as the cases below see it."""

    request: Callable[[Any], Any]   #: send any object as a request
    check: Callable[[], None]       #: a request that must still succeed
    error: type                     #: the stub's exception type
    handler_bug: Any                #: a request whose handler raises
    poisoned: Any                   #: a request that will not unpickle
    close: Callable[[], None]


def _registry():
    server = RegistryServer().start()
    client = RegistryClient("127.0.0.1", server.port)
    return _Endpoint(client.request, client.list, RegistryError,
                     {"op": "register"},            # KeyError: no "name"
                     {"op": "list", "junk": _BadState()},
                     lambda: (client.close(), server.stop()))


def _server():
    server = ComputeServer(name="endpoint").start()
    client = ServerClient("127.0.0.1", server.port)
    return _Endpoint(client.request, client.ping, RemoteError,
                     {"op": "grow_channel"},        # KeyError: no "channel"
                     {"op": "ping", "junk": _BadState()},
                     lambda: (client.close(), server.stop()))


def _pool_child():
    pool = ProcessPool(size=1)
    pid = pool.child_pids()[0]

    def check():
        assert pool.run_task(CallableTask(pow, 2, 5)) == 32
        # whatever came before, the same child answered: it was a reply,
        # not a crash and a respawn
        assert pool.child_pids() == [pid] and pool.respawns == 0

    return _Endpoint(pool.run_task, check, RemoteError,
                     CallableTask(divmod, 1, 0), _BadState(), pool.close)


@pytest.fixture(params=[_registry, _server, _pool_child],
                ids=["registry", "server", "pool-child"])
def endpoint(request):
    ep = request.param()
    yield ep
    ep.close()


def test_request_nobody_handles_is_an_error_reply(endpoint):
    # an op neither table has; to a pool child, a request with no run()
    with pytest.raises(endpoint.error, match="unknown op|no attribute 'run'"):
        endpoint.request({"op": "no-such-op"})
    endpoint.check()


def test_handler_exception_arrives_with_the_remote_traceback(endpoint):
    with pytest.raises(endpoint.error, match="KeyError|ZeroDivisionError") as info:
        endpoint.request(endpoint.handler_bug)
    assert "Traceback" in info.value.remote_traceback
    assert "remote traceback" in str(info.value)
    endpoint.check()


def test_request_that_will_not_unpickle_is_answered_not_dropped(endpoint):
    with pytest.raises(endpoint.error, match="refusing this state") as info:
        endpoint.request(endpoint.poisoned)
    assert "__setstate__" in info.value.remote_traceback
    endpoint.check()


# ---------------------------------------------------------------------------
# transport failures: the named error, then a fresh connection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("server_type, client_type, error", [
    (RegistryServer, RegistryClient, RegistryError),
    (ComputeServer, ServerClient, RemoteError)], ids=["registry", "server"])
def test_client_survives_its_server_restarting(server_type, client_type, error):
    server = server_type().start()
    client = client_type("127.0.0.1", server.port)
    probe = getattr(client, "ping", None) or client.list
    try:
        probe()
        server.stop()
        with pytest.raises(error, match="unreachable"):
            probe()
        server = server_type(server.port).start()
        probe()                       # the same client object reconnects
    finally:
        client.close()
        server.stop()


def test_peer_closing_mid_reply_is_the_stubs_error_and_forgotten():
    listener = open_listener()
    port = listener.getsockname()[1]

    def half_a_reply():
        sock, _ = listener.accept()
        with sock:
            wire.recv_obj(sock)
            sock.sendall(struct.pack(">BI", wire.Tag.OBJ, 100) + b"short")

    peer = threading.Thread(target=half_a_reply, daemon=True)
    peer.start()
    client = RegistryClient("127.0.0.1", port)
    try:
        with pytest.raises(RegistryError, match="mid-frame"):
            client.list()
        peer.join(10)
        listener.close()
        # the half-read socket is gone: a registry now on that port is
        # reached over a new connection
        server = RegistryServer(port).start()
        try:
            assert client.list() == []
        finally:
            server.stop()
    finally:
        client.close()
        listener.close()


# ---------------------------------------------------------------------------
# what the pool inherits from the wire
# ---------------------------------------------------------------------------

@pytest.fixture
def pool():
    p = ProcessPool(size=1)
    yield p
    p.close()


def test_numpy_block_travels_out_of_band_to_a_pool_child_and_back(pool):
    np = pytest.importorskip("numpy")
    arr = np.arange(1 << 15, dtype=np.float64)
    with TELEMETRY.enabled_scope():
        sent = TELEMETRY.counter("wire.oob_buffers_out")
        back = TELEMETRY.counter("wire.frames_received", tag="OBJ_OOB")
        out = pool.run_task(CallableTask(np.multiply, arr, 2.0))
        assert TELEMETRY.counter("wire.oob_buffers_out") == sent + 1
        assert TELEMETRY.counter("wire.frames_received",
                                 tag="OBJ_OOB") == back + 1
    assert np.array_equal(out, arr * 2.0)


def _chatty(text):
    print(text)
    return len(text)


def test_print_in_a_pool_task_reaches_the_parents_stderr(capfd):
    pool = ProcessPool(size=1)      # spawned under capfd: inherits its fd 2
    try:
        assert pool.run_task(CallableTask(_chatty, "hello from the child")) == 20
        assert pool.run_task(CallableTask(pow, 2, 2)) == 4
    finally:
        pool.close()
    captured = capfd.readouterr()
    assert "hello from the child" in captured.err
    assert "hello from the child" not in captured.out


def test_task_over_the_payload_cap_is_refused_at_submit(pool, monkeypatch):
    monkeypatch.setattr(wire, "MAX_PAYLOAD", 4096)
    with pytest.raises(FrameError, match="exceeds cap"):
        pool.submit(CallableTask(len, bytes(8192)))
    assert pool.stats()["idle"] == 1        # no child was checked out
    assert pool.run_task(CallableTask(len, b"fits")) == 4


def _lower_cap_then_return(n):
    from repro.distributed import wire

    wire.MAX_PAYLOAD = 4096         # this child's cap, for the reply below
    return bytes(n)


def test_result_over_the_payload_cap_is_a_remote_error(pool):
    pid = pool.child_pids()[0]
    with pytest.raises(RemoteError, match="exceeds cap"):
        pool.run_task(CallableTask(_lower_cap_then_return, 8192))
    assert pool.run_task(CallableTask(_lower_cap_then_return, 16)) == bytes(16)
    assert pool.child_pids() == [pid] and pool.respawns == 0


def test_oversized_incoming_frame_ends_the_connection_only():
    server = ComputeServer(name="capped").start()
    client = ServerClient("127.0.0.1", server.port)
    try:
        with socket.create_connection(("127.0.0.1", server.port)) as rogue:
            rogue.sendall(struct.pack(">BI", wire.Tag.OBJ, wire.MAX_PAYLOAD + 1))
            assert rogue.recv(1) == b""     # hung up on, no reply
        assert client.ping() == "capped"
    finally:
        client.close()
        server.stop()
