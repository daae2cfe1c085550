"""Serialization-driven migration (paper section 4.2).

"Rather than burdening the programmer with the responsibility of
performing this replacement, we have made this chore completely invisible
and automatic by taking advantage of several features of Java Object
Serialization."  Python's pickle offers the same hook points; this module
implements them with a custom :class:`MigrationPickler` whose
``reducer_override`` plays the role of ``writeObject``/``writeReplace``,
and module-level rebuild functions playing ``readObject``/``readResolve``.

Pickling a process (or composite) for shipment classifies every channel it
touches:

* **internal** — both endpoints belong to the migrating subgraph: the
  channel is rebuilt whole on the destination, carrying any buffered
  bytes with it;
* **output boundary** — the producer moves, the consumer stays: a
  :class:`~repro.distributed.sockets.ReceiverPump` is installed locally
  (feeding the consumer's existing buffer) and the serialized endpoint
  rebuilds as a remote-connected output on the destination;
* **input boundary** — the consumer moves, the producer stays: a
  :class:`~repro.distributed.sockets.SenderPump` is installed locally
  (draining the producer's existing buffer) and the serialized endpoint
  rebuilds as a remote-connected input;
* **re-migration** — the endpoint is already remote: the peer is asked to
  accept a reconnection (``LISTEN_REQ`` handshake) and the new server
  dials it *directly*, reproducing the decentralized communication of
  Figure 15 — traffic never relays through the origin server.

Use :func:`dumps_migration` / :func:`loads_migration`; the compute server
wires them into its RPC layer so ``client.run(process)`` just works.
"""

from __future__ import annotations

import contextvars
import io
import pickle
from contextlib import contextmanager
from typing import Any, Callable, List, Optional, Set

from repro.errors import MigrationError
from repro.kpn.buffers import BoundedByteBuffer
from repro.kpn.channel import Channel, ChannelInputStream, ChannelOutputStream
from repro.kpn.network import Network
from repro.kpn.process import CompositeProcess, Process
from repro.distributed.sockets import ReceiverPump, SenderPump

__all__ = ["MigrationPickler", "dumps_migration", "loads_migration",
           "import_network", "owned_endpoints", "migrate_live"]

#: network adopted by channels rebuilt during unpickling
_import_network: contextvars.ContextVar[Optional[Network]] = contextvars.ContextVar(
    "repro_import_network", default=None)


@contextmanager
def import_network(network: Optional[Network]):
    """While active, migrated channels register with ``network``."""
    token = _import_network.set(network)
    try:
        yield network
    finally:
        _import_network.reset(token)


def _current_network() -> Optional[Network]:
    return _import_network.get()


def _make_channel(name: str, capacity: int) -> Channel:
    net = _current_network()
    if net is not None:
        return net.channel(capacity, name=name)
    return Channel(capacity, name=name)


def _preload(ch: Channel, data: bytes) -> None:
    if not data:
        return
    if len(data) > ch.buffer.capacity:
        ch.buffer.grow(len(data), "migration")
    ch.buffer.write(data)


# ---------------------------------------------------------------------------
# rebuild functions (the ``readResolve`` side; must stay module-level and
# backwards compatible — they are referenced by name inside pickles)
# ---------------------------------------------------------------------------

def _rebuild_channel(name: str, capacity: int, data: bytes) -> Channel:
    ch = _make_channel(name, capacity)
    _preload(ch, data)
    return ch


def _channel_output(ch: Channel) -> ChannelOutputStream:
    return ch.get_output_stream()


def _channel_input(ch: Channel) -> ChannelInputStream:
    return ch.get_input_stream()


def _rebuild_remote_output(host: str, port: int, capacity: int,
                           name: str) -> ChannelOutputStream:
    ch = _make_channel(name, capacity)
    pump = SenderPump(ch.buffer, connect=(host, port), name=name).start()
    ch.sender_pump = pump
    return ch.get_output_stream()


def _rebuild_remote_input(host: str, port: int, capacity: int, name: str,
                          preload: bytes) -> ChannelInputStream:
    ch = _make_channel(name, capacity)
    _preload(ch, preload)
    pump = ReceiverPump(ch.buffer, connect=(host, port), name=name).start()
    ch.receiver_pump = pump
    return ch.get_input_stream()


# ---------------------------------------------------------------------------
# ownership analysis
# ---------------------------------------------------------------------------

def owned_endpoints(process: Process) -> Set[int]:
    """Identity set of every channel endpoint the subgraph owns.

    Ownership = appearing in a member process's tracked stream lists,
    which the library maintains precisely (handoffs call ``untrack``).
    """
    members: List[Process] = [process]
    if isinstance(process, CompositeProcess):
        members.extend(process.flatten())
    owned: Set[int] = set()
    for m in members:
        for s in (*m.input_streams, *m.output_streams):
            owned.add(id(s))
    return owned


# ---------------------------------------------------------------------------
# the pickler
# ---------------------------------------------------------------------------

class MigrationPickler(pickle.Pickler):
    """Pickler that swaps channel endpoints for network plumbing.

    Side effects happen *during* ``dump`` (listeners open, peers are asked
    to accept reconnections); :attr:`post_actions` collects finalizers
    that must wait until the whole object is pickled (e.g. closing the
    write side of a buffer whose producer migrated) and ``dump`` runs
    them last — for every user of the pickler, the RPC layer's
    ``pickler_factory`` hook included.
    """

    def __init__(self, file, process: Process,
                 protocol: int = pickle.HIGHEST_PROTOCOL,
                 buffer_callback=None) -> None:
        super().__init__(file, protocol=protocol,
                         buffer_callback=buffer_callback)
        self._owned = owned_endpoints(process)
        self.post_actions: List[Callable[[], None]] = []

    def dump(self, obj: Any) -> None:
        super().dump(obj)
        actions, self.post_actions = self.post_actions, []
        for action in actions:
            action()

    # -- classification helpers ------------------------------------------
    def _is_internal(self, ch: Channel) -> bool:
        out_ep = ch._output
        in_ep = ch._input
        return (out_ep is not None and id(out_ep) in self._owned
                and in_ep is not None and id(in_ep) in self._owned)

    # -- the hook -----------------------------------------------------------
    def reducer_override(self, obj: Any):
        if isinstance(obj, ChannelOutputStream):
            return self._reduce_output(obj)
        if isinstance(obj, ChannelInputStream):
            return self._reduce_input(obj)
        if isinstance(obj, Channel):
            return self._reduce_channel(obj)
        if isinstance(obj, BoundedByteBuffer):
            raise MigrationError(
                f"raw channel buffer {obj.name!r} reached the pickler; "
                "processes must reference channels only through their "
                "endpoint streams")
        return NotImplemented

    def _reduce_channel(self, ch: Channel):
        if not self._is_internal(ch):
            raise MigrationError(
                f"process holds a direct reference to boundary channel "
                f"{ch.name!r}; hold endpoint streams instead")
        return (_rebuild_channel, (ch.name, ch.capacity, ch.drain()))

    def _reduce_output(self, out: ChannelOutputStream):
        ch = out.channel
        if self._is_internal(ch):
            return (_channel_output, (ch,))
        sender: Optional[SenderPump] = getattr(ch, "sender_pump", None)
        if sender is not None:
            # Re-migration of the producer end (Figure 15): the consumer's
            # server opens a listener; the new producer will dial it
            # directly.  Our residual bytes flush, then SWITCH.
            host, port = sender.begin_migration()
            self.post_actions.append(sender.finish_migration)
            return (_rebuild_remote_output,
                    (host, port, ch.capacity, ch.name))
        # First migration of the producer end: the consumer stays here;
        # install a receiver pump feeding the consumer's existing buffer.
        pump = ReceiverPump(ch.buffer, name=ch.name)
        host, port = pump.ensure_listener()
        ch.receiver_pump = pump
        self.post_actions.append(pump.start)
        return (_rebuild_remote_output, (host, port, ch.capacity, ch.name))

    def _reduce_input(self, inp: ChannelInputStream):
        if inp.detached:
            raise MigrationError(
                "cannot migrate a spliced-away (detached) channel input")
        ch = inp.channel
        if inp.sequence.current is None or len(inp.sequence._streams) > 1:
            raise MigrationError(
                f"channel {ch.name!r} input has spliced segments; migrate "
                "before or after reconfiguration, not mid-splice")
        if self._is_internal(ch):
            return (_channel_input, (ch,))
        receiver: Optional[ReceiverPump] = getattr(ch, "receiver_pump", None)
        if receiver is not None:
            # Re-migration of the consumer end: producer side accepts a
            # reconnect; unconsumed local bytes travel in the pickle, the
            # endpoint's read-ahead ahead of the ring's.
            host, port = receiver.begin_migration()
            drained = ch.reader.take_held() + receiver.detach_and_drain()
            return (_rebuild_remote_input,
                    (host, port, ch.capacity, ch.name, drained))
        # First migration of the consumer end: producer stays; install a
        # sender pump draining the producer's existing buffer.  What the
        # endpoint read ahead is older than anything the pump will send,
        # so it travels in the pickle and is preloaded on the destination.
        pump = SenderPump(ch.buffer, name=ch.name)
        host, port = pump.ensure_listener()
        ch.sender_pump = pump
        self.post_actions.append(pump.start)
        return (_rebuild_remote_input,
                (host, port, ch.capacity, ch.name, ch.reader.take_held()))


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def dumps_migration(process: Process) -> bytes:
    """Serialize a process/composite for shipment to another server.

    All boundary plumbing (listeners, pumps) is installed on this side as
    a side effect, exactly as Java serialization triggers the paper's
    ``writeObject`` connection setup.
    """
    buf = io.BytesIO()
    MigrationPickler(buf, process).dump(process)
    return buf.getvalue()


def migrate_live(process: Process, client, timeout: float = 10.0) -> None:
    """Move a *running* process to a compute server (paper section 6.1).

    "One focus of our future work is making it possible to re-distribute
    processes after execution has already begun" — this is that feature:

    1. ask the process to pause at its next step boundary (it holds no
       partial element there, so channel state is consistent);
    2. serialize and ship it — unconsumed input bytes travel via the
       normal migration plumbing, its progress counter travels in its
       state, and ``on_start`` is marked already-run;
    3. tell the parked local thread to abandon (exit *without* closing
       the streams, which now belong to the remote copy).

    Raises :class:`~repro.errors.MigrationError` if the process does not
    reach a step boundary within ``timeout`` — typically because it is
    blocked in a channel operation awaiting traffic; migration will
    succeed once data flows, so callers may retry.

    ``client`` is a :class:`~repro.distributed.server.ServerClient`.
    Only step-structured processes (IterativeProcess subclasses) support
    live migration; composites must be moved before starting.
    """
    ctrl = process.control()
    ctrl.request_pause()
    if not ctrl.wait_parked(timeout):
        ctrl.resume()
        raise MigrationError(
            f"{process.name} did not reach a step boundary within "
            f"{timeout}s (blocked in a channel operation?)")
    try:
        process._live_migrated = True
        client.run(process)
    except Exception:
        process._live_migrated = False
        ctrl.resume()
        raise
    ctrl.abandon()


def loads_migration(data: bytes, network: Optional[Network] = None,
                    buffers=None) -> Any:
    """Deserialize a migrated process, attaching channels to ``network``.

    Remote connections back to the origin server are established during
    unpickling (the ``readResolve`` side of the paper's scheme).
    ``buffers`` forwards protocol-5 out-of-band buffers collected when the
    object was dumped with a ``buffer_callback``.
    """
    with import_network(network):
        obj = pickle.loads(data, buffers=buffers or ())
    if network is not None and isinstance(obj, Process):
        obj.network = network
        if isinstance(obj, CompositeProcess):
            for member in obj.processes:
                member.network = network
    return obj
