"""Socket transport for channels that span servers (paper sections 4.2–4.3).

When a process migrates, the in-memory pipe under its channel is replaced
by a TCP link with one *pump* thread at each end:

* :class:`SenderPump` runs on the **producer's** host: it reads bytes from
  the channel's local buffer and sends them as ``DATA`` frames, so the
  producer process keeps writing to a perfectly ordinary local stream.
* :class:`ReceiverPump` runs on the **consumer's** host: it receives
  frames and writes the bytes into a local buffer the consumer reads from
  — so Kahn blocking reads, bounded capacities, and backpressure (bounded
  buffer → blocked pump → TCP flow control → blocked sender → full buffer
  → blocked producer) all survive distribution unchanged.

Termination cascades cross the network in both directions (section 3.4:
"These exceptions even propagate across network connections"):

* producer stops → ``EOF`` frame → consumer-side buffer write-closed →
  consumer drains then sees end of stream;
* consumer stops → consumer-side buffer read-closed → ``CLOSE_READ``
  frame → producer-side buffer read-closed → producer's next write raises.

Re-migration (the decentralized reconnection of Figure 15) uses the
``LISTEN_REQ``/``LISTEN_OK`` handshake: the end that is about to move asks
its *peer* to (re)open a listener; the peer replies with its advertised
address; the migrated end connects there directly — the origin server
drops out of the path entirely once its residual bytes are flushed
(``SWITCH`` frame marks the hand-off point, preserving FIFO order exactly
like the paper's RedirectedInputStream + SequenceInputStream).

A link end sends its stream frames (``DATA``, ``EOF``, ``SWITCH``) through
one gate: an Event set while the end has a socket whose peer stays, and
cleared from a consumer's ``LISTEN_REQ`` until its replacement dials in,
so nothing reaches the departing consumer after ``LISTEN_OK``.  Control
frames go out at once.  A listener serves one dial-in: the connection
that starts the link, or the one a ``LISTEN_REQ`` announces; ``accept``
closes it, and a pump closes whatever it still holds when it ends.
"""

from __future__ import annotations

import os
import pickle
import queue
import socket
import threading
import time
from typing import Optional, Tuple

from repro.errors import BrokenChannelError, ChannelError, MigrationError
from repro.kpn.buffers import BoundedByteBuffer
from repro.telemetry.core import TELEMETRY as _telemetry
from repro.distributed.wire import (FrameError, FrameReader, Tag,
                                    advertised_host, connect_with_retry,
                                    open_listener, recv_frame, send_frame,
                                    send_frame_views)

__all__ = ["SenderPump", "ReceiverPump", "LINK_SOCKBUF"]


#: upper bound on the bytes one DATA frame carries: a frame is one drain
#: of whatever the channel buffers, and this keeps a very large channel's
#: frame far below the wire-level payload cap
_MAX_DRAIN = 8 * 1024 * 1024

#: kernel send/receive buffer size requested for link sockets.  Generous
#: in-kernel buffering lets each pump run longer bursts before blocking,
#: which matters most when producer, pumps, and consumer share few cores.
LINK_SOCKBUF = 1 << 20


def _tune_link_socket(sock: socket.socket) -> None:
    """Apply the data-plane socket options to a freshly made link socket."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, LINK_SOCKBUF)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, LINK_SOCKBUF)
    except OSError:  # pragma: no cover - platform-dependent limits
        pass


class _LinkBase:
    """State shared by both pump kinds: socket, listener, send gate,
    control queue, and the traffic count a deadlock monitor reads
    (:meth:`state`).

    ``link`` names the link, the same at both ends and across
    re-migrations (the migration pickler hands it on); a fresh one is
    drawn when none is given.  ``connect`` is the peer's ``(host, port)``
    to dial, or None to take the peer's dial-in on this end's listener.
    """

    #: the end of the link this pump is, as :meth:`state` reports it
    role = ""

    def __init__(self, buffer: BoundedByteBuffer,
                 connect: Optional[Tuple[str, int]] = None, name: str = "",
                 link: str = "") -> None:
        self.buffer = buffer
        self.name = name or buffer.name
        self.link = link or os.urandom(16).hex()
        self._connect_to = connect
        self.sock: Optional[socket.socket] = None
        self.listener: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        #: the send gate: set while this end has a socket whose peer
        #: stays, cleared while the peer redials
        self._ready = threading.Event()
        self._listen_ok: "queue.Queue[Tuple[str, int]]" = queue.Queue()
        self._closed = threading.Event()
        self.failure: Optional[Exception] = None
        #: DATA payload bytes sent (or delivered into the buffer), plus
        #: one per EOF or SWITCH frame, so an end of stream in flight
        #: counts as traffic too
        self.moved = 0
        #: the pump's thread has returned: this end moves nothing more
        self.finished = False

    def state(self) -> dict:
        """This end's traffic, for a deadlock monitor's in-flight check.

        ``full``: a receiving pump whose buffer has no room — what is
        still in flight towards it waits for the consumer, not the wire.
        """
        return {"link": self.link, "role": self.role, "moved": self.moved,
                "live": not self.finished,
                "full": (self.role == "recv" and not self.finished
                         and self.buffer.free_space() == 0)}

    # -- connection management -----------------------------------------------
    def ensure_listener(self) -> Tuple[str, int]:
        """Open (or reuse) the listener for the next dial-in; return
        (host, port)."""
        if self.listener is None:
            self.listener = open_listener()
        return advertised_host(), self.listener.getsockname()[1]

    def accept(self, timeout: float = 60.0) -> socket.socket:
        """Take one dial-in, then close the listener it came in on."""
        listener = self.listener
        if listener is None:
            raise ChannelError(f"link {self.name!r} has no listener")
        try:
            listener.settimeout(timeout)
            sock, _ = listener.accept()
        finally:
            self.listener = None
            listener.close()
        sock.settimeout(None)  # accepted sockets must block indefinitely
        _tune_link_socket(sock)
        return sock

    def _open(self) -> None:
        """Dial the peer, or take its dial-in; then open the send gate."""
        if self._connect_to is not None:
            sock = connect_with_retry(*self._connect_to)
            _tune_link_socket(sock)
        else:
            self.ensure_listener()
            sock = self.accept()
        self.sock = sock
        self._ready.set()

    def _redial_in(self) -> None:
        """The peer hung up to redial from elsewhere: take its new
        connection on the listener the ``LISTEN_REQ`` handshake opened."""
        self._ready.clear()
        _shutdown_and_close(self.sock)
        new = self.accept()
        with self._send_lock:
            self.sock = new
        self._ready.set()

    def _send(self, tag: int, payload: bytes = b"") -> None:
        """Send a control frame at once, on the current socket."""
        with self._send_lock:
            send_frame(self.sock, tag, payload)

    # -- migration handshake -------------------------------------------------
    def request_peer_listener(self, timeout: float = 30.0) -> Tuple[str, int]:
        """Ask the peer to open a listener; returns its (host, port).

        Called by the migration pickler on the end that is about to move.
        A pump still waiting for its peer to dial in (the part at the far
        end was shipped a moment ago, or is redialling) is waited for
        first, within the same deadline.  The reply arrives through this
        end's frame-reading thread and is handed over via a queue.
        """
        deadline = time.monotonic() + timeout
        if not self._ready.wait(timeout):
            raise MigrationError(
                f"link {self.name!r} never connected to its peer")
        self._send(Tag.LISTEN_REQ)
        try:
            return self._listen_ok.get(
                timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise MigrationError(
                f"peer of link {self.name!r} did not answer LISTEN_REQ")

    def _handle_listen_req(self) -> None:
        host, port = self.ensure_listener()
        self._send(Tag.LISTEN_OK, pickle.dumps((host, port)))

    def _handle_listen_ok(self, payload: bytes) -> None:
        self._listen_ok.put(pickle.loads(payload))

    def close(self) -> None:
        self._closed.set()
        for s in (self.sock, self.listener):
            if s is not None:
                _shutdown_and_close(s)


def _shutdown_and_close(sock: socket.socket) -> None:
    """Shutdown *then* close.

    ``close()`` alone does not interrupt a recv blocked in another thread
    and may defer the FIN until the fd's last reference drops — the peer
    would then keep writing into a dead connection.  ``shutdown`` sends
    the FIN immediately and wakes blocked readers on both ends.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class SenderPump(_LinkBase):
    """Producer-side pump: local buffer → DATA frames.

    Two threads: the *sender* moves data; the *control reader* watches the
    reverse direction for ``CLOSE_READ`` (consumer terminated — break the
    producer) and the migration handshake frames.

    Parameters
    ----------
    buffer:
        The channel buffer the local producer writes into.
    connect:
        ``(host, port)`` of the consumer-side listener, or None to listen
        locally and wait for the consumer to connect (the mode used when
        the *input* end migrated away and will call back).

    Each DATA frame is one :meth:`~BoundedByteBuffer.drain_up_to` of the
    channel's buffer: it blocks only while the buffer is empty and then
    takes everything buffered, so a burst of small producer writes
    shares one frame and no frame waits for more bytes.
    """

    role = "send"

    def __init__(self, buffer: BoundedByteBuffer, connect: Optional[Tuple[str, int]] = None,
                 name: str = "", link: str = "") -> None:
        super().__init__(buffer, connect=connect, name=name, link=link)
        #: set by the migration pickler: the producer has moved away; after
        #: draining residual bytes send SWITCH instead of EOF.
        self.migrating = False
        self._thread = threading.Thread(target=self._run, name=f"send-{self.name}",
                                        daemon=True)

    def start(self) -> "SenderPump":
        self._thread.start()
        return self

    # -- main data loop ------------------------------------------------------
    def _run(self) -> None:
        try:
            self._open()
            threading.Thread(target=self._control_loop,
                             name=f"send-ctl-{self.name}", daemon=True).start()
            while True:
                try:
                    # everything buffered, as a view that owns its storage
                    view = self.buffer.drain_up_to(_MAX_DRAIN)
                except BrokenChannelError:
                    # the local producer *aborted* (cascade close).  The
                    # abort classification is a local scheduling detail;
                    # on the wire the stream simply ends, so the remote
                    # reader sees the same EOF it always did.
                    self._send_stream(Tag.EOF)
                    break
                except ChannelError:
                    # our read side was closed (CLOSE_READ relayed): stop
                    break
                if not view:
                    self._send_stream(Tag.SWITCH if self.migrating else Tag.EOF)
                    break
                self._send_stream(Tag.DATA, view)
                if _telemetry.enabled:
                    _telemetry.inc("link.chunks_out", 1, link=self.name)
                    _telemetry.inc("link.bytes_out", len(view), link=self.name)
        except Exception as exc:  # noqa: BLE001
            self.failure = exc
            self.buffer.close_read()  # break the local producer
        finally:
            self.close()
            self.finished = True

    def _send_stream(self, tag: int, payload=b"") -> None:
        """Send a DATA, EOF or SWITCH frame once the send gate is open.

        The gate is checked again under the send lock, where the control
        thread closes it, so a frame goes either before ``LISTEN_OK`` or
        on the replacement socket.
        """
        while True:
            with self._send_lock:
                if self._ready.is_set():
                    send_frame_views(self.sock, tag, (payload,))
                    break
            if not self._ready.wait(120.0):
                raise ChannelError(
                    f"link {self.name!r}: consumer never reconnected")
        self.moved += len(payload) or 1

    # -- control channel -------------------------------------------------------
    def _control_loop(self) -> None:
        while not self._closed.is_set():
            try:
                tag, payload = recv_frame(self.sock)
            except (FrameError, OSError):
                if self._ready.is_set() or self._closed.is_set():
                    return
                # the departing consumer hung up: take its replacement
                try:
                    self._redial_in()
                except (ChannelError, OSError) as exc:
                    self.failure = exc
                    return
                continue
            if tag == Tag.CLOSE_READ:
                # Consumer terminated: propagate the broken pipe to the
                # local producer (cross-network cascading termination).
                self.buffer.close_read()
            elif tag == Tag.LISTEN_REQ:
                # Our consumer is moving and will redial: close the gate
                # before LISTEN_OK goes out.
                with self._send_lock:
                    self._ready.clear()
                self._handle_listen_req()
            elif tag == Tag.LISTEN_OK:
                self._handle_listen_ok(payload)

    # -- migration hooks --------------------------------------------------------
    def begin_migration(self) -> Tuple[str, int]:
        """Producer end is moving: get the consumer to listen for the new
        producer, then mark this pump for drain-and-SWITCH."""
        host, port = self.request_peer_listener()
        self.migrating = True
        return host, port

    def finish_migration(self) -> None:
        """Called after pickling succeeds: no more local writes will come."""
        self.buffer.close_write()


class ReceiverPump(_LinkBase):
    """Consumer-side pump: frames → local buffer.

    One thread suffices: all inbound traffic (data *and* control) arrives
    on the same socket direction.
    """

    role = "recv"

    def __init__(self, buffer: BoundedByteBuffer, connect: Optional[Tuple[str, int]] = None,
                 name: str = "", link: str = "") -> None:
        super().__init__(buffer, connect=connect, name=name, link=link)
        self._detached = threading.Event()
        #: the consumer is moving (see :meth:`begin_migration`), and the
        #: size of the DATA frame being (or last) delivered
        self._departing = False
        self._arriving = 0
        self._room = threading.Lock()
        self._thread = threading.Thread(target=self._run, name=f"recv-{self.name}",
                                        daemon=True)

    def start(self) -> "ReceiverPump":
        self._thread.start()
        return self

    def _run(self) -> None:
        try:
            self._open()
            # buffered reader: one recv can supply several DATA frames
            reader = FrameReader(self.sock)
            while not self._detached.is_set():
                try:
                    tag, payload = reader.recv_frame()
                except (FrameError, OSError):
                    if self._detached.is_set():
                        return
                    # Producer host vanished: treat as end of stream so the
                    # consumer drains what it has and terminates cleanly.
                    self.buffer.close_write()
                    return
                if tag == Tag.DATA:
                    size = self._arriving = len(payload)
                    if _telemetry.enabled:
                        _telemetry.inc("link.chunks_in", 1, link=self.name)
                        _telemetry.inc("link.bytes_in", size, link=self.name)
                    try:
                        if self._departing:
                            self._make_room(size)
                        # recv_frame hands over a fresh bytearray; the ring
                        # adopts it wholesale when empty (no copy).
                        self.buffer.write_donate(payload)
                        self.moved += size
                    except BrokenChannelError:
                        # Local consumer terminated: tell the producer side
                        # so its writes start failing too.
                        try:
                            self._send(Tag.CLOSE_READ)
                        except (ChannelError, OSError):
                            pass
                        return
                elif tag == Tag.EOF:
                    self.buffer.close_write()
                    self.moved += 1
                    return
                elif tag == Tag.SWITCH:
                    # Producer moved servers: its replacement connects to
                    # our listener (created during LISTEN_REQ).  Residual
                    # bytes all arrived before SWITCH, so FIFO holds.
                    self.moved += 1
                    self._redial_in()
                    reader = FrameReader(self.sock)
                elif tag == Tag.LISTEN_REQ:
                    self._handle_listen_req()
                elif tag == Tag.LISTEN_OK:
                    self._handle_listen_ok(payload)
        except Exception as exc:  # noqa: BLE001
            self.failure = exc
            self.buffer.close_write()
        finally:
            self.close()
            self.finished = True

    # -- migration hooks --------------------------------------------------------
    def begin_migration(self) -> Tuple[str, int]:
        """Consumer end is moving: ask the producer side to take a
        reconnect; returns the address the new consumer should dial.

        The paused consumer drains nothing, so until the handshake ends
        the ring grows by what each DATA frame lacks (the one this pump
        may be blocked on first): else ``LISTEN_OK`` could queue behind
        DATA the pump cannot deliver.  Only what the producer sent before
        it saw ``LISTEN_REQ`` arrives; it travels in the pickle, or stays
        under the ring's new bound if the handshake fails.
        """
        self._departing = True
        try:
            self._make_room(self._arriving)
            return self.request_peer_listener()
        finally:
            self._departing = False

    def _make_room(self, size: int) -> None:
        """Grow the ring so that ``size`` more bytes fit (either thread)."""
        with self._room:
            short = size - self.buffer.free_space()
            if short > 0:
                self.buffer.grow(self.buffer.capacity + short, "migration")

    def detach_and_drain(self) -> bytes:
        """Stop pumping and hand back locally buffered, unconsumed bytes.

        The paper's rule for reconfiguration — "data elements are neither
        lost nor repeated" — applied to migration: whatever reached this
        host but was not yet consumed travels inside the serialized
        stream state and is preloaded on the destination.
        """
        self._detached.set()
        self.close()
        return self.buffer.drain()
