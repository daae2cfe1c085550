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

__all__ = ["SenderPump", "ReceiverPump", "LINK_CHUNK", "COALESCE_WATERMARK",
           "LINK_SOCKBUF"]


#: bytes read from the local buffer per pump read
LINK_CHUNK = 64 * 1024

#: coalescing watermark: maximum payload bytes packed into one DATA frame.
#: The sender never *waits* for this much — it sends whatever one blocking
#: read returned plus anything already buffered, so latency is unaffected
#: while back-to-back small writes share one frame.  0 disables
#: coalescing (one buffer read per frame, the pre-coalescing behaviour).
COALESCE_WATERMARK = 4 * LINK_CHUNK

#: cap on memoryview segments per coalesced frame (stays well under any
#: platform's IOV_MAX for the scatter-gather sendmsg)
_MAX_SEGMENTS = 64

#: upper bound on bytes drained per DATA frame from very large channels
#: (keeps a single frame far below the wire-level payload cap)
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
    """State shared by both pump kinds: socket, listener, control queue,
    and the traffic count a deadlock monitor reads (:meth:`state`).

    ``link`` names the link, the same at both ends and across
    re-migrations (the migration pickler hands it on); a fresh one is
    drawn when none is given.
    """

    #: the end of the link this pump is, as :meth:`state` reports it
    role = ""

    def __init__(self, buffer: BoundedByteBuffer, name: str = "",
                 link: str = "") -> None:
        self.buffer = buffer
        self.name = name or buffer.name
        self.link = link or os.urandom(16).hex()
        self.sock: Optional[socket.socket] = None
        self.listener: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._listen_ok: "queue.Queue[Tuple[str, int]]" = queue.Queue()
        self._connected = threading.Event()
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

    # -- listener management -------------------------------------------------
    def ensure_listener(self) -> Tuple[str, int]:
        """Open (or reuse) this end's listener; return (host, port)."""
        if self.listener is None:
            self.listener = open_listener()
        return advertised_host(), self.listener.getsockname()[1]

    def accept(self, timeout: float = 60.0) -> socket.socket:
        if self.listener is None:
            raise ChannelError(f"link {self.name!r} has no listener")
        self.listener.settimeout(timeout)
        sock, _ = self.listener.accept()
        sock.settimeout(None)  # accepted sockets must block indefinitely
        _tune_link_socket(sock)
        return sock

    def _send(self, tag: int, payload: bytes = b"") -> None:
        with self._send_lock:
            if self.sock is None:
                raise ChannelError(f"link {self.name!r} not connected")
            send_frame(self.sock, tag, payload)

    # -- migration handshake -------------------------------------------------
    def request_peer_listener(self, timeout: float = 30.0) -> Tuple[str, int]:
        """Ask the peer to open a listener; returns its (host, port).

        Called by the migration pickler on the end that is about to move.
        A pump still waiting for its peer to dial in (the part at the far
        end was shipped a moment ago) is waited for first, within the same
        deadline.  The reply arrives through this end's frame-reading
        thread and is handed over via a queue.
        """
        deadline = time.monotonic() + timeout
        if not self._connected.wait(timeout):
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
    chunk:
        Bytes per buffer read (default :data:`LINK_CHUNK`).
    coalesce:
        Watermark in bytes up to which consecutive buffer reads are packed
        into a single DATA frame (default :data:`COALESCE_WATERMARK`;
        0 disables coalescing).
    """

    role = "send"

    def __init__(self, buffer: BoundedByteBuffer, connect: Optional[Tuple[str, int]] = None,
                 name: str = "", chunk: Optional[int] = None,
                 coalesce: Optional[int] = None, link: str = "") -> None:
        super().__init__(buffer, name=name, link=link)
        self.chunk = chunk if chunk else LINK_CHUNK
        self.coalesce = COALESCE_WATERMARK if coalesce is None else coalesce
        self._connect_to = connect
        #: set by the migration pickler: the producer has moved away; after
        #: draining residual bytes send SWITCH instead of EOF.
        self.migrating = False
        #: consumer is reconnecting; accept a replacement socket.
        self._expect_reaccept = threading.Event()
        self._thread = threading.Thread(target=self._run, name=f"send-{self.name}",
                                        daemon=True)
        self._control_thread: Optional[threading.Thread] = None

    def start(self) -> "SenderPump":
        self._thread.start()
        return self

    # -- main data loop ------------------------------------------------------
    def _run(self) -> None:
        try:
            if self._connect_to is not None:
                self.sock = connect_with_retry(*self._connect_to)
                _tune_link_socket(self.sock)
            else:
                self.ensure_listener()
                self.sock = self.accept()
            self._connected.set()
            self._start_control()
            while True:
                try:
                    views = self._gather()
                except BrokenChannelError:
                    # the local producer *aborted* (cascade close).  The
                    # abort classification is a local scheduling detail;
                    # on the wire the stream simply ends, so the remote
                    # reader sees the same EOF it always did.
                    self._send(Tag.EOF)
                    self.moved += 1
                    break
                except ChannelError:
                    # our read side was closed (CLOSE_READ relayed): stop
                    break
                if views is None:
                    self._send(Tag.SWITCH if self.migrating else Tag.EOF)
                    self.moved += 1
                    break
                self._send_data(views)
        except Exception as exc:  # noqa: BLE001
            self.failure = exc
            self.buffer.close_read()  # break the local producer
        finally:
            if not self._expect_reaccept.is_set():
                self.close()
            self.finished = True

    def _gather(self) -> Optional[list]:
        """One blocking drain plus adaptive coalescing.

        Blocks for the first view; then — without ever waiting — keeps
        taking bytes that are *already* buffered until the watermark (or
        the segment cap) is reached, so a burst of small producer writes
        becomes one DATA frame instead of many.  Returns a list of
        zero-copy views, or None at end of stream.
        """
        # Draining at least the ring's whole capacity means the take always
        # covers everything buffered, so the buffer's storage-stealing path
        # applies and the drain is zero-copy.  drain_up_to never waits for
        # that much — the frame is whatever is buffered right now — so
        # latency is unaffected; large-capacity channels simply ship
        # proportionally larger frames.
        limit = max(self.chunk, min(self.buffer.capacity, _MAX_DRAIN))
        first = self.buffer.drain_up_to(limit)
        if len(first) == 0:
            return None
        views = [first]
        if self.coalesce:
            total = len(first)
            while total < self.coalesce and len(views) < _MAX_SEGMENTS:
                more = self.buffer.read_available(
                    min(limit, self.coalesce - total))
                if len(more) == 0:
                    break
                views.append(more)
                total += len(more)
        return views

    def _send_data(self, views: list) -> None:
        deadline = time.monotonic() + 120.0
        while True:
            # During a consumer hand-off (LISTEN_REQ seen, replacement not
            # yet connected) data must not be written to the doomed socket
            # — it would be silently lost in the kernel buffer.  The same
            # applies while the control thread is mid-swap (sock None).
            if self._expect_reaccept.is_set() or self.sock is None:
                if time.monotonic() > deadline:
                    raise ChannelError(
                        f"link {self.name!r}: consumer never reconnected")
                time.sleep(0.005)
                continue
            try:
                with self._send_lock:
                    sock = self.sock
                    if sock is None:
                        continue
                    send_frame_views(sock, Tag.DATA, views)
                size = sum(len(v) for v in views)
                self.moved += size
                if _telemetry.enabled:
                    _telemetry.inc("link.chunks_out", 1, link=self.name)
                    _telemetry.inc("link.bytes_out", size, link=self.name)
                return
            except OSError:
                # Socket replaced mid-migration: retry on the new one.
                # The views own their storage, so a full resend is safe.
                if self._expect_reaccept.is_set() or self.sock is None:
                    continue
                raise

    # -- control channel -------------------------------------------------------
    def _start_control(self) -> None:
        self._control_thread = threading.Thread(
            target=self._control_loop, name=f"send-ctl-{self.name}", daemon=True)
        self._control_thread.start()

    def _control_loop(self) -> None:
        while not self._closed.is_set():
            sock = self.sock
            if sock is None:
                return
            try:
                tag, payload = recv_frame(sock)
            except (FrameError, OSError):
                if self._expect_reaccept.is_set():
                    try:
                        self._reaccept()
                        continue
                    except Exception as exc:  # noqa: BLE001
                        self.failure = exc
                return
            if tag == Tag.CLOSE_READ:
                # Consumer terminated: propagate the broken pipe to the
                # local producer (cross-network cascading termination).
                self.buffer.close_read()
            elif tag == Tag.LISTEN_REQ:
                # Our consumer is migrating; it will reconnect here.
                self._expect_reaccept.set()
                self._handle_listen_req()
            elif tag == Tag.LISTEN_OK:
                self._handle_listen_ok(payload)

    def _reaccept(self) -> None:
        with self._send_lock:
            old = self.sock
            self.sock = None
        if old is not None:
            _shutdown_and_close(old)
        new = self.accept()
        with self._send_lock:
            self.sock = new
        self._expect_reaccept.clear()

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
        super().__init__(buffer, name=name, link=link)
        self._connect_to = connect
        self._pending_switch = False
        self._detached = threading.Event()
        self._thread = threading.Thread(target=self._run, name=f"recv-{self.name}",
                                        daemon=True)

    def start(self) -> "ReceiverPump":
        self._thread.start()
        return self

    def _run(self) -> None:
        try:
            if self._connect_to is not None:
                self.sock = connect_with_retry(*self._connect_to)
                _tune_link_socket(self.sock)
            else:
                self.ensure_listener()
                self.sock = self.accept()
            self._connected.set()
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
                    size = len(payload)
                    if _telemetry.enabled:
                        _telemetry.inc("link.chunks_in", 1, link=self.name)
                        _telemetry.inc("link.bytes_in", size, link=self.name)
                    try:
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
                    old = self.sock
                    self.sock = None
                    _shutdown_and_close(old)
                    new = self.accept()
                    with self._send_lock:
                        self.sock = new
                    reader = FrameReader(new)
                elif tag == Tag.LISTEN_REQ:
                    self._handle_listen_req()
                elif tag == Tag.LISTEN_OK:
                    self._handle_listen_ok(payload)
        except Exception as exc:  # noqa: BLE001
            self.failure = exc
            self.buffer.close_write()
        finally:
            if not self._detached.is_set():
                self.close()
            self.finished = True

    # -- migration hooks --------------------------------------------------------
    def begin_migration(self) -> Tuple[str, int]:
        """Consumer end is moving: ask the producer side to take a
        reconnect; returns the address the new consumer should dial."""
        host, port = self.request_peer_listener()
        return host, port

    def detach_and_drain(self) -> bytes:
        """Stop pumping and hand back locally buffered, unconsumed bytes.

        The paper's rule for reconfiguration — "data elements are neither
        lost nor repeated" — applied to migration: whatever reached this
        host but was not yet consumed travels inside the serialized
        stream state and is preloaded on the destination.
        """
        self._detached.set()
        if self.sock is not None:
            _shutdown_and_close(self.sock)
        return self.buffer.drain()
