"""Wire protocol: framed messages over TCP sockets.

Two layers share the same framing:

* **channel links** (:mod:`repro.distributed.sockets`) move channel bytes
  between servers with ``DATA``/``EOF``/``SWITCH`` frames plus the
  ``LISTEN_REQ``/``LISTEN_OK`` control handshake that implements the
  paper's decentralized reconnection (section 4.3);
* **request/reply** — the registry, the compute servers and the process
  pool's children are one endpoint with three dispatch tables: pickled
  request and reply objects in ``OBJ``/``OBJ_OOB`` frames, served by
  :class:`RequestServer` / :func:`serve_connection` and called through
  :class:`RequestClient`.

A frame is ``1-byte tag + 4-byte big-endian length + payload``.  Payload
size is capped to catch stream corruption early.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import traceback
from typing import Any, Callable, Optional, Tuple

from repro.errors import ChannelError
from repro.telemetry.core import TELEMETRY as _telemetry
from repro.telemetry.distributed import (TraceContext, current_context,
                                         set_current_context)

__all__ = [
    "Tag", "send_frame", "send_frame_views", "recv_frame", "FrameReader",
    "send_obj", "recv_obj", "OutOfBand", "read_exact", "FrameError", "open_listener",
    "encode_obj", "decode_obj", "serve_connection", "RequestServer", "RequestClient",
    "advertised_host", "set_advertised_host", "connect_with_retry",
    "retry_delays",
]

MAX_PAYLOAD = 256 * 1024 * 1024
_HEADER = struct.Struct(">BI")
#: OBJ_OOB preamble: number of out-of-band buffers + pickle byte length
_OOB_HEAD = struct.Struct(">IQ")
_OOB_LEN = struct.Struct(">Q")
#: FrameReader's scratch size: moderate, so bulk payloads rarely land
#: there first — they take the direct recv_into path instead
_READAHEAD = 32 * 1024
#: pending-connection queue of a listening socket
_BACKLOG = 16


class Tag:
    """Frame type tags."""

    HELLO = 1        #: connector introduces itself on a channel link
    DATA = 2         #: channel payload bytes
    EOF = 3          #: end of channel stream (producer stopped)
    SWITCH = 4       #: producer moved; expect a replacement connection
    LISTEN_REQ = 5   #: "my end is migrating: open/confirm a listener"
    LISTEN_OK = 6    #: reply to LISTEN_REQ: payload = pickled (host, port)
                     #: tuple of the peer's reconnect listener
    OBJ = 7          #: pickled RPC object (compute server protocol)
    CLOSE_READ = 8   #: consumer closed its end: producer should break
    OBJ_OOB = 9      #: protocol-5 pickle + out-of-band PickleBuffer frames


#: tag value -> name, for telemetry labels and diagnostics
TAG_NAMES = {v: k for k, v in vars(Tag).items() if not k.startswith("_")}


class FrameError(ChannelError):
    """Malformed or oversized frame — the connection is unusable."""


def _recv_exact_into(sock: socket.socket, n: int) -> bytearray:
    """Read exactly n bytes into one preallocated buffer (no chunk joins)."""
    out = bytearray(n)
    with memoryview(out) as view:
        got = 0
        while got < n:
            r = sock.recv_into(view[got:], min(n - got, 1 << 20))
            if r == 0:
                raise FrameError(
                    f"connection closed mid-frame: got {got} of "
                    f"{n} expected bytes ({n - got} missing)")
            got += r
    return out


def read_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly n bytes or raise FrameError on premature close."""
    return bytes(_recv_exact_into(sock, n))


def _sendmsg_all(sock: socket.socket, parts) -> None:
    """Send every byte of ``parts`` with scatter-gather writes.

    ``socket.sendmsg`` takes the segment list straight to ``sendmsg(2)``,
    so a frame's header and payload (and any out-of-band pickle buffers)
    go out without being concatenated into a fresh bytes object first.
    Falls back to ``sendall`` where sendmsg is unavailable (non-POSIX).
    """
    views = [memoryview(p).cast("B") for p in parts if len(p)]
    if not views:
        return
    if not hasattr(sock, "sendmsg"):
        sock.sendall(b"".join(views))
        return
    while views:
        sent = sock.sendmsg(views[:64])
        # advance past whatever the kernel accepted (may straddle views)
        while sent > 0:
            head = views[0]
            if sent >= len(head):
                sent -= len(head)
                views.pop(0)
            else:
                views[0] = head[sent:]
                sent = 0


def send_frame(sock: socket.socket, tag: int, payload: bytes = b"") -> None:
    send_frame_views(sock, tag, (payload,) if payload else ())


def send_frame_views(sock: socket.socket, tag: int, views) -> None:
    """Send one frame whose payload is the concatenation of ``views``.

    The views are handed to the kernel as-is (scatter-gather), so callers
    holding zero-copy buffer views never pay a concatenation copy; the
    receiver sees a frame indistinguishable from a ``send_frame`` of the
    joined payload.
    """
    total = sum(len(v) for v in views)
    if total > MAX_PAYLOAD:
        raise FrameError(f"payload of {total} bytes exceeds cap")
    _sendmsg_all(sock, [_HEADER.pack(tag, total), *views])
    if _telemetry.enabled:
        name = TAG_NAMES.get(tag, str(tag))
        _telemetry.inc("wire.frames_sent", 1, tag=name)
        _telemetry.inc("wire.bytes_sent", _HEADER.size + total, tag=name)


def recv_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Receive one frame; the payload is bytes-like (a single-allocation
    bytearray for non-empty payloads — no per-chunk copies or joins)."""
    header = read_exact(sock, _HEADER.size)
    tag, length = _HEADER.unpack(header)
    if length > MAX_PAYLOAD:
        raise FrameError(f"incoming payload of {length} bytes exceeds cap")
    payload = _recv_exact_into(sock, length) if length else b""
    if _telemetry.enabled:
        name = TAG_NAMES.get(tag, str(tag))
        _telemetry.inc("wire.frames_received", 1, tag=name)
        _telemetry.inc("wire.bytes_received", _HEADER.size + length, tag=name)
    return tag, payload


class FrameReader:
    """Buffered frame receiver: one ``recv`` can supply several frames.

    Frames whose payload is already buffered are parsed straight out of
    the read-ahead buffer (well under one syscall per frame on busy
    links); larger payloads are filled by ``recv_into`` directly into
    their own exact-size bytearray, keeping the single-copy path for bulk
    data.  Counters and error behaviour match :func:`recv_frame`.

    The reader owns every byte arriving on its socket — never mix it
    with bare :func:`recv_frame` calls on the same connection.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        #: fixed scratch; [_pos, _end) is the unparsed byte range
        self._buf = bytearray(_READAHEAD)
        self._pos = 0
        self._end = 0
        #: adaptive peek: after a bulk frame, the next header is received
        #: exactly so the (likely bulk) payload behind it lands straight
        #: in its own buffer instead of passing through the scratch.
        self._last_bulk = False

    def _fill(self, need: int, gulp: bool = True) -> None:
        """Grow the unparsed range to at least ``need`` bytes (need is
        tiny — a header — so at most one small compaction move)."""
        while self._end - self._pos < need:
            if len(self._buf) - self._end < need:
                # tail room exhausted: slide the leftover to the front
                self._buf[:self._end - self._pos] = self._buf[self._pos:self._end]
                self._end -= self._pos
                self._pos = 0
            stop = len(self._buf) if gulp else self._pos + need
            with memoryview(self._buf) as mv:
                got = self.sock.recv_into(mv[self._end:stop])
            if got == 0:
                have = self._end - self._pos
                raise FrameError(
                    f"connection closed mid-frame: got {have} of "
                    f"{need} expected bytes ({need - have} missing)")
            self._end += got

    def recv_frame(self) -> Tuple[int, bytes]:
        """Receive one frame; same contract as module-level ``recv_frame``."""
        self._fill(_HEADER.size, gulp=not self._last_bulk)
        tag, length = _HEADER.unpack_from(self._buf, self._pos)
        if length > MAX_PAYLOAD:
            raise FrameError(f"incoming payload of {length} bytes exceeds cap")
        self._last_bulk = length * 2 > len(self._buf)
        self._pos += _HEADER.size
        avail = self._end - self._pos
        if length == 0:
            payload = b""
        elif length <= avail:
            end = self._pos + length
            with memoryview(self._buf) as mv:
                payload = bytearray(mv[self._pos:end])
            self._pos = end
        else:
            payload = bytearray(length)
            with memoryview(payload) as dst:
                if avail:
                    with memoryview(self._buf) as src:
                        dst[:avail] = src[self._pos:self._end]
                self._pos = self._end = 0
                filled = avail
                while filled < length:
                    got = self.sock.recv_into(
                        dst[filled:], min(length - filled, 1 << 20))
                    if got == 0:
                        raise FrameError(
                            f"connection closed mid-frame: got {filled} of "
                            f"{length} expected bytes ({length - filled} missing)")
                    filled += got
        if _telemetry.enabled:
            name = TAG_NAMES.get(tag, str(tag))
            _telemetry.inc("wire.frames_received", 1, tag=name)
            _telemetry.inc("wire.bytes_received", _HEADER.size + length, tag=name)
        return tag, payload


#: envelope key carrying the trace context alongside an OBJ payload
_CTX_KEY = "__repro_trace_ctx__"


class OutOfBand:
    """Marks a bytes-like payload for out-of-band (zero-copy) transport.

    Wrapping a large blob — e.g. an already-pickled Task from
    ``dumps_shipped`` — makes :func:`send_obj` ship it as a raw
    protocol-5 ``PickleBuffer`` frame: the bytes go from the wrapper
    straight into the socket's scatter-gather send, and arrive as a
    zero-copy view into the single receive buffer, with no trip through
    the outer pickle stream on either side.  Unwrap with :attr:`data`.
    """

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        self.data = data

    def __reduce_ex__(self, protocol: int):
        if protocol >= 5:
            return (OutOfBand, (pickle.PickleBuffer(self.data),))
        return (OutOfBand, (bytes(self.data),))


def _dump_oob(obj: Any, pickler_factory=None) -> Tuple[bytes, list]:
    """Pickle with protocol-5 out-of-band buffer collection.

    Returns ``(pickle_bytes, buffers)`` where ``buffers`` holds the raw
    contiguous views (``PickleBuffer.raw()``) that the pickle stream
    references by position instead of by value.  Non-contiguous buffers
    stay in-band; a ``pickler_factory`` that does not understand
    ``buffer_callback`` simply produces a fully in-band pickle.
    """
    buffers: list = []

    def _collect(pb: pickle.PickleBuffer):
        try:
            buffers.append(pb.raw())
        except BufferError:        # non-contiguous: keep it in the stream
            return True
        return None                # falsy -> serialize out-of-band

    if pickler_factory is None:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL,
                            buffer_callback=_collect), buffers

    import io

    buf = io.BytesIO()
    try:
        pickler = pickler_factory(buf, buffer_callback=_collect)
    except TypeError:              # factory predates buffer_callback
        pickler = pickler_factory(buf)
    pickler.dump(obj)
    return buf.getvalue(), buffers


def encode_obj(obj: Any, pickler_factory=None) -> Tuple[int, list]:
    """Pickle ``obj`` into one frame: ``(tag, payload views)``.

    ``pickler_factory(file, buffer_callback=...) -> Pickler`` lets callers
    substitute the migration or source-shipping picklers.

    Objects whose reduction yields protocol-5 ``PickleBuffer``s (numpy
    arrays, :class:`OutOfBand` wrappers) become an ``OBJ_OOB`` frame:
    the pickle stream references the buffers by position and the raw bytes
    ride behind it in the same frame, delivered scatter-gather — the large
    payload is never copied into the pickle stream or a concatenation.

    When telemetry is enabled and the sending thread has an active
    :class:`~repro.telemetry.distributed.TraceContext`, the object is
    wrapped in a context-header envelope so the receiver continues the
    same trace — this is what links a dispatch span on one node to the
    execute span on another in merged cluster traces.

    Raises :class:`FrameError` for an object above ``MAX_PAYLOAD`` —
    here, before any byte is on the wire, so the connection stays usable.
    """
    if _telemetry.enabled:
        ctx = current_context()
        if ctx is not None:
            obj = {_CTX_KEY: ctx.to_wire(), "payload": obj}
    payload, buffers = _dump_oob(obj, pickler_factory)
    total = len(payload) + sum(len(b) for b in buffers)
    if total > MAX_PAYLOAD:
        raise FrameError(f"pickled object of {total} bytes exceeds cap")
    if _telemetry.enabled:
        _telemetry.inc("wire.pickles_out")
        _telemetry.inc("wire.pickle_bytes_out", total)
        _telemetry.observe("wire.pickle_size", total)
        if buffers:
            _telemetry.inc("wire.oob_buffers_out", len(buffers))
    if not buffers:
        return Tag.OBJ, [payload]
    head = _OOB_HEAD.pack(len(buffers), len(payload))
    lens = b"".join(_OOB_LEN.pack(len(b)) for b in buffers)
    return Tag.OBJ_OOB, [head, lens, payload, *buffers]


def send_obj(sock: socket.socket, obj: Any, pickler_factory=None) -> None:
    """Send a pickled object as an OBJ or OBJ_OOB frame (:func:`encode_obj`)."""
    send_frame_views(sock, *encode_obj(obj, pickler_factory))


def recv_obj(sock: socket.socket, unpickler_factory=None) -> Any:
    return decode_obj(*recv_frame(sock), unpickler_factory)


def decode_obj(tag: int, payload, unpickler_factory=None) -> Any:
    """Unpickle one received ``OBJ``/``OBJ_OOB`` frame."""
    if tag not in (Tag.OBJ, Tag.OBJ_OOB):
        raise FrameError(f"expected OBJ frame, got tag {tag}")
    if _telemetry.enabled:
        _telemetry.inc("wire.pickles_in")
        _telemetry.inc("wire.pickle_bytes_in", len(payload))
    buffers = None
    if tag == Tag.OBJ_OOB:
        # One receive buffer holds pickle + raw frames; the unpickler gets
        # zero-copy views into it, so large payloads are never re-copied.
        nbufs, plen = _OOB_HEAD.unpack_from(payload, 0)
        offset = _OOB_HEAD.size + nbufs * _OOB_LEN.size
        lengths = [_OOB_LEN.unpack_from(payload, _OOB_HEAD.size + i * _OOB_LEN.size)[0]
                   for i in range(nbufs)]
        view = memoryview(payload)
        pickle_bytes = view[offset:offset + plen]
        offset += plen
        buffers = []
        for length in lengths:
            buffers.append(view[offset:offset + length])
            offset += length
        if offset != len(payload):
            raise FrameError(
                f"OBJ_OOB frame length mismatch: {offset} != {len(payload)}")
        payload = pickle_bytes
    if unpickler_factory is None:
        obj = pickle.loads(payload, buffers=buffers)
    else:
        import io

        source = io.BytesIO(payload)
        try:
            unpickler = unpickler_factory(source, buffers=buffers)
        except TypeError:
            if buffers:
                raise FrameError(
                    "OBJ_OOB frame but unpickler_factory does not accept "
                    "a buffers argument")
            unpickler = unpickler_factory(source)
        obj = unpickler.load()
    if type(obj) is dict and _CTX_KEY in obj:
        # Context header: adopt the sender's trace on this thread (sticky
        # until the next envelope), then unwrap.  Unwrapping happens even
        # with telemetry off so a disabled receiver still interoperates.
        set_current_context(TraceContext.from_wire(obj[_CTX_KEY]))
        obj = obj["payload"]
    return obj


# ---------------------------------------------------------------------------
# endpoint helpers
# ---------------------------------------------------------------------------

_advertised_host = "127.0.0.1"


def advertised_host() -> str:
    """The host other servers should use to connect back to this one.

    Defaults to loopback (right for single-machine clusters and the test
    suite); multi-machine deployments call :func:`set_advertised_host`
    with an externally routable address.
    """
    return _advertised_host


def set_advertised_host(host: str) -> None:
    global _advertised_host
    _advertised_host = host


def open_listener(port: int = 0) -> socket.socket:
    """A listening TCP socket on all interfaces; port 0 = ephemeral."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("0.0.0.0", port))
    listener.listen(_BACKLOG)
    return listener


def retry_delays(attempts: int, base: float = 0.05, factor: float = 2.0,
                 max_delay: float = 0.4) -> list:
    """Pre-jitter backoff schedule: ``base·factor^k`` capped at ``max_delay``.

    One entry per sleep *between* attempts (``attempts - 1`` entries).
    Kept separate and deterministic so tests can assert the schedule
    without racing a socket.
    """
    return [min(base * factor ** k, max_delay)
            for k in range(max(attempts - 1, 0))]


def connect_with_retry(host: str, port: int, attempts: int = 12,
                       delay: float = 0.05,
                       timeout: Optional[float] = None,
                       max_delay: float = 0.4) -> socket.socket:
    """Connect, retrying with jittered exponential backoff.

    A peer's listener may still be starting, so the first retries come
    quickly; later retries back off exponentially (capped at
    ``max_delay``) with ±25 % jitter so a herd of reconnecting links does
    not hammer a recovering host in lockstep.  Attempt counts and the
    outcome are recorded as ``wire.connect.*`` telemetry counters.
    """
    import random
    import time

    last: Optional[Exception] = None
    schedule = retry_delays(attempts, base=delay, max_delay=max_delay)
    for attempt in range(attempts):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if _telemetry.enabled:
                _telemetry.inc("wire.connect.attempts", attempt + 1)
                _telemetry.inc("wire.connect.success")
                if attempt:
                    _telemetry.inc("wire.connect.retried")
            return sock
        except OSError as exc:
            last = exc
            if attempt < len(schedule):
                time.sleep(schedule[attempt] * random.uniform(0.5, 1.0))
    if _telemetry.enabled:
        _telemetry.inc("wire.connect.attempts", attempts)
        _telemetry.inc("wire.connect.failures")
    raise ChannelError(f"cannot connect to {host}:{port}: {last}")


# ---------------------------------------------------------------------------
# the request/reply endpoint
# ---------------------------------------------------------------------------

def serve_connection(sock: socket.socket, dispatch: Callable[[Any], Any],
                     pickler_factory=None) -> None:
    """Serve one connection until its peer goes away.

    Each frame is unpickled, handed to ``dispatch`` and answered with what
    ``dispatch`` returns (a dict with ``"ok": True``), pickled through
    ``pickler_factory``.  A frame that cannot be read ends the connection;
    a well-framed request that fails to unpickle, a handler that raises
    and a reply that cannot be pickled or is over ``MAX_PAYLOAD`` are all
    answered — ``{"ok": False, "error", "traceback"}`` — and the
    connection carries on.
    """
    reader = FrameReader(sock)
    with sock:
        while True:
            try:
                frame = reader.recv_frame()
            except OSError:
                return
            try:
                reply = encode_obj(dispatch(decode_obj(*frame)), pickler_factory)
            except Exception as exc:  # noqa: BLE001 - reported to the caller
                reply = encode_obj({"ok": False,
                                    "error": f"{type(exc).__name__}: {exc}",
                                    "traceback": traceback.format_exc()})
            try:
                send_frame_views(sock, *reply)
            except OSError:
                return


class RequestServer:
    """A listener whose connections are each served on their own thread.

    Subclasses supply ``_dispatch(request) -> reply``; see
    :func:`serve_connection` for what happens around it.
    """

    def __init__(self, port: int, name: str, pickler_factory=None) -> None:
        self.name = name
        self._listener = open_listener(port)
        self.port = self._listener.getsockname()[1]
        self._pickler_factory = pickler_factory
        self._connections: set = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept,
                                        name=f"{name}-accept", daemon=True)

    def start(self):
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        # shutdown, not only close: a thread blocked in accept() or recv()
        # keeps its socket (and the port) open past a close() from here
        for sock in (self._listener, *self._connections):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._listener.close()

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._serve, args=(sock,),
                             name=f"{self.name}-conn", daemon=True).start()

    def _serve(self, sock: socket.socket) -> None:
        self._connections.add(sock)
        try:
            # accepted while stop() ran, which may have missed it: hang up
            if not self._stop.is_set():
                serve_connection(sock, self._dispatch, self._pickler_factory)
        finally:
            self._connections.discard(sock)
            sock.close()

    def _dispatch(self, request: Any) -> Any:  # pragma: no cover - interface
        raise NotImplementedError


class RequestClient:
    """The calling side of :func:`serve_connection`; one connection,
    thread-safe.

    ``connect()`` supplies the socket, on the first request and again
    after a failure: any transport error during a round trip closes and
    forgets the connection and raises ``error`` (as does an error reply,
    with the far side's traceback), so the next request starts afresh.
    ``peer`` names the far side in those errors.
    """

    def __init__(self, connect: Callable[[], socket.socket],
                 error: Callable[..., Exception], peer: str,
                 pickler_factory=None) -> None:
        self._connect = connect
        self._error = error
        self._peer = peer
        self._pickler_factory = pickler_factory
        self._lock = threading.Lock()
        self._reader: Optional[FrameReader] = None

    def request(self, payload: Any) -> dict:
        """One round trip: the reply dict, or ``error`` raised."""
        frame = encode_obj(payload, self._pickler_factory)
        with self._lock:
            try:
                self.send(frame)
                reply = self.receive()
            except OSError as exc:
                raise self._error(f"{self._peer} unreachable: {exc}") from exc
        return self.check(reply)

    def check(self, reply: dict) -> dict:
        """``reply`` if it reports success, else ``error`` raised from it."""
        if not reply.get("ok"):
            raise self._error(reply.get("error", "remote failure"),
                              reply.get("traceback", ""))
        return reply

    # The two halves of a round trip, for a caller that owns the connection
    # outright (a pool child checked out for one task) and wants to do
    # something else between them.  They raise the transport's OSError.
    def send(self, frame: Tuple[int, list]) -> None:
        try:
            if self._reader is None:
                self._reader = FrameReader(self._connect())
            send_frame_views(self._reader.sock, *frame)
        except OSError:
            self._drop()
            raise

    def receive(self) -> dict:
        try:
            if self._reader is None:
                raise ConnectionError(f"no connection to {self._peer}")
            return decode_obj(*self._reader.recv_frame())
        except OSError:
            self._drop()
            raise

    def _drop(self) -> None:
        reader, self._reader = self._reader, None
        if reader is not None:
            reader.sock.close()

    def close(self) -> None:
        with self._lock:
            self._drop()
