"""Layered stream classes (paper Figure 3).

The paper implements channels as a stack of stream objects::

    Channel
      ChannelOutputStream            ChannelInputStream
        SequenceOutputStream           BlockingInputStream
          LocalOutputStream              SequenceInputStream
            (shared pipe buffer)           LocalInputStream
                                              (shared pipe buffer)

Only the *lowest* layer moves bytes; it can be swapped between local
(shared-memory) and remote (socket) implementations without the layers
above — or the processes using them — noticing.  This module provides the
abstract stream interfaces, the local implementations backed by
:class:`~repro.kpn.buffers.BoundedByteBuffer`, the blocking-read enforcer,
and the sequence streams that make mid-execution swapping and channel
splicing possible.
"""

from __future__ import annotations

import sys
import threading
from typing import Optional

from repro.errors import ChannelClosedError, EndOfStreamError
from repro.kpn.buffers import BoundedByteBuffer

__all__ = [
    "InputStream",
    "OutputStream",
    "LocalInputStream",
    "LocalOutputStream",
    "BlockingInputStream",
    "SequenceInputStream",
    "SequenceOutputStream",
]


#: what an endpoint holds when it holds nothing (also the EOF view)
_NOTHING = memoryview(b"")


class InputStream:
    """Abstract byte source.

    ``read(n)`` may return *fewer* than ``n`` bytes (like
    ``java.io.InputStream``) and returns ``b""`` at end of stream.  Layers
    that need exact-length reads wrap a :class:`BlockingInputStream` on
    top, which converts short reads into blocking loops — the property
    Kahn's model requires (section 3.1: "read operations on channels
    *must* block if no data is available").

    A lowest layer provides ``read``, ``close``, ``available``, ``at_eof``
    and ``would_block_on``; nothing above it needs more.
    """

    def read(self, max_bytes: int) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def available(self) -> int:
        """Bytes readable without blocking (0 if unknown)."""
        return 0

    def at_eof(self) -> bool:
        """True if end of stream has definitely been reached."""
        return False

    def would_block_on(self) -> Optional[BoundedByteBuffer]:
        """Lock-free hint for the async backend's gate: the local buffer
        a read would sleep on right now, or None — the read would not
        sleep, or this stream cannot tell (a socket stream, a fused pipe)
        and the reader finds out by blocking."""
        return None

    def take_ready(self, width: int, limit: int) -> Optional[memoryview]:
        """Consume and return up to ``limit`` whole ``width``-byte elements
        this stream already holds, or None when it holds none or cannot
        tell.  Never blocks and never reads further; a partial trailing
        element stays for the next read.  The default holds nothing."""
        return None


class OutputStream:
    """Abstract byte sink with blocking writes (section 3.5).

    A lowest layer provides ``write``, ``write_vectored``, ``close``,
    ``abort`` and ``would_block_on``.  Writes are unbuffered: no written
    byte waits for a flush to reach the reader.
    """

    def write(self, data: bytes) -> None:
        raise NotImplementedError

    def write_vectored(self, chunks) -> None:
        """Write several bytes-like chunks as one operation.

        The default concatenates and calls :meth:`write`; sinks that can
        do better (local pipes take their lock once for the whole batch)
        override it.  Byte-stream semantics are identical to writing the
        chunks one after another.
        """
        self.write(b"".join(bytes(c) if not isinstance(c, (bytes, bytearray))
                            else c for c in chunks))

    def close(self) -> None:
        raise NotImplementedError

    def abort(self) -> None:
        """Close this sink marking the end of stream as a cascade abort.

        A process whose own output was closed under it (BrokenChannelError
        / ChannelClosedError) aborts its remaining outputs instead of
        closing them: consumers drain what was delivered, then observe
        :class:`~repro.errors.BrokenChannelError` rather than a clean EOF
        — so EOF-tolerant merges cannot mistake a timing-dependent
        shutdown cut for source exhaustion.  Sinks without an abort
        distinction fall back to a plain close.
        """
        self.close()

    def would_block_on(self) -> Optional[BoundedByteBuffer]:
        """Like :meth:`InputStream.would_block_on`, for a write."""
        return None


# ---------------------------------------------------------------------------
# local (shared-memory) implementations
# ---------------------------------------------------------------------------

class LocalInputStream(InputStream):
    """Read side of an in-memory pipe (``java.io.PipedInputStream``).

    The endpoint reads ahead: a read that finds nothing held takes
    *everything* the ring currently buffers in one critical section
    (:meth:`BoundedByteBuffer.drain_up_to` steals the ring's storage, so
    nothing is copied) and blocks exactly as before while the ring is
    empty.  Later reads slice that batch with no lock and no condition
    variable until it is used up.  The bytes a channel can hold are
    therefore its capacity plus one stolen batch (at most twice the
    capacity) — the same relaxation a socket-stretched channel has.

    Like the channel it ends, the stream has one consumer at a time.
    """

    def __init__(self, buffer: BoundedByteBuffer) -> None:
        self.buffer = buffer
        #: bytes read ahead (storage owned by this stream, never mutated)
        #: and how many of them have been consumed
        self._batch = _NOTHING
        self._pos = 0

    def _refill(self) -> memoryview:
        """Replace the used-up batch with everything buffered, blocking
        while the ring is empty; an empty batch is end of stream."""
        # drop the used-up storage before blocking; with _pos already 0
        # the one store below is all an observer of held() can race
        self._batch = _NOTHING
        self._pos = 0
        batch = self._batch = self.buffer.drain_up_to(sys.maxsize)
        return batch

    def read(self, max_bytes: int) -> bytes:
        if max_bytes <= 0:
            return b""
        batch, pos = self._batch, self._pos
        if pos >= len(batch):
            batch, pos = self._refill(), 0
        chunk = bytes(batch[pos:pos + max_bytes])
        self._pos = pos + len(chunk)
        return chunk

    def held(self) -> int:
        """Bytes read ahead and not yet consumed.

        Exact for the consuming thread and whenever the consumer is
        quiescent; an observer racing a running consumer gets a value
        that was true a moment ago, like any occupancy sample.
        """
        return max(0, len(self._batch) - self._pos)

    def take_held(self) -> bytes:
        """Remove and return the read-ahead bytes (migration ships them
        ahead of whatever the ring still buffers)."""
        batch, pos = self._batch, self._pos
        self._batch = _NOTHING
        self._pos = 0
        return bytes(batch[pos:])

    def close(self) -> None:
        self.buffer.close_read()
        self._batch = _NOTHING
        self._pos = 0

    def available(self) -> int:
        return self.held() + self.buffer.available()

    def at_eof(self) -> bool:
        return self.held() == 0 and self.buffer.at_eof()

    def would_block_on(self) -> Optional[BoundedByteBuffer]:
        # read ahead, bytes in the ring, or either end closed: a read
        # returns or raises.  Lock-free, so exact while nobody else
        # touches the ring; a racing "no" is confirmed under the lock by
        # ``async_park``, a racing "yes" costs the step a hand-off.
        ring = self.buffer
        if (self._pos < len(self._batch) or len(ring._data) > ring._read_pos
                or ring._write_closed or ring._read_closed):
            return None
        return ring


class LocalOutputStream(OutputStream):
    """Write side of an in-memory pipe (``java.io.PipedOutputStream``).

    This layer adds nothing to a write, so ``write`` and
    ``write_vectored`` *are* the ring's bound methods: whoever keeps one
    (the channel endpoint does) calls the ring with no frame in between.
    """

    def __init__(self, buffer: BoundedByteBuffer) -> None:
        self.buffer = buffer
        self.write = buffer.write
        self.write_vectored = buffer.write_vectored

    def close(self) -> None:
        self.buffer.close_write()

    def abort(self) -> None:
        self.buffer.close_write(aborted=True)

    def would_block_on(self) -> Optional[BoundedByteBuffer]:
        # room for a byte, or a closed end to fail on; lock-free, with the
        # caveats of LocalInputStream.would_block_on
        ring = self.buffer
        if (len(ring._data) - ring._read_pos < ring._capacity
                or ring._read_closed or ring._write_closed):
            return None
        return ring


# ---------------------------------------------------------------------------
# blocking-read enforcement
# ---------------------------------------------------------------------------

class BlockingInputStream(InputStream):
    """Enforces Kahn blocking reads over a possibly-short-reading source.

    ``java.io.InputStream`` "allows non-blocking read operations. When
    reading an array of bytes, the operation may complete early, returning
    fewer bytes than were requested.  Our BlockingInputStream class
    enforces blocking reads."  ``read_exactly`` loops until the requested
    byte count has been accumulated, raising
    :class:`~repro.errors.EndOfStreamError` if the stream ends first
    (including mid-element, which indicates a protocol error upstream).
    """

    def __init__(self, source: InputStream) -> None:
        self.source = source

    def read(self, max_bytes: int) -> bytes:
        return self.source.read(max_bytes)

    def read_exactly(self, n: int) -> bytes:
        if n <= 0:
            return b""
        # The common case is one read: a local endpoint slices the element
        # out of the batch it holds, and the result is final.
        chunk = self.source.read(n)
        if len(chunk) == n:
            return chunk
        if not chunk:
            raise EndOfStreamError("end of stream")
        # Torn element: append further reads, each for what is missing,
        # to one bytearray, however many blocking reads it takes.
        out = bytearray(chunk)
        while len(out) < n:
            more = self.source.read(n - len(out))
            if not more:
                raise EndOfStreamError(
                    f"stream ended mid-element: wanted {n} bytes, "
                    f"got {len(out)}")
            out += more
        return bytes(out)

    def read_in_place(self, n: int) -> tuple:
        """``(read_exactly(n), 0)``: where the element a codec decodes lies
        (a channel endpoint may answer with its read-ahead)."""
        return self.read_exactly(n), 0

    def close(self) -> None:
        self.source.close()

    def available(self) -> int:
        return self.source.available()

    def at_eof(self) -> bool:
        return self.source.at_eof()

    def would_block_on(self) -> Optional[BoundedByteBuffer]:
        return self.source.would_block_on()


# ---------------------------------------------------------------------------
# sequence streams: splicing and mid-execution swapping
# ---------------------------------------------------------------------------

class SequenceInputStream(InputStream):
    """Reads a sequence of underlying streams, in order, as one stream.

    This is the mechanism behind both

    * **channel splicing** during self-reconfiguration (paper Figure 10):
      when a process removes itself from the graph, the input stream of
      its *input* channel is appended here, so the consumer first drains
      everything the removed process produced and then continues with the
      upstream data "without interruption"; and

    * **transport swapping** during migration: a socket-backed stream can
      be appended so the consumer switches from local to remote bytes in
      FIFO order.

    End of stream is reported only when the *last* queued stream ends.
    Appending after the final EOF has been observed is an error — callers
    must splice before closing the stream currently being consumed (the
    self-removing Cons does exactly this).
    """

    def __init__(self, first: Optional[InputStream] = None) -> None:
        self._lock = threading.RLock()
        self._streams: list[InputStream] = [first] if first is not None else []
        self._closed = False
        self._finished = False  # saw EOF on the final stream
        #: the head, while it is a local pipe end with nothing queued
        #: behind it; None when empty, spliced, fused, remote, finished or
        #: closed.  The channel endpoint serves whole elements out of
        #: this stream's read-ahead without entering :meth:`read`; every
        #: operation that changes the head re-points it under the lock.
        self.local_head: Optional[LocalInputStream] = None
        self._note_head()

    def _note_head(self) -> None:
        """Re-point :attr:`local_head` (caller holds the lock)."""
        streams = self._streams
        self.local_head = (streams[0] if len(streams) == 1
                           and type(streams[0]) is LocalInputStream else None)

    def append(self, stream: InputStream) -> None:
        with self._lock:
            if self._closed:
                raise ChannelClosedError("append on closed SequenceInputStream")
            if self._finished:
                raise ChannelClosedError(
                    "append after end of stream already observed")
            self._streams.append(stream)
            self._note_head()

    def replace_head(self, stream: InputStream) -> None:
        """Swap the stream currently being consumed for ``stream``.

        The graph compiler uses this to put a fused-pipe transport in
        front of the consumer while keeping the Channel endpoint (and
        any streams spliced behind it) intact.  Only valid before
        consumption starts or between whole elements — the compiler
        checks the buffer is empty before rewiring.
        """
        with self._lock:
            if self._closed:
                raise ChannelClosedError(
                    "replace_head on closed SequenceInputStream")
            if self._finished:
                raise ChannelClosedError(
                    "replace_head after end of stream already observed")
            if self._streams:
                self._streams[0] = stream
            else:
                self._streams.append(stream)
            self._note_head()

    @property
    def current(self) -> Optional[InputStream]:
        with self._lock:
            return self._streams[0] if self._streams else None

    def read(self, max_bytes: int) -> bytes:
        # The read itself happens outside the lock: blocking in the
        # underlying stream while holding our lock would prevent append().
        while True:
            with self._lock:
                if self._closed:
                    raise ChannelClosedError("read on closed SequenceInputStream")
                if not self._streams:
                    self._finished = True
                    return b""
                current = self._streams[0]
            chunk = current.read(max_bytes)
            if chunk:
                return chunk
            # current stream exhausted: advance (if it is still the head —
            # a concurrent close may have cleared the list).
            with self._lock:
                if self._streams and self._streams[0] is current:
                    self._streams.pop(0)
                    self._note_head()
                if not self._streams:
                    self._finished = True
                    return b""

    def close(self) -> None:
        with self._lock:
            streams = list(self._streams)
            self._streams.clear()
            self._closed = True
            self._note_head()
        for s in streams:
            try:
                s.close()
            except Exception:
                pass

    def available(self) -> int:
        with self._lock:
            return sum(s.available() for s in self._streams)

    def at_eof(self) -> bool:
        with self._lock:
            if self._finished:
                return True
            return all(s.at_eof() for s in self._streams) if self._streams else False

    def would_block_on(self) -> Optional[BoundedByteBuffer]:
        # whatever is the head *now*: splices, EOF pops and replace_head
        # all change it between two looks
        try:
            head = self._streams[0]
        except IndexError:
            return None             # finished or closed: a read returns
        return head.would_block_on()


class SequenceOutputStream(OutputStream):
    """A switchable output target preserving byte order.

    ``switch_to`` replaces the underlying sink; bytes written before the
    switch were delivered to the old sink, bytes after go to the new one,
    so FIFO channel order is preserved as long as the old sink's bytes are
    delivered ahead of the new sink's (the migration machinery arranges
    exactly that with a drain-then-forward pump).

    The lock guards re-pointing only.  A write is one load of the current
    target, and a channel endpoint bound with :meth:`bind` does not come
    through here at all: ``switch_to``, ``close`` and ``abort`` keep its
    ``write`` / ``write_vectored`` / ``would_block_on`` equal to the
    current target's bound methods, so a target must not re-bind its own
    after it has been installed.
    """

    def __init__(self, target: OutputStream) -> None:
        self._lock = threading.RLock()
        self._target = target
        self._closed = False
        self._endpoint: Optional[OutputStream] = None

    def bind(self, endpoint: OutputStream) -> None:
        """Make ``endpoint.write`` / ``.write_vectored`` /
        ``.would_block_on`` the current target's, now and after every
        ``switch_to``; once closed, its writes raise like this stream's."""
        with self._lock:
            self._endpoint = endpoint
            self._point()

    def _point(self) -> None:
        """Re-point the bound endpoint (caller holds the lock)."""
        endpoint = self._endpoint
        if endpoint is None:
            return
        target = self._target
        if self._closed:
            write = write_vectored = self._raise_closed
        else:
            write, write_vectored = target.write, target.write_vectored
        # one dict.update: no other thread runs bytecode inside it, so a
        # producer that mixes write and write_vectored never finds one
        # re-pointed and the other not (which could reorder its bytes)
        vars(endpoint).update(write=write, write_vectored=write_vectored,
                              would_block_on=target.would_block_on)

    def _raise_closed(self, data) -> None:
        raise ChannelClosedError("write on closed SequenceOutputStream")

    @property
    def current(self) -> OutputStream:
        with self._lock:
            return self._target

    def switch_to(self, new_target: OutputStream, close_old: bool = False) -> None:
        with self._lock:
            if self._closed:
                raise ChannelClosedError("switch_to on closed SequenceOutputStream")
            old = self._target
            self._target = new_target
            self._point()
        if close_old and old is not new_target:
            try:
                old.close()
            except Exception:
                pass

    def write(self, data: bytes) -> None:
        # No lock: the target is loaded once, so a switch applies to the
        # *next* write, and a write that loses a race with close() reaches
        # the closed target, which raises as it always did in that race.
        if self._closed:
            self._raise_closed(data)
        self._target.write(data)

    def write_vectored(self, chunks) -> None:
        if self._closed:
            self._raise_closed(chunks)
        self._target.write_vectored(chunks)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            target = self._target
            self._point()
        target.close()

    def abort(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            target = self._target
            self._point()
        target.abort()

    def would_block_on(self) -> Optional[BoundedByteBuffer]:
        return self._target.would_block_on()

