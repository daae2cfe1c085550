"""Channels: the operational embodiment of Kahn streams (paper section 3.1).

A :class:`Channel` is a FIFO connection between exactly one producing and
one consuming process.  ``get_output_stream`` / ``get_input_stream`` hand
out the two endpoint objects; all process communication goes through them
as **streams of bytes**, so type-independent processes (Cons, Duplicate)
need no knowledge of the traffic's structure, and typed traffic is layered
on top by the codecs of :mod:`repro.processes.codecs` inside the processes
themselves.

The endpoint objects carry the full layer stack of Figure 3 and expose the
hooks the rest of the system needs:

* splicing (``splice_from``) for self-reconfiguring graphs (Figure 10);
* the underlying buffer for the deadlock monitor and Parks' capacity
  growth;
* the sequence layers for the migration machinery, which swaps the lowest
  layer between local and socket transports.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from typing import Optional, Sequence

from repro.kpn.buffers import (BlockAccounting, BoundedByteBuffer,
                               DEFAULT_CAPACITY, wait_readable)
from repro.telemetry.core import TELEMETRY as _telemetry
from repro.kpn.streams import (
    _NOTHING,
    BlockingInputStream,
    InputStream,
    LocalInputStream,
    LocalOutputStream,
    OutputStream,
    SequenceInputStream,
    SequenceOutputStream,
)

__all__ = ["Channel", "ChannelInputStream", "ChannelOutputStream", "wait_any_readable"]

_channel_counter = itertools.count()


class ChannelOutputStream(OutputStream):
    """Producer endpoint of a channel.

    The transport below a :class:`SequenceOutputStream` can be swapped
    (local pipe ↔ network socket ↔ fused pipe) without the owning process
    noticing.  Swapping is rare and writing is not, so the sequence does
    the work: ``write``, ``write_vectored`` and ``would_block_on`` are
    instance attributes holding the bound methods of the *current lowest
    layer* (for a local pipe, the ring's own ``write``), re-pointed by
    the sequence's ``switch_to`` / ``close`` / ``abort``
    (:meth:`SequenceOutputStream.bind`).
    """

    def __init__(self, channel: "Channel", sequence: SequenceOutputStream) -> None:
        self.channel = channel
        self.sequence = sequence
        sequence.bind(self)

    def close(self) -> None:
        self.sequence.close()

    def abort(self) -> None:
        self.sequence.abort()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ChannelOutputStream of {self.channel.name!r}>"


class ChannelInputStream(InputStream):
    """Consumer endpoint of a channel.

    The layer stack is ``BlockingInputStream -> SequenceInputStream ->
    LocalInputStream`` (or a remote stream after migration).  The
    :class:`SequenceInputStream` inside every ChannelInputStream is what
    makes reconfiguration possible: when an upstream process removes
    itself, its own input is appended here and the consumer continues
    reading "without interruption" (paper Figure 10).
    """

    def __init__(self, channel: "Channel", blocking: BlockingInputStream,
                 sequence: SequenceInputStream) -> None:
        self.channel = channel
        self.blocking = blocking
        self.sequence = sequence
        #: set when ownership of this endpoint's tail has been transferred
        #: to another channel by a splice; close() then becomes a no-op so
        #: the departing process's onStop cannot sever the spliced data.
        self.detached = False

    # -- reading ---------------------------------------------------------
    def read(self, max_bytes: int) -> bytes:
        return self.blocking.read(max_bytes)

    def read_exactly(self, n: int) -> bytes:
        buf, pos = self.read_in_place(n)
        return bytes(buf[pos:pos + n])

    def read_in_place(self, n: int) -> tuple:
        """Consume the next ``n`` bytes and say where they lie: ``(buffer,
        offset)``, for a codec to decode at that offset with no copy.

        An element lying whole in what the local endpoint has read ahead
        is that batch and its position, and a used-up batch is refilled
        here with one drain_up_to (what LocalInputStream.read would do,
        four frames and a lock further down).  An element longer than
        what is left, end of stream, a refill shorter than the element, a
        spliced, fused, remote, finished or closed sequence: the stack
        below, unchanged — ``(bytes, 0)``, with the same values and the
        same errors."""
        head = self.sequence.local_head
        if head is not None:
            batch, pos = head._batch, head._pos
            end = pos + n
            if pos < end <= len(batch):
                head._pos = end
                return batch, pos
            if pos >= len(batch) and n > 0:
                # LocalInputStream._refill: drop the used-up storage before
                # blocking, then hold everything the ring buffers
                head._batch, head._pos = _NOTHING, 0
                batch = head._batch = head.buffer.drain_up_to(sys.maxsize)
                if n <= len(batch):
                    head._pos = n
                    return batch, 0
        return self.blocking.read_exactly(n), 0

    def take_ready(self, width: int, limit: int) -> Optional[memoryview]:
        # The whole elements left in the local endpoint's read-ahead, as
        # one view of the batch (its storage is never mutated, so the view
        # outlives the next refill).  No lock: only the consumer moves
        # _pos.  A spliced, fused, remote, finished or closed sequence has
        # no local head and holds nothing here.
        head = self.sequence.local_head
        if head is None:
            return None
        batch, pos = head._batch, head._pos
        count = (len(batch) - pos) // width
        if count > limit:
            count = limit
        if count <= 0:
            return None
        end = head._pos = pos + count * width
        return batch[pos:end]

    def available(self) -> int:
        return self.blocking.available()

    def at_eof(self) -> bool:
        return self.blocking.at_eof()

    def poll_ready(self) -> bool:
        """True if a read would not block (data buffered or EOF)."""
        return self.blocking.available() > 0 or self.blocking.at_eof()

    def would_block_on(self) -> Optional[BoundedByteBuffer]:
        head = self.sequence.local_head
        if head is None:
            return self.sequence.would_block_on()
        # LocalInputStream.would_block_on, inlined: the async gate asks
        # this before every step
        ring = head.buffer
        if (head._pos < len(head._batch) or len(ring._data) > ring._read_pos
                or ring._write_closed or ring._read_closed):
            return None
        return ring

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self.detached:
            return
        self.blocking.close()

    # -- reconfiguration ---------------------------------------------------
    def splice_from(self, upstream: "ChannelInputStream") -> None:
        """Append ``upstream``'s byte sequence after this channel's bytes.

        Implements the 3-stage reconfiguration of Figure 10: the removing
        process calls ``downstream_input.splice_from(own_input)`` and then
        closes its *output*; the consumer drains the removing process's
        channel, reaches its end, and continues seamlessly with the
        upstream channel's data.  ``upstream`` is detached so the removing
        process's automatic stream cleanup cannot close it.
        """
        upstream.detached = True
        self.sequence.append(upstream.sequence)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ChannelInputStream of {self.channel.name!r}>"


class Channel:
    """A single-producer single-consumer FIFO byte queue.

    Parameters
    ----------
    capacity:
        Initial buffer capacity in bytes (blocking writes beyond it —
        paper section 3.5).  The scheduler may grow it at run time.
    name:
        Diagnostic label; autogenerated when omitted.
    accounting:
        Blocked-thread accounting shared with the owning network's
        deadlock monitor.  Installed automatically by
        :class:`repro.kpn.network.Network`.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, name: str = "",
                 accounting: Optional[BlockAccounting] = None) -> None:
        self.name = name or f"channel-{next(_channel_counter)}"
        self.buffer = BoundedByteBuffer(capacity, name=self.name,
                                        accounting=accounting)
        #: the consumer end of the local pipe.  It reads ahead, so the
        #: channel's unconsumed bytes are the ring's plus what it holds:
        #: ask :meth:`buffered` / :meth:`drain`, not the buffer.
        self.reader = LocalInputStream(self.buffer)
        if _telemetry.enabled:
            _telemetry.inc("kpn.channel.created")
            _telemetry.instant("channel.created", category="kpn.channel",
                               channel=self.name, capacity=capacity)
        self._lock = threading.Lock()
        self._input: Optional[ChannelInputStream] = None
        self._output: Optional[ChannelOutputStream] = None
        #: set by the graph compiler when this channel's ring is bypassed
        #: by an intra-chain fused pipe (name and endpoints survive; the
        #: ring's byte counts then stay zero, so every observer reports
        #: the channel as fused rather than as idle)
        self.fused = False

    # -- endpoints ---------------------------------------------------------
    def get_output_stream(self) -> ChannelOutputStream:
        with self._lock:
            if self._output is None:
                seq = SequenceOutputStream(LocalOutputStream(self.buffer))
                self._output = ChannelOutputStream(self, seq)
            return self._output

    def get_input_stream(self) -> ChannelInputStream:
        with self._lock:
            if self._input is None:
                seq = SequenceInputStream(self.reader)
                self._input = ChannelInputStream(self, BlockingInputStream(seq), seq)
            return self._input

    # -- scheduler hooks -----------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.buffer.capacity

    def grow(self, new_capacity: int, cause: str = "manual",
             process: str = "", blocked: tuple = ()) -> None:
        self.buffer.grow(new_capacity, cause, process, blocked)

    def set_accounting(self, accounting: Optional[BlockAccounting]) -> None:
        self.buffer.accounting = accounting

    def buffered(self) -> int:
        """Unconsumed bytes: in the ring plus read ahead by the consumer
        endpoint.  Every diagnostic that asks "is this channel empty"
        goes through here."""
        return self.reader.available()

    def drain(self) -> bytes:
        """Non-blocking: remove and return every unconsumed byte, the
        endpoint's read-ahead first (it is older than the ring's)."""
        return self.reader.take_held() + self.buffer.drain()

    def occupancy(self) -> dict:
        """This channel's row of :meth:`Network.census`: what the buffer
        records about itself, plus the endpoint's read-ahead."""
        buffer = self.buffer
        entry = {"channel": self.name, "buffered": self.buffered(),
                 "capacity": buffer.capacity,
                 "initial_capacity": buffer.initial_capacity,
                 "high_watermark": buffer.high_watermark,
                 "total_written": buffer.total_written}
        if self.fused:
            entry["fused"] = True
        return entry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Channel {self.name!r} cap={self.buffer.capacity}>"


def wait_any_readable(inputs: Sequence[ChannelInputStream],
                      timeout: Optional[float] = None) -> list[int]:
    """Block until at least one input is readable; return the ready indices.

    This is the nondeterministic primitive used *only* by the Turnstile
    process (paper Figures 17–18) — ordinary Kahn processes never test for
    data availability.  The caller waits like any blocked read, on the
    reader list of every input's ring at once
    (:func:`~repro.kpn.buffers.wait_readable`), as one read wait the
    deadlock monitor counts.  An input whose head is no local ring (fused,
    remote, or mid-splice) is looked at again every 2 ms instead.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        # rings first: an input that turns ready after its look is seen
        # ready below, or ends the wait under its ring's lock
        rings = [s.would_block_on() for s in inputs]
        ready = [i for i, s in enumerate(inputs) if s.poll_ready()]
        if ready:
            return ready
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return []
        if None in rings:
            time.sleep(0.002 if remaining is None else min(0.002, remaining))
        else:
            wait_readable(rings, remaining)


def make_channels(n: int, capacity: int = DEFAULT_CAPACITY,
                  prefix: str = "ch") -> list[Channel]:
    """Convenience: create ``n`` channels named ``prefix-0..n-1``."""
    return [Channel(capacity, name=f"{prefix}-{i}") for i in range(n)]
