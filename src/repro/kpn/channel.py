"""Channels: the operational embodiment of Kahn streams (paper section 3.1).

A :class:`Channel` is a FIFO connection between exactly one producing and
one consuming process.  ``get_output_stream`` / ``get_input_stream`` hand
out the two endpoint objects; all process communication goes through them
as **streams of bytes**, so type-independent processes (Cons, Duplicate)
need no knowledge of the traffic's structure, and typed traffic is layered
on top with :mod:`repro.kpn.data` / :mod:`repro.kpn.objects` inside the
processes themselves.

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
import threading
import time
from typing import Optional, Sequence

from repro.kpn.buffers import BlockAccounting, BoundedByteBuffer, DEFAULT_CAPACITY
from repro.telemetry.core import TELEMETRY as _telemetry
from repro.kpn.streams import (
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

    def flush(self) -> None:
        self.sequence.flush()

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

    def readinto(self, target) -> int:
        return self.blocking.readinto(target)

    def read_exactly(self, n: int) -> bytes:
        # An element lying whole in what the local endpoint has read ahead
        # is one slice of that batch (what LocalInputStream.read would do,
        # four frames and a lock further down).  Nothing held, an element
        # longer than what is left, a spliced, fused, remote, finished or
        # closed sequence: the stack below, unchanged.
        head = self.sequence.local_head
        if head is not None:
            batch, pos = head._batch, head._pos
            end = pos + n
            if pos < end <= len(batch):
                head._pos = end
                return bytes(batch[pos:end])
        return self.blocking.read_exactly(n)

    def available(self) -> int:
        return self.blocking.available()

    def at_eof(self) -> bool:
        return self.blocking.at_eof()

    def poll_ready(self) -> bool:
        """True if a read would not block (data buffered or EOF)."""
        return self.blocking.available() > 0 or self.blocking.at_eof()

    def would_block_on(self) -> Optional[BoundedByteBuffer]:
        head = self.sequence.local_head
        return (head if head is not None else self.sequence).would_block_on()

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
                      poll_interval: float = 0.002,
                      timeout: Optional[float] = None) -> list[int]:
    """Block until at least one input is readable; return the ready indices.

    This is the nondeterministic primitive used *only* by the Turnstile
    process (paper Figures 17–18) — ordinary Kahn processes never test for
    data availability.  Readiness events are delivered by buffer listeners
    where the input's head is a local buffer; a short poll interval covers
    inputs whose head is an exotic layered stream (e.g. mid-splice).
    """
    event = threading.Event()
    buffers: list[BoundedByteBuffer] = []
    for s in inputs:
        head = s.sequence.current
        if isinstance(head, LocalInputStream):
            head.buffer.add_listener(event.set)
            buffers.append(head.buffer)
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        while True:
            ready = [i for i, s in enumerate(inputs) if s.poll_ready()]
            if ready:
                return ready
            if deadline is not None and time.monotonic() >= deadline:
                return []
            event.clear()
            event.wait(poll_interval)
    finally:
        for b in buffers:
            b.remove_listener(event.set)


def make_channels(n: int, capacity: int = DEFAULT_CAPACITY,
                  prefix: str = "ch") -> list[Channel]:
    """Convenience: create ``n`` channels named ``prefix-0..n-1``."""
    return [Channel(capacity, name=f"{prefix}-{i}") for i in range(n)]
