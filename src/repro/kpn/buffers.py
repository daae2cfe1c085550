"""Bounded byte buffers — the lowest layer of a channel.

The paper's channels (Figure 3) bottom out in ``java.io.PipedInputStream``
and ``PipedOutputStream``: a fixed-capacity byte pipe with blocking reads
and blocking writes.  :class:`BoundedByteBuffer` is our equivalent, built
on a ring buffer and one waiter list per direction, with five additions
the reproduction needs:

* **Two-sided close semantics** (paper section 3.4).  Closing the *read*
  side makes every subsequent write raise :class:`~repro.errors.BrokenChannelError`
  immediately; closing the *write* side lets the reader drain all buffered
  bytes and only then observe end of stream.  These two behaviours drive
  the paper's two cascading-termination modes.

* **Capacity growth while blocked** (paper section 3.5 / Parks' bounded
  scheduling).  :meth:`BoundedByteBuffer.grow` may be called by the
  scheduler while writer threads are blocked on a full buffer; they wake
  up and retry against the new capacity.

* **Blocking accounting.**  Every potentially-blocking operation records
  who waits where in an optional :class:`BlockAccounting` object so that
  a network-wide deadlock monitor can tell when *every* live process
  actor (OS thread or cooperative task) is blocked — the precondition for
  Parks' artificial-deadlock resolution.  A sleeping thread enters and
  leaves through the accounting (its lock); a parked task is one entry
  in its map, written and removed under this buffer's lock.  Only the
  last actor to block kicks the monitor; a wake never does.  Both wait on
  one list per direction (``_readers``, ``_writers``) of anything with
  ``unparked(buffer, mode)``: the task, or the thread's
  :class:`_Sleeper`.  A wake empties the list; a woken thread looks again
  and may sleep again, as after ``Condition.notify_all``.

* **Cooperative (async-backend) hooks.**  A cooperative task
  (``Network(backend="async")``) runs its step on the ordinary blocking
  code below.  Before the step, its scheduler asks the task's channel
  endpoints whether an operation would sleep (``would_block_on``: a
  lock-free look at this ring's fill and close flags and at the
  consumer's read-ahead) and parks the task on the buffer's waiter list
  (:meth:`async_park`, which looks again under the lock) when the step
  could not proceed; whichever thread next changes the buffer state
  re-schedules it.  A step that nevertheless has to sleep inside an
  operation keeps the thread it is on: ``_block`` tells the task (found
  through a thread-local), whose event loop moves to a fresh thread, and
  then waits like any thread with the task as the accounting identity.

* **Abort-aware close.**  ``close_write(aborted=True)`` marks the end of
  stream as a *cascade* abort rather than a graceful exhaustion: readers
  still drain every buffered byte, but instead of then observing a clean
  EOF they get :class:`~repro.errors.BrokenChannelError`.  This keeps
  EOF-tolerant merges (OrderedMerge, Select) from interpreting a
  timing-dependent shutdown cascade as legitimate source exhaustion —
  the fix for the merge-tail nondeterminism the fusion equivalence suite
  used to exclude.

The buffer is multi-producer/multi-consumer safe, although Kahn networks
use it strictly single-producer/single-consumer.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.errors import BrokenChannelError, ChannelClosedError
from repro.telemetry.core import TELEMETRY as _telemetry

__all__ = ["BlockAccounting", "BoundedByteBuffer", "DEFAULT_CAPACITY",
           "PARKS_CAUSES"]

#: per-thread: ``.task`` is the cooperative task running a step on this
#: thread (None on any other thread).  The event loop sets it around each
#: resume, on the same thread-local as the task's telemetry lane;
#: everything else treats it as read-only.
_HERE = _telemetry.local

#: Default channel capacity in bytes.  Java's ``PipedInputStream`` default
#: is 1024 bytes; we match it so the paper's remark that "the default
#: buffer capacities ... are sufficient for many programs" carries over.
DEFAULT_CAPACITY = 1024

#: the :meth:`BoundedByteBuffer.grow` causes that are resolutions of an
#: artificial deadlock (section 3.5): the network's own monitor, and the
#: cross-site coordinator acting through ``Network.grow_channel``.  The
#: others — ``"presize"`` (the graph compiler applying a capacity spec),
#: ``"migration"`` (making room for shipped bytes), ``"manual"`` — change a
#: capacity without anything having been stuck.
PARKS_CAUSES = ("parks", "parks-distributed")


class BlockAccounting:
    """Who is blocked where, for the scheduler's deadlock monitor.

    A network installs one accounting object on all of its channel
    buffers and keeps :attr:`live`, its live-actor count, up to date.
    The map records only that network's *actors* — OS threads it spawned
    (they carry the marker ``Network.spawn`` sets, see :meth:`_enter`)
    and cooperative tasks, which pass themselves.  A link's pump or a
    caller's thread still sleeps on the buffer's waiter list, but it is
    not entered here: it never counts toward a stall.

    The kick rule is one for both kinds of actor: after a wait is
    recorded, the optional ``on_change`` callback (the monitor's kick)
    runs iff at least :attr:`live` actors are blocked — a stall needs
    every live actor blocked, so only the last one to block can complete
    it.  A wake never kicks.  A thread's wait goes through :meth:`_enter`
    under the accounting lock; a task's park writes :attr:`_blocked` and
    :attr:`generation` directly (:meth:`BoundedByteBuffer.async_park`),
    and a wake removes the entry of whoever it woke, task or thread,
    before the woken actor runs (:meth:`_exit` is left for a wait that
    ended without a wake).  Those writes need no lock: a single dict
    store or pop is atomic, each recorder stores before it counts (so of
    two racing last blockers, the later count sees both), the queries
    copy or size the map in one call and never walk it, and
    :attr:`generation` is only ever compared for change, so a lost
    increment costs nothing.  Methods are invoked *while holding the
    buffer's lock*, so implementations must not call back into the
    buffer.

    An accounting no network owns (:attr:`live` is None) records every
    waiting thread and kicks on each wait.
    """

    def __init__(self, on_change: Optional[Callable[[], None]] = None) -> None:
        self._lock = threading.Lock()
        #: actor (thread or task) -> (buffer, "read"|"write") while blocked
        self._blocked: dict[object, tuple["BoundedByteBuffer", str]] = {}
        #: bumped on every blocking transition so the monitor can detect
        #: churn between two observations (stability check)
        self.generation = 0
        #: the owning network's live actors (``Network.live_count``),
        #: written under its lock and read without one; None: no owner
        self.live: Optional[int] = None
        #: the owning network (the migration pickler finds a boundary
        #: channel's network here); None: no owner
        self.network = None
        self._on_change = on_change

    # -- updates (called by buffers) -------------------------------------
    def _enter(self, buffer: "BoundedByteBuffer", mode: str,
               actor: object = None) -> object:
        """``actor`` (default: the calling thread) starts waiting.

        Returns the key recorded, or None for a thread that is not one
        of the owning network's actors (its ``kpn_accounting`` marker is
        not this object).
        """
        if actor is None:
            actor = threading.current_thread()
            if self.live is not None and \
                    getattr(actor, "kpn_accounting", None) is not self:
                return None
        with self._lock:
            self._blocked[actor] = (buffer, mode)
            self.generation += 1
            live = self.live
            stall = live is None or len(self._blocked) >= live
        if stall and self._on_change is not None:
            self._on_change()
        return actor

    def _exit(self, actor: object) -> None:
        """``actor`` (a key :meth:`_enter` returned) stopped waiting
        without being woken: a wake removes the entry itself."""
        with self._lock:
            self._blocked.pop(actor, None)
            self.generation += 1

    # -- queries (used by the deadlock monitor) --------------------------
    def snapshot(self) -> dict[object, tuple["BoundedByteBuffer", str]]:
        """Consistent copy of the blocked-actor map."""
        return self._blocked.copy()

    @property
    def read_blocked(self) -> int:
        return sum(1 for _, m in self.snapshot().values() if m == "read")

    @property
    def write_blocked(self) -> int:
        return sum(1 for _, m in self.snapshot().values() if m == "write")

    @property
    def total_blocked(self) -> int:
        return len(self._blocked)


class _Sleeper:
    """A thread asleep on a waiter list: a lock taken at birth, which the
    thread's second ``acquire`` waits on and the waker releases.

    ``key`` is the thread's entry in ``accounting`` (None: not
    recorded).  The waker removes it, as it does a parked task's: a woken
    thread that has not run yet is not blocked, and must not make the
    monitor see a stall that is over.
    """

    __slots__ = ("lock", "accounting", "key")

    def __init__(self, accounting: Optional[BlockAccounting],
                 key: object) -> None:
        self.lock = threading.Lock()
        self.lock.acquire()
        self.accounting = accounting
        self.key = key

    def unparked(self, buffer: "BoundedByteBuffer", mode: str) -> None:
        if self.key is not None:
            self.accounting._blocked.pop(self.key, None)
        self.lock.release()


class BoundedByteBuffer:
    """A blocking, bounded, growable FIFO of bytes.

    Parameters
    ----------
    capacity:
        Maximum number of buffered bytes before writes block.  Must be
        at least 1.
    name:
        Diagnostic label used in deadlock reports.
    accounting:
        Optional :class:`BlockAccounting` receiving blocked-thread events.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        name: str = "",
        accounting: Optional[BlockAccounting] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._lock = threading.Lock()
        # ring-ish storage: consumed bytes are skipped via _read_pos and
        # compacted lazily — `del data[:n]` per read would make a read
        # O(buffered bytes) and large-buffer workloads quadratic.
        self._data = bytearray()
        self._read_pos = 0
        self._capacity = capacity
        #: the capacity this buffer was built with; with :attr:`growths`
        #: the channel's own record of its size, which every observer
        #: reads (``Network.census``) and none copies
        self.initial_capacity = capacity
        #: one entry per capacity change, oldest first: ``{"t", "old",
        #: "new", "cause", "process", "blocked"}`` (see :meth:`grow`); a
        #: tuple, so the channels that never grow share one empty object
        self.growths: tuple = ()
        self._read_closed = False
        self._write_closed = False
        #: close_write(aborted=True) was used: drained readers observe a
        #: BrokenChannelError instead of a clean end of stream
        self._write_aborted = False
        # who waits for data / for room, parked task or sleeping thread; a
        # wake site tests its list first — most writes and reads find nobody
        self._readers: list = []
        self._writers: list = []
        self.name = name
        self.accounting = accounting
        #: total bytes ever written / read (for stats & tests)
        self.total_written = 0
        self.total_read = 0
        #: most bytes ever buffered at once — the capacity advisor's
        #: evidence that a channel actually used its headroom.  Maintained
        #: unconditionally: one compare per write is cheaper than gating.
        self._high_watermark = 0
        #: when enabled (see :meth:`record_history`), every byte ever
        #: written is appended here — the channel's full history, the
        #: object Kahn's theorem actually quantifies over.
        self.history: Optional[bytearray] = None
        # listeners called (outside the lock is unsafe; we call under lock,
        # listeners must be lock-free, e.g. threading.Event.set) whenever
        # data becomes available or the stream reaches EOF.  Used by
        # Turnstile's wait-on-any-input and by the deadlock monitor.
        self._listeners: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def high_watermark(self) -> int:
        """Most bytes ever buffered at once."""
        return self._high_watermark

    def _buffered(self) -> int:
        """Bytes currently readable (caller holds the lock)."""
        return len(self._data) - self._read_pos

    def _compact(self) -> None:
        """Drop consumed bytes when they dominate the storage (held lock).

        Amortized O(1): each byte is moved at most once per compaction,
        and compaction only fires when consumed bytes exceed both a fixed
        floor and half the storage.
        """
        if self._read_pos > 4096 and self._read_pos * 2 >= len(self._data):
            del self._data[: self._read_pos]
            self._read_pos = 0

    def available(self) -> int:
        """Number of bytes that can be read without blocking."""
        with self._lock:
            return self._buffered()

    def free_space(self) -> int:
        """Number of bytes that can be written without blocking."""
        with self._lock:
            return max(0, self._capacity - self._buffered())

    @property
    def read_closed(self) -> bool:
        return self._read_closed

    @property
    def write_closed(self) -> bool:
        return self._write_closed

    def at_eof(self) -> bool:
        """True if a read would raise/return empty: writer closed & drained."""
        with self._lock:
            return self._write_closed and self._buffered() == 0

    def add_listener(self, callback: Callable[[], None]) -> None:
        """Register ``callback`` to run whenever readability may change.

        The callback runs with the buffer lock held; it must be cheap and
        must not touch the buffer (setting a ``threading.Event`` is the
        intended use).
        """
        with self._lock:
            self._listeners.append(callback)

    def remove_listener(self, callback: Callable[[], None]) -> None:
        with self._lock:
            try:
                self._listeners.remove(callback)
            except ValueError:
                pass

    def _fire_listeners(self) -> None:
        for cb in self._listeners:
            cb()

    # ------------------------------------------------------------------
    # cooperative-task (async backend) support
    # ------------------------------------------------------------------
    def _check_aborted_eof(self) -> None:
        """Raise instead of signalling EOF when the writer aborted (held lock)."""
        if self._write_aborted:
            raise BrokenChannelError(
                f"writer of channel {self.name!r} aborted")

    def _wake_readers(self) -> None:
        """Wake everyone waiting for data (caller holds the lock)."""
        waiters = self._readers
        self._readers = []
        acct = self.accounting
        if acct is not None:
            # each waiter's unparked removes its own accounting entry
            acct.generation += 1
        for w in waiters:
            w.unparked(self, "read")

    def _wake_writers(self) -> None:
        """Wake everyone waiting for room (as :meth:`_wake_readers`)."""
        waiters = self._writers
        self._writers = []
        acct = self.accounting
        if acct is not None:
            acct.generation += 1
        for w in waiters:
            w.unparked(self, "write")

    def async_park(self, mode: str, waiter) -> bool:
        """Park a cooperative task on this buffer, or refuse.

        Atomically re-checks that the operation would still block (a read:
        nothing buffered and both ends open; a write: no room for a byte
        and both ends open); a False return means the buffer state changed
        since the task read the lock-free hint (a stream's
        ``would_block_on``) and it should simply look again (classic
        lost-wakeup guard).  On
        True the waiter is registered, blocked-actor accounting records
        it (the waiter object *is* the actor key) and a ``block.read`` /
        ``block.write`` telemetry span opens — the waiter's ``unparked``
        callback closes it.  ``waiter`` must expose ``unparked(buffer,
        mode)`` (reschedule, called with the buffer lock held) and
        ``name``; ``unparked`` removes the accounting entry.

        The record is one store into the accounting's map and a bump of
        its generation, under this buffer's lock only, and the deadlock
        monitor is kicked only when the park leaves at least as many
        actors blocked as are live (the rule of :class:`BlockAccounting`,
        a ``len`` and a compare).
        """
        with self._lock:
            if self._write_closed or self._read_closed:
                return False
            buffered = len(self._data) - self._read_pos
            if mode == "read":
                if buffered > 0:
                    return False
                self._readers.append(waiter)
            else:
                if buffered < self._capacity:
                    return False
                self._writers.append(waiter)
            acct = self.accounting
            if acct is not None:
                blocked = acct._blocked
                blocked[waiter] = (self, mode)
                acct.generation += 1
                # BlockAccounting's kick rule, inline: the last to block
                if len(blocked) >= (acct.live or 0) \
                        and acct._on_change is not None:
                    acct._on_change()
            if _telemetry.enabled:
                _telemetry.begin(f"block.{mode}", category="kpn.block",
                                 channel=self.name,
                                 process=getattr(waiter, "name", ""),
                                 **({"capacity": self._capacity}
                                    if mode == "write" else {}))
                _telemetry.inc(f"kpn.channel.{mode}_blocks", 1,
                               channel=self.name)
            return True

    def async_release(self, mode: str) -> None:
        """Reschedule the tasks parked here for ``mode`` although nothing
        changed — the deadlock monitor releasing waits that were only an
        assumption.  A released task re-evaluates its whole gate and a
        woken thread its operation, so waking a bystander is harmless."""
        with self._lock:
            if mode == "read":
                self._wake_readers()
            else:
                self._wake_writers()

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def write(self, data) -> None:
        """Append ``data`` (any bytes-like), blocking while space lacks.

        Writes larger than the capacity are delivered in chunks, exactly
        like Java piped streams; interleaving with other writers is then
        possible, but Kahn networks have a single writer per channel.

        Raises
        ------
        BrokenChannelError
            If the read side is (or becomes, while blocked) closed.
        ChannelClosedError
            If this write side has already been closed.
        """
        if not data:
            return
        if _telemetry.enabled:
            _telemetry.inc("kpn.channel.writes", 1, channel=self.name)
        with self._lock:
            # The usual element — bytes, both ends open, room for all of
            # it — is one += and the bookkeeping _write_locked does for a
            # chunk, with no view, no loop and no further frame.  Anything
            # else (a closed end to raise on, a full ring to block on, a
            # chunked or non-bytes write) is _write_locked's, unchanged.
            if (type(data) is bytes and not self._write_closed
                    and not self._read_closed):
                buffered = len(self._data) - self._read_pos + len(data)
                if buffered <= self._capacity:
                    self._data += data
                    if self.history is not None:
                        self.history += data
                    self.total_written += len(data)
                    if buffered > self._high_watermark:
                        self._high_watermark = buffered
                    if _telemetry.enabled:
                        _telemetry.inc("kpn.channel.bytes_written", len(data),
                                       channel=self.name)
                    if self._readers:
                        self._wake_readers()
                    if self._listeners:
                        self._fire_listeners()
                    return
            self._write_locked(memoryview(data).cast("B"))

    def write_vectored(self, chunks) -> None:
        """Append several bytes-like chunks under one lock acquisition.

        Equivalent to ``write(chunk) for chunk in chunks`` (same chunking,
        blocking, and close semantics — single-writer channels observe no
        difference) but the producer takes the lock once per batch
        instead of once per chunk.  ``ObjectCodec.write`` is the caller:
        a frame's 4-byte header and its pickle, with no concatenation.
        """
        views = [memoryview(c).cast("B") for c in chunks if len(c)]
        if not views:
            return
        if _telemetry.enabled:
            _telemetry.inc("kpn.channel.writes", 1, channel=self.name)
        with self._lock:
            for view in views:
                self._write_locked(view)

    def write_donate(self, data: bytearray) -> None:
        """Append ``data``, adopting its storage outright when possible.

        Behaves exactly like :meth:`write`, but when the ring is empty and
        ``data`` fits within capacity the bytearray itself becomes the
        ring storage — no copy.  The caller must not touch ``data`` after
        this call.  Used by the receiver pump, which allocates a fresh
        buffer per received frame anyway; with a fast consumer the ring is
        empty on nearly every delivery, so frames flow through untouched.
        """
        if not data:
            return
        if _telemetry.enabled:
            _telemetry.inc("kpn.channel.writes", 1, channel=self.name)
        with self._lock:
            if (isinstance(data, bytearray) and self._buffered() == 0
                    and len(data) <= self._capacity
                    and not self._write_closed and not self._read_closed
                    and self.history is None):
                self._data = data
                self._read_pos = 0
                self.total_written += len(data)
                if len(data) > self._high_watermark:
                    self._high_watermark = len(data)
                if _telemetry.enabled:
                    _telemetry.inc("kpn.channel.bytes_written", len(data),
                                   channel=self.name)
                if self._readers:
                    self._wake_readers()
                if self._listeners:
                    self._fire_listeners()
                return
            self._write_locked(memoryview(data).cast("B"))

    def _write_locked(self, view: memoryview) -> None:
        """Deliver one chunk, blocking on capacity (caller holds the lock)."""
        offset = 0
        while offset < len(view):
            if self._write_closed:
                raise ChannelClosedError(
                    f"write on closed output of channel {self.name!r}")
            if self._read_closed:
                raise BrokenChannelError(
                    f"reader closed channel {self.name!r}")
            space = self._capacity - self._buffered()
            if space <= 0:
                self._block("write")
                continue
            chunk = view[offset:offset + space]
            self._data.extend(chunk)
            if self.history is not None:
                self.history.extend(chunk)
            offset += len(chunk)
            self.total_written += len(chunk)
            buffered = self._buffered()
            if buffered > self._high_watermark:
                self._high_watermark = buffered
            if _telemetry.enabled:
                _telemetry.inc("kpn.channel.bytes_written", len(chunk),
                               channel=self.name)
            if self._readers:
                self._wake_readers()
            if self._listeners:
                self._fire_listeners()

    def read(self, max_bytes: int) -> bytes:
        """Remove and return 1..max_bytes bytes, blocking while empty.

        Returns ``b""`` only at end of stream (write side closed and all
        data drained) — mirroring Java's ``read`` returning ``-1``.

        Raises
        ------
        ChannelClosedError
            If the read side has already been closed.
        """
        if max_bytes <= 0:
            return b""
        with self._lock:
            while True:
                if self._read_closed:
                    raise ChannelClosedError(
                        f"read on closed input of channel {self.name!r}")
                if self._buffered() > 0:
                    # steal=False means the view wraps a fresh bytes
                    # object; .obj hands it back without another copy.
                    return self._take_locked(max_bytes, steal=False).obj
                if self._write_closed:
                    self._check_aborted_eof()
                    return b""
                self._block("read")

    def _take_locked(self, max_bytes: int, steal: bool = True) -> memoryview:
        """Consume up to ``max_bytes`` buffered bytes (caller holds the
        lock, buffered > 0) and return them as a memoryview.

        With ``steal``, a request covering everything buffered takes the
        internal storage itself — handed over as a view and replaced with
        a fresh bytearray — so no bytes are copied and later writes cannot
        mutate what the caller holds.  Callers that copy the result anyway
        (:meth:`read`) pass ``steal=False`` to keep the storage (and its
        already-grown allocation) in place.  Partial takes copy once.
        """
        buffered = len(self._data) - self._read_pos
        take = min(max_bytes, buffered)
        if steal and take == buffered:
            stolen = self._data
            start = self._read_pos
            self._data = bytearray()
            self._read_pos = 0
            view = memoryview(stolen)[start:] if start else memoryview(stolen)
        else:
            end = self._read_pos + take
            with memoryview(self._data) as src:
                view = memoryview(bytes(src[self._read_pos:end]))
            self._read_pos = end
            self._compact()
        self.total_read += take
        if _telemetry.enabled:
            _telemetry.inc("kpn.channel.reads", 1, channel=self.name)
            _telemetry.inc("kpn.channel.bytes_read", take, channel=self.name)
        if self._writers:
            self._wake_writers()
        return view

    def drain_up_to(self, max_bytes: int) -> memoryview:
        """Blocking zero-copy read: like :meth:`read` but returns a
        memoryview instead of bytes.

        The returned view owns its storage (the ring's bytearray is stolen
        or the bytes are copied out), so it stays valid across later
        writes, reads, ``grow`` and close calls.  An *empty* view means
        end of stream, mirroring ``read`` returning ``b""``.  This is the
        sender pump's hot path: the view goes straight into a
        scatter-gather ``sendmsg`` with no intermediate concatenation.
        """
        if max_bytes <= 0:
            return memoryview(b"")
        with self._lock:
            while True:
                if self._read_closed:
                    raise ChannelClosedError(
                        f"read on closed input of channel {self.name!r}")
                if len(self._data) > self._read_pos:
                    return self._take_locked(max_bytes)
                if self._write_closed:
                    self._check_aborted_eof()
                    return memoryview(b"")
                self._block("read")

    def _block(self, mode: str) -> None:
        """Sleep on the ``mode`` waiter list until a wake site empties it
        (caller holds the lock, and holds it again on return)."""
        task = _HERE.task
        if task is not None:
            # a cooperative task's step has to sleep after all: it keeps
            # this thread, its event loop continues on a fresh one
            task.hand_off(self, mode)
        acct = self.accounting
        # None: no accounting, or a thread that is no network actor
        key = acct._enter(self, mode, task) if acct is not None else None
        traced = _telemetry.enabled
        if traced:
            # `process` makes block spans joinable with process lifecycle
            # spans and channel.grow instants without relying on thread
            # names (network-spawned threads carry the process name, a
            # handed-off task runs on a thread named after its loop; pump
            # and test threads may carry neither)
            _telemetry.begin(
                f"block.{mode}", category="kpn.block", channel=self.name,
                process=(task or threading.current_thread()).name,
                **({"capacity": self._capacity} if mode == "write" else {}))
            _telemetry.inc(f"kpn.channel.{mode}_blocks", 1, channel=self.name)
        sleeper = _Sleeper(acct, key)
        # a wake swaps the whole list out: unwoken, it is still the live one
        waiters = self._readers if mode == "read" else self._writers
        waiters.append(sleeper)
        woken = False
        self._lock.release()
        try:
            woken = sleeper.lock.acquire()
        finally:
            self._lock.acquire()
            if not woken and sleeper in waiters:
                # interrupted (a signal handler raised), as Condition.wait
                waiters.remove(sleeper)
            if traced:
                _telemetry.end(f"block.{mode}", category="kpn.block")
            if key is not None and not woken:
                # the waker removed a woken thread's entry (unparked)
                acct._exit(key)

    def drain(self) -> bytes:
        """Non-blocking: remove and return everything currently buffered.

        Used during migration to preserve unconsumed data (paper section
        3.3: "Care must be taken to preserve any unconsumed data residing
        in the channels at the time that reconfiguration takes place").
        """
        with self._lock:
            chunk = bytes(self._data[self._read_pos:])
            self._data.clear()
            self._read_pos = 0
            self.total_read += len(chunk)
            if self._writers:
                self._wake_writers()
            return chunk

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def close_write(self, aborted: bool = False) -> None:
        """Close the producer side; readers drain then see end of stream.

        With ``aborted=True`` the end of stream is a cascade abort: after
        draining, readers get :class:`BrokenChannelError` instead of a
        clean EOF.  A producer that terminates because its *own* output
        was closed under it uses this, so downstream EOF-tolerant merges
        die deterministically instead of pass-through-ing a
        timing-dependent tail.
        """
        with self._lock:
            if self._write_closed:
                return
            self._write_closed = True
            self._write_aborted = aborted
            if self._readers:
                self._wake_readers()
            if self._writers:
                self._wake_writers()
            self._fire_listeners()

    def close_read(self) -> None:
        """Close the consumer side; subsequent/blocked writes break."""
        with self._lock:
            if self._read_closed:
                return
            self._read_closed = True
            self._data.clear()
            self._read_pos = 0
            if self._readers:
                self._wake_readers()
            if self._writers:
                self._wake_writers()
            self._fire_listeners()

    def record_history(self, enable: bool = True) -> None:
        """Start (or stop) recording the complete byte history.

        Must be enabled before any writes for the history to be complete;
        the channel-history determinacy tests turn it on at construction.
        """
        with self._lock:
            if enable and self.history is None:
                # include currently-unread bytes so history is complete
                self.history = bytearray(self._data[self._read_pos:])
            elif not enable:
                self.history = None

    def history_bytes(self) -> bytes:
        """Everything ever written (empty if recording was off)."""
        with self._lock:
            return bytes(self.history) if self.history is not None else b""

    def record_bytes(self, data) -> None:
        """Append ``data`` to the history without buffering it.

        Used by the graph compiler's fused pipes: bytes that bypass the
        ring still show up in the channel history, so HistoryCapture
        sees the same stream fused and unfused.
        """
        with self._lock:
            if self.history is not None:
                self.history += data

    def grow(self, new_capacity: int, cause: str = "manual",
             process: str = "", blocked: tuple = ()) -> None:
        """Enlarge the buffer, waking any writers blocked on a full buffer.

        Shrinking is rejected: it could strand already-buffered data above
        the bound and is never needed by Parks' algorithm, which only ever
        increases capacities.  Every change is appended to
        :attr:`growths` with its ``cause`` (:data:`PARKS_CAUSES`,
        ``"presize"``, ``"migration"`` or ``"manual"``), the blocked
        writer it frees (``process`` — the call comes from a monitor
        thread, so the name must be handed in to be joinable with that
        writer's block span) and every actor ``blocked`` at the time.
        """
        with self._lock:
            if new_capacity < self._capacity:
                raise ValueError(
                    f"cannot shrink channel {self.name!r}: "
                    f"{self._capacity} -> {new_capacity}")
            old = self._capacity
            self._capacity = new_capacity
            if new_capacity != old:
                self.growths += ({
                    "t": time.monotonic(), "old": old, "new": new_capacity,
                    "cause": cause, "process": process,
                    "blocked": tuple(blocked)},)
            if self._writers:
                self._wake_writers()
        if _telemetry.enabled and new_capacity != old:
            _telemetry.instant("channel.grow", category="kpn.channel",
                               channel=self.name, old=old, new=new_capacity,
                               process=process, cause=cause,
                               blocked=len(blocked))
            _telemetry.inc("kpn.channel.grow_events", 1, channel=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BoundedByteBuffer {self.name!r} {self._buffered()}/"
            f"{self._capacity}B rc={self._read_closed} wc={self._write_closed}>"
        )
