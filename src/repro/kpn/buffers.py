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

* **One way to wait.**  Every wait is an entry on a waiter list
  (``_readers``, ``_writers``) of anything with ``unparked(buffer,
  mode)`` — a parked task, or a sleeping thread's :class:`_Sleeper`, on
  one ring or (:func:`wait_readable`, a reader of several channels) on
  each of them — and one entry in an optional :class:`BlockAccounting`,
  so that a network-wide deadlock monitor can tell when *every* live
  actor is blocked: Parks' precondition.  Only the last actor to block
  kicks the monitor.  A wake empties the list; a woken thread looks
  again and may sleep again, as after ``Condition.notify_all``.

* **Cooperative (async-backend) hooks.**  A task's scheduler asks its
  endpoints, lock-free, whether an operation would sleep
  (``would_block_on``) and parks the task (:meth:`async_park`, which
  looks again under the lock) when its step could not proceed; whoever
  next changes the buffer re-schedules it.  A step that has to sleep
  inside an operation after all keeps its thread: ``_block`` tells the
  task, whose event loop moves to a fresh thread, and waits like any
  thread with the task as the accounting identity.

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

    A network installs one on all of its channel buffers and keeps
    :attr:`live`, its live-actor count, up to date.  The map records only
    its *actors*: OS threads it spawned (marked by ``Network.spawn``, see
    :meth:`_enter`) and tasks, which pass themselves.  A pump's or a
    caller's thread sleeps on the same waiter lists, unrecorded.

    After a wait is recorded, ``on_change`` (the monitor's kick) runs iff
    at least :attr:`live` actors are blocked: only the last to block can
    complete a stall, and a wake never kicks.  A thread's wait goes
    through :meth:`_enter` under the accounting lock; a task's park
    writes :attr:`_blocked` and :attr:`generation` directly, and a wake
    removes the entry of whoever it woke before that actor runs
    (:meth:`_exit` ends a wait no wake ended).  Those writes need no
    lock: a dict store or pop is atomic, each recorder stores before it
    counts (of two racing last blockers, the later count sees both), the
    queries copy or size the map in one call, and :attr:`generation` is
    only compared for change (a lost increment costs nothing).  Methods
    run under the buffer's lock and must not call back into the buffer.

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
        try:
            self.lock.release()
        except RuntimeError:
            pass    # asleep on several lists: another ring woke it first


def wait_readable(rings: list["BoundedByteBuffer"],
                  timeout: Optional[float] = None) -> None:
    """Sleep until a write or a close on any of ``rings``, or ``timeout``
    seconds: a thread's wait on several channels (a ``@nondeterminate``
    reader's, never a task's).  It is recorded once, as a read of the
    first ring, with one :class:`_Sleeper` on every ring's reader list; a
    ring found buffering or closed ends it at once.  Every ring's lock is
    taken again before the entry goes, so no wake of it is still running.
    """
    first = rings[0]
    acct = first.accounting
    key = acct._enter(first, "read") if acct is not None else None
    sleeper = _Sleeper(acct, key)
    try:
        for ring in rings:
            with ring._lock:
                if (len(ring._data) > ring._read_pos or ring._write_closed
                        or ring._read_closed):
                    break
                ring._readers.append(sleeper)
        else:
            sleeper.lock.acquire(timeout=-1 if timeout is None else timeout)
    finally:
        for ring in rings:
            with ring._lock:
                if sleeper in ring._readers:
                    ring._readers.remove(sleeper)
        if key is not None:
            acct._exit(key)


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

        Re-checks under the lock that the operation would still block (a
        read: nothing buffered; a write: no room for a byte; both ends
        open).  False: the buffer changed since the task's lock-free look
        (``would_block_on``), and it should look again.  True: ``waiter``
        (with ``unparked(buffer, mode)``, called under the buffer lock,
        which removes its entry and closes its ``block.<mode>`` span, and
        ``name``) is on the list and is its own accounting key — one store
        and a generation bump, with :class:`BlockAccounting`'s kick rule
        inline.
        """
        lock = self._lock
        lock.acquire()
        try:
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
                self._trace_block(mode, getattr(waiter, "name", ""))
            return True
        finally:
            lock.release()

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
        # acquire/try/finally, not ``with``: the cheaper lock section on
        # the path every element takes
        lock = self._lock
        lock.acquire()
        try:
            # The usual element — bytes, both ends open, room for all of
            # it — is one += and the bookkeeping _write_locked does for a
            # chunk, with no view, no loop and no further frame; its wake
            # is _wake_readers' body, inline.  Anything else (a closed end
            # to raise on, a full ring to block on, a chunked or non-bytes
            # write) is _write_locked's, unchanged.
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
                    waiters = self._readers
                    if waiters:
                        self._readers = []
                        acct = self.accounting
                        if acct is not None:
                            acct.generation += 1
                        for w in waiters:
                            w.unparked(self, "read")
                    return
            self._write_locked(memoryview(data).cast("B"))
        finally:
            lock.release()

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
            self._write_locked(memoryview(data).cast("B"),
                               data if isinstance(data, bytearray) else None)

    def _write_locked(self, view: memoryview,
                      donated: Optional[bytearray] = None) -> None:
        """Deliver one chunk, blocking on capacity (caller holds the lock).
        ``donated``, the bytearray ``view`` covers, becomes the storage of
        an empty ring that all of it fits in, and is copied otherwise."""
        offset = 0
        while offset < len(view):
            if self._write_closed:
                raise ChannelClosedError(
                    f"write on closed output of channel {self.name!r}")
            if self._read_closed:
                raise BrokenChannelError(
                    f"reader closed channel {self.name!r}")
            buffered = len(self._data) - self._read_pos
            space = self._capacity - buffered
            if space <= 0:
                self._block("write")
                continue
            chunk = view[offset:offset + space]
            if (donated is not None and not offset and not buffered
                    and len(view) <= space):
                self._data = donated
                self._read_pos = 0
            else:
                self._data.extend(chunk)
            if self.history is not None:
                self.history.extend(chunk)
            offset += len(chunk)
            self.total_written += len(chunk)
            buffered += len(chunk)
            if buffered > self._high_watermark:
                self._high_watermark = buffered
            if _telemetry.enabled:
                _telemetry.inc("kpn.channel.bytes_written", len(chunk),
                               channel=self.name)
            if self._readers:
                self._wake_readers()

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

        With ``steal``, a take of everything buffered hands the storage
        itself over, replaced by a fresh bytearray: no copy, and later
        writes cannot mutate it.  :meth:`read`, which copies anyway, keeps
        the grown storage in place.  Partial takes copy once.
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
        memoryview, empty at end of stream.

        The view owns its storage (stolen or copied out), so it stays
        valid across later writes, reads, ``grow`` and closes: a local
        endpoint's read-ahead, or a sender pump's ``sendmsg`` argument.
        """
        if max_bytes <= 0:
            return memoryview(b"")
        lock = self._lock
        lock.acquire()
        try:
            while True:
                if self._read_closed:
                    raise ChannelClosedError(
                        f"read on closed input of channel {self.name!r}")
                start = self._read_pos
                buffered = len(self._data) - start
                if buffered > 0:
                    if buffered > max_bytes or _telemetry.enabled:
                        return self._take_locked(max_bytes)
                    # _take_locked's steal, inline: the refill of every
                    # read-ahead endpoint takes everything buffered
                    stolen = self._data
                    self._data = bytearray()
                    self._read_pos = 0
                    self.total_read += buffered
                    if self._writers:
                        self._wake_writers()
                    return (memoryview(stolen)[start:] if start
                            else memoryview(stolen))
                if self._write_closed:
                    self._check_aborted_eof()
                    return memoryview(b"")
                self._block("read")
        finally:
            lock.release()

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
            self._trace_block(mode, (task or threading.current_thread()).name)
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

    def _trace_block(self, mode: str, process: str) -> None:
        """Open and count the ``block.<mode>`` span of a wait here (the
        caller tests that telemetry is on).  ``process`` joins it with the
        waiter's lifecycle spans, whatever thread the waiter is on."""
        _telemetry.begin(
            f"block.{mode}", category="kpn.block", channel=self.name,
            process=process,
            **({"capacity": self._capacity} if mode == "write" else {}))
        _telemetry.inc(f"kpn.channel.{mode}_blocks", 1, channel=self.name)

    def drain(self) -> bytes:
        """Non-blocking: remove and return everything buffered — the
        unconsumed data migration preserves (paper section 3.3)."""
        with self._lock:
            if len(self._data) == self._read_pos:
                return b""
            return bytes(self._take_locked(len(self._data)))

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
