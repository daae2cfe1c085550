"""Cooperative scheduling substrate: the ``backend="async"`` runtime.

The paper runs every KPN process on its own Java thread.  That is also
this library's reference backend — but one OS thread per process caps
practical graph sizes at a few thousand processes (stack memory, context
switches, scheduler pressure).  This module multiplexes *cooperative
tasks* over a small pool of event-loop threads so one core can host tens
of thousands of processes, while keeping the channel contract — blocking
reads, bounded blocking writes — observably identical.

How a blocking operation suspends without a dedicated stack
-----------------------------------------------------------

CPython (no greenlets here) cannot snapshot a C-level call stack, so a
task cannot be frozen mid-``step()`` the way a thread can.  Instead the
runtime executes each ``step()`` as a **speculative transaction with an
operation journal**:

1. Before a step, the runner snapshots the process's mutable state
   (attributes + the channel-endpoint layering state).
2. Channel operations inside the step go through the thread-local async
   context installed by the event loop.  Each *completed* operation is
   journaled: reads record the returned bytes, writes record how many
   bytes were actually delivered to the ring.  Writes deliver directly —
   they are never staged — so a same-step write-then-read feedback cycle
   (Figure 7's Cons/Delay loop) behaves exactly as in the thread backend.
3. When an operation would block, :class:`_WouldBlock` (a BaseException,
   so user ``except Exception`` clauses cannot swallow it) unwinds the
   step, the snapshot is restored, and the task parks on the buffer's
   waiter list (:meth:`~repro.kpn.buffers.BoundedByteBuffer.async_park`).
4. On wake the step is **re-executed**: journaled reads replay their
   recorded bytes without consuming anything, journaled writes resume at
   the recorded offset.  Because Kahn processes are determinate, the
   re-execution reaches the blocked operation with identical arguments —
   the journal is a proof obligation of exactly the property the paper's
   model guarantees.

Effects at the channels are therefore exactly-once even though the Python
code of a step may run many times; the state restore makes the re-runs
invisible.  The cost is one ``__dict__``-level snapshot per step — cheap
for the fine-grained processes KPN graphs are made of.

What runs as a task
-------------------

``Network.spawn`` routes a process here when it is an
:class:`~repro.kpn.process.IterativeProcess` with the *default* ``run``
and no ``@nondeterminate`` marker, or a compiler-produced
:class:`~repro.kpn.compile.FusedChain` (the whole chain becomes one task;
each ``pump`` is one transaction).  Everything else — custom ``run``
loops, Turnstile's readiness polling, plain composites — keeps its OS
thread, and both kinds of actor interoperate freely on the same channels:
the buffer wakes condition-variable waiters and parked tasks alike.

Known limits (documented, deliberate):

* A step that mutates a *non-builtin* mutable object (say, a numpy array
  held in an attribute) before a blocking channel op would replay that
  mutation; the snapshot covers attributes and builtin containers
  (list/dict/deque/set/bytearray, nested).  Processes that execute
  opaque user objects opt out with ``kpn_async = False`` — the farm's
  Producer/Worker/Consumer do exactly that, because user ``Task.run()``
  methods mutate their own state — and keep their OS thread.
* Live migration pause points are not polled between task steps; migrate
  from thread-backend networks (servers default to threads).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Callable, List, Optional

from repro.errors import (
    BrokenChannelError,
    ChannelClosedError,
    ChannelError,
)
from repro.kpn.buffers import BoundedByteBuffer, set_async_context
from repro.kpn.process import IterativeProcess, StopProcess
from repro.telemetry.core import TELEMETRY as _telemetry

__all__ = ["EventLoop", "Task", "async_hostable"]

#: steps a task may run per resume before yielding the loop (fairness:
#: a ring of never-blocking relays must not starve its loop-mates)
MAX_STEPS_PER_RESUME = 64

_vtid_counter = itertools.count(1)


def _next_vtid() -> int:
    """Virtual tids are negative so they can never collide with OS thread
    idents in merged traces."""
    return -next(_vtid_counter)


# ---------------------------------------------------------------------------
# suspension signal
# ---------------------------------------------------------------------------

class _WouldBlock(BaseException):
    """Unwinds a speculative step at an operation that would block.

    BaseException on purpose: step bodies and the fused-stage driver
    legitimately catch ``Exception`` (and ``ChannelError``), and none of
    them may swallow a suspension.
    """

    def __init__(self, buffer: BoundedByteBuffer, mode: str) -> None:
        self.buffer = buffer
        self.mode = mode


# ---------------------------------------------------------------------------
# the operation journal
# ---------------------------------------------------------------------------

class _AsyncContext:
    """Per-task channel-operation journal (installed thread-locally).

    Journal entries are ``["read", buffer, bytes]`` (recorded result;
    ``b""`` records EOF) or ``["write", buffer, total, delivered]``.  A
    write entry with ``delivered < total`` is always the journal's last
    entry — the op that blocked; re-execution resumes delivery at
    ``delivered``.  ``["record", buffer]`` marks a history append (fused
    chains mirror bytes into channel histories) so replays do not append
    twice.
    """

    __slots__ = ("task", "journal", "pos")

    def __init__(self, task: "Task") -> None:
        self.task = task
        self.journal: list = []
        self.pos = 0

    # -- transaction control ------------------------------------------------
    def begin_attempt(self) -> None:
        self.pos = 0

    def finish(self) -> None:
        self.journal.clear()
        self.pos = 0

    def _divergence(self, buffer, kind) -> RuntimeError:  # pragma: no cover
        return RuntimeError(
            f"async replay divergence in task {self.task.name!r}: expected "
            f"{self.journal[self.pos]!r}, got {kind} on {buffer.name!r} — "
            "the step is not determinate; host it on a thread "
            "(kpn_async = False)")

    # -- operations (called from buffers.py hooks) --------------------------
    def read(self, buffer: BoundedByteBuffer, max_bytes: int) -> bytes:
        if self.pos < len(self.journal):
            entry = self.journal[self.pos]
            if entry[0] != "read" or entry[1] is not buffer:
                raise self._divergence(buffer, "read")
            self.pos += 1
            return entry[2]
        res = buffer.try_read(max_bytes)
        if res is None:
            raise _WouldBlock(buffer, "read")
        self.journal.append(["read", buffer, res])
        self.pos += 1
        return res

    def readinto(self, buffer: BoundedByteBuffer, out: memoryview) -> int:
        if self.pos < len(self.journal):
            entry = self.journal[self.pos]
            if entry[0] != "read" or entry[1] is not buffer:
                raise self._divergence(buffer, "readinto")
            data = entry[2]
            out[:len(data)] = data
            self.pos += 1
            return len(data)
        n = buffer.try_readinto(out)
        if n is None:
            raise _WouldBlock(buffer, "read")
        # journal the bytes (not just the count): the replayed target
        # buffer is a fresh object, so the data must come from the journal
        self.journal.append(["read", buffer, bytes(out[:n])])
        self.pos += 1
        return n

    def write(self, buffer: BoundedByteBuffer, data) -> None:
        view = memoryview(data).cast("B")
        if self.pos < len(self.journal):
            entry = self.journal[self.pos]
            if entry[0] != "write" or entry[1] is not buffer:
                raise self._divergence(buffer, "write")
            if entry[3] >= entry[2]:
                self.pos += 1
                return
            # trailing partial entry: resume delivery where it blocked
            entry[3] = buffer.try_write_part(view, entry[3])
            if entry[3] < entry[2]:
                raise _WouldBlock(buffer, "write")
            self.pos += 1
            return
        if _telemetry.enabled:
            _telemetry.inc("kpn.channel.writes", 1, channel=buffer.name)
        entry = ["write", buffer, len(view), 0]
        self.journal.append(entry)
        entry[3] = buffer.try_write_part(view, 0)
        if entry[3] < entry[2]:
            raise _WouldBlock(buffer, "write")
        self.pos += 1

    def record_bytes(self, buffer: BoundedByteBuffer, data) -> None:
        if self.pos < len(self.journal):
            entry = self.journal[self.pos]
            if entry[0] != "record" or entry[1] is not buffer:
                raise self._divergence(buffer, "record")
            self.pos += 1
            return
        buffer.record_bytes_direct(data)
        self.journal.append(["record", buffer])
        self.pos += 1


# ---------------------------------------------------------------------------
# state snapshot / restore
# ---------------------------------------------------------------------------

_MAX_SNAP_DEPTH = 6

#: the types :func:`_record_containers` descends into or copies
_SNAPPED_TYPES = frozenset((list, dict, deque, set, bytearray, tuple))


def _record_containers(value, out: list, seen: set, depth: int = 0) -> None:
    """Register builtin mutable containers for in-place content restore.

    Identity is the whole point: a process may share a container with the
    outside world (``Collect(into=results)`` aliases the caller's list),
    so a rollback must rewind the *contents* of the original objects, not
    swap in copies.  Streams, codecs, channels, processes stay shared
    references — their replay-relevant state is captured separately
    (stream layering) or journaled (buffers).  Depth-capped as a cycle
    guard (the ``seen`` set already stops direct cycles).
    """
    if depth >= _MAX_SNAP_DEPTH:
        return
    t = type(value)
    if t is tuple:
        for v in value:
            _record_containers(v, out, seen, depth + 1)
        return
    if t not in (list, dict, deque, set, bytearray):
        return
    vid = id(value)
    if vid in seen:
        return
    seen.add(vid)
    if t is list or t is deque:
        out.append((value, list(value)))
        for v in value:
            _record_containers(v, out, seen, depth + 1)
    elif t is dict:
        out.append((value, dict(value)))
        for v in value.values():
            _record_containers(v, out, seen, depth + 1)
    elif t is set:
        out.append((value, set(value)))
    else:  # bytearray
        out.append((value, bytes(value)))


def _restore_containers(containers: list) -> None:
    for obj, state in containers:
        t = type(obj)
        if t is list or t is bytearray:
            obj[:] = state
        elif t is dict or t is set:
            obj.clear()
            obj.update(state)
        else:  # deque (maxlen survives clear+extend)
            obj.clear()
            obj.extend(state)


def _snap_object(obj, containers: list, seen: set) -> dict:
    saved = obj.__dict__.copy()
    for v in saved.values():
        # most attributes are scalars/objects: one set probe filters them
        t = type(v)
        if t in _SNAPPED_TYPES:
            if t is list and _SNAPPED_TYPES.isdisjoint(map(type, v)):
                # a flat list (the tracked-stream lists every process
                # has): what _record_containers would record, minus the
                # call per element that finds nothing to descend into
                if id(v) not in seen:
                    seen.add(id(v))
                    containers.append((v, v[:]))
            else:
                _record_containers(v, containers, seen)
    return saved


def _restore_object(obj, saved: dict) -> None:
    obj.__dict__.clear()
    obj.__dict__.update(saved)


def _stream_plan(process) -> list:
    """Find the endpoint-layering objects a replay must rewind.

    The :class:`~repro.kpn.streams.SequenceInputStream` advance protocol
    *pops* its head stream on EOF before trying the next one; if a step
    advanced a sequence and then blocked, re-execution would otherwise
    skip ops and desynchronize the journal.  Same for the output
    sequence's target swap and the endpoint ``detached`` flag.  The plan
    (which objects to capture) is stable while the tracked-stream lists
    are; tasks cache it keyed on those lists' lengths.
    """
    plan = []
    for s in getattr(process, "input_streams", ()):
        seq = getattr(s, "sequence", None)
        if seq is not None and hasattr(seq, "_streams"):
            plan.append(("in", seq))
        if hasattr(s, "detached"):
            plan.append(("det", s))
    for s in getattr(process, "output_streams", ()):
        seq = getattr(s, "sequence", None)
        if seq is not None and hasattr(seq, "_target"):
            plan.append(("out", seq))
    return plan


def _capture_streams(plan: list) -> list:
    states = []
    for kind, obj in plan:
        if kind == "in":
            states.append(("in", obj, list(obj._streams),
                           obj._closed, obj._finished))
        elif kind == "out":
            states.append(("out", obj, obj._target, obj._closed))
        else:
            states.append(("det", obj, obj.detached))
    return states


def _restore_streams(states: list) -> None:
    for st in states:
        kind = st[0]
        if kind == "in":
            _, seq, streams, closed, finished = st
            with seq._lock:
                # another process may have spliced new upstream sequences
                # in while we were parked (Figure 10 reconfiguration);
                # appends land at the tail and must survive the rollback
                known = {id(x) for x in streams}
                appended = [x for x in seq._streams if id(x) not in known]
                seq._streams[:] = streams + appended
                seq._closed = closed
                seq._finished = finished and not appended
        elif kind == "out":
            _, seq, target, closed = st
            seq._target = target
            seq._closed = closed
        else:
            _, s, detached = st
            s.detached = detached


class _Snapshot:
    __slots__ = ("objects", "containers", "streams")

    def __init__(self, objects: list, containers: list,
                 streams: list) -> None:
        self.objects = objects        # [(obj, saved_dict_of_refs), ...]
        self.containers = containers  # [(container, shallow_state), ...]
        self.streams = streams

    def restore(self) -> None:
        for obj, saved in self.objects:
            _restore_object(obj, saved)
        _restore_containers(self.containers)
        _restore_streams(self.streams)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

class Task:
    """One cooperative KPN process: the async backend's thread-equivalent.

    Duck-types the slice of ``threading.Thread`` the rest of the runtime
    relies on — ``name``, ``is_alive()``, ``join(timeout)``, ``daemon`` —
    so ``Network.live_threads``, composite joins and the deadlock
    monitor's wait-graph logic work on mixed actor populations unchanged.
    """

    daemon = True

    def __init__(self, process, loop: "EventLoop",
                 on_finish: Optional[Callable[[], None]] = None) -> None:
        self.process = process
        self.name = process.name
        self.loop = loop
        self.vtid = _next_vtid()
        self._on_finish = on_finish
        self._done = threading.Event()
        self._ctx = _AsyncContext(self)
        self._phase = "start"
        self._began = False
        self._traced = False
        self._park_traced = False
        self._reason = "limit"
        self._body = self._advance_chain if _is_fused_chain(process) \
            else self._advance_iterative
        # fused-chain cursor: drivers still to finish, tail first
        self._drivers = (list(reversed(process.drivers))
                         if _is_fused_chain(process) else None)
        self._dindex = 0
        # cached snapshot plan (see _snap_targets)
        self._plan = None
        self._plan_key = None

    # -- Thread-compatible surface ------------------------------------------
    def is_alive(self) -> bool:
        return not self._done.is_set()

    def join(self, timeout: Optional[float] = None) -> None:
        self._done.wait(timeout)

    def start(self) -> None:
        self.loop.schedule(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self._done.is_set() else self._phase
        return f"<Task {self.name!r} {state}>"

    # -- wake protocol (called by buffers, any thread, buffer lock held) ----
    def unparked(self, buffer: BoundedByteBuffer, mode: str) -> None:
        if self._park_traced:
            self._park_traced = False
            # close the block span in the *task's* lane even though the
            # waking thread emits it
            prev = _telemetry.swap_actor((self.vtid, self.name))
            try:
                _telemetry.end(f"block.{mode}", category="kpn.block")
            finally:
                _telemetry.swap_actor(prev)
        self.loop.schedule(self)

    # -- execution ----------------------------------------------------------
    def _resume(self) -> None:
        """One scheduling quantum; runs on the event-loop thread."""
        set_async_context(self._ctx)
        prev = _telemetry.swap_actor((self.vtid, self.name))
        try:
            self._body()
        finally:
            _telemetry.swap_actor(prev)
            set_async_context(None)

    def _park(self, wb: _WouldBlock) -> None:
        self._park_traced = _telemetry.enabled
        if not wb.buffer.async_park(wb.mode, self):
            # state changed between the would-block and the park: retry
            self._park_traced = False
            self.loop.schedule(self)

    def _tx(self, fn):
        """Run ``fn`` as one speculative transaction.

        Returns ``(True, result)`` on commit; ``(False, None)`` after
        parking (the caller returns immediately — resume re-enters it).
        Non-suspension exceptions commit partial channel effects and
        propagate, mirroring a thread that dies mid-step.
        """
        ctx = self._ctx
        ctx.begin_attempt()
        snapshot = self._take_snapshot()
        try:
            result = fn()
        except _WouldBlock as wb:
            snapshot.restore()
            self._park(wb)
            return False, None
        except BaseException:
            ctx.finish()
            raise
        ctx.finish()
        return True, result

    def _snap_targets(self) -> tuple:
        """Objects to __dict__-snapshot + the stream plan, cached.

        The cache key is the tracked-stream list lengths: ``track`` /
        ``untrack`` (dynamic reconfiguration) change them, everything
        else leaves the plan stable from step to step.
        """
        p = self.process
        if self._drivers is not None:
            procs = p.processes
            key = tuple((len(s.input_streams), len(s.output_streams))
                        for s in procs)
            if self._plan is None or self._plan_key != key:
                plan: list = []
                for st in procs:
                    plan.extend(_stream_plan(st))
                self._plan_key = key
                self._plan = ([p, *procs, *p.drivers, *p.pipes], plan)
            return self._plan
        key = (len(p.input_streams), len(p.output_streams))
        if self._plan is None or self._plan_key != key:
            self._plan_key = key
            self._plan = ([p], _stream_plan(p))
        return self._plan

    def _take_snapshot(self) -> _Snapshot:
        objects_to_snap, plan = self._snap_targets()
        containers: list = []
        seen: set = set()
        objects = [(o, _snap_object(o, containers, seen))
                   for o in objects_to_snap]
        return _Snapshot(objects, containers, _capture_streams(plan))

    # -- IterativeProcess body ----------------------------------------------
    def _advance_iterative(self) -> None:
        """Mirror of :meth:`IterativeProcess.run`, one quantum at a time."""
        p = self.process
        if not self._began:
            self._began = True
            self._traced = _telemetry.enabled
            if self._traced:
                _telemetry.begin(p.name, category="kpn.process",
                                 kind=type(p).__name__, process=p.name)
                _telemetry.inc("kpn.process.started")
        budget = MAX_STEPS_PER_RESUME
        try:
            if self._phase == "start":
                if not p._live_migrated:
                    ok, _ = self._tx(p.on_start)
                    if not ok:
                        return
                self._phase = "step"
            while self._phase == "step":
                if 0 < p.iterations <= p.steps_completed:
                    self._reason = "limit"
                    self._phase = "stop"
                    break
                ok, _ = self._tx(p.step)
                if not ok:
                    return
                p.steps_completed += 1
                budget -= 1
                if budget <= 0:
                    self.loop.schedule(self)
                    return
        except StopProcess:
            self._reason = "stop"
            self._phase = "stop"
        except ChannelError as exc:
            self._reason = "channel-closed"
            if isinstance(exc, (BrokenChannelError, ChannelClosedError)):
                p._abort_on_close = True
            self._phase = "stop"
        except Exception as exc:  # noqa: BLE001 - mirror IterativeProcess.run
            p.failure = exc
            self._reason = "failure"
            self._phase = "stop"
        if self._phase == "stop":
            self._run_stop()

    def _run_stop(self) -> None:
        p = self.process
        self._phase = "stop"
        self._body = self._run_stop  # a park inside on_stop resumes here
        try:
            ok, _ = self._tx(p.on_stop)
            if not ok:
                return
        except ChannelError:
            pass
        except Exception as exc:  # noqa: BLE001 - keep the cascade alive
            if p.failure is None:
                p.failure = exc
        self._finish_iterative()

    def _finish_iterative(self) -> None:
        p = self.process
        if self._traced:
            _telemetry.end(p.name, category="kpn.process",
                           reason=self._reason, steps=p.steps_completed,
                           process=p.name)
            _telemetry.inc("kpn.process.terminated", 1, reason=self._reason)
        self._complete()

    # -- FusedChain body ----------------------------------------------------
    def _advance_chain(self) -> None:
        """Mirror of :meth:`FusedChain.run`: drive stages tail-to-head.

        Each ``pump`` is one transaction; a pump that blocks in a
        boundary-channel op parks the whole chain, exactly as it would
        block the chain's thread.
        """
        chain = self.process
        if not self._began:
            self._began = True
            self._traced = _telemetry.enabled
            if self._traced:
                _telemetry.begin(chain.name, category="kpn.process",
                                 kind="FusedChain",
                                 members=len(chain.processes),
                                 process=chain.name)
        budget = MAX_STEPS_PER_RESUME
        while self._dindex < len(self._drivers):
            driver = self._drivers[self._dindex]
            ok, more = self._tx(driver.pump)
            if not ok:
                return
            if not more:
                self._dindex += 1
                continue
            budget -= 1
            if budget <= 0:
                self.loop.schedule(self)
                return
        failures = [p for p in chain.processes if p.failure is not None]
        if failures:
            chain.failure = failures[0].failure
        if self._traced:
            _telemetry.end(chain.name, category="kpn.process",
                           failures=len(failures), process=chain.name)
        self._complete()

    # -- termination --------------------------------------------------------
    def _complete(self) -> None:
        if self._done.is_set():
            # once only: the loop's defensive handler completes a task
            # again when _on_finish itself raised
            return
        self._done.set()
        if self._on_finish is not None:
            self._on_finish()


def _is_fused_chain(process) -> bool:
    # late import would be circular at module load; attribute probe is
    # enough (drivers+pipes is the FusedChain execution contract)
    return hasattr(process, "drivers") and hasattr(process, "pipes")


def async_hostable(process) -> bool:
    """Can ``process`` run as a cooperative task?

    Yes for compiler-produced fused chains and for IterativeProcess
    subclasses that keep the default ``run`` skeleton, are not declared
    ``@nondeterminate`` (Turnstile polls for readiness — it needs a
    thread), and do not opt out with ``kpn_async = False``.  Everything
    else keeps the thread backend's semantics on its own OS thread.
    """
    from repro.analysis.markers import declared_nondeterminate

    if not getattr(process, "kpn_async", True):
        return False
    if _is_fused_chain(process):
        # every member must be replay-safe: the chain snapshots exactly
        # what a lone task would snapshot, per stage
        return all(getattr(p, "kpn_async", True) for p in process.processes)
    if not isinstance(process, IterativeProcess):
        return False
    if type(process).run is not IterativeProcess.run:
        return False
    if declared_nondeterminate(process) is not None:
        return False
    return True


# ---------------------------------------------------------------------------
# the event loop
# ---------------------------------------------------------------------------

class EventLoop:
    """One worker thread multiplexing ready tasks.

    Deliberately minimal: a deque of runnable tasks and a condition
    variable.  Parked tasks are *not* known to the loop — they live on
    buffer waiter lists and re-enter via :meth:`schedule` (thread-safe,
    called from whatever thread changed the buffer).  Fairness comes from
    FIFO order plus each task's per-resume step budget.
    """

    def __init__(self, name: str = "kpn-loop") -> None:
        self.name = name
        self._cond = threading.Condition()
        self._runnable: deque = deque()
        self._stopped = False
        self.thread = threading.Thread(target=self._run, name=name,
                                       daemon=True)
        self.thread.start()

    def schedule(self, task: Task) -> None:
        if threading.get_ident() == self.thread.ident:
            # a wake-up issued by a task this loop is running: the loop is
            # awake, so nobody waits on the condition, and deque.append is
            # atomic against _run's lock-free popleft
            if not self._stopped:
                self._runnable.append(task)
            return
        with self._cond:
            if self._stopped:
                return
            self._runnable.append(task)
            self._cond.notify()

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _run(self) -> None:
        runnable = self._runnable
        while True:
            if self._stopped:
                return
            try:
                # only this thread pops, so a non-empty deque stays
                # non-empty; the condition is needed only to sleep
                task = runnable.popleft()
            except IndexError:
                with self._cond:
                    while not runnable and not self._stopped:
                        self._cond.wait()
                continue
            try:
                task._resume()
            except BaseException as exc:  # pragma: no cover - defensive
                # a runner bug must not kill the loop and strand every
                # other task; the failing task is marked done
                if task.process.failure is None:
                    task.process.failure = exc
                task._complete()


class LoopPool:
    """Round-robin task placement over ``workers`` event loops."""

    def __init__(self, workers: int = 1, name: str = "kpn-loop") -> None:
        self.workers = max(1, int(workers))
        self.name = name
        self._loops: List[EventLoop] = []
        self._next = 0
        self._lock = threading.Lock()

    def place(self) -> EventLoop:
        """Pick (lazily starting) the loop for one new task."""
        with self._lock:
            if not self._loops or all(l.stopped for l in self._loops):
                self._loops = [
                    EventLoop(name=f"{self.name}-{i}")
                    for i in range(self.workers)
                ]
                self._next = 0
            loop = self._loops[self._next % len(self._loops)]
            self._next += 1
            return loop

    def stop(self) -> None:
        with self._lock:
            loops, self._loops = self._loops, []
        for loop in loops:
            loop.stop()

    @property
    def active(self) -> bool:
        with self._lock:
            return any(not l.stopped for l in self._loops)
