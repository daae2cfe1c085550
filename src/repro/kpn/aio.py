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

CPython (no greenlets here) cannot freeze a task mid-``step()`` the way
a thread can.  So a step is not started unless it can probably finish,
and a step that has to sleep anyway is given a stack to sleep on:

* **Gate.**  Before each step the task asks the process for its *firing
  rule* (:meth:`~repro.kpn.process.Process.awaits`: the inputs the step
  reads before anything else) and looks, lock-free, at those inputs'
  consumer endpoints (held read-ahead, ring non-empty, either end
  closed) and at every tracked output (room for a byte, or closed).  If
  something is not ready the task parks on that buffer's waiter list
  (:meth:`~repro.kpn.buffers.BoundedByteBuffer.async_park`) and runs
  nothing; whichever thread next changes the buffer re-schedules it and
  the whole gate is evaluated again.
* **Hand-off.**  A step that passes the gate is plain Python on the
  ordinary blocking channel code, read-ahead included.  If one of its
  operations must sleep after all, the buffer tells the task
  (:meth:`Task.hand_off`): the event loop continues its run queue on a
  fresh thread, and the thread the step is on *becomes the task's* — it
  blocks exactly as a thread-backend process would, with the task as its
  accounting identity.  When the step returns the task goes back on the
  run queue and the borrowed thread ends.

Nothing is ever re-executed, so a step may keep its state anywhere.

A park on a *declared* rule (the class overrides ``awaits``, or is
``kpn_strict``: it reads what the default names before it writes) is as
good as an observed blocking read.  A park on a bare default rule, on a
fused chain's head stage, or on output room is an **assumption** — the
step might not read, or might write elsewhere — made only where somebody
can un-make it: before the deadlock monitor reaches a verdict that ends
the network it releases every such task (:meth:`Task.force`) to run for
real, and judges observed waits only.  A network without a monitor
(``bounded=False``) gates on declared rules alone.

What runs as a task
-------------------

``Network.spawn`` routes a process here when it is an
:class:`~repro.kpn.process.IterativeProcess` with the *default* ``run``
and no ``@nondeterminate`` marker, or a compiler-produced
:class:`~repro.kpn.compile.FusedChain` (one task for the whole chain).
Everything else — custom ``run`` loops, Turnstile's readiness polling,
plain composites — keeps its OS thread, as does a process that sleeps on
something that is not a channel and says so with ``kpn_async = False``
(the farm's Worker waits on executor futures: it would stall every task
sharing its loop).  Both kinds of actor interoperate freely on the same
channels: the buffer wakes condition-variable waiters and parked tasks
alike.  Live migration pause points are not polled between task steps;
migrate from thread-backend networks (servers default to threads).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Callable, List, Optional

from repro.kpn.buffers import BoundedByteBuffer, set_current_task
from repro.kpn.process import IterativeProcess, Process, _StepDriver
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
        self._park_traced = False
        #: parked by the gate on a guess, not on a declared rule
        self.assumed = False
        #: sleeping (or finishing a step that slept) on a borrowed thread
        self.on_thread = False
        self._forced = False
        # a fused chain is driven tail first; a lone process is a chain of one
        self._chain = process if _is_fused_chain(process) else None
        self._drivers = (list(reversed(process.drivers)) if self._chain
                         else [_StepDriver(process)])
        self._dindex = 0
        # the gate: whose rule names the inputs, whose outputs need room
        head = process.processes[0] if self._chain else process
        self._awaits = head.awaits
        # declared: the class wrote the rule, or vouches (kpn_strict) that
        # every step reads what the default names before it writes
        self._declared = not self._chain and (
            type(head).awaits is not Process.awaits or head.kpn_strict)
        self._outputs_of = process.processes[-1] if self._chain else process
        # a guess needs the deadlock monitor to release it if it was wrong
        network = getattr(process, "network", None)
        self._guesses = getattr(network, "monitor", None) is not None

    # -- Thread-compatible surface ------------------------------------------
    def is_alive(self) -> bool:
        return not self._done.is_set()

    def join(self, timeout: Optional[float] = None) -> None:
        self._done.wait(timeout)

    def start(self) -> None:
        self.loop.schedule(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = ("done" if self._done.is_set()
                 else "on-thread" if self.on_thread else "task")
        return f"<Task {self.name!r} {state}>"

    # -- called by buffers and the monitor (any thread) -----------------------
    def unparked(self, buffer: BoundedByteBuffer, mode: str) -> None:
        """Woken off ``buffer``'s wait list (buffer lock held)."""
        self.assumed = False
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

    def hand_off(self, buffer: BoundedByteBuffer, mode: str) -> None:
        """An operation of the running step must sleep on ``buffer``
        (called by the buffer on the step's thread, buffer lock held):
        keep this thread, let the loop go on without it."""
        if self.on_thread:
            return
        self.on_thread = True
        if _telemetry.enabled:
            _telemetry.instant("task.handoff", category="kpn.scheduler",
                               process=self.name, channel=buffer.name,
                               mode=mode)
            _telemetry.inc("kpn.task.handoffs")
        self.loop.hand_off()

    def force(self, buffer: BoundedByteBuffer, mode: str) -> None:
        """The deadlock monitor found this task parked on an assumption:
        run its next resume ungated, so that it proceeds or blocks
        observably."""
        self._forced = True
        if _telemetry.enabled:
            _telemetry.instant("task.forced", category="kpn.scheduler",
                               process=self.name, channel=buffer.name,
                               mode=mode)
        buffer.async_release(mode)

    # -- execution ----------------------------------------------------------
    def _resume(self) -> None:
        """One scheduling quantum; starts on the event-loop thread."""
        set_current_task(self)
        prev = _telemetry.swap_actor((self.vtid, self.name))
        try:
            self._advance()
        finally:
            _telemetry.swap_actor(prev)
            set_current_task(None)

    def _gate(self) -> bool:
        """May the next step start?  False: parked, run nothing."""
        if self._forced:
            return True             # until this resume ends (_requeue)
        guesses = self._guesses
        if guesses or self._declared:
            for stream in self._awaits() or ():
                buffer = stream.would_block_on()
                if buffer is not None:
                    return self._park(buffer, "read", not self._declared)
        if guesses:
            for stream in self._outputs_of.output_streams:
                buffer = stream.would_block_on()
                if buffer is not None:
                    return self._park(buffer, "write", True)
        return True

    def _park(self, buffer: BoundedByteBuffer, mode: str,
              assumed: bool) -> bool:
        self.assumed = assumed
        self._park_traced = _telemetry.enabled
        if not buffer.async_park(mode, self):
            # the buffer changed between the hint and the park: look again
            self.assumed = False
            self._park_traced = False
            self.loop.schedule(self)
        return False

    def _requeue(self) -> None:
        """End this resume with the task runnable again.  A thread the
        step borrowed to sleep on ends when the resume returns."""
        self.on_thread = False
        self._forced = False
        self.loop.schedule(self)

    def _advance(self) -> None:
        """Mirror of :meth:`FusedChain.run` — and, a lone process being a
        chain of one, of :meth:`IterativeProcess.run`: pump the drivers
        tail-to-head until each has finished, one quantum at a time.

        The gate applies once the tail driver has started (its first pump
        is ``on_start`` alone, which may write — a Delay's initial values
        — before anything is read).  A pump that sleeps in a channel op
        takes the thread it is on, exactly as it would block a thread of
        the thread backend.
        """
        chain = self._chain
        drivers = self._drivers
        if chain is not None and not drivers[0].started:
            chain.begin()           # first resume: it pumps drivers[0]
        budget = MAX_STEPS_PER_RESUME
        while self._dindex < len(drivers):
            if drivers[0].started and not self._gate():
                return
            if drivers[self._dindex].pump():
                budget -= 1
            else:
                self._dindex += 1
            if self.on_thread or budget <= 0:
                self._requeue()
                return
        if chain is not None:
            chain.end()
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
    thread), and do not opt out with ``kpn_async = False`` (they sleep on
    something that is not a channel).  Everything else keeps the thread
    backend's semantics on its own OS thread.
    """
    from repro.analysis.markers import declared_nondeterminate

    if not getattr(process, "kpn_async", True):
        return False
    if _is_fused_chain(process):
        # one member that must not share a loop keeps the chain off it
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

    :attr:`thread` is the thread running the queue *now*: a task whose
    step must sleep keeps the one it is on (:meth:`hand_off`).
    """

    def __init__(self, name: str = "kpn-loop") -> None:
        self.name = name
        self._cond = threading.Condition()
        self._runnable: deque = deque()
        self._stopped = False
        self.hand_off()             # the first thread starts like every later one

    def hand_off(self) -> None:
        """Continue the run queue on a fresh thread.  Called by the
        running task, on the loop's thread, which from here on is the
        task's own and leaves :meth:`_run` when the task returns."""
        self.thread = threading.Thread(target=self._run, name=self.name,
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
        me = threading.current_thread()
        runnable = self._runnable
        while self.thread is me and not self._stopped:
            try:
                # only the loop's thread pops, so a non-empty deque stays
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
