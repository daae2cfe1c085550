"""Cooperative scheduling substrate: the ``backend="async"`` runtime.

The paper runs every KPN process on its own Java thread.  That is also
this library's reference backend — but one OS thread per process caps
practical graph sizes at a few thousand processes (stack memory, context
switches, scheduler pressure).  This module multiplexes *cooperative
tasks* over one event-loop thread per network so one core can host tens
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
  the gate is evaluated again — all of it, except that a task woken off
  a reader list takes the one input of its default rule as ready.  A
  stale take (a splice moved the input since) costs a hand-off, never a
  wrong park.  A park is one entry in the accounting's blocked map and
  one on the buffer's waiter list; it kicks the deadlock monitor only
  when it leaves every live actor blocked.
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
real, and judges observed waits only.

What runs as a task
-------------------

``Network.spawn`` routes a process here when something other than its
own thread may drive it (:func:`~repro.kpn.process.needs_own_thread`:
the *default* ``run`` and no ``@nondeterminate`` marker), or when it is
a compiler-produced :class:`~repro.kpn.compile.FusedChain` (one task for
the whole chain); a plain composite is no actor, its members are.
Everything else — custom ``run`` loops, any ``@nondeterminate`` process
(the Turnstile waits on its inputs like any read, but it is not
determinate) — keeps its OS thread, as does a process that sleeps on
something that is not a channel and says so with ``kpn_async = False``
(the farm's Worker on executor futures, FromIterable on its iterable:
either would stall every task sharing its loop).  Both kinds of actor
interoperate freely on the same channels: a sleeping thread and a
parked task wait on one buffer waiter list.  Live migration pause
points are not polled between task steps; migrate from thread-backend
networks (servers default to threads).
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import deque
from typing import Callable, Optional

from repro.kpn.buffers import BoundedByteBuffer
from repro.kpn.process import Process, _StepDriver, needs_own_thread
from repro.telemetry.core import TELEMETRY as _telemetry

__all__ = ["EventLoop", "Task", "async_hostable"]

#: per-thread: the task whose step runs here (``.task``, read by the
#: buffers; its lane is the thread's telemetry lane); set around each
#: resume
_HERE = _telemetry.local

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
    so ``Network.live_threads``, ``Network.join`` and the deadlock
    monitor's wait-graph logic work on mixed actor populations unchanged.
    """

    daemon = True

    def __init__(self, process, loop: "EventLoop",
                 on_finish: Optional[Callable[[], None]] = None) -> None:
        self.process = process
        self.name = process.name
        self.loop = loop
        self.vtid = _next_vtid()
        #: the telemetry lane this task's events land in
        self.lane = (self.vtid, self.name)
        self._on_finish = on_finish
        # held until _complete: what join waits on (is_alive reads the flag)
        self._done = threading.Lock()
        self._done.acquire()
        self._finished = False
        self._park_traced = False
        #: parked by the gate on a guess, not on a declared rule
        self.assumed = False
        #: sleeping (or finishing a step that slept) on a borrowed thread
        self.on_thread = False
        self._forced = False
        #: woken off a buffer's reader list: the next gate takes the
        #: default rule's one input as ready (see _resume)
        self._fed = False
        # a fused chain is driven tail first; a lone process is a chain of one
        self._chain = process if _is_fused_chain(process) else None
        self._drivers = (list(reversed(process.drivers)) if self._chain
                         else [_StepDriver(process)])
        self._dindex = 0
        # the gate: whose rule names the inputs, whose outputs need room
        head = process.processes[0] if self._chain else process
        inherited = type(head).awaits is Process.awaits
        self._head = head
        # None: the inherited default, which the gate reads inline
        self._awaits = None if inherited else head.awaits
        # declared: the class wrote the rule, or vouches (kpn_strict) that
        # every step reads what the default names before it writes
        self._declared = not self._chain and (
            not inherited or head.kpn_strict)
        self._outputs_of = process.processes[-1] if self._chain else process

    # -- Thread-compatible surface ------------------------------------------
    def is_alive(self) -> bool:
        return not self._finished

    def join(self, timeout: Optional[float] = None) -> None:
        if self._done.acquire(timeout=-1 if timeout is None
                              else max(timeout, 0)):
            self._done.release()

    def start(self) -> None:
        self.loop.schedule(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = ("done" if self._finished
                 else "on-thread" if self.on_thread else "task")
        return f"<Task {self.name!r} {state}>"

    # -- called by buffers and the monitor (any thread) -----------------------
    def unparked(self, buffer: BoundedByteBuffer, mode: str) -> None:
        """Woken off ``buffer``'s wait list (buffer lock held): no longer
        blocked, in the accounting too."""
        acct = buffer.accounting
        if acct is not None:
            acct._blocked.pop(self, None)
        self.assumed = False
        self._fed = mode == "read"
        if self._park_traced:
            self._park_traced = False
            # close the block span in the *task's* lane even though the
            # waking thread emits it
            prev = _telemetry.swap_actor(self.lane)
            try:
                _telemetry.end(f"block.{mode}", category="kpn.block")
            finally:
                _telemetry.swap_actor(prev)
        loop = self.loop
        if threading.get_ident() == loop._ident:
            # EventLoop.schedule's own-thread branch, inlined: a loop-mate
            # wrote the buffer, so the loop is awake
            if not loop._stopped:
                loop._runnable.append(self)
        else:
            loop.schedule(self)

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
        """One scheduling quantum, started on the event-loop thread.

        Mirror of :meth:`FusedChain.run` — and, a lone process being a
        chain of one, of :meth:`IterativeProcess.run`: run the drivers
        tail-to-head until each has finished, one quantum at a time.  As
        :meth:`_StepDriver.drive` does on a thread, a started stage is
        stepped here, in a loop of its own, and its start, its end and a
        finished stage go through :meth:`_StepDriver.pump`.

        The gate — the firing rule, evaluated inline — applies once the
        tail driver has started (its first pump is ``on_start`` alone,
        which may write — a Delay's initial values — before anything is
        read), and not to a pump that only finishes a stage whose
        ``iterations`` budget is spent: that stage reads nothing more,
        and parked on its input it would never end.  A step that sleeps
        in a channel op takes the thread it is on, exactly as it would
        block a thread of the thread backend.
        """
        _HERE.task = self
        try:
            chain = self._chain
            drivers = self._drivers
            if chain is not None and not drivers[0].started:
                chain.begin()       # first resume: it pumps drivers[0]
            budget = MAX_STEPS_PER_RESUME
            while self._dindex < len(drivers):
                driver = drivers[self._dindex]
                stage = driver.stage
                while (drivers[0].started and not
                       0 < stage.iterations <= stage.steps_completed):
                    if not self._forced:
                        # May the next step start?  If not, park on the
                        # first buffer an operation of the step would
                        # sleep on, and run nothing.  A forced task runs
                        # ungated until this resume ends (_requeue).
                        buffer = None
                        awaits = self._awaits
                        if awaits is None:
                            if self._fed:
                                # the write or close that woke us made
                                # the one input ready; if a splice has
                                # moved it since, the step hands off
                                self._fed = False
                                inputs = ()
                            else:
                                # Process.awaits, inlined: the only
                                # tracked input, if one
                                inputs = self._head.input_streams
                                if len(inputs) > 1:
                                    inputs = ()
                        else:
                            inputs = awaits() or ()
                        for stream in inputs:
                            buffer = stream.would_block_on()
                            if buffer is not None:
                                mode = "read"
                                assumed = not self._declared
                                break
                        if buffer is None:
                            for out in self._outputs_of.output_streams:
                                buffer = out.would_block_on()
                                if buffer is not None:
                                    mode, assumed = "write", True
                                    break
                        if buffer is not None:
                            self.assumed = assumed
                            self._park_traced = _telemetry.enabled
                            if not buffer.async_park(mode, self):
                                # the buffer changed between the look
                                # and the park: look again
                                self.assumed = False
                                self._park_traced = False
                                self.loop.schedule(self)
                            return
                    if not driver.started or driver.finished:
                        break               # its pump, below
                    try:
                        steps = driver._steps
                        if steps is None:
                            stage.step()
                            stage.steps_completed += 1
                        else:
                            done = stage.steps_completed
                            stage.steps_completed = done + steps(
                                stage.iterations - done
                                if stage.iterations > 0 else sys.maxsize)
                    except Exception as exc:  # noqa: BLE001 - as drive
                        driver.stop(stage._ended_by(exc))
                        break
                    budget -= 1
                    if self.on_thread or budget <= 0:
                        self._requeue()
                        return
                if driver.pump():
                    budget -= 1
                else:
                    self._dindex += 1
                if self.on_thread or budget <= 0:
                    self._requeue()
                    return
            if chain is not None:
                chain.end()
            self._complete()
        finally:
            _HERE.task = None

    def _requeue(self) -> None:
        """End this resume with the task runnable again.  A thread the
        step borrowed to sleep on ends when the resume returns."""
        self.on_thread = False
        self._forced = False
        self.loop.schedule(self)

    # -- termination --------------------------------------------------------
    def _complete(self) -> None:
        if self._finished:
            # once only: the loop's defensive handler completes a task
            # again when _on_finish itself raised
            return
        try:
            # counted out before a join can see it finished, as a thread
            # is by Network._run_process
            if self._on_finish is not None:
                self._on_finish()
        finally:
            self._finished = True
            self._done.release()


def _is_fused_chain(process) -> bool:
    # late import would be circular at module load; attribute probe is
    # enough (drivers+pipes is the FusedChain execution contract)
    return hasattr(process, "drivers") and hasattr(process, "pipes")


def async_hostable(process) -> bool:
    """Can ``process`` run as a cooperative task?

    Yes for compiler-produced fused chains and for processes that do not
    :func:`~repro.kpn.process.needs_own_thread`, unless they opt out with
    ``kpn_async = False`` (they sleep on something that is not a
    channel).  Everything else keeps the thread backend's semantics on
    its own OS thread.
    """
    if not getattr(process, "kpn_async", True):
        return False
    if _is_fused_chain(process):
        # one member that must not share a loop keeps the chain off it
        return all(getattr(p, "kpn_async", True) for p in process.processes)
    return needs_own_thread(process) is None


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

    The loop never kicks the deadlock monitor: the last task to park
    does, from :meth:`~repro.kpn.buffers.BoundedByteBuffer.async_park`.

    A network's loop lives while the network has a live actor: the
    count-out of the last one stops it (``Network._actor_finished``), and
    a later task starts a fresh loop.
    """

    def __init__(self, name: str = "kpn-loop") -> None:
        self.name = name
        self._cond = threading.Condition()
        self._runnable: deque = deque()
        self._stopped = False
        #: ident of the thread running the queue, stored by that thread
        #: when it starts; None from a hand-off until the next one has
        self._ident: Optional[int] = None
        self.hand_off()             # the first thread starts like every later one

    def hand_off(self) -> None:
        """Continue the run queue on a fresh thread.  Called by the
        running task, on the loop's thread, which from here on is the
        task's own and leaves :meth:`_run` when the task returns."""
        # from here the calling thread is not the loop's: a wake-up it
        # issues must go through the condition, or a next thread that has
        # already gone to sleep would never see it
        self._ident = None
        self.thread = threading.Thread(target=self._run, name=self.name,
                                       daemon=True)
        self.thread.start()

    def schedule(self, task: Task) -> None:
        if threading.get_ident() == self._ident:
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
        self._ident = me.ident
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
