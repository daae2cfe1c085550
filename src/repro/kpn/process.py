"""Processes: one actor each, iterative skeleton, hierarchical composition.

Reproduces section 3.2 of the paper:

* :class:`Process` — the ``Runnable`` interface; every leaf process is
  an actor of its own "to exploit the parallelism available in the
  program graph".
* :class:`IterativeProcess` — the abstract base with ``on_start`` /
  ``step`` / ``on_stop`` and an optional iteration limit; its ``run`` is
  the paper's Figure 4, written once in :class:`_StepDriver` for
  threads, tasks and fused chains, including the silent swallowing of
  channel I/O exceptions that drives the cascading-termination protocol
  of section 3.4.  A process may also define ``steps``: several steps in
  one call, over the elements its input endpoint already holds; and
  ``element_fn``: the function one step applies to an element, which a
  fused chain calls in place.  A rate-1 map
  (:class:`repro.processes.transforms.Map`) states only the function and
  derives the other two from it.
* :class:`CompositeProcess` — hierarchy without deadlock: a grouping,
  not an actor, so every component keeps "a separate thread for each
  process within a CompositeProcess to avoid introducing deadlock
  through composition".
"""

from __future__ import annotations

import itertools
import sys
import threading
from typing import Iterable, List, Optional, Sequence

from repro.analysis.markers import declared_nondeterminate
from repro.errors import BrokenChannelError, ChannelClosedError, ChannelError
from repro.kpn.channel import Channel
from repro.kpn.streams import InputStream, OutputStream
from repro.telemetry.core import TELEMETRY as _telemetry

__all__ = ["Process", "IterativeProcess", "CompositeProcess", "StopProcess"]


class ProcessControl:
    """Cooperative pause/resume/abandon control for a running process.

    Live migration (paper section 6.1: "re-distribute processes after
    execution has already begun") needs the process quiescent at a *step
    boundary* — between two ``step()`` calls, when it holds no partial
    element.  The migrator requests a pause; the process parks at its
    next boundary; the migrator serializes and ships it, then tells the
    parked local thread to *abandon* (exit without closing streams — the
    endpoints now live on another server).  ``resume`` instead continues
    locally (migration aborted).
    """

    PAUSE_TIMEOUT = 3600.0

    def __init__(self) -> None:
        self.pause_requested = threading.Event()
        self._parked = threading.Event()
        self._decision = threading.Event()
        self._action = "resume"

    # -- migrator side ------------------------------------------------------
    def request_pause(self) -> None:
        self.pause_requested.set()

    def wait_parked(self, timeout: Optional[float] = None) -> bool:
        """Wait until the process reaches a step boundary and parks.

        False on timeout — e.g. the process is blocked inside a channel
        operation and cannot reach a boundary until data flows.
        """
        return self._parked.wait(timeout)

    def resume(self) -> None:
        self._action = "resume"
        self.pause_requested.clear()
        self._parked.clear()
        self._decision.set()

    def abandon(self) -> None:
        self._action = "abandon"
        self._decision.set()

    # -- process side ---------------------------------------------------------
    def park(self) -> str:
        """Block until the migrator decides; returns the action."""
        self._parked.set()
        self._decision.wait(self.PAUSE_TIMEOUT)
        self._decision.clear()
        return self._action


class StopProcess(Exception):
    """Raised inside ``step`` to terminate the process cleanly.

    Used for data-dependent termination (the Guard process of Figure 11
    stops "after processing the first true value from its control input").
    ``IterativeProcess.run`` treats it exactly like reaching an iteration
    limit: the loop ends and ``on_stop`` closes the process's streams,
    starting the usual termination cascade.
    """

_process_counter = itertools.count()


class Process:
    """Base class for all processes (the paper's ``Process`` interface).

    Subclasses implement :meth:`run`.  A process may hold references to
    channel endpoint streams; those it lists in :attr:`input_streams` and
    :attr:`output_streams` are closed automatically when it stops, which
    is what propagates termination through the graph.
    """

    # -- static-analysis contract (repro.analysis.graphproofs) -------------
    #: True when every step reads one element/chunk from each input its
    #: firing rule (:meth:`awaits`) names *before* producing any output —
    #: not from every input: Gather is strict and reads one input per
    #: step, Cons only its head until that ends.  Lets the deadlock pass
    #: prove that a zero-token cycle entering this process through a
    #: named input can never start.
    kpn_strict = False
    #: True when long-run production on every output matches consumption
    #: on the inputs (1:1 transforms, filters on a single output) — i.e.
    #: no data-dependent routing between multiple outputs (ModuloRouter)
    #: and no data-dependent consumption order (OrderedMerge).  Lets the
    #: boundedness pass prove declared capacities sufficient.
    kpn_rate_balanced = False
    #: attribute names of inputs whose first read is deferred until the
    #: process has already produced output (Cons' tail, Delay's source
    #: when it carries initial values) — the static form of a cycle's
    #: initial token.  May be overridden per instance.
    kpn_deferred_inputs: tuple = ()

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or f"{type(self).__name__}-{next(_process_counter)}"
        self.input_streams: List[InputStream] = []
        self.output_streams: List[OutputStream] = []
        #: the owning network, set by ``Network.add``/``Network.spawn``;
        #: used so dynamically created processes and channels (Sift!) stay
        #: under the same scheduler and deadlock monitor.
        self.network = None  # type: Optional["object"]
        #: an unexpected (non-channel) exception raised by run(), if any
        self.failure: Optional[BaseException] = None
        #: live-migration control; created on demand by :meth:`control`
        self._ctrl: Optional[ProcessControl] = None
        #: set on the serialized copy during live migration so the resume
        #: skips on_start (it already ran on the origin server)
        self._live_migrated = False
        #: when True, close_all_streams *aborts* outputs instead of closing
        #: them: the downstream EOF arrives as BrokenChannelError, marking
        #: the end of stream as a shutdown cascade rather than exhaustion.
        #: run() sets it when the process itself died of a broken/closed
        #: channel (the cascade case); graceful terminations leave it off.
        self._abort_on_close = False

    def control(self) -> ProcessControl:
        """The pause/resume control, created lazily (not picklable)."""
        if self._ctrl is None:
            self._ctrl = ProcessControl()
        return self._ctrl

    # -- wiring helpers ----------------------------------------------------
    def track(self, *streams) -> None:
        """Register endpoint streams for automatic close on stop."""
        for s in streams:
            if isinstance(s, OutputStream):
                self.output_streams.append(s)
            elif isinstance(s, InputStream):
                self.input_streams.append(s)
            else:
                raise TypeError(f"not a stream: {s!r}")

    def untrack(self, *streams) -> None:
        """Stop managing streams whose ownership moved to another process.

        Self-reconfiguring processes hand their channel endpoints to the
        processes they insert (Sift gives its old input to the new Modulo,
        Figure 8); untracking prevents this process's ``on_stop`` from
        closing a stream it no longer owns.
        """
        for s in streams:
            while s in self.output_streams:
                self.output_streams.remove(s)
            while s in self.input_streams:
                self.input_streams.remove(s)

    def close_all_streams(self) -> None:
        """Close every tracked stream (the default ``onStop`` behaviour).

        Outputs are *aborted* instead of closed when the process died of a
        termination cascade (see :attr:`_abort_on_close`); inputs have no
        graceful/abort distinction — closing the read side always breaks
        the writer immediately.
        """
        abort = self._abort_on_close
        for s in self.output_streams:
            try:
                if abort:
                    getattr(s, "abort", s.close)()
                else:
                    s.close()
            except Exception:
                pass
        for s in self.input_streams:
            try:
                s.close()
            except Exception:
                pass

    # -- firing rule -------------------------------------------------------
    def awaits(self) -> Optional[Sequence[InputStream]]:
        """The input streams the next step reads before it does anything
        else — this process's *firing rule* — or None when unknown.

        A Kahn process with blocking reads waits on one known input at any
        moment; this hook says which, one step ahead.  The async backend
        asks before every step and does not start a step whose named
        inputs are empty (it parks the task on the empty buffer instead);
        the deadlock prover asks an un-started process which of its input
        edges its first step certainly reads.  Must be pure and
        channel-free: look at own state, touch no stream.

        Name only what the step reads before its first write.  Naming too
        little merely costs a thread hand-off when the step blocks after
        all; naming too much can deadlock a network that threads run fine
        (a step that writes before it reads the named input never gets to
        write).  The default names the only tracked input when there is
        exactly one and is unknown with several.  An override is a
        declaration, and so is the default on a ``kpn_strict`` class (it
        vouches that every step reads what the rule names before
        writing); a bare inherited default is a guess — see
        :mod:`repro.kpn.aio` for how differently the runtime trusts them.
        """
        inputs = self.input_streams
        return inputs if len(inputs) <= 1 else None

    # -- runtime helpers -----------------------------------------------------
    def new_channel(self, capacity: Optional[int] = None, name: str = "") -> Channel:
        """Create a channel registered with this process's network (if any).

        Self-reconfiguring processes create channels mid-execution (the
        Sift process of Figure 8); routing creation through the network
        keeps the new channel under deadlock accounting.
        """
        net = self.network
        if net is not None:
            return net.channel(capacity=capacity, name=name)
        return Channel(name=name) if capacity is None else Channel(capacity, name=name)

    def spawn(self, process: "Process"):
        """Start another process, inheriting the network.

        Reconfiguration must be "initiated by processes and not some
        external agent" (section 3.3); this is the hook processes use to
        activate the processes they insert into the graph.  Off a
        network the new process runs in a plain thread.
        """
        net = self.network
        if net is not None:
            return net.spawn(process)
        thread = threading.Thread(target=process.run, name=process.name, daemon=True)
        thread.start()
        return thread

    # -- to be provided by subclasses -------------------------------------
    def run(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"

    # -- pickling ----------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # never ship the network, a failure, or thread-affine control
        state["network"] = None
        state["failure"] = None
        state["_ctrl"] = None
        return state


class IterativeProcess(Process):
    """The ``onStart`` / ``step`` / ``onStop`` skeleton of Figure 4.

    Parameters
    ----------
    iterations:
        Number of ``step`` invocations before stopping; ``0`` (the
        default) means run until a channel exception occurs.  Iteration
        limits are the paper's primary termination mechanism (section
        3.4): limit the Print process to get "the first 100 primes",
        limit the Sequence process to get "all primes below 100".
    """

    def __init__(self, iterations: int = 0, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.iterations = iterations
        #: how many steps actually completed (diagnostics/tests)
        self.steps_completed = 0

    def on_start(self) -> None:
        """One-time initialization; default does nothing."""

    def step(self) -> None:
        """One unit of work; default does nothing."""

    def steps(self, limit: int) -> int:
        """Run between 1 and ``limit`` steps; return how many ran.

        The default is one :meth:`step`.  A map (one element in, one out
        per step) overrides it to also take every whole element its input
        already holds and write all the results at once; only its first
        read may block.  Drivers call it as :func:`_declares` decides.
        """
        self.step()
        return 1

    def on_stop(self) -> None:
        """One-time cleanup; default closes all tracked streams."""
        self.close_all_streams()

    def _pause_point(self) -> bool:
        """Between steps: park if a migrator asked; True means abandon."""
        ctrl = self._ctrl
        if ctrl is not None and ctrl.pause_requested.is_set():
            return ctrl.park() == "abandon"
        return False

    # -- the Figure 4 protocol, once ----------------------------------------
    # _StepDriver, whoever runs it, goes through these three: what starts
    # a process, what an exception out of a step means, and what
    # finishing does.
    def _begin(self, **span_args) -> bool:
        """Open the process's span; True if telemetry is recording it."""
        traced = _telemetry.enabled
        if traced:
            # `process` repeats the span name so kpn.process / kpn.block /
            # kpn.channel events are all joinable on the same arg key
            _telemetry.begin(self.name, category="kpn.process",
                             kind=type(self).__name__, process=self.name,
                             **span_args)
            _telemetry.inc("kpn.process.started")
        return traced

    def _ended_by(self, exc: Exception) -> str:
        """Why ``exc`` ends the process (recording what must be kept)."""
        if isinstance(exc, StopProcess):
            # Voluntary, data-dependent termination (Guard, ConsumerTask
            # finding its answer): treated like an iteration limit.
            return "stop"
        if isinstance(exc, ChannelError):
            # Normal termination signal: an upstream or downstream process
            # stopped and closed its streams (section 3.4).  A *graceful*
            # end (EndOfStreamError after source exhaustion) closes our
            # outputs normally; a cascade (the channel broken or closed
            # under us) aborts them, so the abort — not a fake EOF —
            # propagates downstream and merge tails stay deterministic.
            if isinstance(exc, (BrokenChannelError, ChannelClosedError)):
                self._abort_on_close = True
            return "channel-closed"
        self.failure = exc          # reported by join, after the cleanup
        return "failure"

    def _finish(self, reason: str, traced: bool) -> None:
        """Run ``on_stop`` and close the span.  A channel error in the
        cleanup is the cascade already under way; any other error is the
        process's failure unless it already has one.  An ``"abandoned"``
        process skips the cleanup: its streams belong to the migrated
        copy now, and closing them would sever that copy's channels."""
        try:
            if reason != "abandoned":
                self.on_stop()
        except ChannelError:
            pass
        except Exception as exc:  # noqa: BLE001 - keep the cascade alive
            if self.failure is None:
                self.failure = exc
        if traced:
            _telemetry.end(self.name, category="kpn.process", reason=reason,
                           steps=self.steps_completed, process=self.name)
            _telemetry.inc("kpn.process.terminated", 1, reason=reason)

    def run(self) -> None:
        _StepDriver(self).drive()


def _declares(cls: type, name: str) -> bool:
    """Does ``cls`` define ``name`` at or below the class defining ``step``?

    Drivers call ``steps`` rather than ``step``, and a fused chain runs a
    stage's ``element_fn`` in its consumer's read, only when this holds:
    a subclass that overrides ``step`` alone (to add a dwell, a count, a
    side effect) must see every element go through it, so it keeps one
    ``step`` per element whatever its base class declares.
    """
    for klass in cls.__mro__:
        defined = vars(klass)
        if name in defined:
            return klass is not IterativeProcess
        if "step" in defined:
            return False
    return False


def needs_own_thread(process: Process) -> Optional[str]:
    """Why nothing but a thread of its own may drive ``process`` — not a
    fused chain (:mod:`repro.analysis.fuse`), not an event loop
    (:func:`repro.kpn.aio.async_hostable`) — or None."""
    declared = declared_nondeterminate(process)
    if declared is not None:
        return f"@nondeterminate: {declared}"
    if (not isinstance(process, IterativeProcess)
            or type(process).run is not IterativeProcess.run):
        return "custom run() loop (not the on_start/step/on_stop protocol)"
    return None


class _StepDriver:
    """Runs one process's on_start/step/on_stop protocol (Figure 4).

    :meth:`drive` runs it to completion on the calling thread: the
    process's own (:meth:`IterativeProcess.run`: ``steps`` where
    :func:`_declares` allows, a pause point between steps for a live
    migrator), or a fused chain's (its stages tail first, one ``step`` a
    call, no pause point).  :meth:`pump` is the rest of it, for a
    caller that steps the stage itself: its start, and its end at its
    ``iterations=`` budget.  Once started, a task's stage is stepped by
    the task's resume (``steps`` as a thread would), a fused stage by
    its chain's :meth:`drive` or its consumer's pipe, and a stage the
    compiler marked *pulled* is one function call in the read that pulls
    its run, which ends it through :meth:`stop` (see
    :class:`repro.kpn.compile._FusedPipe`).
    """

    def __init__(self, stage: IterativeProcess, fused: bool = False) -> None:
        self.stage = stage
        self.fused = fused
        #: the stage's bound ``steps``, or None: one ``step`` a call
        self._steps = (stage.steps
                       if not fused and _declares(type(stage), "steps")
                       else None)
        self.started = False
        self.finished = False
        self._traced = False

    def pump(self) -> bool:
        """Run ``on_start`` (the first call), or end a stage whose
        ``iterations`` budget is spent; False once the process has
        terminated.  A started stage within its budget is the caller's
        to step, and a pump leaves it as it is.  The first call stops
        short of a step so that a scheduler can look at the started
        process before its first one."""
        if self.finished:
            return False
        st = self.stage
        if self.started:
            if not 0 < st.iterations <= st.steps_completed:
                return True
            self.stop("limit")
            return False
        self.started = True
        try:
            self._traced = st._begin(**({"fused": True} if self.fused
                                        else {}))
            if not st._live_migrated:
                st.on_start()
        except Exception as exc:  # noqa: BLE001 - classified, then cleaned up
            self.stop(st._ended_by(exc))
            return False
        return True

    def stop(self, reason: str) -> None:
        """The process has terminated for ``reason``: run its cleanup."""
        self.finished = True
        self.stage._finish(reason, self._traced)

    def drive(self) -> None:
        """Run the process to completion: ``pump`` starts it and ends it,
        and between the two it steps in this loop itself."""
        st = self.stage
        step, steps = st.step, self._steps
        own_thread = not self.fused
        while self.pump():
            try:
                # counting against steps_completed, not a local countdown,
                # resumes a live-migrated process exactly where it parked
                while not 0 < st.iterations <= st.steps_completed:
                    # _ctrl is None unless a migrator asked for control(),
                    # which it may do from its own thread at any time:
                    # re-read it every step, never hoist it out of the loop
                    if (own_thread and st._ctrl is not None
                            and st._pause_point()):
                        self.stop("abandoned")
                        return
                    if steps is None:
                        step()
                        st.steps_completed += 1
                    else:
                        done = st.steps_completed
                        st.steps_completed = done + steps(
                            st.iterations - done if st.iterations > 0
                            else sys.maxsize)
            except Exception as exc:  # noqa: BLE001 - classified
                self.stop(st._ended_by(exc))
                return


class CompositeProcess(Process):
    """Hierarchy in the program graph (section 3.2, Figure 6).

    A composite is a grouping, not an actor: on a network **every
    component is an actor of its own**, and run off one a composite
    starts one thread per component and waits for all of them.
    Sequencing the components' steps in a single thread could deadlock,
    so composition never reduces concurrency.  Composites nest:
    a member may itself be a CompositeProcess.  Distributing a composite
    moves all of its members (and their channel endpoints) together, which
    is exactly how the paper partitions graphs across servers (Figures
    14–15).
    """

    def __init__(self, processes: Iterable[Process] = (), name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self.processes: List[Process] = list(processes)

    def add(self, process: Process) -> Process:
        self.processes.append(process)
        if self.network is not None:
            process.network = self.network
        return process

    def members(self) -> Sequence[Process]:
        return tuple(self.processes)

    def flatten(self) -> List[Process]:
        """All leaf (non-composite) processes, recursively."""
        leaves: List[Process] = []
        for p in self.processes:
            if isinstance(p, CompositeProcess):
                leaves.extend(p.flatten())
            else:
                leaves.append(p)
        return leaves

    #: whether :meth:`begin` opened a span for :meth:`end` to close
    _traced = False

    def begin(self) -> None:
        """Open the composite's own span (whoever runs the members — the
        threads of :meth:`run`, a fused chain's one thread or task —
        calls this first)."""
        self._traced = _telemetry.enabled
        if self._traced:
            _telemetry.begin(self.name, category="kpn.process",
                             kind=type(self).__name__,
                             members=len(self.processes), process=self.name)

    def end(self) -> None:
        """Every member has finished: surface the first failure, close
        the span."""
        failures = [p for p in self.processes if p.failure is not None]
        if failures:
            self.failure = failures[0].failure
        if self._traced:
            _telemetry.end(self.name, category="kpn.process",
                           failures=len(failures), process=self.name)

    def run(self) -> None:
        """Off a network: one plain thread per member, then wait for them
        all.  A network never runs a composite: :meth:`Network.spawn`
        makes each member an actor of its own instead."""
        self.begin()
        threads = [threading.Thread(target=p.run, name=p.name, daemon=True)
                   for p in self.processes]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.end()

    def close_all_streams(self) -> None:
        super().close_all_streams()
        for p in self.processes:
            p.close_all_streams()
