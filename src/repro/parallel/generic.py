"""Generic Producer, Worker, and Consumer processes (paper section 5.1).

"The creation of a new application simply requires the implementation of
application-specific producer, worker, and consumer Tasks" — these three
processes are completely workload-agnostic and move :class:`Task` objects
over ordinary byte channels via the object codec.

Termination forms a clean cascade in both directions:

* supply exhausted (producer task returns ``None``, or the Producer hits
  its iteration limit) → Producer stops → workers drain and stop →
  consumer drains and stops;
* answer found (consumer task returns :data:`~repro.parallel.tasks.STOP`
  or raises StopProcess) → Consumer stops → broken channels propagate
  upstream, stopping workers and producer (the paper notes some
  already-produced tasks may go unconsumed in this mode — that is
  expected and harmless).
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional

from repro.kpn.process import IterativeProcess, StopProcess
from repro.kpn.streams import InputStream, OutputStream
from repro.parallel.tasks import STOP
from repro.processes.codecs import OBJECT
from repro.telemetry.core import TELEMETRY as _telemetry

__all__ = ["Producer", "Worker", "Consumer"]


class Producer(IterativeProcess):
    """Repeatedly runs one producer task; emits the tasks it returns.

    ``iterations`` bounds the number of emissions (the paper's
    mechanism); a producer task returning ``None`` ends the supply early.
    """

    def __init__(self, task: Any, out: OutputStream, iterations: int = 0,
                 name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.task = task
        self.out = out
        self.track(out)

    def step(self) -> None:
        work = self.task.run()
        if work is None:
            raise StopProcess
        if _telemetry.enabled:
            _telemetry.inc("parallel.tasks_produced", 1, producer=self.name)
        OBJECT.write(self.out, work)


class Worker(IterativeProcess):
    """Reads a task, runs it, writes the (task-shaped) result.

    ``slowdown`` adds a fixed per-task delay — used by tests and the
    real-execution benchmark to emulate heterogeneous CPU speeds on one
    machine (a class-C worker is a class-A worker with a bigger
    slowdown).

    ``executor`` selects where ``task.run()`` executes: ``None`` (the
    host's run configuration, default inline), ``"inline"``,
    ``"process"``, or a live
    :class:`~repro.parallel.executor.TaskExecutor`.  The spec is resolved
    lazily in ``on_start`` so a worker shipped to a compute server uses
    *that* host's shared pool, and the KPN thread's blocking-read /
    bounded-buffer semantics are untouched — it just blocks on the
    executor's future instead of the GIL.
    """

    #: sleeps its slowdown and waits on executor futures, neither of them
    #: a channel: on a shared event loop it would stall every other task
    kpn_async = False

    def __init__(self, source: InputStream, out: OutputStream,
                 iterations: int = 0, slowdown: float = 0.0,
                 name: Optional[str] = None, executor: Any = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.out = out
        self.slowdown = slowdown
        self.executor = executor
        self.tasks_processed = 0
        self._exec: Any = None
        self.track(source, out)

    def on_start(self) -> None:
        from repro.parallel.executor import resolve_executor

        self._exec = resolve_executor(self.executor)

    def step(self) -> None:
        task = OBJECT.read(self.source)
        if self._exec is None:      # live-migrated workers skip on_start
            self.on_start()
        traced = _telemetry.enabled
        t0 = time.perf_counter() if traced else 0.0
        result = self._exec.run_task(task)
        if self.slowdown > 0.0:
            time.sleep(self.slowdown)
        self.tasks_processed += 1
        if traced:
            # latency includes the slowdown: it emulates a slower CPU, and
            # the per-worker distribution is exactly the heterogeneity the
            # MetaStatic-vs-MetaDynamic comparison (Table 2) hinges on.
            _telemetry.observe("parallel.task_seconds",
                               time.perf_counter() - t0, worker=self.name)
            _telemetry.inc("parallel.tasks_processed", 1, worker=self.name)
        OBJECT.write(self.out, result)

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["tasks_processed"] = 0
        # the resolved executor is host-local (threads, child processes);
        # only the spec travels, and re-resolves on the destination host.
        state["_exec"] = None
        if not isinstance(state.get("executor"), (str, type(None))):
            state["executor"] = getattr(state["executor"], "kind", None)
        return state


class Consumer(IterativeProcess):
    """Reads result tasks and runs them (paper: "discards the result").

    Pragmatic extensions for in-process use: ``collect_into`` records each
    run's return value, and ``stop_when`` stops the computation once a
    predicate on those values holds — both optional, neither changes the
    Task protocol.
    """

    def __init__(self, source: InputStream, iterations: int = 0,
                 collect_into: Optional[List[Any]] = None,
                 stop_when: Optional[Callable[[Any], bool]] = None,
                 name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.collect_into = collect_into
        self.stop_when = stop_when
        self.track(source)

    def step(self) -> None:
        task = OBJECT.read(self.source)
        run = getattr(task, "run", None)
        # Plain values are their own result — lets workloads whose worker
        # tasks return bare data skip defining a consumer-task class.
        value = run() if callable(run) else task
        if _telemetry.enabled:
            _telemetry.inc("parallel.results_consumed", 1, consumer=self.name)
        if self.collect_into is not None:
            self.collect_into.append(value)
        if value == STOP:
            raise StopProcess
        if self.stop_when is not None and self.stop_when(value):
            raise StopProcess
