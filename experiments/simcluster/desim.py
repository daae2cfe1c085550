"""Discrete-event simulator for task farms on heterogeneous CPUs.

The real experiment needs a 2003 computer lab; this simulator substitutes
for it (see DESIGN.md, substitutions).  It is an ordinary event-queue DES:
entities are a producer/dispatcher, N worker CPUs, and a collector.  Two
dispatch disciplines mirror the paper's compositions:

* ``static``  — task k is pre-assigned to worker ``k mod N`` (the Scatter
  of Figure 16; channel buffering lets workers proceed independently, so
  the makespan is governed by the slowest worker's queue);
* ``dynamic`` — each completion releases the next task to the worker that
  finished (the Direct/indexed-merge of Figure 17).

Cost model (calibrated in :mod:`experiments.simcluster.experiment`):

* a task's service time on CPU c = ``work / c.speed + per_task_overhead``
  (the overhead term is serialization + network, *not* CPU-speed-scaled);
* worker w may not start before ``w_index × startup_per_worker`` — the
  sequential distribution of worker processes to servers, the paper's
  "startup overhead increases as the number of workers increases ... and
  accounts for virtually the entire difference between the ideal case and
  the dynamically load balanced case".
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from experiments.simcluster.machine import Cpu

__all__ = ["FarmSimResult", "simulate_farm", "EventQueue"]


class EventQueue:
    """A tiny reusable event queue (time-ordered callbacks)."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()
        self.now = 0.0

    def schedule(self, when: float, callback: Callable[[], None]) -> None:
        if when < self.now:
            raise ValueError(f"cannot schedule into the past: {when} < {self.now}")
        heapq.heappush(self._heap, (when, next(self._seq), callback))

    def run(self, until: Optional[float] = None) -> float:
        while self._heap:
            when, _, callback = heapq.heappop(self._heap)
            if until is not None and when > until:
                heapq.heappush(self._heap, (when, 0, callback))
                return self.now
            self.now = when
            callback()
        return self.now


@dataclass
class FarmSimResult:
    """Outcome of one simulated farm run."""

    mode: str
    n_workers: int
    #: minutes from t=0 to the last result's collection
    elapsed: float
    #: tasks each worker processed
    tasks_per_worker: List[int]
    #: completion time of each worker's last task
    worker_finish: List[float]
    #: total busy time per worker (for utilization)
    worker_busy: List[float] = field(default_factory=list)

    @property
    def utilization(self) -> List[float]:
        if not self.worker_busy or self.elapsed == 0:
            return []
        return [b / self.elapsed for b in self.worker_busy]


def simulate_farm(cpus: Sequence[Cpu], n_tasks: int, work_per_task: float,
                  mode: str = "dynamic", per_task_overhead: float = 0.0,
                  startup_per_worker: float = 0.0,
                  task_works: Optional[Sequence[float]] = None) -> FarmSimResult:
    """Simulate ``n_tasks`` uniform (or per-task ``task_works``) tasks.

    All times share one unit (the experiment module uses minutes).
    Returns elapsed time and per-worker accounting.
    """
    if mode not in ("static", "dynamic"):
        raise ValueError("mode must be 'static' or 'dynamic'")
    n = len(cpus)
    works = list(task_works) if task_works is not None else [work_per_task] * n_tasks
    if len(works) != n_tasks:
        raise ValueError("task_works length must equal n_tasks")

    queue = EventQueue()
    tasks_done = [0] * n
    busy = [0.0] * n
    finish = [0.0] * n
    completed = 0
    last_completion = 0.0

    def service_time(worker: int, task_index: int) -> float:
        return works[task_index] / cpus[worker].speed + per_task_overhead

    if mode == "static":
        # Pre-assigned round-robin queues; worker w starts after its
        # (sequential) startup and burns through its queue.
        assignments: List[List[int]] = [[] for _ in range(n)]
        for k in range(n_tasks):
            assignments[k % n].append(k)

        def start_worker(w: int) -> None:
            def run_next(queue_pos: int = 0) -> None:
                nonlocal completed, last_completion
                if queue_pos >= len(assignments[w]):
                    return
                task = assignments[w][queue_pos]
                st = service_time(w, task)
                busy[w] += st
                done_at = queue.now + st

                def complete() -> None:
                    nonlocal completed, last_completion
                    completed += 1
                    finish[w] = queue.now
                    last_completion = max(last_completion, queue.now)
                    run_next(queue_pos + 1)

                queue.schedule(done_at, complete)

            run_next()

        for w in range(n):
            queue.schedule(startup_per_worker * (w + 1),
                           (lambda w=w: start_worker(w)))
    else:
        # On-demand: a completion hands the finishing worker the next task.
        next_task = 0

        def dispatch(w: int) -> None:
            nonlocal next_task
            if next_task >= n_tasks:
                return
            task = next_task
            next_task += 1
            tasks_done[w] += 1
            st = service_time(w, task)
            busy[w] += st

            def complete() -> None:
                nonlocal completed, last_completion
                completed += 1
                finish[w] = queue.now
                last_completion = max(last_completion, queue.now)
                dispatch(w)

            queue.schedule(queue.now + st, complete)

        for w in range(n):
            queue.schedule(startup_per_worker * (w + 1),
                           (lambda w=w: dispatch(w)))

    queue.run()
    if mode == "static":
        tasks_counted = [len([k for k in range(n_tasks) if k % n == w])
                         for w in range(n)]
    else:
        tasks_counted = tasks_done
    return FarmSimResult(mode=mode, n_workers=n, elapsed=last_completion,
                         tasks_per_worker=tasks_counted, worker_finish=finish,
                         worker_busy=busy)
