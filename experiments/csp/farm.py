"""The factorization farm, CSP style (the paper's planned comparison).

Section 6.2: "Work has begun on the implementation of a parallel
algorithm for factoring large numbers ... using both our implementation
of process networks and a Java implementation of CSP."  This module is
the CSP half: the same producer/worker/consumer Task objects as
:mod:`repro.parallel`, but moved over rendezvous channels with an
ALT-based on-demand distributor instead of the Direct/indexed-merge
composite.

Structural contrast with the KPN farm (measured in
``experiments/bench_ablation_csp.py``):

* no buffering — every hand-off synchronizes producer and worker, so
  there is no pipelining slack between stages;
* on-demand balancing falls out of ALT naturally (workers *request*
  work), at the cost of per-task request/response rendezvous;
* result order is restored by an explicit resequencer, since completion
  order is nondeterministic (the CSP analogue of the paper's Select);
* termination is poison propagation: each process poisons its outbound
  channels as it exits, per-worker result channels let the collector
  know when *all* workers are done.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from experiments.csp.channel import Alternation, PoisonError, SyncChannel
from experiments.csp.process import CSPProcess, ParallelCSP

__all__ = ["csp_farm"]


class _Producer(CSPProcess):
    def __init__(self, task: Any, out: SyncChannel) -> None:
        super().__init__(poisons=[out], name="csp-producer")
        self.task = task
        self.out = out

    def body(self) -> None:
        while True:
            work = self.task.run()
            if work is None:
                return
            self.out.write(work)


class _Distributor(CSPProcess):
    """ALT over worker request channels; hands each requester a tagged
    task (the tag is the producer sequence number, for resequencing)."""

    def __init__(self, tasks_in: SyncChannel, requests: List[SyncChannel],
                 replies: List[SyncChannel]) -> None:
        # poisoning the request channels on exit releases workers blocked
        # mid-rendezvous offering their request token
        super().__init__(poisons=[tasks_in, *replies, *requests],
                         name="csp-distributor")
        self.tasks_in = tasks_in
        self.requests = requests
        self.replies = replies

    def body(self) -> None:
        alt = Alternation(self.requests)
        seq = 0
        try:
            while True:
                task = self.tasks_in.read()     # PoisonError ends us
                while True:
                    i = alt.select(timeout=10.0)
                    if i is not None:
                        break
                self.requests[i].read()          # consume the request token
                self.replies[i].write((seq, task))
                seq += 1
        finally:
            alt.close()


class _Worker(CSPProcess):
    def __init__(self, index: int, request: SyncChannel, reply: SyncChannel,
                 results: SyncChannel, slowdown: float = 0.0) -> None:
        super().__init__(poisons=[request, results],
                         name=f"csp-worker-{index}")
        self.index = index
        self.request = request
        self.reply = reply
        self.results = results
        self.slowdown = slowdown
        self.tasks_processed = 0

    def body(self) -> None:
        import time

        while True:
            self.request.write(self.index)      # "I'm free"
            seq, task = self.reply.read()
            value = task.run()
            if self.slowdown > 0:
                time.sleep(self.slowdown)
            self.tasks_processed += 1
            self.results.write((seq, value))


class _Collector(CSPProcess):
    """ALT over per-worker result channels; resequences by tag.

    Exits when every worker's channel is poisoned (all workers done) or
    when ``stop_when`` fires; poisons the reply channels on the way out
    so a stop cascades back through workers and distributor to the
    producer.
    """

    def __init__(self, results: List[SyncChannel], into: List[Any],
                 stop_when: Optional[Callable[[Any], bool]],
                 replies: List[SyncChannel]) -> None:
        super().__init__(poisons=[*results, *replies], name="csp-collector")
        self.results = results
        self.into = into
        self.stop_when = stop_when
        self._pending: dict = {}
        self._next_seq = 0

    def body(self) -> None:
        alt = Alternation(self.results)
        done = [False] * len(self.results)
        try:
            while not all(done):
                i = alt.select(timeout=10.0)
                if i is None:
                    continue
                if done[i]:
                    # poisoned channel keeps reporting ready; skip it
                    ready = [k for k, d in enumerate(done)
                             if not d and self.results[k].pending()]
                    if not ready:
                        import time

                        time.sleep(0.001)  # others are mid-shutdown
                        continue
                    i = ready[0]
                try:
                    seq, value = self.results[i].read()
                except PoisonError:
                    done[i] = True
                    continue
                self._pending[seq] = value
                if self._drain():
                    return
        finally:
            alt.close()

    def _drain(self) -> bool:
        """Emit in-order results; True if stop_when fired."""
        while self._next_seq in self._pending:
            emitted = self._pending.pop(self._next_seq)
            run = getattr(emitted, "run", None)
            value = run() if callable(run) else emitted
            self.into.append(value)
            self._next_seq += 1
            if self.stop_when is not None and self.stop_when(value):
                return True
        return False


def csp_farm(producer_task: Any, n_workers: int = 4,
             stop_when: Optional[Callable[[Any], bool]] = None,
             slowdowns: Optional[List[float]] = None,
             timeout: float = 300.0) -> List[Any]:
    """Run the farm to completion; returns collected results in order.

    Same contract as :func:`repro.parallel.run_farm` (dynamic mode) so
    the two implementations are drop-in comparable.
    """
    tasks = SyncChannel("csp-tasks")
    requests = [SyncChannel(f"csp-req-{i}") for i in range(n_workers)]
    replies = [SyncChannel(f"csp-rep-{i}") for i in range(n_workers)]
    results = [SyncChannel(f"csp-res-{i}") for i in range(n_workers)]
    out: List[Any] = []

    workers = [
        _Worker(i, requests[i], replies[i], results[i],
                slowdown=(slowdowns[i] if slowdowns else 0.0))
        for i in range(n_workers)
    ]
    network = ParallelCSP([
        _Producer(producer_task, tasks),
        _Distributor(tasks, requests, replies),
        *workers,
        _Collector(results, out, stop_when, replies),
    ])
    if not network.run(timeout=timeout):
        raise TimeoutError("CSP farm did not complete within the timeout")
    return out
