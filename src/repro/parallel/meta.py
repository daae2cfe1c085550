"""MetaStatic and MetaDynamic: parallel worker compositions (Figures 16–18).

Both compositions replace a single Worker in the Figure-1 pipeline with N
workers while remaining, "from the point of view of the producer and
consumer processes, equivalent to a single worker" — same results, same
order.

* **MetaStatic** (Figure 16): Scatter deals tasks round-robin; Gather
  collects round-robin.  Equal task counts per worker → great on
  homogeneous machines, "limited by the rate at which the slowest worker
  can execute tasks" on heterogeneous ones.
* **MetaDynamic** (Figures 17–18): the Direct process dispatches each task
  to the worker named by the index stream; the indexed merge (Turnstile +
  Select) emits completion indices back to Direct — so "a new task is
  distributed to a Worker for every result collected from that Worker" —
  and re-sequences results into dispatch order for the consumer.  The
  initial index sequence 0..N−1 is inserted by a Cons process (the
  ``(n)`` bubble of Figure 18).

Builders return a :class:`ParallelHarness`, keeping the worker processes
individually addressable so callers can ship them to compute servers
before starting the network (``harness.distribute(cluster)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.kpn.channel import Channel
from repro.kpn.network import Network
from repro.kpn.process import Process
from repro.parallel.generic import Worker
from repro.processes.codecs import INT
from repro.processes.routing import Direct, Gather, Scatter, Select, Turnstile
from repro.processes.sources import Sequence
from repro.processes.transforms import Cons

__all__ = ["ParallelHarness", "meta_static", "meta_dynamic"]

WorkerFactory = Callable[[int, "object", "object"], Process]


@dataclass
class ParallelHarness:
    """Handle over a parallel composition's pieces.

    ``plumbing`` runs where the producer/consumer run; each entry of
    ``workers`` may run anywhere — ship them with :meth:`distribute`
    before starting the network.
    """

    plumbing: List[Process] = field(default_factory=list)
    workers: List[Process] = field(default_factory=list)
    #: names of the workers, kept after :meth:`distribute` ships the
    #: objects away, so load accounting can still address them
    worker_names: List[str] = field(default_factory=list)

    def all_processes(self) -> List[Process]:
        return [*self.plumbing, *self.workers]

    def add_to(self, network: Network) -> "ParallelHarness":
        for p in self.all_processes():
            network.add(p)
        return self

    def add_local_to(self, network: Network) -> "ParallelHarness":
        """Add only the plumbing (workers have been shipped elsewhere)."""
        for p in self.plumbing:
            network.add(p)
        return self

    def distribute(self, cluster) -> "ParallelHarness":
        """Ship worker i to cluster server ``i % n_servers``.

        Channel links between the local plumbing and each worker are
        established automatically during serialization (section 4.2),
        with no pause between shipments.
        """
        self.worker_names = [w.name for w in self.workers]
        for i, worker in enumerate(self.workers):
            cluster.client(i % len(cluster.clients)).run(worker)
        self.workers = []
        return self

    # -- load accounting (the Table 2 / Figure 19-20 raw data) ---------------
    def task_counts(self, counters: Optional[Mapping[str, float]] = None
                    ) -> Dict[str, int]:
        """Tasks processed per worker.

        Resolution order: an explicit flat counter snapshot (pass
        ``LocalCluster.merged_metrics()`` after a distributed run), then
        live local worker objects, then the local telemetry hub.
        """
        from repro.telemetry.core import TELEMETRY, render_key

        names = self.worker_names or [w.name for w in self.workers]
        counts: Dict[str, int] = {n: 0 for n in names}
        local = {w.name: getattr(w, "tasks_processed", 0)
                 for w in self.workers}
        for name in counts:
            if counters is not None:
                key = render_key("parallel.tasks_processed",
                                 (("worker", name),))
                counts[name] = int(counters.get(key, 0))
            if not counts[name]:
                counts[name] = local.get(name, 0)
            if not counts[name]:
                counts[name] = int(TELEMETRY.counter(
                    "parallel.tasks_processed", worker=name))
        return counts

    def load_shares(self, counters: Optional[Mapping[str, float]] = None
                    ) -> Dict[str, float]:
        """Fraction of all processed tasks each worker handled.

        Under MetaStatic the shares are equal by construction; under
        MetaDynamic they skew toward the faster workers — the per-host
        load shares behind the paper's Figures 19/20.
        """
        counts = self.task_counts(counters)
        total = sum(counts.values())
        if not total:
            return {n: 0.0 for n in counts}
        return {n: c / total for n, c in counts.items()}

    def latency_report(self) -> Dict[str, Dict[str, float]]:
        """Per-worker task-latency summaries from the local telemetry hub.

        ``{worker: {count, sum, min, max, mean}}`` — empty when telemetry
        was disabled during the run.
        """
        from repro.telemetry.core import TELEMETRY, render_key

        names = self.worker_names or [w.name for w in self.workers]
        hists = TELEMETRY.histograms()
        out: Dict[str, Dict[str, float]] = {}
        for name in names:
            key = render_key("parallel.task_seconds", (("worker", name),))
            hist = hists.get(key)
            if hist is not None:
                out[name] = hist.as_dict()
        return out


def _default_worker_factory(slowdowns: Optional[List[float]] = None,
                            executor=None) -> WorkerFactory:
    def factory(i: int, source, out) -> Process:
        slow = slowdowns[i] if slowdowns else 0.0
        return Worker(source, out, slowdown=slow, name=f"Worker-{i}",
                      executor=executor)

    return factory


def meta_static(tasks_in, results_out, n_workers: int,
                network: Optional[Network] = None,
                worker_factory: Optional[WorkerFactory] = None,
                slowdowns: Optional[List[float]] = None,
                channel_capacity: Optional[int] = None,
                executor=None, prefix: str = "") -> ParallelHarness:
    """Build the statically balanced composition of Figure 16.

    ``tasks_in`` / ``results_out`` are the channel endpoints that would
    have fed a single worker; the composition is a drop-in replacement.
    ``executor`` is forwarded to the default worker factory (ignored when
    a custom ``worker_factory`` is supplied).
    """
    factory = worker_factory or _default_worker_factory(slowdowns, executor)
    mk = (network.channel if network is not None
          else lambda cap=None, name="": Channel(cap or 1024, name=name))
    # `prefix` (e.g. "farm-3-") keeps internal channel labels unique when
    # several farms share one telemetry stream — the profiler and trace
    # viewers join events on the channel name
    w_in = [mk(channel_capacity, name=f"{prefix}static-in-{i}")
            for i in range(n_workers)]
    w_out = [mk(channel_capacity, name=f"{prefix}static-out-{i}")
             for i in range(n_workers)]
    harness = ParallelHarness()
    harness.plumbing.append(
        Scatter(tasks_in, [c.get_output_stream() for c in w_in], name="Scatter"))
    for i in range(n_workers):
        harness.workers.append(
            factory(i, w_in[i].get_input_stream(), w_out[i].get_output_stream()))
    harness.plumbing.append(
        Gather([c.get_input_stream() for c in w_out], results_out, name="Gather"))
    harness.worker_names = [w.name for w in harness.workers]
    return harness


def meta_dynamic(tasks_in, results_out, n_workers: int,
                 network: Optional[Network] = None,
                 worker_factory: Optional[WorkerFactory] = None,
                 slowdowns: Optional[List[float]] = None,
                 channel_capacity: Optional[int] = None,
                 executor=None, prefix: str = "") -> ParallelHarness:
    """Build the dynamically balanced composition of Figures 17–18.

    Internal graph::

        tasks_in ─→ Direct ─→ worker[i] ─→ Turnstile ─→ (pairs) Select ─→ results_out
                      ↑                        │(index)
                      └── Cons ←─ Sequence(0..N−1)   (initial dispatch)

    The Turnstile is the composition's single non-determinate process;
    the Select re-sequences, so the consumer-visible stream is identical
    to MetaStatic's (the "well behaved" property, section 5).
    """
    factory = worker_factory or _default_worker_factory(slowdowns, executor)
    mk = (network.channel if network is not None
          else lambda cap=None, name="": Channel(cap or 1024, name=name))
    w_in = [mk(channel_capacity, name=f"{prefix}dyn-in-{i}")
            for i in range(n_workers)]
    w_out = [mk(channel_capacity, name=f"{prefix}dyn-out-{i}")
             for i in range(n_workers)]
    pairs = mk(channel_capacity, name=f"{prefix}dyn-pairs")
    idx_turn = mk(channel_capacity, name=f"{prefix}dyn-idx-turnstile")
    idx_seed = mk(max(channel_capacity or 1024, 4 * n_workers),
                  name=f"{prefix}dyn-idx-seed")
    idx_direct = mk(channel_capacity, name=f"{prefix}dyn-idx-direct")
    harness = ParallelHarness()
    # initial dispatch sequence 0..N-1, then completion order (process (n))
    harness.plumbing.append(
        Sequence(idx_seed.get_output_stream(), start=0, iterations=n_workers,
                 codec=INT, name="InitialIndices"))
    harness.plumbing.append(
        Cons(idx_seed.get_input_stream(), idx_turn.get_input_stream(),
             idx_direct.get_output_stream(), name="Cons-idx"))
    harness.plumbing.append(
        Direct(tasks_in, idx_direct.get_input_stream(),
               [c.get_output_stream() for c in w_in], name="Direct"))
    for i in range(n_workers):
        harness.workers.append(
            factory(i, w_in[i].get_input_stream(), w_out[i].get_output_stream()))
    harness.plumbing.append(
        Turnstile([c.get_input_stream() for c in w_out],
                  pairs.get_output_stream(), idx_turn.get_output_stream(),
                  name="Turnstile"))
    harness.plumbing.append(
        Select(pairs.get_input_stream(), results_out, n_workers, name="Select"))
    harness.worker_names = [w.name for w in harness.workers]
    return harness
