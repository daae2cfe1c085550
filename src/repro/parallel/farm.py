"""One-call task farms: the Figure 1/16/17 pipelines, ready to run.

:func:`run_farm` assembles producer → (single worker | MetaStatic |
MetaDynamic) → consumer, runs the network, and returns what the consumer
collected.  It is the entry point the examples and the real-execution
benchmark use; everything it builds is also reachable piecemeal through
:mod:`repro.parallel.meta` for callers that want to distribute workers to
compute servers first.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional

from repro.kpn.network import Network
from repro.parallel.generic import Consumer, Producer, Worker
from repro.parallel.meta import ParallelHarness, meta_dynamic, meta_static

__all__ = ["build_farm", "run_farm", "FarmHandle"]

#: per-instance suffix for farm channel names — two farms sharing one
#: Network (or one telemetry hub) must not collide in trace/metric labels
_farm_ids = itertools.count()


class FarmHandle:
    """Everything :func:`build_farm` created, pre-run."""

    def __init__(self, network: Network, results: List[Any],
                 harness: Optional[ParallelHarness],
                 producer: Producer, consumer: Consumer) -> None:
        self.network = network
        self.results = results
        self.harness = harness
        self.producer = producer
        self.consumer = consumer

    def run(self, timeout: Optional[float] = None) -> List[Any]:
        """Run the farm; on timeout, tear the network down before returning.

        ``Network.run`` leaves threads parked on channel operations when
        the join times out; a farm is a self-contained pipeline, so the
        handle closes every channel (waking all of them into cascading
        termination) and re-joins briefly rather than leaking threads.
        Shared executors (the per-host pool) are left running — they
        outlive any one farm by design.
        """
        completed = self.network.run(timeout=timeout)
        if not completed:
            self.network.shutdown()
            self.network.join(timeout=5.0)
        return self.results


def build_farm(producer_task: Any, n_workers: int = 1, mode: str = "dynamic",
               stop_when: Optional[Callable[[Any], bool]] = None,
               producer_iterations: int = 0,
               consumer_iterations: int = 0,
               slowdowns: Optional[List[float]] = None,
               network: Optional[Network] = None,
               channel_capacity: Optional[int] = None,
               cluster=None, defer_workers: bool = False,
               executor: Any = None) -> FarmHandle:
    """Assemble a farm; ``mode`` ∈ {"pipeline", "static", "dynamic"}.

    ``cluster`` (a started :class:`~repro.distributed.LocalCluster`) ships
    the workers to compute servers before the network starts; plumbing and
    producer/consumer stay local, exactly the partitioning the paper's
    experiments used.

    ``defer_workers=True`` adds only the plumbing to the network and
    leaves the workers on the harness for the caller to place — the hook
    policy-driven placement (:func:`repro.distributed.balancer.place_workers`)
    uses.

    ``executor`` selects the compute backend for every worker:
    ``"inline"`` (default), ``"process"``, or a live
    :class:`~repro.parallel.executor.TaskExecutor` — see
    :mod:`repro.parallel.executor`.
    """
    if mode not in ("pipeline", "static", "dynamic"):
        raise ValueError("mode must be 'pipeline', 'static' or 'dynamic'")
    net = network or Network(name=f"farm-{mode}")
    # channel names carry a per-farm id: two farms on one Network (or one
    # telemetry hub) would otherwise collide in trace and metric labels
    fid = next(_farm_ids)
    tasks = net.channel(channel_capacity, name=f"farm-{fid}-tasks")
    results_ch = net.channel(channel_capacity, name=f"farm-{fid}-results")
    collected: List[Any] = []
    producer = Producer(producer_task, tasks.get_output_stream(),
                        iterations=producer_iterations, name="Producer")
    consumer = Consumer(results_ch.get_input_stream(),
                        iterations=consumer_iterations,
                        collect_into=collected, stop_when=stop_when,
                        name="Consumer")
    net.add(producer)
    harness: Optional[ParallelHarness] = None
    if mode == "pipeline":
        slow = slowdowns[0] if slowdowns else 0.0
        net.add(Worker(tasks.get_input_stream(),
                       results_ch.get_output_stream(), slowdown=slow,
                       name="Worker", executor=executor))
    else:
        build = meta_static if mode == "static" else meta_dynamic
        harness = build(tasks.get_input_stream(),
                        results_ch.get_output_stream(), n_workers,
                        network=net, slowdowns=slowdowns,
                        channel_capacity=channel_capacity,
                        executor=executor, prefix=f"farm-{fid}-")
        if cluster is not None:
            harness.distribute(cluster)
            harness.add_local_to(net)
        elif defer_workers:
            harness.add_local_to(net)
        else:
            harness.add_to(net)
    net.add(consumer)
    return FarmHandle(net, collected, harness, producer, consumer)


def run_farm(producer_task: Any, n_workers: int = 1, mode: str = "dynamic",
             timeout: Optional[float] = 300.0, **kwargs) -> List[Any]:
    """Build and run a farm; returns the consumer's collected values."""
    return build_farm(producer_task, n_workers=n_workers, mode=mode,
                      **kwargs).run(timeout=timeout)
