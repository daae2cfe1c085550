"""Cluster operations: placement policies, live migration, global deadlock
detection — the paper's section-6 future work, working together.

Run:  python examples/cluster_operations.py

1. start an in-process cluster of three servers plus a registry;
2. benchmark the servers and place farm workers speed-weightedly;
3. live-migrate a running producer from this process to a server while
   its consumer keeps reading (no element lost or repeated);
4. run a Figure-13 graph whose channels are too small, spanning two
   sites: the driver's own deadlock monitor, polling the server it
   shipped to, grows the right buffer where it lives.
"""

import time

from repro.kpn import Network
from repro.kpn.process import CompositeProcess, IterativeProcess
from repro.distributed import (LocalCluster, SpeedWeightedPlacement,
                               place_workers, profile_servers)
from repro.distributed.migration import migrate_live
from repro.parallel import CallableTask, RangeProducerTask, build_farm
from repro.processes import Collect, ModuloRouter, OrderedMerge, Sequence
from repro.processes.codecs import LONG


def placement_demo(cluster: LocalCluster) -> None:
    print("== speed-weighted placement ==")
    profiles = profile_servers(cluster, measure_speed=True,
                               calibration_rounds=400)
    for p in profiles:
        print(f"  {p.name}: {p.speed:,.0f} calibration ops/s")
    handle = build_farm(RangeProducerTask(18, lambda i: CallableTask(pow, i, 2)),
                        n_workers=6, mode="dynamic", defer_workers=True)
    assignment = place_workers(handle.harness, cluster,
                               SpeedWeightedPlacement(), profiles=profiles)
    print(f"  worker -> server assignment: {assignment}")
    results = handle.run(timeout=120)
    assert results == [i * i for i in range(18)]
    print(f"  18 tasks through 6 remote workers: results in order ✓")


class Ticker(IterativeProcess):
    def __init__(self, out, iterations, name=None):
        super().__init__(iterations=iterations, name=name)
        self.out = out
        self.track(out)

    def step(self):
        LONG.write(self.out, self.steps_completed)
        time.sleep(0.002)


def live_migration_demo(cluster: LocalCluster) -> None:
    print("== live migration of a running producer ==")
    net = Network()
    ch = net.channel(capacity=1 << 16)
    out = []
    ticker = Ticker(ch.get_output_stream(), iterations=200, name="wanderer")
    net.add(ticker)
    net.add(Collect(ch.get_input_stream(), out))
    net.start()
    while ticker.steps_completed < 40:
        time.sleep(0.005)
    moved_at = ticker.steps_completed
    migrate_live(ticker, cluster.client(0), timeout=30)
    print(f"  producer moved to {cluster.names[0]} after ~{moved_at} elements")
    net.join(timeout=120)
    assert out == list(range(200))
    print(f"  consumer saw one seamless sequence of {len(out)} elements ✓")


def distributed_deadlock_demo(cluster: LocalCluster) -> None:
    print("== deadlock resolution across sites (Figure 13 on 2 sites) ==")
    net = Network(name="client")    # the default monitor, nothing else
    src, upper, lower, merged = net.channels_n(4, capacity=16,
                                              prefix="fig13")
    out = []
    net.add(Sequence(src.get_output_stream(), start=1, iterations=150,
                     name="Source"))
    # Mod and Merge, where the write block happens, run on the server
    server = cluster.client(1)
    server.run(CompositeProcess([
        ModuloRouter(src.get_input_stream(), upper.get_output_stream(),
                     lower.get_output_stream(), 10, name="Mod"),
        OrderedMerge(upper.get_input_stream(), lower.get_input_stream(),
                     merged.get_output_stream(), name="Merge")],
        name="ModMerge"))
    net.add(Collect(merged.get_input_stream(), out, name="Sink"))
    assert net.run(timeout=120)
    assert out == list(range(1, 151))
    for site, census in (("driver", net.census()),
                         (cluster.names[1], server.census())):
        grown = [g for g in census["growths"]
                 if g["cause"].startswith("parks")]
        print(f"  {site}: Parks' rule grew {len(grown)} channel(s)")
        for g in grown:
            print(f"    {g['channel']}: {g['old']} -> {g['new']} "
                  f"({g['cause']})")
    print("  all 150 values delivered ✓")


if __name__ == "__main__":
    with LocalCluster(3, mode="thread", name_prefix="ops") as cluster:
        placement_demo(cluster)
        live_migration_demo(cluster)
        distributed_deadlock_demo(cluster)
    print("cluster operations OK")
