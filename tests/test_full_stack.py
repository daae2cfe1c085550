"""Full-stack integration: the paper's complete workflow, end to end.

One test per deployment story:

* thread-mode: registry + servers + speed-profiled placement + dynamic
  farm + early stop + orderly global shutdown;
* process-mode (slow-marked): the same through real OS processes.
"""

import time

import pytest

from repro.errors import RemoteError
from repro.analysis import graph_findings
from repro.kpn import Network
from repro.distributed import (LocalCluster, RegistryClient, ServerClient,
                               profile_servers)
from repro.parallel import (FactorConsumerResult, FactorProducerTask,
                            FactorResult, build_farm, make_weak_key)


def run_paper_workflow(cluster: LocalCluster) -> None:
    """Build → check → distribute → run → verify → confirm cleanup."""
    # 1. locate servers through the registry, like the paper's RMI registry
    names = cluster.registry.list()
    assert len(names) == len(cluster.clients)
    client0 = ServerClient.from_registry(cluster.registry, names[0])
    try:
        assert client0.ping() == names[0]
    finally:
        client0.close()

    # 2. profile and build the farm
    profiles = profile_servers(cluster)
    assert all(p.load == 0 for p in profiles)
    n, p, d = make_weak_key(bits=64, found_at_task=12, seed=77)
    handle = build_farm(FactorProducerTask(n, max_tasks=500), n_workers=4,
                        mode="dynamic",
                        stop_when=FactorConsumerResult.stop_when,
                        cluster=cluster)

    # 3. static validation before running
    issues = graph_findings(handle.network)
    assert not any(i.severity == "error" for i in issues)

    # 4. run; the answer must come back in task order with the hit last
    results = handle.run(timeout=300)
    assert results[-1].found and results[-1].p == p
    assert [r.task_index for r in results] == list(range(len(results)))

    # 5. early stop must leave no remote workers running (paper: "No
    # remote processes are left running, consuming resources")
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        stats = cluster.stats()
        if all(s["live_threads"] == 0 for s in stats.values()):
            break
        time.sleep(0.05)
    stats = cluster.stats()
    assert all(s["live_threads"] == 0 for s in stats.values()), stats
    assert all(s["failures"] == [] for s in stats.values()), stats


def test_full_workflow_thread_cluster():
    with LocalCluster(3, mode="thread", name_prefix="full") as cluster:
        run_paper_workflow(cluster)


@pytest.mark.slow
def test_full_workflow_process_cluster():
    with LocalCluster(2, mode="process", name_prefix="fullp") as cluster:
        run_paper_workflow(cluster)


def test_two_farms_back_to_back_same_cluster():
    """Server reuse: a second computation on the same servers must not
    inherit state from the first."""
    with LocalCluster(2, mode="thread", name_prefix="reuse") as cluster:
        for round_index in range(2):
            n, p, d = make_weak_key(bits=64, found_at_task=6,
                                    seed=100 + round_index)
            handle = build_farm(FactorProducerTask(n, max_tasks=200),
                                n_workers=3, mode="dynamic",
                                stop_when=FactorConsumerResult.stop_when,
                                cluster=cluster)
            results = handle.run(timeout=300)
            assert results[-1].p == p
        stats = cluster.stats()
        assert all(s["processes_hosted"] == 6 for s in stats.values()) or \
            sum(s["processes_hosted"] for s in stats.values()) == 6
