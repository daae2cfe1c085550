"""Discrete-event simulator: hand-checkable scenarios."""

import pytest

from experiments.simcluster.desim import EventQueue, simulate_farm
from experiments.simcluster.machine import Cpu, CpuClass, homogeneous_inventory


def cpus_with_speeds(*speeds):
    cls = [CpuClass(f"S{i}", s, "", 1, 1) for i, s in enumerate(speeds)]
    return [Cpu(i, c) for i, c in enumerate(cls)]


# ---------------------------------------------------------------------------
# EventQueue
# ---------------------------------------------------------------------------

def test_event_queue_fires_in_time_order():
    q = EventQueue()
    fired = []
    q.schedule(2.0, lambda: fired.append("b"))
    q.schedule(1.0, lambda: fired.append("a"))
    q.schedule(3.0, lambda: fired.append("c"))
    assert q.run() == 3.0
    assert fired == ["a", "b", "c"]


def test_event_queue_ties_fifo():
    q = EventQueue()
    fired = []
    for tag in ("first", "second", "third"):
        q.schedule(1.0, lambda t=tag: fired.append(t))
    q.run()
    assert fired == ["first", "second", "third"]


def test_event_queue_rejects_past():
    q = EventQueue()
    q.schedule(5.0, lambda: q.schedule(1.0, lambda: None))
    with pytest.raises(ValueError):
        q.run()


def test_event_queue_until_bound():
    q = EventQueue()
    fired = []
    q.schedule(1.0, lambda: fired.append(1))
    q.schedule(10.0, lambda: fired.append(10))
    q.run(until=5.0)
    assert fired == [1]


# ---------------------------------------------------------------------------
# static discipline
# ---------------------------------------------------------------------------

def test_static_single_worker_sum_of_work():
    res = simulate_farm(cpus_with_speeds(2.0), n_tasks=10, work_per_task=1.0,
                        mode="static")
    assert res.elapsed == pytest.approx(10 * 1.0 / 2.0)
    assert res.tasks_per_worker == [10]


def test_static_homogeneous_even_split():
    res = simulate_farm(homogeneous_inventory(4), n_tasks=8, work_per_task=1.0,
                        mode="static")
    assert res.tasks_per_worker == [2, 2, 2, 2]
    assert res.elapsed == pytest.approx(2.0)


def test_static_limited_by_slowest_worker():
    """Speeds 2 and 1, 10 tasks each: slow worker finishes at t=5."""
    res = simulate_farm(cpus_with_speeds(2.0, 1.0), n_tasks=20,
                        work_per_task=0.5, mode="static")
    assert res.elapsed == pytest.approx(10 * 0.5 / 1.0)


def test_static_round_robin_remainder():
    res = simulate_farm(homogeneous_inventory(3), n_tasks=7, work_per_task=1.0,
                        mode="static")
    assert res.tasks_per_worker == [3, 2, 2]
    assert res.elapsed == pytest.approx(3.0)


def test_static_startup_shifts_completion():
    res = simulate_farm(homogeneous_inventory(2), n_tasks=2, work_per_task=1.0,
                        mode="static", startup_per_worker=0.5)
    # worker 0 starts at 0.5, worker 1 at 1.0; both run one task
    assert res.elapsed == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# dynamic discipline
# ---------------------------------------------------------------------------

def test_dynamic_homogeneous_matches_static():
    static = simulate_farm(homogeneous_inventory(4), 100, 0.1, mode="static")
    dynamic = simulate_farm(homogeneous_inventory(4), 100, 0.1, mode="dynamic")
    assert dynamic.elapsed == pytest.approx(static.elapsed)


def test_dynamic_fast_worker_takes_more():
    res = simulate_farm(cpus_with_speeds(3.0, 1.0), n_tasks=40,
                        work_per_task=1.0, mode="dynamic")
    assert res.tasks_per_worker[0] == pytest.approx(30, abs=1)
    assert sum(res.tasks_per_worker) == 40


def test_dynamic_beats_static_on_heterogeneous():
    cpus = cpus_with_speeds(4.0, 1.0)
    static = simulate_farm(cpus, 40, 1.0, mode="static")
    dynamic = simulate_farm(cpus, 40, 1.0, mode="dynamic")
    assert dynamic.elapsed < static.elapsed
    # perfect balance: total work 40 at total speed 5 -> 8.0
    assert dynamic.elapsed == pytest.approx(8.0, rel=0.2)


def test_dynamic_utilization_near_full():
    res = simulate_farm(cpus_with_speeds(2.0, 1.0, 0.5), 200, 1.0,
                        mode="dynamic")
    assert all(u > 0.95 for u in res.utilization)


def test_static_utilization_poor_for_slow_mix():
    res = simulate_farm(cpus_with_speeds(4.0, 1.0), 40, 1.0, mode="static")
    # the fast worker idles 3/4 of the run
    assert res.utilization[0] < 0.5


def test_per_task_overhead_added_unscaled():
    res = simulate_farm(cpus_with_speeds(2.0), 10, 1.0, mode="dynamic",
                        per_task_overhead=0.25)
    assert res.elapsed == pytest.approx(10 * (0.5 + 0.25))


def test_task_works_vector():
    res = simulate_farm(cpus_with_speeds(1.0), 3, 0.0, mode="dynamic",
                        task_works=[1.0, 2.0, 3.0])
    assert res.elapsed == pytest.approx(6.0)


def test_task_works_length_mismatch():
    with pytest.raises(ValueError):
        simulate_farm(cpus_with_speeds(1.0), 3, 1.0, task_works=[1.0])


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        simulate_farm(cpus_with_speeds(1.0), 1, 1.0, mode="quantum")


def test_zero_tasks():
    res = simulate_farm(cpus_with_speeds(1.0, 1.0), 0, 1.0, mode="dynamic")
    assert res.elapsed == 0.0
    assert res.tasks_per_worker == [0, 0]
