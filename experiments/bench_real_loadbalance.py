"""Mechanism validation: real wall-clock load balancing on this machine.

The paper's Table 2 needed 25 computers; this benchmark reproduces its
*mechanism* at laptop scale: four workers with emulated heterogeneous
speeds (per-task slowdowns standing in for CPU classes A/B/C/E) run the
factorization farm under static and dynamic balancing on the real KPN
runtime.  The paper's qualitative result must hold in the measurement:

* dynamic elapsed < static elapsed (heterogeneous workers);
* results are identical, in identical order, across modes;
* dynamic task counts skew toward fast workers, static counts are equal.
"""

import time

import pytest

from experiments.conftest import emit
from repro.parallel import (FactorProducerTask, FactorResult, build_farm,
                            make_weak_key)


#: slowdown seconds per task, emulating speeds ~ (fast, 0.5x, 0.25x, 0.2x)
SLOWDOWNS = [0.0, 0.004, 0.012, 0.016]
N_TASKS = 48


def run_mode(mode: str, n):
    handle = build_farm(FactorProducerTask(n, max_tasks=N_TASKS),
                        n_workers=4, mode=mode, slowdowns=SLOWDOWNS)
    t0 = time.perf_counter()
    results = handle.run(timeout=300)
    elapsed = time.perf_counter() - t0
    counts = [w.tasks_processed for w in handle.harness.workers]
    return elapsed, results, counts


@pytest.mark.benchmark(group="real-loadbalance")
def test_real_static_vs_dynamic(benchmark):
    n, p, d = make_weak_key(bits=64, found_at_task=N_TASKS + 10, seed=33)

    static_times, dynamic_times = [], []
    results = {}

    def trial():
        e, results['static_res'], results['static_counts'] = run_mode("static", n)
        static_times.append(e)
        e, results['dynamic_res'], results['dynamic_counts'] = run_mode("dynamic", n)
        dynamic_times.append(e)

    benchmark.pedantic(trial, rounds=3, iterations=1)
    static_res = results['static_res']; dynamic_res = results['dynamic_res']
    static_counts = results['static_counts']; dynamic_counts = results['dynamic_counts']
    static_t = sorted(static_times)[1]
    dynamic_t = sorted(dynamic_times)[1]

    emit("real_loadbalance", [
        "Real execution, 4 heterogeneous workers (threads), "
        f"{N_TASKS} factoring tasks:",
        f"  static : {static_t * 1e3:8.1f} ms  tasks/worker {static_counts}",
        f"  dynamic: {dynamic_t * 1e3:8.1f} ms  tasks/worker {dynamic_counts}",
        f"  dynamic/static elapsed ratio: {dynamic_t / static_t:.2f} "
        "(paper: dynamic wins on heterogeneous workers)",
    ])

    # identical, identically ordered results (the 'equivalent to a single
    # worker' property), across both modes
    assert [r.task_index for r in static_res] == list(range(N_TASKS))
    assert [(r.task_index, r.p, r.d) for r in static_res] == \
        [(r.task_index, r.p, r.d) for r in dynamic_res]
    # static deals evenly; dynamic skews to the fast worker
    assert max(static_counts) - min(static_counts) <= 1
    assert dynamic_counts[0] == max(dynamic_counts)
    assert dynamic_counts[0] > N_TASKS // 4
    # the headline: dynamic beats static on wall clock
    assert dynamic_t < static_t


@pytest.mark.benchmark(group="real-farm")
@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_farm_throughput(benchmark, mode):
    """pytest-benchmark timing of a smaller farm run per mode."""
    n, _, _ = make_weak_key(bits=64, found_at_task=99, seed=7)

    def run():
        handle = build_farm(FactorProducerTask(n, max_tasks=16),
                            n_workers=4, mode=mode, slowdowns=SLOWDOWNS)
        return handle.run(timeout=300)

    results = benchmark(run)
    assert len(results) == 16
