"""Ablation: worker-task batch size (design choice #2).

"The batch size of 32 struck a balance between computation and
communication that prevented the producer and consumer tasks from
creating bottlenecks."  We sweep the batch size on the simulated cluster
(total work held constant, so fewer/larger vs many/smaller tasks) and
verify the U-shape: tiny batches drown in per-task overhead, huge batches
lose load-balance granularity on heterogeneous workers.
"""

import pytest

from experiments.conftest import emit, fmt_row
from experiments.simcluster import Calibration, DEFAULT_CALIBRATION
from experiments.simcluster.desim import simulate_farm
from experiments.simcluster.machine import workers_fastest_first
from experiments.simcluster.paperdata import BATCH, TASKS

TOTAL_DIFFERENCES = TASKS * BATCH  # the experiment's fixed search space


def elapsed_for_batch(batch: int, workers: int = 16) -> float:
    n_tasks = TOTAL_DIFFERENCES // batch
    cal = DEFAULT_CALIBRATION
    work_per_task = cal.work_per_task * batch / BATCH
    res = simulate_farm(workers_fastest_first(workers), n_tasks,
                        work_per_task, mode="dynamic",
                        per_task_overhead=cal.per_task_overhead,
                        startup_per_worker=cal.startup_per_worker)
    return res.elapsed


@pytest.mark.benchmark(group="batch-sweep")
def test_batch_sweep_shape(benchmark):
    batches = [1, 2, 4, 8, 16, 32, 64, 256, 1024, 4096]
    times = benchmark(lambda: {b: elapsed_for_batch(b) for b in batches})
    lines = ["Ablation: batch size sweep (16 workers, dynamic, minutes)",
             fmt_row(("batch", "tasks", "elapsed"), (6, 8, 9))]
    for b in batches:
        lines.append(fmt_row((b, TOTAL_DIFFERENCES // b, times[b]), (6, 8, 9)))
    best = min(times, key=times.get)
    lines.append(f"best batch in sweep: {best} (paper chose {BATCH})")
    emit("ablation_batchsize", lines)

    # tiny batches pay heavy per-task overhead
    assert times[1] > times[32] * 1.5
    # huge batches lose granularity (tail imbalance on heterogeneous CPUs)
    assert times[4096] > times[32] * 1.2
    # the paper's choice sits in the flat bottom of the U
    assert times[32] <= min(times.values()) * 1.10


@pytest.mark.benchmark(group="batch-point")
def test_batch_point_cost(benchmark):
    benchmark(elapsed_for_batch, 32)
