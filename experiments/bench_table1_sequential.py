"""Table 1 — sequential execution per CPU class.

Regenerates the paper's Table 1 on the simulated lab (model column) next
to the published numbers, and benchmarks the *real* sequential baseline
("directly invoking the run methods of the producer, worker, and consumer
tasks without the use of process networks") at laptop scale.
"""

import pytest

from experiments.conftest import emit
from experiments.simcluster import report, sequential_times
from repro.parallel import factor_search_sequential, make_weak_key


@pytest.mark.benchmark(group="table1")
def test_table1_regenerate(benchmark):
    rows = benchmark(sequential_times)
    emit("table1", report.table1(rows))
    for r in rows:
        assert r["time_model"] == pytest.approx(r["time_paper"], rel=0.01)


@pytest.mark.benchmark(group="table1-real-sequential")
def test_sequential_factoring_baseline(benchmark):
    """Real CPU time for the sequential task chain (scaled-down key).

    This is the measurement the paper's Table 1 makes at 1024-bit/2048
    task scale; the per-task cost measured here feeds the real-execution
    load-balancing benchmark.
    """
    n, p, d = make_weak_key(bits=64, found_at_task=31, seed=20)

    def run():
        return factor_search_sequential(n)

    result = benchmark(run)
    assert result.p == p
