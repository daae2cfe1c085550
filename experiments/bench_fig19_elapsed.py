"""Figure 19 — elapsed time vs number of workers (1..32).

Regenerates the full curve triplet (ideal line, static diamonds, dynamic
triangles) as a data table; the shape assertions encode what the figure
shows: dynamic hugs ideal, static departs at worker 8 and stays above.
"""

import pytest

from experiments.conftest import emit
from experiments.simcluster import report, sweep_workers


@pytest.mark.benchmark(group="fig19")
def test_fig19_regenerate(benchmark):
    rows = benchmark(sweep_workers, range(1, 33))
    emit("fig19", report.fig19(rows))

    by_w = {r.workers: r for r in rows}
    # ideal is the floor everywhere
    for r in rows:
        assert r.ideal_time <= r.dynamic_time + 1e-9
        assert r.ideal_time <= r.static_time + 1e-9
    # dynamic stays within 25% of ideal across the sweep (startup overhead)
    for r in rows:
        assert r.dynamic_time <= r.ideal_time * 1.25
    # static departs sharply once heterogeneity begins (W >= 8)
    assert by_w[8].static_time > by_w[8].ideal_time * 1.6
    # the static curve's bump at W=8 exceeds its value at W=7
    assert by_w[8].static_time > by_w[7].static_time


@pytest.mark.benchmark(group="fig19-sweep")
def test_full_sweep_cost(benchmark):
    """Cost of regenerating the entire figure (64 simulations)."""
    benchmark(lambda: sweep_workers(range(1, 33)))
