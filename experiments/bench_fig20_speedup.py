"""Figure 20 — speedup vs number of workers (1..32).

The vertical axis is "relative to the speed of a 1 GHz Pentium III".
Asserts the figure's two ideal-curve inflection points (first class-C CPU
at worker 8, first class-E CPU at worker 27) and the widening gap between
static and dynamic speedup.
"""

import pytest

from experiments.conftest import emit
from experiments.simcluster import ideal_speed, report, sweep_workers


@pytest.mark.benchmark(group="fig20")
def test_fig20_regenerate(benchmark):
    rows = benchmark(sweep_workers, range(1, 33))
    emit("fig20", report.fig20(rows))
    increments = [ideal_speed(w + 1) - ideal_speed(w) for w in range(1, 34)]

    # increments[k] = speed(k+2) − speed(k+1) = the (k+2)-th worker's CPU.
    # inflection 1: worker 8 is the first class-C CPU: +1.00 after +1.71
    assert increments[5] == pytest.approx(1.71, abs=0.01)   # worker 7 (B)
    assert increments[6] == pytest.approx(1.00, abs=0.01)   # worker 8 (C)
    # inflection 2: worker 27 is the first class-E CPU: +0.80 after +0.99
    assert increments[24] == pytest.approx(0.99, abs=0.01)  # worker 26 (D)
    assert increments[25] == pytest.approx(0.80, abs=0.01)  # worker 27 (E)

    by_w = {r.workers: r for r in rows}
    # dynamic speedup strictly dominates static for all heterogeneous W
    for w in range(8, 33):
        assert by_w[w].dynamic_speed > by_w[w].static_speed
    # and the gap widens with scale (paper: 29.77 vs 22.42 at W=32)
    gap8 = by_w[8].dynamic_speed - by_w[8].static_speed
    gap32 = by_w[32].dynamic_speed - by_w[32].static_speed
    assert gap32 > gap8


@pytest.mark.benchmark(group="fig20-point")
def test_single_point_cost(benchmark):
    from experiments.simcluster import run_parallel

    benchmark(lambda: run_parallel(16, "dynamic"))
