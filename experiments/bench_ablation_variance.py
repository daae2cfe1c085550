"""Ablation: task-duration variance vs load-balancing discipline.

The paper's dynamic-balancing case covers environments "where the amount
of work required by each task may not be uniform".  The main experiment
holds task cost constant (batching fixes it); this ablation varies it:
identical CPUs, lognormal task durations with increasing coefficient of
variation.  Expectation: the static/dynamic elapsed-time ratio starts at
1.0 (cv=0 — the homogeneous control) and grows with cv, isolating the
*task*-heterogeneity component of the dynamic win from the
*CPU*-heterogeneity component shown in Table 2.
"""

import pytest

from experiments.conftest import emit, fmt_row
from experiments.simcluster.workload import variance_experiment

CVS = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]


@pytest.mark.benchmark(group="variance-sweep")
def test_variance_sweep(benchmark):
    rows = benchmark(lambda: [variance_experiment(cv, n_workers=8,
                                                  n_tasks=512, seed=17)
                              for cv in CVS])
    lines = ["Ablation: task-duration variance (8 identical CPUs, 512 tasks)",
             fmt_row(("cv", "static", "dynamic", "ratio"), (5, 9, 9, 7))]
    for r in rows:
        lines.append(fmt_row((r["cv"], r["static"], r["dynamic"],
                              r["ratio"]), (5, 9, 9, 7)))
    emit("ablation_variance", lines)

    ratios = [r["ratio"] for r in rows]
    assert ratios[0] == pytest.approx(1.0, abs=1e-6)
    assert ratios[-1] > 1.10          # heavy variance: dynamic clearly wins
    # broadly increasing: the last is the largest up to sampling noise
    assert max(ratios) == pytest.approx(ratios[-1], rel=0.2)


@pytest.mark.benchmark(group="variance-point")
def test_variance_point_cost(benchmark):
    benchmark(variance_experiment, 1.0, 8, 512)
