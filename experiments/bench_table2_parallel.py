"""Table 2 — parallel execution: ideal / static / dynamic, 1–32 workers.

Regenerates every cell of the paper's Table 2 from the simulated lab and
asserts the section-5.2 claims: static collapses when the first slow CPU
joins, dynamic tracks ideal within startup overhead, and the overhead at
one worker is the paper's 6–7 %.  Also runs the homogeneous-cluster
control ablation (design choice #4 in DESIGN.md): with identical CPUs the
two disciplines tie, proving the dynamic win is heterogeneity, not magic.
"""

import pytest

from experiments.conftest import emit
from experiments.simcluster import (homogeneous_control, ideal_time, report,
                                    run_parallel, table2_rows)
from experiments.simcluster.paperdata import table2_by_workers


@pytest.mark.benchmark(group="table2")
def test_table2_regenerate(benchmark):
    paper = table2_by_workers()
    rows = benchmark(table2_rows)
    emit("table2", report.table2(rows))
    for row in rows:
        p = paper[row.workers]
        assert row.dynamic_time == pytest.approx(p.dynamic_time, rel=0.08)
        assert row.static_time == pytest.approx(p.static_time, rel=0.10)


@pytest.mark.benchmark(group="table2")
def test_claim_static_collapse_at_first_class_c(benchmark):
    t7, t8 = benchmark(lambda: tuple(run_parallel(w, "static").elapsed for w in (7, 8)))
    emit("claim_static_collapse", [
        "Static elapsed minutes around the 7->8 worker transition:",
        f"  W=7: {t7:.2f}   W=8: {t8:.2f}   (paper: time INCREASES)"])
    assert t8 > t7


@pytest.mark.benchmark(group="table2")
def test_claim_dynamic_overhead_small(benchmark):
    t1 = benchmark(lambda: run_parallel(1, "dynamic").elapsed)
    overhead = t1 / ideal_time(1) - 1
    emit("claim_overhead", [
        f"Dynamic overhead at 1 worker: {overhead:.1%} "
        "(paper: 'no more than 6% to 7%')"])
    assert 0.05 <= overhead <= 0.08


@pytest.mark.benchmark(group="table2")
def test_ablation_homogeneous_control(benchmark):
    control = benchmark(homogeneous_control, 8)
    emit("ablation_homogeneous", [
        "Ablation: 8 identical class-C CPUs (design choice #4):",
        f"  static  {control['static']:.3f} min",
        f"  dynamic {control['dynamic']:.3f} min",
        "  -> the disciplines tie; dynamic's win comes from heterogeneity."])
    assert control["dynamic"] == pytest.approx(control["static"], rel=0.01)


@pytest.mark.benchmark(group="table2-simulation")
@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_simulation_speed(benchmark, mode):
    """How fast the DES itself runs a 2048-task / 32-worker experiment."""
    benchmark(lambda: run_parallel(32, mode))
