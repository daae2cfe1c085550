"""The regenerated evaluation vs the paper's published numbers.

Tolerances: the simulator is calibrated from exactly three paper numbers
(class-C sequential time, 1-worker dynamic overhead, 32-worker dynamic
residual); every other cell is a prediction and must land close to the
paper — and every *qualitative* claim of section 5.2 must hold exactly.
"""

import pytest

from experiments.simcluster import (TABLE1, TABLE2, homogeneous_control,
                                    ideal_speed, ideal_time, run_parallel,
                                    sequential_times, speed_of, sweep_workers,
                                    table2_rows)
from experiments.simcluster.paperdata import table2_by_workers


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def test_table1_within_one_percent():
    for row in sequential_times():
        assert row["time_model"] == pytest.approx(row["time_paper"], rel=0.01), \
            f"class {row['class']}"


def test_table1_speed_time_consistency_in_paper_data():
    """The paper's own rows satisfy time ≈ 22.50 / speed."""
    for row in TABLE1:
        if row.speed is not None:
            assert row.time_min == pytest.approx(22.50 / row.speed, rel=0.01)


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------

def test_ideal_columns_match_paper():
    paper = table2_by_workers()
    for w, row in paper.items():
        assert ideal_time(w) == pytest.approx(row.ideal_time, rel=0.01), w
        assert ideal_speed(w) == pytest.approx(row.ideal_speed, rel=0.01), w


def test_dynamic_times_close_to_paper():
    paper = table2_by_workers()
    for row in table2_rows():
        expect = paper[row.workers].dynamic_time
        assert row.dynamic_time == pytest.approx(expect, rel=0.08), \
            f"W={row.workers}: model {row.dynamic_time:.2f} vs paper {expect}"


def test_static_times_close_to_paper():
    paper = table2_by_workers()
    for row in table2_rows():
        expect = paper[row.workers].static_time
        assert row.static_time == pytest.approx(expect, rel=0.10), \
            f"W={row.workers}: model {row.static_time:.2f} vs paper {expect}"


def test_speed_column_definition():
    for row in table2_rows():
        assert row.dynamic_speed == pytest.approx(22.50 / row.dynamic_time)


# ---------------------------------------------------------------------------
# the paper's qualitative claims (section 5.2)
# ---------------------------------------------------------------------------

def test_static_time_increases_when_first_class_c_added():
    """'When the first CPU from class C is added to the computation, the
    elapsed time actually *increases* and the speedup *decreases*.'"""
    t7 = run_parallel(7, "static").elapsed
    t8 = run_parallel(8, "static").elapsed
    assert t8 > t7
    assert speed_of(t8) < speed_of(t7)


def test_dynamic_time_does_not_increase_at_8():
    t7 = run_parallel(7, "dynamic").elapsed
    t8 = run_parallel(8, "dynamic").elapsed
    assert t8 < t7


def test_dynamic_overhead_6_to_7_percent_at_1_worker():
    """'this additional overhead is no more than 6% to 7%'"""
    t1 = run_parallel(1, "dynamic").elapsed
    overhead = t1 / ideal_time(1) - 1.0
    assert 0.05 <= overhead <= 0.08


def test_dynamic_between_ideal_and_static_everywhere():
    for row in sweep_workers(range(2, 33)):
        assert row.ideal_time <= row.dynamic_time <= row.static_time + 1e-9, \
            f"W={row.workers}"


def test_ideal_speed_inflection_points():
    """Figure 20: inflections at 7→8 (first class C) and 26→27 (first E)."""
    increments = [ideal_speed(w + 1) - ideal_speed(w) for w in range(1, 34)]
    # increment drops sharply when the first class-C worker (8th) arrives
    assert increments[6] < increments[5] * 0.7
    # and again when the first class-E worker (27th) arrives:
    # increments[k] is the (k+2)-th worker's CPU speed
    assert increments[24] > increments[25]
    assert increments[25] == pytest.approx(0.80, abs=0.01)


def test_static_speedup_saturates_dynamic_does_not():
    rows = {r.workers: r for r in table2_rows()}
    # paper: static speed 22.42 vs dynamic 29.77 at 32 workers
    assert rows[32].dynamic_speed > rows[32].static_speed * 1.2


def test_static_tasks_evenly_dealt():
    res = run_parallel(8, "static")
    assert max(res.tasks_per_worker) - min(res.tasks_per_worker) <= 1


def test_dynamic_tasks_proportional_to_speed():
    res = run_parallel(8, "dynamic")
    counts = res.tasks_per_worker
    # worker 0 is class A (1.93), worker 7 is class C (1.00)
    assert counts[0] > counts[7] * 1.5


def test_dynamic_workers_all_busy():
    res = run_parallel(16, "dynamic")
    assert all(u > 0.9 for u in res.utilization)


# ---------------------------------------------------------------------------
# ablation: homogeneous control — the dynamic advantage vanishes
# ---------------------------------------------------------------------------

def test_homogeneous_static_equals_dynamic():
    control = homogeneous_control(8)
    assert control["dynamic"] == pytest.approx(control["static"], rel=0.01)


# ---------------------------------------------------------------------------
# full-sweep sanity for the figures
# ---------------------------------------------------------------------------

def test_sweep_monotone_ideal_speed():
    rows = sweep_workers(range(1, 33))
    speeds = [r.ideal_speed for r in rows]
    assert speeds == sorted(speeds)


def test_sweep_elapsed_dynamic_monotone_nonincreasing():
    rows = sweep_workers(range(1, 33))
    times = [r.dynamic_time for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(times, times[1:]))
