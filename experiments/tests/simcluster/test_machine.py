"""Machine inventory invariants (Table 1 / section 5.2)."""

import pytest

from experiments.simcluster.machine import (PAPER_CLASSES,
                                            homogeneous_inventory,
                                            paper_cpu_inventory,
                                            workers_fastest_first)


def test_inventory_totals_match_paper():
    assert sum(c.computers for c in PAPER_CLASSES) == 25
    assert sum(c.total_cpus for c in PAPER_CLASSES) == 34


def test_inventory_class_counts():
    by_name = {c.name: c for c in PAPER_CLASSES}
    assert by_name["A"].total_cpus == 1
    assert by_name["B"].total_cpus == 6
    assert by_name["C"].total_cpus == 15
    assert by_name["D"].total_cpus == 4  # 2 dual-CPU machines
    assert by_name["E"].total_cpus == 8  # the 8-way Xeon


def test_speeds_normalized_to_class_c():
    by_name = {c.name: c for c in PAPER_CLASSES}
    assert by_name["C"].speed == 1.00
    assert by_name["A"].speed == 1.93
    assert by_name["B"].speed == 1.71
    assert by_name["E"].speed == 0.80


def test_classes_sorted_fastest_first():
    speeds = [c.speed for c in PAPER_CLASSES]
    assert speeds == sorted(speeds, reverse=True)


def test_worker_allocation_order():
    cpus = workers_fastest_first(34)
    names = [c.cpu_class.name for c in cpus]
    assert names[0] == "A"
    assert names[1:7] == ["B"] * 6
    assert names[7:22] == ["C"] * 15       # worker 8 = first class C
    assert names[22:26] == ["D"] * 4
    assert names[26:] == ["E"] * 8         # worker 27 = first class E


def test_worker_allocation_bounds():
    with pytest.raises(ValueError):
        workers_fastest_first(0)
    with pytest.raises(ValueError):
        workers_fastest_first(35)


def test_homogeneous_inventory():
    cpus = homogeneous_inventory(5, speed=1.5)
    assert len(cpus) == 5
    assert all(c.speed == 1.5 for c in cpus)
