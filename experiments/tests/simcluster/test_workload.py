"""Workload models and the task-variance effect on load balancing."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from experiments.simcluster.machine import homogeneous_inventory, paper_cpu_inventory
from experiments.simcluster.workload import (background_load_speeds,
                                             bimodal_works,
                                             coefficient_of_variation,
                                             lognormal_works, uniform_works,
                                             variance_experiment)


def test_uniform_works():
    assert uniform_works(4, 2.5) == [2.5] * 4


def test_lognormal_mean_approximately_right():
    works = lognormal_works(20000, mean_work=3.0, cv=0.5, seed=1)
    assert sum(works) / len(works) == pytest.approx(3.0, rel=0.05)


def test_lognormal_cv_approximately_right():
    works = lognormal_works(20000, mean_work=1.0, cv=0.8, seed=2)
    assert coefficient_of_variation(works) == pytest.approx(0.8, rel=0.1)


def test_lognormal_cv_zero_is_uniform():
    assert lognormal_works(5, 2.0, 0.0) == [2.0] * 5


def test_lognormal_deterministic_by_seed():
    assert lognormal_works(10, 1.0, 0.5, seed=9) == \
        lognormal_works(10, 1.0, 0.5, seed=9)


def test_bimodal_fraction():
    works = bimodal_works(10000, 1.0, 10.0, long_fraction=0.2, seed=3)
    long_count = sum(1 for w in works if w == 10.0)
    assert long_count == pytest.approx(2000, rel=0.15)


def test_cv_edge_cases():
    assert coefficient_of_variation([]) == 0.0
    assert coefficient_of_variation([5.0, 5.0]) == 0.0
    assert coefficient_of_variation([0.0, 0.0]) == 0.0


@given(st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=20, deadline=None)
def test_variance_dynamic_bounded_loss(cv):
    """Greedy on-demand dispatch is list scheduling — a 2-approximation,
    not an optimum — so a *lucky* static deal can beat it by up to one
    straggler task on the critical path.  The bound: dynamic's makespan
    never exceeds static's by more than the largest single task."""
    from experiments.simcluster.workload import lognormal_works

    n_workers, n_tasks = 6, 120
    works = lognormal_works(n_tasks, 1.0, cv, seed=11)
    result = variance_experiment(cv, n_workers=n_workers, n_tasks=n_tasks,
                                 seed=11)
    slack = max(works)
    assert result["dynamic"] <= result["static"] + slack + 1e-9
    if cv == 0.0:
        assert result["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_variance_advantage_grows_with_cv():
    """The dynamic win is a monotone-ish function of task variance: big
    at high cv, nil at cv=0 — quantifying the paper's claim that dynamic
    balancing handles work that 'may not be uniform'."""
    ratios = [variance_experiment(cv, n_workers=8, n_tasks=400, seed=5)["ratio"]
              for cv in (0.0, 1.0, 2.0)]
    assert ratios[0] == pytest.approx(1.0, abs=1e-6)
    assert ratios[1] > 1.03
    assert ratios[2] > ratios[1] * 0.95  # allow sampling noise, trend holds


def test_variance_experiment_reports_realized_cv():
    result = variance_experiment(0.5, n_workers=4, n_tasks=2000, seed=7)
    assert result["realized_cv"] == pytest.approx(0.5, rel=0.15)


def test_background_load_speeds():
    cpus = homogeneous_inventory(3, speed=2.0)
    speeds = background_load_speeds(cpus, [0.0, 0.5, 0.25])
    assert speeds == [2.0, 1.0, 1.5]


def test_background_load_validation():
    cpus = homogeneous_inventory(2)
    with pytest.raises(ValueError):
        background_load_speeds(cpus, [0.5])
    with pytest.raises(ValueError):
        background_load_speeds(cpus, [0.5, 1.0])


def test_variance_experiment_on_paper_inventory():
    """Heterogeneous CPUs *and* heterogeneous tasks: dynamic still wins."""
    cpus = paper_cpu_inventory()[:8]
    result = variance_experiment(1.0, n_tasks=400, seed=13, cpus=cpus)
    assert result["ratio"] > 1.2
