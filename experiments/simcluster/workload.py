"""Task workload models for the simulated cluster.

The paper's experiment uses deliberately uniform tasks ("each task tested
32 even values of D"), but its dynamic-balancing argument also covers
"heterogeneous environments where the amount of work required by each
task may not be uniform".  This module generates non-uniform task-work
vectors so that claim can be quantified (the variance ablation
benchmark): even on *identical* CPUs, dynamic dispatch beats static once
task durations vary.

Also included: a competing-load model (the paper reports CPU time rather
than elapsed time precisely to dodge "other background processes") that
inflates per-CPU service times by a background factor.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

from experiments.simcluster.desim import FarmSimResult, simulate_farm
from experiments.simcluster.machine import Cpu, homogeneous_inventory

__all__ = ["uniform_works", "lognormal_works", "bimodal_works",
           "coefficient_of_variation", "variance_experiment",
           "background_load_speeds"]


def uniform_works(n_tasks: int, work: float) -> List[float]:
    return [work] * n_tasks


def lognormal_works(n_tasks: int, mean_work: float, cv: float,
                    seed: int = 0) -> List[float]:
    """Lognormal task durations with the requested mean and coefficient
    of variation (cv = stddev/mean); cv=0 degenerates to uniform."""
    if cv <= 0:
        return uniform_works(n_tasks, mean_work)
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean_work) - sigma2 / 2.0
    rng = random.Random(seed)
    return [rng.lognormvariate(mu, math.sqrt(sigma2)) for _ in range(n_tasks)]


def bimodal_works(n_tasks: int, short: float, long: float,
                  long_fraction: float = 0.1, seed: int = 0) -> List[float]:
    """Mostly-short tasks with occasional stragglers (the worst case for
    static assignment: one queue eats several stragglers)."""
    rng = random.Random(seed)
    return [long if rng.random() < long_fraction else short
            for _ in range(n_tasks)]


def coefficient_of_variation(works: Sequence[float]) -> float:
    n = len(works)
    if n == 0:
        return 0.0
    mean = sum(works) / n
    if mean == 0:
        return 0.0
    var = sum((w - mean) ** 2 for w in works) / n
    return math.sqrt(var) / mean


def variance_experiment(cv: float, n_workers: int = 8, n_tasks: int = 512,
                        mean_work: float = 1.0, seed: int = 0,
                        cpus: Optional[Sequence[Cpu]] = None) -> dict:
    """Static vs dynamic on identical CPUs with task-duration variance.

    Returns elapsed times and their ratio; ratio > 1 means dynamic wins.
    """
    cpus = list(cpus) if cpus is not None else homogeneous_inventory(n_workers)
    works = lognormal_works(n_tasks, mean_work, cv, seed=seed)
    static = simulate_farm(cpus, n_tasks, mean_work, mode="static",
                           task_works=works)
    dynamic = simulate_farm(cpus, n_tasks, mean_work, mode="dynamic",
                            task_works=works)
    return {
        "cv": cv,
        "static": static.elapsed,
        "dynamic": dynamic.elapsed,
        "ratio": static.elapsed / dynamic.elapsed if dynamic.elapsed else 1.0,
        "realized_cv": coefficient_of_variation(works),
    }


def background_load_speeds(cpus: Sequence[Cpu], load_fractions: Sequence[float]):
    """Effective speeds under competing load: a CPU donating fraction f of
    its cycles to background work runs our tasks at speed·(1−f).

    Returns (effective_speed_list) aligned with ``cpus`` — feed them into
    a custom inventory for "computers ... may have different competing
    workloads" experiments.
    """
    if len(cpus) != len(load_fractions):
        raise ValueError("one load fraction per CPU")
    out = []
    for cpu, f in zip(cpus, load_fractions):
        if not 0.0 <= f < 1.0:
            raise ValueError("load fraction must be in [0, 1)")
        out.append(cpu.speed * (1.0 - f))
    return out
