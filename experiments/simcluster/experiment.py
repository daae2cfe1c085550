"""Experiment drivers regenerating the paper's evaluation (section 5.2).

Calibration (all derived from the paper's own numbers, documented in
EXPERIMENTS.md):

* **work per task** — Table 1's class-C sequential run: 22.50 minutes for
  2048 tasks on a speed-1.00 CPU → 22.50/2048 C-minutes per task;
* **per-task overhead** — Table 2's 1-worker dynamic row: 12.39 measured
  vs 11.63 ideal → 0.76 min over 2048 tasks of serialization + network
  cost (the paper: "no more than 6% to 7% for this example");
* **per-worker startup** — Table 2's 32-worker dynamic row after removing
  per-task overhead: ≈0.0033 min per worker of sequential process
  distribution ("this startup overhead increases as the number of
  workers increases and accounts for virtually the entire difference
  between the ideal case and the dynamically load balanced case").

With these three constants fixed, every other cell of Table 2 and both
figures are *predictions* of the simulator, not fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from experiments.simcluster.desim import FarmSimResult, simulate_farm
from experiments.simcluster.machine import (Cpu, PAPER_CLASSES,
                                            homogeneous_inventory,
                                            paper_cpu_inventory,
                                            workers_fastest_first)
from experiments.simcluster.paperdata import BATCH, TABLE1, TASKS

__all__ = [
    "Calibration", "DEFAULT_CALIBRATION", "ideal_time", "ideal_speed",
    "sequential_times", "run_parallel", "ExperimentRow", "sweep_workers",
    "table2_rows", "speed_of", "homogeneous_control",
]

#: the class-C normalization constant (minutes) from Table 1
C_SEQUENTIAL_MIN = 22.50


@dataclass(frozen=True)
class Calibration:
    """The three model constants (minutes)."""

    n_tasks: int = TASKS
    batch: int = BATCH
    #: work per task in C-minutes (speed-1.0 CPU minutes)
    work_per_task: float = C_SEQUENTIAL_MIN / TASKS
    #: serialization + network cost per task (not speed-scaled)
    per_task_overhead: float = (12.39 - 11.63) / TASKS
    #: sequential worker-process distribution cost per worker
    startup_per_worker: float = 0.0033


DEFAULT_CALIBRATION = Calibration()


def speed_of(elapsed_min: float) -> float:
    """Normalized speed: how many 1 GHz P-IIIs this run was worth."""
    return C_SEQUENTIAL_MIN / elapsed_min


def ideal_speed(n_workers: int) -> float:
    """"The speed is simply the sum of the speeds for all of the CPUs in
    use for a particular run."""
    return sum(cpu.speed for cpu in workers_fastest_first(n_workers))


def ideal_time(n_workers: int) -> float:
    """"the time is scaled from the execution time for a class C CPU
    using this computed ideal speed."""
    return C_SEQUENTIAL_MIN / ideal_speed(n_workers)


def sequential_times(calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> List[dict]:
    """Regenerate Table 1: simulated sequential run on one CPU per class.

    The sequential baseline invokes tasks directly (no process network →
    no per-task overhead, no startup).
    """
    rows = []
    paper = {r.cpu_class: r for r in TABLE1}
    for cls in PAPER_CLASSES:
        time_min = calibration.n_tasks * calibration.work_per_task / cls.speed
        rows.append({
            "class": cls.name,
            "speed": cls.speed,
            "description": cls.description,
            "time_model": time_min,
            "time_paper": paper[cls.name].time_min,
        })
    return rows


def run_parallel(n_workers: int, mode: str,
                 calibration: Calibration = DEFAULT_CALIBRATION,
                 cpus: Optional[Sequence[Cpu]] = None) -> FarmSimResult:
    """One simulated parallel run on the paper's worker allocation."""
    cpus = cpus if cpus is not None else workers_fastest_first(n_workers)
    return simulate_farm(
        cpus, calibration.n_tasks, calibration.work_per_task, mode=mode,
        per_task_overhead=calibration.per_task_overhead,
        startup_per_worker=calibration.startup_per_worker)


@dataclass
class ExperimentRow:
    """One line of the regenerated Table 2 / Figures 19–20."""

    workers: int
    ideal_time: float
    ideal_speed: float
    static_time: float
    static_speed: float
    dynamic_time: float
    dynamic_speed: float
    static_tasks_per_worker: List[int]
    dynamic_tasks_per_worker: List[int]


def sweep_workers(worker_counts: Sequence[int],
                  calibration: Calibration = DEFAULT_CALIBRATION
                  ) -> List[ExperimentRow]:
    """Run static + dynamic simulations for each worker count."""
    rows = []
    for w in worker_counts:
        static = run_parallel(w, "static", calibration)
        dynamic = run_parallel(w, "dynamic", calibration)
        rows.append(ExperimentRow(
            workers=w,
            ideal_time=ideal_time(w), ideal_speed=ideal_speed(w),
            static_time=static.elapsed, static_speed=speed_of(static.elapsed),
            dynamic_time=dynamic.elapsed,
            dynamic_speed=speed_of(dynamic.elapsed),
            static_tasks_per_worker=static.tasks_per_worker,
            dynamic_tasks_per_worker=dynamic.tasks_per_worker))
    return rows


def table2_rows(calibration: Calibration = DEFAULT_CALIBRATION
                ) -> List[ExperimentRow]:
    """The six worker counts the paper tabulates."""
    return sweep_workers([1, 2, 4, 8, 16, 32], calibration)


def homogeneous_control(n_workers: int = 8,
                        calibration: Calibration = DEFAULT_CALIBRATION
                        ) -> Dict[str, float]:
    """Ablation: on identical CPUs, static and dynamic should tie.

    Returns elapsed minutes for both modes on n identical class-C CPUs.
    """
    cpus = homogeneous_inventory(n_workers)
    static = simulate_farm(cpus, calibration.n_tasks, calibration.work_per_task,
                           mode="static",
                           per_task_overhead=calibration.per_task_overhead,
                           startup_per_worker=calibration.startup_per_worker)
    dynamic = simulate_farm(cpus, calibration.n_tasks, calibration.work_per_task,
                            mode="dynamic",
                            per_task_overhead=calibration.per_task_overhead,
                            startup_per_worker=calibration.startup_per_worker)
    return {"static": static.elapsed, "dynamic": dynamic.elapsed}
