"""Simulated heterogeneous cluster (substitute for the paper's lab).

A discrete-event simulation (:mod:`~experiments.simcluster.desim`) of the
paper's exact 34-CPU inventory (:mod:`~experiments.simcluster.machine`), driven
by experiment functions (:mod:`~experiments.simcluster.experiment`) calibrated
from three of the paper's own measurements; everything else it produces —
the rest of Table 2, the static-balancing collapse at 8 workers, the
inflection points of Figure 20 — is prediction.  The paper's published
numbers live in :mod:`~experiments.simcluster.paperdata` for side-by-side
comparison.
"""

from experiments.simcluster.desim import EventQueue, FarmSimResult, simulate_farm
from experiments.simcluster.experiment import (Calibration,
                                               DEFAULT_CALIBRATION,
                                               ExperimentRow,
                                               homogeneous_control,
                                               ideal_speed, ideal_time,
                                               run_parallel, sequential_times,
                                               speed_of, sweep_workers,
                                               table2_rows)
from experiments.simcluster.machine import (Cpu, CpuClass, PAPER_CLASSES,
                                            homogeneous_inventory,
                                            paper_cpu_inventory,
                                            workers_fastest_first)
from experiments.simcluster.paperdata import (BATCH, TABLE1, TABLE2, TASKS,
                                              Table1Row, Table2Row,
                                              table2_by_workers)

__all__ = [
    "EventQueue", "FarmSimResult", "simulate_farm",
    "Calibration", "DEFAULT_CALIBRATION", "ExperimentRow",
    "homogeneous_control", "ideal_speed", "ideal_time", "run_parallel",
    "sequential_times", "speed_of", "sweep_workers", "table2_rows",
    "Cpu", "CpuClass", "PAPER_CLASSES", "homogeneous_inventory",
    "paper_cpu_inventory", "workers_fastest_first",
    "BATCH", "TABLE1", "TABLE2", "TASKS", "Table1Row", "Table2Row",
    "table2_by_workers",
]
