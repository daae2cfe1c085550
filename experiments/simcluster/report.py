"""The simulated evaluation, rendered: one function per paper artefact.

``table1``, ``table2``, ``fig19`` and ``fig20`` each render one artefact
as a title line followed by a markdown table, with the paper's published
numbers alongside the model's.  They are the only formatters of those
artefacts: ``python -m experiments <which>`` prints them, the benchmark
scripts persist them under ``experiments/out/``, and ``generate_report()``
assembles them — plus the §5.2 claims and the task-variance ablation —
into one markdown document that tests pin to the simulator's actual
output (documentation that cannot rot).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from experiments.simcluster.experiment import (ExperimentRow,
                                               homogeneous_control,
                                               ideal_speed, ideal_time,
                                               run_parallel, sequential_times,
                                               sweep_workers, table2_rows)
from experiments.simcluster.paperdata import table2_by_workers
from experiments.simcluster.workload import variance_experiment

__all__ = ["table1", "table2", "fig19", "fig20", "inflections",
           "generate_report"]

#: the worker counts Figures 19 and 20 sweep
SWEEP = range(1, 33)


def _md_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def table1(rows: Optional[List[Dict]] = None) -> List[str]:
    """Table 1: sequential time per CPU class, model next to paper."""
    rows = sequential_times() if rows is None else rows
    cells = [[r["class"], f"{r['speed']:.2f}", f"{r['time_model']:.2f}",
              f"{r['time_paper']:.2f}",
              f"{(r['time_model'] / r['time_paper'] - 1) * 100:+.1f}%",
              r["description"]]
             for r in rows]
    return ["Table 1 — sequential execution (minutes; speed vs 1 GHz "
            "P-III)",
            *_md_table(["class", "speed", "model", "paper", "Δ", "CPU"],
                       cells)]


def table2(rows: Optional[Sequence[ExperimentRow]] = None) -> List[str]:
    """Table 2: ideal / static / dynamic at 1, 2, 4, 8, 16, 32 workers."""
    rows = table2_rows() if rows is None else rows
    paper = table2_by_workers()
    cells = []
    for row in rows:
        p = paper[row.workers]
        cells.append([str(row.workers), f"{row.ideal_time:.2f}",
                      f"{row.ideal_speed:.2f}",
                      f"{row.static_time:.2f}", f"{p.static_time:.2f}",
                      f"{row.dynamic_time:.2f}", f"{p.dynamic_time:.2f}"])
    return ["Table 2 — parallel execution (minutes / normalized speed)",
            *_md_table(["W", "ideal", "ideal speed", "static (model)",
                        "static (paper)", "dynamic (model)",
                        "dynamic (paper)"], cells)]


def fig19(rows: Optional[Sequence[ExperimentRow]] = None) -> List[str]:
    """Figure 19: elapsed time against workers, 1..32."""
    rows = sweep_workers(SWEEP) if rows is None else rows
    cells = [[str(r.workers), f"{r.ideal_time:.2f}", f"{r.static_time:.2f}",
              f"{r.dynamic_time:.2f}"] for r in rows]
    return ["Figure 19 — elapsed time (minutes) vs workers",
            *_md_table(["W", "ideal", "static", "dynamic"], cells)]


def inflections() -> str:
    """The two ideal-speed inflection points Figure 20 shows."""
    increments = [ideal_speed(w + 1) - ideal_speed(w) for w in range(1, 34)]
    return (f"Ideal-speed inflections: worker 8 adds {increments[6]:.2f} "
            f"(was {increments[5]:.2f}) — first class-C CPU; worker 27 adds "
            f"{increments[25]:.2f} (was {increments[24]:.2f}) — first "
            "class-E CPU.")


def fig20(rows: Optional[Sequence[ExperimentRow]] = None) -> List[str]:
    """Figure 20: speedup against workers, 1..32, and its inflections."""
    rows = sweep_workers(SWEEP) if rows is None else rows
    cells = [[str(r.workers), f"{r.ideal_speed:.2f}",
              f"{r.static_speed:.2f}", f"{r.dynamic_speed:.2f}"]
             for r in rows]
    return ["Figure 20 — speedup (speed normalized to 1 GHz P-III) vs "
            "workers",
            *_md_table(["W", "ideal", "static", "dynamic"], cells),
            "", inflections()]


def _section(level: str, artefact: List[str]) -> List[str]:
    return [f"{level} {artefact[0]}", *artefact[1:], ""]


def generate_report(sweep: bool = True) -> str:
    """The full evaluation as a markdown string."""
    parts: List[str] = ["# Regenerated evaluation report", ""]
    parts += _section("##", table1())
    parts += _section("##", table2())

    # headline claims
    t7 = run_parallel(7, "static").elapsed
    t8 = run_parallel(8, "static").elapsed
    overhead = run_parallel(1, "dynamic").elapsed / ideal_time(1) - 1
    control = homogeneous_control(8)
    parts += [
        "## Section 5.2 claims",
        "",
        f"* static elapsed time *increases* at the 7→8 worker transition: "
        f"{t7:.2f} → {t8:.2f} minutes (paper: same direction);",
        f"* dynamic overhead at one worker: {overhead:.1%} "
        f"(paper: \"no more than 6% to 7%\");",
        f"* homogeneous control: static {control['static']:.2f} vs dynamic "
        f"{control['dynamic']:.2f} minutes — the disciplines tie without "
        "heterogeneity.",
        "",
    ]

    if sweep:
        sweep_rows = sweep_workers(SWEEP)
        parts += ["## Figures 19–20 — full worker sweep", ""]
        parts += _section("###", fig19(sweep_rows))
        parts += _section("###", fig20(sweep_rows))

    parts.append("## Task-variance ablation (8 identical CPUs)")
    cells = []
    for cv in (0.0, 0.5, 1.0, 2.0):
        r = variance_experiment(cv, n_workers=8, n_tasks=512, seed=17)
        cells.append([f"{cv:.1f}", f"{r['static']:.2f}",
                      f"{r['dynamic']:.2f}", f"{r['ratio']:.2f}"])
    parts += _md_table(["cv", "static", "dynamic", "static/dynamic"], cells)
    parts.append("")
    return "\n".join(parts)
