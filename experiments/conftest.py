"""Benchmark-harness helpers: paper-style table rendering + artifacts.

Every benchmark prints the rows the paper reports (model next to the
paper's published value) and appends them to ``experiments/out/`` so the
regenerated evaluation survives the pytest run.  Run from the repository
root with ``-s`` to see the tables live::

    PYTHONPATH=src python -m pytest experiments/bench_*.py --benchmark-only -s
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def emit(name: str, lines: Iterable[str]) -> None:
    """Print a table and persist it under experiments/out/<name>.txt."""
    text = "\n".join(lines)
    print(f"\n{text}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")


def fmt_row(cells: Sequence[object], widths: Sequence[int]) -> str:
    out = []
    for cell, width in zip(cells, widths):
        if isinstance(cell, float):
            out.append(f"{cell:>{width}.2f}")
        else:
            out.append(f"{str(cell):>{width}}")
    return " ".join(out)
