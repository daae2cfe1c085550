"""Regenerate the paper's evaluation on the simulated 34-CPU lab.

Run from the repository root:
    PYTHONPATH=src python -m experiments.examples.simulated_cluster

Prints Table 1, Table 2, and ASCII renderings of Figures 19 (elapsed
time) and 20 (speedup) with the paper's published numbers alongside the
simulator's.  The benchmarks regenerate the same artifacts under
pytest-benchmark; this example is the human-readable tour.
"""

from experiments.simcluster import report, sweep_workers


def ascii_curve(title: str, series: dict[str, list[float]], xs: list[int],
                height: int = 14) -> None:
    """Minimal ASCII chart: one glyph per series."""
    print(f"\n=== {title} ===")
    glyphs = {"ideal": ".", "static": "D", "dynamic": "^"}
    all_vals = [v for vs in series.values() for v in vs]
    lo, hi = min(all_vals), max(all_vals)
    span = (hi - lo) or 1.0
    grid = [[" "] * len(xs) for _ in range(height)]
    for name, values in series.items():
        for i, v in enumerate(values):
            r = height - 1 - int((v - lo) / span * (height - 1))
            grid[r][i] = glyphs[name]
    for r, line in enumerate(grid):
        level = hi - (r / (height - 1)) * span
        print(f"{level:7.2f} |" + " ".join(line))
    print(" " * 8 + "+" + "--" * len(xs))
    print(" " * 9 + " ".join(f"{x:<1}" if x < 10 else "*" for x in xs)
          + "   (workers 1..32; * = multiples of 10)")
    print("legend: . ideal   D static   ^ dynamic")


def figures() -> None:
    xs = list(range(1, 33))
    rows = sweep_workers(xs)
    ascii_curve("Figure 19: elapsed time (minutes) vs workers", {
        "ideal": [r.ideal_time for r in rows],
        "static": [r.static_time for r in rows],
        "dynamic": [r.dynamic_time for r in rows],
    }, xs)
    ascii_curve("Figure 20: speedup (normalized speed) vs workers", {
        "ideal": [r.ideal_speed for r in rows],
        "static": [r.static_speed for r in rows],
        "dynamic": [r.dynamic_speed for r in rows],
    }, xs)
    # the two inflection points the paper calls out
    print(f"\n{report.inflections()}")


if __name__ == "__main__":
    print("\n".join(report.table1()))
    print()
    print("\n".join(report.table2()))
    figures()
    print("\nsimulated cluster OK")
