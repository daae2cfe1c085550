"""The paper's evaluation, reproduced on top of the ``repro`` runtime.

The runtime (``repro``) is what the paper contributes (§3–4); this
package regenerates its evaluation (§5–6) and never becomes part of it:
``experiments`` imports ``repro``, ``repro`` never imports
``experiments``.

* :mod:`experiments.simcluster` — a discrete-event simulation of the
  paper's 34-CPU lab, and the one renderer of Tables 1–2 and Figures
  19–20 (:mod:`experiments.simcluster.report`);
* :mod:`experiments.csp` — a rendezvous CSP runtime for §6.2's planned
  KPN-vs-CSP comparison;
* ``bench_*.py`` — the pytest-benchmark harness that regenerates
  ``experiments/out/`` (EXPERIMENTS.md);
* ``examples/`` — the simulated-cluster tour and the CSP comparison.

Run from the repository root with ``PYTHONPATH=src``::

    python -m experiments table1          # or table2, fig19, fig20, report
    python -m pytest experiments/bench_*.py --benchmark-only -q
"""
