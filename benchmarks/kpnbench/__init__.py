"""kpnbench: the repository's one end-to-end benchmark.

Six workloads, the same five end-to-end metrics on each, and a per-layer
cost ledger taken in a separate traced run.  ``README.md`` beside this
file defines every metric; ``BENCHMARK.json`` at the repository root
records the regression bounds.  Run it with::

    python3 benchmarks/kpnbench [--workload W] [--seed S] ...
    PYTHONPATH=src:benchmarks python3 -m kpnbench ...
"""
