"""Weak-RSA-key factorization on parallel workers (paper section 5.2).

Run:  python examples/parallel_factorization.py

A scaled-down version of the paper's experiment, real execution (threads
in this process):

1. build a weak key N = P(P+D) with a known difference D;
2. factor it sequentially (the Table-1 baseline: tasks invoked directly);
3. factor it with MetaStatic and MetaDynamic compositions on 4 workers
   whose speeds are artificially heterogeneous (per-task slowdowns
   emulate CPU classes A/B/C/E);
4. verify every mode finds the same factor in the same task, and show
   the task distribution: static deals tasks evenly, dynamic gives the
   fast workers more — the load-balancing story of Figures 19–20.

The paper-scale run (2048 tasks, 34 CPUs, 1024-bit N) lives in the
simulated-cluster benchmarks; see experiments/bench_table2_parallel.py.
"""

import time

from repro.parallel import (FactorConsumerResult, FactorProducerTask,
                            FactorResult, build_farm,
                            factor_search_sequential, make_weak_key)

#: per-task slowdowns (seconds) emulating a heterogeneous lab:
#: worker 0 fast (class A) … worker 3 slow (class E)
SLOWDOWNS = [0.0, 0.002, 0.01, 0.02]


def main() -> None:
    n, p, d = make_weak_key(bits=96, found_at_task=30, seed=7)
    print(f"N has {n.bit_length()} bits; planted factor found in task 30")

    t0 = time.perf_counter()
    seq = factor_search_sequential(n)
    t_seq = time.perf_counter() - t0
    print(f"sequential: P = {seq.p} (task {seq.task_index}) "
          f"in {t_seq * 1e3:.1f} ms")
    assert seq.p == p and seq.d == d

    for mode in ("static", "dynamic"):
        handle = build_farm(FactorProducerTask(n, max_tasks=64), n_workers=4,
                            mode=mode, stop_when=FactorConsumerResult.stop_when,
                            slowdowns=SLOWDOWNS)
        t0 = time.perf_counter()
        results = handle.run(timeout=120)
        elapsed = time.perf_counter() - t0
        hit = next(r for r in results if isinstance(r, FactorResult) and r.found)
        workers = handle.harness.workers or handle.harness.plumbing
        counts = [getattr(w, "tasks_processed", None)
                  for w in handle.harness.workers]
        print(f"{mode:>8}: P = {hit.p} (task {hit.task_index}) "
              f"in {elapsed * 1e3:.1f} ms; tasks/worker = {counts}")
        assert hit.p == p and hit.d == d


if __name__ == "__main__":
    main()
    print("parallel factorization OK")
