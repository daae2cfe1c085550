"""KPN vs CSP, side by side — the comparison the paper announces (§6.2).

Run from the repository root:
    PYTHONPATH=src python -m experiments.examples.csp_comparison

"Work has begun on the implementation of a parallel algorithm for
factoring large numbers ... using both our implementation of process
networks and a Java implementation of CSP."  This example runs the same
factorization Task objects through both runtimes:

* KPN: buffered FIFO channels, MetaDynamic (Direct + Turnstile + Select);
* CSP: rendezvous channels, ALT-based distributor, poison termination;

verifies the results are identical and identically ordered (the whole
point of determinate coordination), and times a throughput-shaped
pipeline where KPN's buffering shows its advantage.
"""

import time

from experiments.csp import InlineCSP, ParallelCSP, SyncChannel, csp_farm
from repro.kpn import Network
from repro.parallel import (FactorConsumerResult, FactorProducerTask,
                            make_weak_key, run_farm)
from repro.processes import Collect, Scale, Sequence


def farm_shootout() -> None:
    print("== factorization farm: identical tasks, two runtimes ==")
    n, p, d = make_weak_key(bits=96, found_at_task=40, seed=99)

    t0 = time.perf_counter()
    kpn = run_farm(FactorProducerTask(n, max_tasks=10 ** 6), n_workers=4,
                   mode="dynamic", stop_when=FactorConsumerResult.stop_when,
                   timeout=300)
    t_kpn = time.perf_counter() - t0

    t0 = time.perf_counter()
    csp = csp_farm(FactorProducerTask(n, max_tasks=10 ** 6), n_workers=4,
                   stop_when=FactorConsumerResult.stop_when, timeout=300)
    t_csp = time.perf_counter() - t0

    assert [(r.task_index, r.p) for r in kpn] == \
        [(r.task_index, r.p) for r in csp], "the runtimes disagree!"
    print(f"  both found P={kpn[-1].p} in task {kpn[-1].task_index}")
    print(f"  KPN {t_kpn * 1e3:7.1f} ms   CSP {t_csp * 1e3:7.1f} ms")
    print("  results identical and identically ordered ✓")


def pipeline_shootout(n: int = 20000) -> None:
    print(f"== pipeline throughput: {n} elements, 2 stages ==")
    # KPN: buffered channels let the stages overlap
    net = Network()
    a, b = net.channels_n(2, capacity=1 << 14)
    out = []
    net.add(Sequence(a.get_output_stream(), iterations=n))
    net.add(Scale(a.get_input_stream(), b.get_output_stream(), 2))
    net.add(Collect(b.get_input_stream(), out))
    t0 = time.perf_counter()
    net.run(timeout=300)
    t_kpn = time.perf_counter() - t0
    assert len(out) == n

    # CSP: every element is a rendezvous
    x, y = SyncChannel(), SyncChannel()
    csp_out = []
    network = ParallelCSP([
        InlineCSP(lambda: [x.write(i) for i in range(n)], poisons=[x]),
        InlineCSP(lambda: _pump(x, y), poisons=[y]),
        InlineCSP(lambda: _drain(y, csp_out)),
    ])
    t0 = time.perf_counter()
    network.run(timeout=300)
    t_csp = time.perf_counter() - t0
    assert csp_out == out
    print(f"  KPN {t_kpn:6.3f} s   CSP {t_csp:6.3f} s   "
          f"(KPN/CSP = {t_kpn / t_csp:.2f}; buffering pays at volume)")


def _pump(src: SyncChannel, dst: SyncChannel) -> None:
    while True:
        dst.write(src.read() * 2)


def _drain(src: SyncChannel, into: list) -> None:
    while True:
        into.append(src.read())


if __name__ == "__main__":
    farm_shootout()
    pipeline_shootout()
    print("csp comparison OK")
