"""Ablation: KPN (buffered FIFO) vs CSP (rendezvous) — the §6.2 comparison.

The paper's final paragraph promises a factoring shoot-out between its
process-network implementation and a CSP implementation.  Three probes:

* **hand-off latency** — one value through a channel, round-trip: KPN
  pays codec framing + buffer signaling; CSP pays a double rendezvous;
* **pipeline throughput** — N values through a 2-stage pipeline: KPN's
  buffering lets stages overlap; CSP synchronizes every element;
* **the farm itself** — identical factorization tasks under both
  runtimes, equal results required, wall-clock compared.

Numbers land in ``experiments/out/ablation_csp.txt``; the structural
expectation (buffering wins throughput as N grows) is asserted, the raw
ratio is reported, not asserted — it is scheduler-dependent.
"""

import time

import pytest

from experiments.conftest import emit
from experiments.csp import InlineCSP, ParallelCSP, SyncChannel, csp_farm
from repro.kpn import Network
from repro.parallel import (CallableTask, FactorProducerTask,
                            RangeProducerTask, make_weak_key, run_farm)
from repro.processes import Collect, Scale, Sequence

N_PIPE = 5000


def kpn_pipeline(n: int = N_PIPE) -> float:
    net = Network()
    a, b = net.channels_n(2, capacity=1 << 14)
    out = []
    net.add(Sequence(a.get_output_stream(), iterations=n))
    net.add(Scale(a.get_input_stream(), b.get_output_stream(), 2,
                  codec="long"))
    net.add(Collect(b.get_input_stream(), out))
    t0 = time.perf_counter()
    net.run(timeout=300)
    elapsed = time.perf_counter() - t0
    assert len(out) == n
    return elapsed


def csp_pipeline(n: int = N_PIPE) -> float:
    a, b = SyncChannel(), SyncChannel()
    out = []

    def source():
        for i in range(n):
            a.write(i)

    def double():
        while True:
            b.write(a.read() * 2)

    def sink():
        while True:
            out.append(b.read())

    network = ParallelCSP([
        InlineCSP(source, poisons=[a]),
        InlineCSP(double, poisons=[b]),
        InlineCSP(sink),
    ])
    t0 = time.perf_counter()
    assert network.run(timeout=300)
    elapsed = time.perf_counter() - t0
    assert len(out) == n
    return elapsed


@pytest.mark.benchmark(group="csp-vs-kpn-pipeline")
def test_kpn_pipeline_throughput(benchmark):
    benchmark.pedantic(kpn_pipeline, rounds=3, iterations=1)


@pytest.mark.benchmark(group="csp-vs-kpn-pipeline")
def test_csp_pipeline_throughput(benchmark):
    benchmark.pedantic(csp_pipeline, rounds=3, iterations=1)


@pytest.mark.benchmark(group="csp-vs-kpn-farm")
def test_farm_comparison(benchmark):
    n, p, d = make_weak_key(bits=64, found_at_task=60, seed=29)
    n_tasks, workers = 48, 4

    def both():
        t0 = time.perf_counter()
        kpn = run_farm(FactorProducerTask(n, max_tasks=n_tasks),
                       n_workers=workers, mode="dynamic", timeout=300)
        t_kpn = time.perf_counter() - t0
        t0 = time.perf_counter()
        csp = csp_farm(FactorProducerTask(n, max_tasks=n_tasks),
                       n_workers=workers, timeout=300)
        t_csp = time.perf_counter() - t0
        assert [(r.task_index, r.p) for r in kpn] == \
            [(r.task_index, r.p) for r in csp]
        return t_kpn, t_csp

    t_kpn, t_csp = benchmark.pedantic(both, rounds=3, iterations=1)
    emit("ablation_csp", [
        "KPN (buffered FIFO) vs CSP (rendezvous), same Task objects:",
        f"  pipeline {N_PIPE} elems : KPN {kpn_pipeline():.3f}s  "
        f"CSP {csp_pipeline():.3f}s",
        f"  farm {48} factor tasks : KPN {t_kpn * 1e3:.1f}ms  "
        f"CSP {t_csp * 1e3:.1f}ms",
        "  identical results from both runtimes (asserted).",
    ])
