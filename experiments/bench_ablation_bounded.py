"""Ablation: Parks bounded scheduling (design choice #1, Figures 12–13).

Measures what the grow-on-demand scheduler costs and saves: the Hamming
network (whose channel demand is unbounded) run from different initial
capacities, counting growth events and final memory; and the Figure-13
graph showing a single growth unblocks an otherwise-deadlocked acyclic
program.
"""

import pytest

from experiments.conftest import emit, fmt_row
from repro.kpn import Network
from repro.kpn.scheduler import DeadlockPolicy
from repro.processes import hamming, modulo_merge
from repro.semantics import hamming_reference


def run_hamming(initial_capacity: int, count: int = 40):
    net = Network(policy=DeadlockPolicy(growth_factor=2))
    built = hamming(count, network=net, channel_capacity=initial_capacity)
    out = built.run(timeout=300)
    assert out == hamming_reference(count)
    events = net.growth_events()
    final_bytes = sum(ch.capacity for ch in net.channels)
    return len(events), final_bytes


@pytest.mark.benchmark(group="bounded-growth")
def test_growth_vs_initial_capacity(benchmark):
    def sweep():
        rows = []
        for cap in (16, 64, 256, 4096):
            growths, final_bytes = run_hamming(cap)
            rows.append((cap, growths, final_bytes))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["Ablation: Hamming(40) under Parks bounded scheduling",
             fmt_row(("init-cap", "growths", "total-bytes"), (9, 8, 12))]
    for r in rows:
        lines.append(fmt_row(r, (9, 8, 12)))
    emit("ablation_bounded", lines)
    # more initial capacity -> fewer growth events (monotone)
    growth_counts = [r[1] for r in rows]
    assert growth_counts == sorted(growth_counts, reverse=True)
    # at 4096 bytes/channel no growth is needed for 40 values
    assert growth_counts[-1] == 0


@pytest.mark.benchmark(group="bounded-growth")
def test_fig13_single_growth_sufficiency(benchmark):
    """Figure 13 with divisor N: the lower channel needs ~(N-1) longs;
    doubling from 16 bytes must unblock within a few growths."""
    def run():
        net = Network(policy=DeadlockPolicy(growth_factor=2))
        built = modulo_merge(500, divisor=10, network=net,
                             channel_capacity=16)
        out = built.run(timeout=300)
        return net, out

    net, out = benchmark.pedantic(run, rounds=1, iterations=1)
    assert out == list(range(1, 501))
    events = net.growth_events()
    emit("ablation_fig13_growth", [
        f"Figure 13 (divisor 10, 16-byte channels): {len(events)} growths:",
        *(f"  {e.channel_name}: {e.old_capacity} -> {e.new_capacity}"
          for e in events)])
    assert 1 <= len(events) <= 6


@pytest.mark.benchmark(group="bounded-scheduling")
@pytest.mark.parametrize("capacity", [16, 4096])
def test_hamming_cost_with_and_without_growth(benchmark, capacity):
    benchmark(run_hamming, capacity, 30)
