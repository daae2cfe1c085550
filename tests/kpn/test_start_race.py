"""No verdict on a half-started network.

``Network.start`` spawns the pending processes one at a time.  While it
does, it counts as a live actor that never blocks, so the deadlock
monitor cannot call the actors spawned so far a stall: a reader whose
writer is not spawned yet is not a true deadlock, and a full channel
whose reader is not spawned yet is not to be grown.  Its count-out, once
every process is spawned, is the kick that can complete a stall.

Each test pauses ``start`` between spawns (longer than the monitor's
settle window), where a loaded host might; each failed before ``start``
counted itself.
"""

import time

import pytest

from repro.kpn import Network
from repro.parallel import CallableTask, RangeProducerTask, run_farm
from repro.processes import Collect, ModuloRouter, OrderedMerge, Sequence
from repro.processes.networks import fibonacci, hamming
from repro.semantics import hamming_reference

BACKENDS = ["thread", "async"]

#: longer than the settle window plus the monitor's poll
PAUSE_S = 0.1


def pause_spawns(monkeypatch, after=None):
    """Sleep ``PAUSE_S`` after spawning each process named in ``after``
    (every process when None)."""
    spawn = Network.spawn

    def paused(self, process):
        actor = spawn(self, process)
        if after is None or process.name in after:
            time.sleep(PAUSE_S)
        return actor

    monkeypatch.setattr(Network, "spawn", paused)


def fib(n):
    out, a, b = [], 1, 1
    for _ in range(n):
        out.append(a)
        a, b = b, a + b
    return out


@pytest.mark.parametrize("backend", BACKENDS)
def test_fibonacci_with_a_pause_after_its_cons(monkeypatch, backend):
    # Cons-b reads gb, which Add-g (spawned after the pause) writes.  A
    # pause before Collect-h is not used: a late sink lets the feedback
    # loop run past element 92, where Add overflows a LONG
    pause_spawns(monkeypatch, after={"Cons-b"})
    built = fibonacci(20, network=Network(name="fibonacci", backend=backend))
    assert built.run(timeout=30) == fib(20)


@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_an_empty_farm_with_pauses_between_spawns(monkeypatch, mode):
    pause_spawns(monkeypatch)
    producer = RangeProducerTask(0, lambda i: CallableTask(pow, i, 2))
    assert run_farm(producer, n_workers=1, mode=mode, timeout=30) == []


def test_growth_picks_the_smallest_full_channel_with_pauses(monkeypatch):
    """The shape of ``test_growth_chooses_smallest_full_channel``: a full
    channel whose reader is not spawned yet must not be grown."""
    pause_spawns(monkeypatch)
    net = Network()
    src = net.channel(1024, name="gs-src")
    upper = net.channel(1024, name="gs-upper")
    lower = net.channel(16, name="gs-lower")
    out_ch = net.channel(1024, name="gs-out")
    out = []
    net.add(Sequence(src.get_output_stream(), start=1, iterations=300))
    net.add(ModuloRouter(src.get_input_stream(), upper.get_output_stream(),
                         lower.get_output_stream(), 10))
    net.add(OrderedMerge(upper.get_input_stream(), lower.get_input_stream(),
                         out_ch.get_output_stream()))
    net.add(Collect(out_ch.get_input_stream(), out))
    assert net.run(timeout=60)
    assert out == list(range(1, 301))
    assert {e.channel_name for e in net.growth_events()} == {"gs-lower"}


def test_hamming_growth_with_pauses(monkeypatch):
    """The shape of ``test_hamming_growth_chooses_smallest_full_channel``:
    a reader whose writer is not spawned yet is no true deadlock."""
    pause_spawns(monkeypatch)
    net = Network()
    built = hamming(30, network=net, channel_capacity=16)
    assert built.run(timeout=120) == hamming_reference(30)
    for e in net.growth_events():
        assert e.new_capacity == 2 * e.old_capacity
