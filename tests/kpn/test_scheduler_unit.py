"""DeadlockMonitor unit behaviours beyond the integration tests."""

import sys
import threading
import time

import pytest

from repro.errors import ArtificialDeadlockError
from repro.kpn import Network
from repro.kpn.process import IterativeProcess
from repro.kpn.scheduler import DeadlockPolicy, GrowthEvent
from repro.processes import Collect, Sequence
from repro.processes.codecs import LONG
from repro.processes.networks import modulo_merge


def test_growth_events_recorded():
    net = Network(policy=DeadlockPolicy(growth_factor=2))
    built = modulo_merge(150, divisor=10, network=net, channel_capacity=16)
    built.run(timeout=60)
    seen = net.growth_events()
    assert seen
    assert all(isinstance(e, GrowthEvent) for e in seen)
    assert all(e.new_capacity == 2 * e.old_capacity for e in seen)


def test_growth_factor_three():
    net = Network(policy=DeadlockPolicy(growth_factor=3))
    built = modulo_merge(150, divisor=10, network=net, channel_capacity=16)
    built.run(timeout=60)
    for e in net.growth_events():
        assert e.new_capacity == 3 * e.old_capacity


def test_growth_chooses_smallest_full_channel():
    """With mixed capacities, Parks' rule targets the smallest one."""
    net = Network(policy=DeadlockPolicy(growth_factor=2))
    # build fig-13 by hand with asymmetric capacities
    from repro.processes import ModuloRouter, OrderedMerge

    src = net.channel(1024, name="gs-src")
    upper = net.channel(1024, name="gs-upper")
    lower = net.channel(16, name="gs-lower")   # the deliberate bottleneck
    out_ch = net.channel(1024, name="gs-out")
    out = []
    net.add(Sequence(src.get_output_stream(), start=1, iterations=300))
    net.add(ModuloRouter(src.get_input_stream(), upper.get_output_stream(),
                         lower.get_output_stream(), 10))
    net.add(OrderedMerge(upper.get_input_stream(), lower.get_input_stream(),
                         out_ch.get_output_stream()))
    net.add(Collect(out_ch.get_input_stream(), out))
    net.run(timeout=60)
    assert out == list(range(1, 301))
    grown = {e.channel_name for e in net.growth_events()}
    assert grown == {"gs-lower"}


def test_settle_window_filters_transient_stalls():
    """A brief all-blocked moment while data is in flight must not grow
    anything: a producer/consumer pair at capacity crosses through
    transient all-blocked states constantly."""
    net = Network(policy=DeadlockPolicy(settle_ms=10))
    ch = net.channel(capacity=8)
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=2000))
    net.add(Collect(ch.get_input_stream(), out))
    net.run(timeout=60)
    assert out == list(range(2000))
    assert net.growth_events() == []  # never a real deadlock


def test_monitor_stop_idempotent():
    net = Network()
    net.monitor.start()
    net.monitor.stop()
    net.monitor.stop()


def test_kick_before_start_harmless():
    net = Network()
    net.monitor.kick()  # no thread yet: must not explode
    net.monitor.start()
    net.monitor.stop()


def test_blocked_processes_recorded_in_diagnosis():
    net = Network(policy=DeadlockPolicy(grow=False))
    built = modulo_merge(150, divisor=10, network=net, channel_capacity=16)
    with pytest.raises(ArtificialDeadlockError) as info:
        built.run(timeout=60)
    assert info.value.blocked  # names of the stuck processes
    assert any("Mod" in n or "Merge" in n for n in info.value.blocked)


# ---------------------------------------------------------------------------
# kick coalescing, the settle wait, the live-actor counter
# ---------------------------------------------------------------------------

class _NoPollCondition(threading.Condition):
    """The monitor's 50 ms poll would paper over a lost kick; without it
    a lost kick is a hang the test can see."""

    def wait(self, timeout=None):
        return super().wait()


def test_coalesced_kicks_never_lose_an_examination():
    """Every state change made before a kick — coalesced or not — is seen
    by an examination that starts after it."""
    net = Network()
    monitor = net.monitor
    monitor._cond = _NoPollCondition()
    kickers = 4
    rounds = 3000
    counters = [0] * kickers
    seen = []

    def examine():
        seen.append(tuple(counters))
        time.sleep(0.001)           # kicks land *during* examinations

    monitor._examine = examine

    def kicker(k):
        for _ in range(rounds):
            counters[k] += 1        # "the last actor blocks" ...
            monitor.kick()          # ... right after a coalesced kick

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        monitor.start()
        threads = [threading.Thread(target=kicker, args=(k,), daemon=True)
                   for k in range(kickers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
        final = (rounds,) * kickers
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and (not seen or seen[-1] != final):
            time.sleep(0.005)
        assert seen and seen[-1] == final, "the last kick was lost"
        # coalescing is real: far fewer examinations than kicks
        assert len(seen) < kickers * rounds
    finally:
        sys.setswitchinterval(interval)
        monitor.stop()


def test_kick_during_an_examination_triggers_another():
    """The directed form of the race: the state changes, and both kicks
    (the second one coalesced) arrive while the monitor is examining."""
    net = Network()
    monitor = net.monitor
    monitor._cond = _NoPollCondition()
    state = [0]
    seen = []
    entered = threading.Event()
    release = threading.Event()

    def examine():
        seen.append(state[0])
        entered.set()
        release.wait(5)

    monitor._examine = examine
    monitor.start()
    try:
        monitor.kick()
        assert entered.wait(5)
        state[0] = 1
        monitor.kick()
        state[0] = 2
        monitor.kick()              # pending flag already set: returns at once
        release.set()
        deadline = time.monotonic() + 5
        while seen[-1] != 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert seen[-1] == 2
    finally:
        release.set()
        monitor.stop()


def test_stop_interrupts_the_settle_window():
    net = Network(policy=DeadlockPolicy(settle_ms=30_000))
    ch = net.channel()

    class ReadForever(IterativeProcess):
        def __init__(self, stream):
            super().__init__()
            self.stream = stream
            self.track(stream)

        def step(self):
            self.stream.read_exactly(8)

    net.add(ReadForever(ch.get_input_stream()))
    net.start()
    deadline = time.monotonic() + 5
    while net.accounting.total_blocked == 0 and time.monotonic() < deadline:
        time.sleep(0.005)
    time.sleep(0.1)                 # the monitor is inside its settle wait
    start = time.monotonic()
    net.monitor.stop()
    assert time.monotonic() - start < 1.0
    assert not net.monitor._thread.is_alive()
    assert net.monitor.error is None    # stopped mid-settle: no verdict
    net.shutdown()
    assert net.join(timeout=10)


@pytest.mark.parametrize("backend", ["thread", "async"])
def test_live_count_tracks_live_threads(backend):
    net = Network(backend=backend)
    assert net.live_count() == 0
    ch = net.channel()
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=50))
    net.add(Collect(ch.get_input_stream(), out))
    net.start()
    assert net.live_count() >= len(net.live_threads())
    assert net.join(timeout=30)
    assert out == list(range(50))
    assert net.live_count() == 0 == len(net.live_threads())


def test_actor_that_fails_to_start_is_not_counted_live(monkeypatch):
    net = Network()
    ch = net.channel()

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    with pytest.raises(RuntimeError):
        net.spawn(Sequence(ch.get_output_stream(), iterations=1))
    monkeypatch.undo()
    assert net.live_count() == 0
