"""DeadlockMonitor unit behaviours beyond the integration tests."""

import sys
import threading
import time

import pytest

from repro.errors import ArtificialDeadlockError
from repro.kpn import Network, scheduler
from repro.kpn.process import IterativeProcess, Process
from repro.kpn.scheduler import GrowthEvent
from repro.processes import Collect, Sequence
from repro.processes.codecs import LONG
from repro.processes.networks import modulo_merge


def test_growth_events_recorded():
    net = Network()
    built = modulo_merge(150, divisor=10, network=net, channel_capacity=16)
    built.run(timeout=60)
    seen = net.growth_events()
    assert seen
    assert all(isinstance(e, GrowthEvent) for e in seen)
    assert all(e.new_capacity == 2 * e.old_capacity for e in seen)


def test_growth_factor_three(monkeypatch):
    monkeypatch.setattr(scheduler, "GROWTH_FACTOR", 3)
    net = Network()
    built = modulo_merge(150, divisor=10, network=net, channel_capacity=16)
    built.run(timeout=60)
    for e in net.growth_events():
        assert e.new_capacity == 3 * e.old_capacity


class _Writer:
    """A blocked actor as the accounting's map keys it: a name."""

    def __init__(self, name):
        self.name = name


@pytest.mark.parametrize("order", [1, -1], ids=["b-first", "a-first"])
def test_equal_full_channels_grow_by_name_not_by_who_blocked_first(order):
    """Parks' choice among equally small full channels follows the graph:
    the same channels, blocked on in either order, grow the same one."""
    net = Network()
    big, b, a = (net.channel(capacity, name=name) for capacity, name in
                 ((32, "0-big"), (16, "ch-b"), (16, "ch-a")))
    waits = [(_Writer(f"w-{ch.name}"), (ch.buffer, "write"))
             for ch in (big, b, a)]
    blocked = dict(waits[::order])
    writes = net.monitor._local_writes(blocked, ("w-0-big", "w-ch-a",
                                                 "w-ch-b"))
    assert net.monitor._grow_smallest(writes)
    assert [(e.channel_name, e.new_capacity)
            for e in net.growth_events()] == [("ch-a", 32)]


def test_removed_knobs_are_gone():
    """One scheduler: a network always has its monitor, Parks' rule has no
    settings (growth stops only at ``MAX_CAPACITY``), and a capacity
    spec pre-sizes channels through ``optimize`` alone."""
    import repro.kpn

    assert Network().monitor is not None
    with pytest.raises(TypeError):
        Network(bounded=False)
    with pytest.raises(TypeError):
        Network(policy=None)
    with pytest.raises(TypeError):
        Network(capacity_spec={"a": 64})
    assert not hasattr(scheduler, "DeadlockPolicy")
    assert "DeadlockPolicy" not in repro.kpn.__all__
    with pytest.raises(AttributeError):
        repro.kpn.DeadlockPolicy
    assert (scheduler.GROWTH_FACTOR, scheduler.MAX_CAPACITY,
            scheduler.SETTLE_MS) == (2, 64 * 1024 * 1024, 20.0)


def test_growth_chooses_smallest_full_channel():
    """With mixed capacities, Parks' rule targets the smallest one."""
    net = Network()
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


def test_settle_window_filters_transient_stalls(monkeypatch):
    """A brief all-blocked moment while data is in flight must not grow
    anything: a producer/consumer pair at capacity crosses through
    transient all-blocked states constantly."""
    monkeypatch.setattr(scheduler, "SETTLE_MS", 10.0)
    net = Network()
    ch = net.channel(capacity=8)
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=2000))
    net.add(Collect(ch.get_input_stream(), out))
    net.run(timeout=60)
    assert out == list(range(2000))
    assert net.growth_events() == []  # never a real deadlock


def test_kick_before_start_harmless():
    net = Network()
    net.monitor.kick()  # no thread yet: must not explode
    assert net.monitor.thread is None
    ch = net.channel()
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=3))
    net.add(Collect(ch.get_input_stream(), out))
    assert net.run(timeout=30)
    assert out == [0, 1, 2]


@pytest.mark.parametrize("backend", ["thread", "async"])
def test_monitor_ends_and_restarts_with_the_actors(hold_monitor, backend):
    """The monitor's thread lives while the network has a live actor:
    none before the first spawn, none after the last actor ends, a fresh
    one for an actor spawned later, which also ends."""
    net = Network(backend=backend)
    assert net.monitor.thread is None
    for round_ in range(2):
        ch = net.channel(name=f"again-{round_}")
        out = []
        net.spawn(Collect(ch.get_input_stream(), out))  # waits for input
        thread = net.monitor.thread
        assert thread is not None and thread.name == "deadlock-monitor"
        net.spawn(Sequence(ch.get_output_stream(), iterations=5))
        assert net.join(timeout=30)
        assert out == list(range(5))
        thread.join(5)
        assert not thread.is_alive() and net.monitor.thread is None


def test_blocked_processes_recorded_in_diagnosis(monkeypatch):
    monkeypatch.setattr(scheduler, "MAX_CAPACITY", 16)
    net = Network()
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


class _Holder(Process):
    """A live actor asleep on an event, not a channel: it keeps the
    monitor's thread up and never counts as blocked."""

    kpn_async = False

    def __init__(self):
        super().__init__(name="holder")
        self.release = threading.Event()

    def run(self):
        self.release.wait(60)


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
    holder = _Holder()
    try:
        net.spawn(holder)
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
        holder.release.set()
    assert net.join(timeout=10)


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
    holder = _Holder()
    net.spawn(holder)
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
        holder.release.set()
    assert net.join(timeout=10)


def test_stop_interrupts_the_settle_window(hold_monitor):
    """A network shut down while its monitor waits out a stall's settle
    window has no live actor left: the monitor reaches no verdict and
    ends within its 50 ms poll, not at the window's end."""

    class ReadForever(IterativeProcess):
        def __init__(self, stream):
            super().__init__()
            self.stream = stream
            self.track(stream)

        def step(self):
            self.stream.read_exactly(8)

    for backend in ("thread", "async"):
        net = Network(backend=backend)
        net.add(ReadForever(net.channel().get_input_stream()))
        net.start()
        deadline = time.monotonic() + 5
        while (net.accounting.total_blocked == 0
               and time.monotonic() < deadline):
            time.sleep(0.005)
        time.sleep(0.1)             # the monitor is inside its settle wait
        monitor = net.monitor.thread
        assert monitor is not None and monitor.is_alive()
        start = time.monotonic()
        net.shutdown()
        assert net.join(timeout=10)
        monitor.join(5)
        assert time.monotonic() - start < 1.0
        assert not monitor.is_alive() and net.monitor.thread is None
        assert net.monitor.error is None    # ended mid-settle: no verdict


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
