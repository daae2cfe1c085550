"""The deadlock monitor at n = 2000: what an unstalled network costs it,
that the O(1) pre-check (``blocked >= live``) hides no real stall, and
that a monitor which raises ends the run with its error.

Counts, not timings: a reintroduced per-park scan of every actor fails
here by the number of ``Network.live_threads`` calls, and a kick from a
park or wait that cannot complete a stall by the accounting's kicks.
"""

import threading
import time

import pytest

from repro.errors import TrueDeadlockError
from repro.kpn import Network, scheduler
from repro.kpn.process import IterativeProcess, StopProcess
from repro.processes import Collect, ModuloRouter, OrderedMerge, Sequence
from repro.processes.codecs import LONG

N = 2000
BACKENDS = ["thread", "async"]


class Relay(IterativeProcess):
    def __init__(self, src, out, **kw):
        super().__init__(**kw)
        self.src = src
        self.out = out
        self.track(src, out)

    def step(self):
        LONG.write(self.out, LONG.read(self.src))


class WindowedSource(IterativeProcess):
    """Sends ``count`` tokens, at most ``window`` in flight (kpnbench's
    closed loop): it waits on a semaphore, which is not a channel."""

    kpn_async = False

    def __init__(self, out, count, window, **kw):
        super().__init__(**kw)
        self.out = out
        self.count = count
        self.window = window
        self.sent = 0
        self.track(out)

    def step(self):
        if self.sent >= self.count:
            raise StopProcess
        self.window.acquire()
        LONG.write(self.out, self.sent)
        self.sent += 1


class ReleasingSink(IterativeProcess):
    kpn_async = False

    def __init__(self, src, window, **kw):
        super().__init__(**kw)
        self.src = src
        self.window = window
        self.seen = []
        self.track(src)

    def step(self):
        self.seen.append(LONG.read(self.src))
        self.window.release()


class CountingCondition(threading.Condition):
    notifies = 0

    def notify_all(self):
        self.notifies += 1
        super().notify_all()


def _relay_chain(net, first, count, prefix):
    """``count`` relays after channel ``first``; returns the last channel."""
    ch = first
    for k in range(count):
        nxt = net.channel(name=f"{prefix}{k}")
        net.add(Relay(ch.get_input_stream(), nxt.get_output_stream(),
                      name=f"{prefix}relay-{k}"))
        ch = nxt
    return ch


def _stamp_transitions(net):
    """Measure how long after the last blocking transition the monitor
    first resolved a stall.  A thread's wait goes through the
    accounting (``_enter``); a task's park and every wake are the
    buffer's own (they write the accounting's map directly; the last
    park kicks, a wake never)."""
    stamps = {"changed": None, "latency": None}

    def stamped(call):
        def stamping(*a, **kw):
            stamps["changed"] = time.monotonic()
            return call(*a, **kw)
        return stamping

    acct = net.accounting
    acct._enter, acct._exit = stamped(acct._enter), stamped(acct._exit)
    for ch in net.channels:
        buffer = ch.buffer
        for name in ("async_park", "_wake_readers", "_wake_writers"):
            setattr(buffer, name, stamped(getattr(buffer, name)))
    resolve = net.monitor._resolve

    def stamped_resolve(blocked):
        if stamps["latency"] is None:
            stamps["latency"] = time.monotonic() - stamps["changed"]
        resolve(blocked)

    net.monitor._resolve = stamped_resolve
    return stamps


def _assert_within_settle_bound(net, stamps):
    # settle window + the monitor's 50 ms poll + scheduling slack for an
    # interpreter that hosts 2000 actors
    bound = scheduler.SETTLE_MS / 1000.0 + 0.05 + 2.0
    assert stamps["latency"] is not None, "monitor never resolved the stall"
    assert stamps["latency"] < bound


# ---------------------------------------------------------------------------
# (a) an unstalled ring costs the monitor no scans
# ---------------------------------------------------------------------------

def test_unstalled_async_ring_builds_no_live_actor_lists(monkeypatch):
    tokens = 10                     # x 2000 relays = 20 000 hops
    scans = []
    live_threads = Network.live_threads
    monkeypatch.setattr(
        Network, "live_threads",
        lambda self: scans.append(1) or live_threads(self))

    net = Network(name="scan-count", backend="async")
    cond = net.monitor._cond = CountingCondition()
    wakes = []
    examine = net.monitor._examine
    net.monitor._examine = lambda: wakes.append(1) or examine()
    wait_kicks = []
    kick = net.accounting._on_change
    net.accounting._on_change = lambda: wait_kicks.append(1) or kick()

    window = threading.Semaphore(2)
    first = net.channel(name="sc-in")
    net.add(WindowedSource(first.get_output_stream(), tokens, window,
                           name="source"))
    last = _relay_chain(net, first, N, "sc")
    sink = net.add(ReleasingSink(last.get_input_stream(), window,
                                 name="sink"))
    assert net.run(timeout=120)
    assert sink.seen == list(range(tokens))

    parks = net.accounting.generation // 2
    # tokens in flight together share parks; alone, every hop is one
    assert parks >= tokens * N // 4
    assert len(scans) <= 10, f"{len(scans)} live-actor scans over {parks} parks"
    # no park or wait ever left every live actor blocked: the source
    # waits on its semaphore, not a channel, and after it ends each relay
    # sees the end of stream instead of parking
    assert wait_kicks == []
    # so only exits kick: a lock-and-notify kick needs the pending flag
    # clear, and only a monitor wake-up clears it; three threads kick
    # (the loop, whose tasks finish on it, the source and the sink) and
    # may each find it clear once.  start()'s count-out kicks too.
    assert cond.notifies <= 3 * (len(wakes) + 1) + 1
    assert cond.notifies < parks // 10
    assert net.live_count() == 0


# ---------------------------------------------------------------------------
# (b) real stalls are still diagnosed, on both backends, at n = 2000
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_true_deadlock_diagnosed_at_scale(backend):
    """A token-less ring: every relay reads what nobody will write."""
    net = Network(name=f"true-{backend}", backend=backend)
    first = net.channel(name="td-in")
    last = _relay_chain(net, first, N - 1, "td")
    net.add(Relay(last.get_input_stream(), first.get_output_stream(),
                  name="td-close"))
    stamps = _stamp_transitions(net)
    with pytest.raises(TrueDeadlockError):
        net.run(timeout=120)
    _assert_within_settle_bound(net, stamps)


@pytest.mark.parametrize("backend", BACKENDS)
def test_artificial_deadlock_grows_at_scale(backend):
    """Figure 13 feeding 2000 relays: the router stalls on the tiny lower
    channel while the merge and everything downstream wait for data."""
    values = 60
    net = Network(name=f"parks-{backend}", backend=backend)
    src = net.channel(1024, name="pk-src")
    upper = net.channel(1024, name="pk-upper")
    lower = net.channel(16, name="pk-lower")
    merged = net.channel(name="pk-merged")
    out = []
    net.add(Sequence(src.get_output_stream(), start=1, iterations=values,
                     name="Source"))
    net.add(ModuloRouter(src.get_input_stream(), upper.get_output_stream(),
                         lower.get_output_stream(), 10, name="Mod"))
    net.add(OrderedMerge(upper.get_input_stream(), lower.get_input_stream(),
                         merged.get_output_stream(), name="Merge"))
    last = _relay_chain(net, merged, N, "pk")
    net.add(Collect(last.get_input_stream(), out, name="Sink"))
    stamps = _stamp_transitions(net)
    assert net.run(timeout=120)
    assert out == list(range(1, values + 1))
    assert {e.channel_name for e in net.growth_events()} == {"pk-lower"}
    _assert_within_settle_bound(net, stamps)


class MonitorBug(Exception):
    pass


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_monitor_that_raises_ends_the_run_with_its_error(backend):
    """Without its monitor a token-less ring would wait out the caller's
    timeout and ``join`` would return False with the error unseen."""
    net = Network(name=f"crash-{backend}", backend=backend)
    first = net.channel(name="cr-in")
    last = _relay_chain(net, first, 49, "cr")
    net.add(Relay(last.get_input_stream(), first.get_output_stream(),
                  name="cr-close"))

    def broken_resolve(blocked):
        raise MonitorBug("resolve failed")

    net.monitor._resolve = broken_resolve
    start = time.monotonic()
    with pytest.raises(MonitorBug, match="resolve failed"):
        net.run(timeout=60)
    assert time.monotonic() - start < 10
    assert not net.live_threads()


class _OutsidePump:
    """A thread that is not a network actor, blocked in ``write_donate``
    on one of the network's buffers — what a link's receiver pump does
    while its consumer is slow.  It sleeps on the buffer's writer list
    and is never in the accounting map."""

    def __init__(self, net):
        self.channel = net.channel(8, name="pump-link")
        self.channel.buffer.write(b"x" * 8)         # full: the next blocks
        self.thread = threading.Thread(target=self._pump, daemon=True,
                                       name="outside-pump")
        self.error = None

    def _pump(self):
        try:
            self.channel.buffer.write_donate(bytearray(b"y" * 8))
        except Exception as exc:    # released by the network's shutdown
            self.error = exc

    def start(self, net):
        self.thread.start()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if self.channel.buffer._writers:
                assert self.thread not in net.accounting.snapshot()
                return
            time.sleep(0.005)
        raise AssertionError("pump never blocked")

    def release(self):
        self.channel.buffer.close_read()
        self.thread.join(5)
        assert not self.thread.is_alive()


@pytest.mark.parametrize("backend", BACKENDS)
def test_true_deadlock_diagnosed_beside_blocked_pump(backend):
    net = Network(name=f"pump-true-{backend}", backend=backend)
    pump = _OutsidePump(net)
    pump.start(net)
    first = net.channel(name="pt-in")
    last = _relay_chain(net, first, N - 1, "pt")
    net.add(Relay(last.get_input_stream(), first.get_output_stream(),
                  name="pt-close"))
    with pytest.raises(TrueDeadlockError) as info:
        net.run(timeout=120)
    assert "outside-pump" not in info.value.blocked
    pump.release()


@pytest.mark.parametrize("backend", BACKENDS)
def test_blocked_pump_never_makes_a_busy_network_look_stalled(backend,
                                                             monkeypatch):
    """One actor is computing while every other one and the pump are
    blocked: the pump is no actor, so it must not complete the count."""

    class SlowSource(IterativeProcess):
        kpn_async = False

        def __init__(self, out, **kw):
            super().__init__(iterations=15, **kw)
            self.out = out
            self.track(out)

        def step(self):
            time.sleep(0.03)        # computing, longer than settle_ms
            LONG.write(self.out, self.steps_completed)

    monkeypatch.setattr(scheduler, "SETTLE_MS", 5.0)
    net = Network(name=f"pump-busy-{backend}", backend=backend)
    pump = _OutsidePump(net)
    pump.start(net)
    ch = net.channel(name="pb-in")
    out = []
    net.add(SlowSource(ch.get_output_stream(), name="slow"))
    last = _relay_chain(net, ch, 20, "pb")
    net.add(Collect(last.get_input_stream(), out, name="Sink"))
    assert net.run(timeout=60)
    assert out == list(range(15))
    assert net.growth_events() == []
    pump.release()
