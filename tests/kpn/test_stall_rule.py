"""Who wakes the deadlock monitor, and who counts toward a stall.

A stall needs every live actor blocked, so only the last actor to block
can complete one.  The contract pinned here:

* a wait kicks the monitor iff it leaves at least as many of the
  network's actors blocked as are live — one rule for a thread's wait
  and a task's park;
* a wake never kicks, and removes the woken actor's entry, thread or
  task, before it runs;
* a thread the network did not spawn (a link's pump, a caller) sleeps on
  the buffer's waiter list but is not in the accounting: it never kicks
  and never counts;
* a composite's thread waiting on its members is not live, so a deadlock
  among the members is diagnosed, or resolved by growth, as in the flat
  network.

Kicks are counted on the accounting's ``on_change`` (a wait's kick);
actor exits kick through ``Network._actor_finished`` and are not
counted.
"""

import sys
import threading
import time

import pytest

from repro.errors import TrueDeadlockError
from repro.kpn import Network
from repro.kpn.process import CompositeProcess, IterativeProcess
from repro.processes import Collect, Scale
from repro.processes.codecs import LONG
from repro.telemetry.core import TELEMETRY

BACKENDS = ["thread", "async"]

# Tests that set a stall up on purpose take ``hold_monitor``: the monitor
# is kicked, and looks, but reaches no verdict on it.


def until(condition, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.002)


def count_kicks(net):
    """Replace the accounting's kick with a recorder of who kicked: the
    running task, or the calling thread's name."""
    kicks = []
    acct = net.accounting
    kick = acct._on_change

    def recording():
        task = TELEMETRY.local.task
        kicks.append(task if task is not None
                     else threading.current_thread().name)
        if kick is not None:
            kick()

    acct._on_change = recording
    return kicks


class GatedReader(IterativeProcess):
    """Waits on an event (not a channel), then reads one element."""

    kpn_async = False

    def __init__(self, src, go, out, **kw):
        super().__init__(iterations=1, **kw)
        self.src, self.go, self.out = src, go, out
        self.track(src)

    def step(self):
        assert self.go.wait(10)
        self.out.append(LONG.read(self.src))


class ThreadCollect(Collect):
    kpn_async = False


def blocked_names(net):
    return {actor.name for actor in net.accounting.snapshot()}


# ---------------------------------------------------------------------------
# the kick rule
# ---------------------------------------------------------------------------

def test_only_the_last_actor_to_block_kicks_and_a_wake_never_does(
        hold_monitor):
    net = Network(name="rule")
    kicks = count_kicks(net)
    a, b = net.channel(name="rule-a"), net.channel(name="rule-b")
    go, got_a, got_b = threading.Event(), [], []
    # "second" is live before "first" can block
    net.add(GatedReader(b.get_input_stream(), go, got_b, name="second"))
    net.add(Collect(a.get_input_stream(), got_a, iterations=1,
                    name="first"))
    net.start()

    until(lambda: blocked_names(net) == {"first"}, "first never blocked")
    time.sleep(0.02)
    assert kicks == []              # "second" is still running

    go.set()
    until(lambda: len(blocked_names(net)) == 2, "second never blocked")
    assert kicks == ["second"]      # the last to block, exactly once

    LONG.write(a.get_output_stream(), 7)    # wakes "first"
    until(lambda: blocked_names(net) == {"second"}, "first never woke")
    LONG.write(b.get_output_stream(), 8)    # wakes "second"
    assert net.join(timeout=10)
    assert (got_a, got_b) == ([7], [8])
    assert kicks == ["second"]      # neither wake kicked
    assert net.accounting.snapshot() == {}


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_woken_thread_is_not_blocked_before_it_runs(hold_monitor, backend):
    """The wake removes a sleeping thread's entry, as it does a parked
    task's.  Left to the thread, the entry outlived the wait until the
    thread next ran, and a monitor that looked meanwhile saw a stall that
    was over: on a loaded host the settle window ran out first and a
    producer/consumer pair at capacity 8 was grown."""
    net = Network(name=f"woken-{backend}", backend=backend)
    ch = net.channel(name="woken")
    out = []
    net.add(ThreadCollect(ch.get_input_stream(), out, name="reader"))
    net.start()
    until(lambda: blocked_names(net) == {"reader"}, "reader never blocked")
    buffer = ch.buffer
    with buffer._lock:              # the reader cannot get past its wait
        buffer._wake_readers()
        assert net.accounting.snapshot() == {}
    # nothing to read: it looks again and sleeps again
    until(lambda: blocked_names(net) == {"reader"}, "reader never re-blocked")
    writer = ch.get_output_stream()
    LONG.write(writer, 3)
    writer.close()
    assert net.join(timeout=10)
    assert out == [3]


def test_a_pump_or_caller_thread_never_kicks_and_never_counts(hold_monitor):
    """A link's receiver pump blocks in ``write_donate`` on a full buffer,
    a caller's thread in a read: both sleep on the buffer's waiter lists
    and neither is one of the network's actors."""
    net = Network(name="outsiders")
    kicks = count_kicks(net)
    full = net.channel(8, name="out-full")
    empty = net.channel(name="out-empty")
    full.buffer.write(b"x" * 8)
    errors = []

    def run(call):
        try:
            call()
        except Exception as exc:    # released by the closes below
            errors.append(exc)

    pump = threading.Thread(target=run, daemon=True, name="recv-pump",
                            args=(lambda: full.buffer.write_donate(
                                bytearray(b"y" * 8)),))
    caller = threading.Thread(target=run, daemon=True, name="caller",
                              args=(lambda: empty.buffer.read(1),))
    pump.start()
    caller.start()
    until(lambda: full.buffer._writers and empty.buffer._readers,
          "the outsiders never slept")
    time.sleep(0.02)
    assert net.accounting.snapshot() == {}
    assert net.wait_snapshot()["blocked"] == []
    # no actor is live, so any recorded wait would have kicked
    assert net.live_count() == 0
    assert kicks == []
    full.buffer.close_read()
    empty.buffer.close_write()
    pump.join(5)
    caller.join(5)
    assert not pump.is_alive() and not caller.is_alive()
    assert kicks == []


class SlowCollect(IterativeProcess):
    """Reads one element per step, then computes for ``busy`` seconds."""

    kpn_strict = True

    def __init__(self, src, busy, **kw):
        super().__init__(**kw)
        self.src, self.busy = src, busy
        self.track(src)

    def step(self):
        LONG.read(self.src)
        time.sleep(self.busy)


def test_a_task_that_blocks_last_kicks_and_the_deadlock_is_reported():
    """No event loop kicks the monitor on running dry.  A thread blocks
    while a task computes; the task then parks on its drained input, the
    last actor to block, and must kick the monitor itself."""
    net = Network(name="mixed", backend="async")
    kicks = count_kicks(net)
    a, b = net.channel(name="mixed-a"), net.channel(name="mixed-b")
    LONG.write(b.get_output_stream(), 1)
    go = threading.Event()
    go.set()
    # the task is live before the thread can block
    net.add(SlowCollect(b.get_input_stream(), 0.1, name="task-reader"))
    net.add(GatedReader(a.get_input_stream(), go, [], name="thread-reader"))
    start = time.monotonic()
    with pytest.raises(TrueDeadlockError) as info:
        net.run(timeout=10)
    assert time.monotonic() - start < 1.0
    assert set(info.value.blocked) == {"thread-reader", "task-reader"}
    [task] = [t for t in net._threads if t.name == "task-reader"]
    assert not isinstance(task, threading.Thread)
    assert kicks == [task]          # the task's park, and nothing else


@pytest.mark.parametrize("backend", BACKENDS)
def test_racing_last_blockers_never_lose_the_kick(hold_monitor, backend):
    """Eight readers, half of them tasks on the async backend, are woken
    together and block again together, many times, with the interpreter
    switching threads as often as it can.  Each wave ends with every
    actor blocked, so some wait or park of the wave must have seen
    ``blocked >= live`` and kicked: each recorder stores before it
    counts, and a lost kick would leave a wave with none.  Wave 0 may
    block entirely while ``start`` still counts itself live: its kick is
    then ``start``'s own count-out, recorded as "count-out" (no actor
    ends before the last wave)."""
    readers, waves = 8, 30
    net = Network(name=f"race-{backend}", backend=backend)
    kicks = count_kicks(net)
    kick = net.monitor.kick
    net.monitor.kick = lambda: kicks.append("count-out") or kick()
    chans = [net.channel(name=f"race-{k}") for k in range(readers)]
    outs = [[] for _ in range(readers)]
    for k, ch in enumerate(chans):
        kind = ThreadCollect if k % 2 else Collect
        net.add(kind(ch.get_input_stream(), outs[k], name=f"reader-{k}"))
    writers = [ch.get_output_stream() for ch in chans]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        net.start()
        for wave in range(waves + 1):
            # every reader has taken the wave's value and blocked again
            until(lambda: all(len(out) == wave for out in outs)
                  and len(net.accounting.snapshot()) == readers,
                  f"wave {wave}: not every reader blocked")
            # (the kick follows the record it counts, by a few bytecodes)
            until(lambda: kicks, f"wave {wave}: no kick", timeout=5.0)
            kicks.clear()
            if wave < waves:
                for writer in writers:
                    LONG.write(writer, wave)
        for writer in writers:
            writer.close()
        assert net.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert outs == [list(range(waves))] * readers
    assert net.live_count() == 0


# ---------------------------------------------------------------------------
# what the rule saves: a paced thread chain
# ---------------------------------------------------------------------------

class PacedSource(IterativeProcess):
    """``count`` items, one every ``gap`` seconds."""

    def __init__(self, out, count, gap, **kw):
        super().__init__(iterations=count, **kw)
        self.out, self.gap = out, gap
        self.track(out)

    def step(self):
        time.sleep(self.gap)
        LONG.write(self.out, self.steps_completed)


def test_a_paced_thread_chain_leaves_the_monitor_asleep():
    """source -> Scale x4 -> sink, 2000 items 0.2 ms apart: every item
    wakes each stage from a wait, and each stage waits again, while the
    source is mostly asleep between items — never a possible stall.
    Only the 50 ms poll (and the exits at the end) examine."""
    items = 2000
    net = Network(name="paced")
    examined = []
    examine = net.monitor._examine
    net.monitor._examine = lambda: examined.append(1) or examine()
    kicks = count_kicks(net)
    chans = [net.channel(name=f"paced-{k}") for k in range(5)]
    net.add(PacedSource(chans[0].get_output_stream(), items, 0.0002,
                        name="source"))
    for k in range(4):
        net.add(Scale(chans[k].get_input_stream(),
                      chans[k + 1].get_output_stream(), 1,
                      name=f"scale-{k}"))
    out = []
    net.add(Collect(chans[4].get_input_stream(), out, name="sink"))
    start = time.monotonic()
    assert net.run(timeout=60)
    wall = time.monotonic() - start
    assert out == list(range(items))
    # about one poll per 50 ms, a few kicks at the close cascade
    assert len(examined) < 200, (len(examined), len(kicks), wall)
    assert len(kicks) < items // 20


# ---------------------------------------------------------------------------
# a composite's thread is not live while it waits on its members
# ---------------------------------------------------------------------------

class WriteAllThen(IterativeProcess):
    """One step: ``count`` values to ``first``, then ``count`` to
    ``second``."""

    def __init__(self, first, second, count, **kw):
        super().__init__(iterations=1, **kw)
        self.first, self.second, self.count = first, second, count
        self.track(first, second)

    def step(self):
        for value in range(self.count):
            LONG.write(self.first, value)
        for value in range(self.count):
            LONG.write(self.second, -value)


class ReadAllThen(IterativeProcess):
    """One step: ``count`` values from ``first``, then from ``second``."""

    def __init__(self, first, second, count, out, **kw):
        super().__init__(iterations=1, **kw)
        self.first, self.second, self.count = first, second, count
        self.out = out
        self.track(first, second)

    def step(self):
        self.out.extend(LONG.read(self.first) for _ in range(self.count))
        self.out.extend(LONG.read(self.second) for _ in range(self.count))


def _readers_on_empty_channels(net):
    a, b = net.channel(name="empty-a"), net.channel(name="empty-b")
    return [Collect(a.get_input_stream(), [], name="reader-a"),
            Collect(b.get_input_stream(), [], name="reader-b")]


def _figure_13(net, out, count=100):
    """The producer fills ``a`` before it writes ``b``; the consumer reads
    ``b`` first.  ``a`` (16 bytes) must grow to hold ``count`` longs."""
    a = net.channel(16, name="fig13-a")
    b = net.channel(16, name="fig13-b")
    return [WriteAllThen(a.get_output_stream(), b.get_output_stream(),
                         count, name="producer"),
            ReadAllThen(b.get_input_stream(), a.get_input_stream(),
                        count, out, name="consumer")]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("wrapped", [False, True])
def test_true_deadlock_inside_a_composite_is_diagnosed(backend, wrapped):
    net = Network(name=f"td-{backend}", backend=backend)
    members = _readers_on_empty_channels(net)
    if wrapped:
        net.add(CompositeProcess(members, name="composite"))
    else:
        for member in members:
            net.add(member)
    start = time.monotonic()
    with pytest.raises(TrueDeadlockError) as info:
        net.run(timeout=10)
    assert time.monotonic() - start < 2.0
    assert set(info.value.blocked) == {"reader-a", "reader-b"}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("wrapped", [False, True])
def test_artificial_deadlock_inside_a_composite_grows(backend, wrapped):
    net = Network(name=f"ad-{backend}", backend=backend)
    out = []
    members = _figure_13(net, out)
    if wrapped:
        net.add(CompositeProcess(members, name="composite"))
    else:
        for member in members:
            net.add(member)
    assert net.run(timeout=10)
    assert out == [-v for v in range(100)] + list(range(100))
    grown = {e.channel_name for e in net.growth_events()}
    assert grown == {"fig13-a"}
    assert net.channel_by_name("fig13-a").capacity >= 800


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_waiting_composite_is_not_live_and_counts_again_after(
        hold_monitor, backend):
    net = Network(name=f"live-{backend}", backend=backend)
    ch = net.channel(name="live-ch")
    out = []
    composite = net.add(CompositeProcess(
        [Collect(ch.get_input_stream(), out, name="member")],
        name="composite"))
    net.start()
    until(lambda: blocked_names(net) == {"member"}
          and net.live_count() == 1, "the composite never waited")
    assert [t.name for t in net.live_threads()] == ["member"]
    writer = ch.get_output_stream()
    LONG.write(writer, 5)
    writer.close()
    assert net.join(timeout=10)
    assert out == [5] and composite.failure is None
    assert net.live_count() == 0
