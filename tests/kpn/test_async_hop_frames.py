"""What one token's async hop costs in Python frames, and what the cheap
hop must not lose.

A ring of relays hosted as cooperative tasks on one event loop, one token
in flight at a time: every hop is a gate that passes without looking at
the input the wake just fed, a step (read, then write), a gate that
parks, and a wake from the next writer straight onto the run queue.
Counted with ``sys.setprofile`` ``call`` events on the loop's thread,
which see Python frames only, so the number repeats: 11 per hop —
``Task._resume``, the step, the codec's read and the endpoint's answer
where the element lies, one ``drain_up_to``, the codec's write and the
ring's, the next relay's wake, the output's look, the input look and
the park.  It was 47
when the gate walked the stream stack and the read miss went through
the sequence, 22 while every park and wake entered and left the
accounting under its lock and kicked the deadlock monitor, and 16 while
the gate and the step each had a frame of their own and the refill and
the wake went through a helper each.  A park is one
entry in the accounting's map, and it kicks the monitor only when it
leaves every live actor blocked (a ``len`` and a compare, no frame
otherwise).

The same ring with telemetry on must still put every event of a task in
that task's lane, and a step that hands its thread off and then wakes a
loop-mate must reach the loop's new thread.  The park record must still
name every parked task, and a wake that skipped the input check must
still deliver every token when the input is spliced under it.
"""

import gc
import queue
import sys
import threading
import time

import pytest

from repro.kpn import Network
from repro.kpn.aio import Task
from repro.kpn.process import IterativeProcess, StopProcess
from repro.processes.codecs import LONG
from repro.telemetry.core import TELEMETRY

RELAYS = 100
TOKENS = 10


@pytest.fixture
def handoffs(monkeypatch):
    """Every hand-off, by task name."""
    seen = []
    hand_off = Task.hand_off

    def recording(self, buffer, mode):
        if not self.on_thread:
            seen.append(self.name)
        hand_off(self, buffer, mode)

    monkeypatch.setattr(Task, "hand_off", recording)
    return seen


class Relay(IterativeProcess):
    """The smallest process a user would write, under the default rule."""

    def __init__(self, src, out, **kw):
        super().__init__(**kw)
        self.src, self.out = src, out
        self.track(src, out)

    def step(self):
        LONG.write(self.out, LONG.read(self.src))


class Feed(IterativeProcess):
    """Writes what the test puts in its queue; waits on the queue, which is
    not a channel, so a quiet ring is never a stall."""

    kpn_async = False

    def __init__(self, out, items, **kw):
        super().__init__(**kw)
        self.out, self.items = out, items
        self.track(out)

    def step(self):
        item = self.items.get()
        if item is None:
            raise StopProcess
        LONG.write(self.out, item)


class Drain(IterativeProcess):
    kpn_async = False

    def __init__(self, src, results, **kw):
        super().__init__(**kw)
        self.src, self.results = src, results
        self.track(src)

    def step(self):
        self.results.put(LONG.read(self.src))


def ring(name, relay=Relay):
    """Feed -> ``relay`` x RELAYS -> Drain on an async network; returns the
    network, the feed's queue and the drain's queue."""
    net = Network(name=name, backend="async")
    chans = [net.channel(name=f"{name}-{k}") for k in range(RELAYS + 1)]
    items, results = queue.Queue(), queue.Queue()
    net.add(Feed(chans[0].get_output_stream(), items, name=f"{name}-feed"))
    for k in range(RELAYS):
        net.add(relay(chans[k].get_input_stream(),
                      chans[k + 1].get_output_stream(),
                      name=f"{name}-relay-{k}"))
    net.add(Drain(chans[-1].get_input_stream(), results,
                  name=f"{name}-drain"))
    return net, items, results


def send(items, results, values):
    for value in values:
        items.put(value)
        assert results.get(timeout=10) == value


def stop(net, items):
    items.put(None)
    assert net.join(timeout=30)


# ---------------------------------------------------------------------------
# frames per hop
# ---------------------------------------------------------------------------

def test_one_token_hop_is_at_most_11_frames_on_the_loop_thread():
    net, items, results = ring("frames")
    loop_name = "frames-loop"
    counting = False
    frames = {}

    def profiler(frame, event, arg):
        if (counting and event == "call"
                and threading.current_thread().name == loop_name):
            owner = type(frame.f_locals.get("self")).__name__
            name = f"{owner}.{frame.f_code.co_name}"
            frames[name] = frames.get(name, 0) + 1

    threading.setprofile(profiler)      # the loop thread starts in start()
    try:
        net.start()
        send(items, results, range(3))  # warm: every relay has parked once
        # no collection while counting: the collector's callbacks and
        # finalizers would run, and be counted, on whichever thread it
        # interrupts
        collecting = gc.isenabled()
        gc.disable()
        try:
            counting = True
            send(items, results, range(TOKENS))
            counting = False
        finally:
            if collecting:
                gc.enable()
    finally:
        threading.setprofile(None)
    stop(net, items)
    hops = TOKENS * RELAYS
    # 11 a hop; and once a token, when the ring is quiet, the loop's
    # sleep on its condition (enter, wait, exit)
    assert sum(frames.values()) <= 11 * hops + 3 * TOKENS, \
        sorted(frames.items(), key=lambda kv: -kv[1])
    # each hop runs one step, parks once and is woken once ...
    assert frames["Relay.step"] == hops
    assert frames["BoundedByteBuffer.async_park"] == hops
    # (the feed's thread wakes the first relay)
    assert frames["Task.unparked"] == hops - TOKENS
    # ... and never walks the stream stack or a layer between the
    # accounting and the monitor
    assert not [name for name in frames
                if name.split(".")[0] in ("BlockingInputStream",
                                          "SequenceInputStream", "Network")]
    # a park and a wake are the buffer's own: no accounting call, no
    # schedule frame, and no kick — the feed waits on its queue, not a
    # channel, so no park leaves every live actor blocked
    for name in ("BlockAccounting._enter", "BlockAccounting._exit",
                 "EventLoop.schedule", "DeadlockMonitor.kick"):
        assert name not in frames, frames
    # the gate and the step are the task's own code, and the refill and
    # the wake are the ring's: no frame of their own
    for name in ("Task._gate", "_StepDriver.pump",
                 "BoundedByteBuffer._take_locked",
                 "BoundedByteBuffer._wake_readers"):
        assert name not in frames, frames
    # the wake fed the relay: only the gate after its step reads the
    # input, and it looks at the output's room once
    assert frames["ChannelInputStream.would_block_on"] == hops
    assert frames["LocalOutputStream.would_block_on"] == hops


# ---------------------------------------------------------------------------
# the park record
# ---------------------------------------------------------------------------

def until(condition, what):
    deadline = time.monotonic() + 10
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


def parked(net, count):
    """The accounting's blocked map once ``count`` tasks are in it."""

    def tasks():
        return {actor: wait for actor, wait in
                net.accounting.snapshot().items() if isinstance(actor, Task)}

    until(lambda: len(tasks()) == count, f"never {count} tasks parked")
    return tasks()


def test_a_stalled_ring_names_every_parked_task():
    net, items, results = ring("record")
    net.start()
    send(items, results, [1])
    parked(net, RELAYS)
    snapshot = net.wait_snapshot()
    tasks = {e["thread"]: e for e in snapshot["blocked"] if e["kind"] == "task"}
    assert sorted(tasks) == sorted(f"record-relay-{k}" for k in range(RELAYS))
    for k in range(RELAYS):
        entry = tasks[f"record-relay-{k}"]
        assert (entry["mode"], entry["channel"]) == ("read", f"record-{k}")
        assert entry["assumed"] and not entry["on_thread"]
    # one token more: every relay is woken and parks again
    generation = snapshot["generation"]
    send(items, results, [2])
    parked(net, RELAYS)
    assert net.wait_snapshot()["generation"] > generation
    stop(net, items)
    assert net.accounting.snapshot() == {}


class Hold(IterativeProcess):
    """One step that holds its event loop until released: a task woken
    meanwhile waits on the run queue, its gate not yet run."""

    def __init__(self, entered, release, **kw):
        super().__init__(**kw)
        self.entered, self.release = entered, release

    def step(self):
        self.entered.set()
        assert self.release.wait(10)
        raise StopProcess


def test_a_fed_wake_survives_a_splice_of_its_input(handoffs):
    """The relay's input x gets y spliced behind it, and x ends: the end
    wakes the relay off x, fed.  Its gate takes the input as ready
    without looking; the step reads through x's end into y, which is
    empty, and sleeps there on a borrowed thread — a hand-off, not a
    park and not a verdict.  Every token still arrives, in order."""
    net = Network(name="splice", backend="async")
    x, y, z = (net.channel(name=f"sp-{c}") for c in "xyz")
    x_items, y_items, results = queue.Queue(), queue.Queue(), queue.Queue()
    net.add(Feed(x.get_output_stream(), x_items, name="sp-feed-x"))
    net.add(Feed(y.get_output_stream(), y_items, name="sp-feed-y"))
    net.add(Relay(x.get_input_stream(), z.get_output_stream(),
                  name="sp-relay"))
    net.add(Drain(z.get_input_stream(), results, name="sp-drain"))
    net.start()
    send(x_items, results, [1])
    [(relay, wait)] = parked(net, 1).items()
    assert wait == (x.buffer, "read")

    entered, release = threading.Event(), threading.Event()
    net.spawn(Hold(entered, release, name="sp-hold"))
    assert entered.wait(10)                 # the loop is held
    x.get_input_stream().splice_from(y.get_input_stream())
    x_items.put(None)                       # x ends: the wake
    until(lambda: relay not in net.accounting.snapshot(), "never woken")
    assert relay._fed and x.buffer.write_closed
    release.set()                           # the relay's gate runs now

    until(lambda: relay.on_thread, "the relay never slept on y")
    assert handoffs == ["sp-relay"]
    send(y_items, results, [2, 3, 4])
    stop(net, y_items)
    assert results.empty()


# ---------------------------------------------------------------------------
# telemetry: a task's events stay in the task's lane
# ---------------------------------------------------------------------------

class SwitchingRelay(Relay):
    """Turns telemetry on from inside its own step, once, when asked."""

    switch = False

    def step(self):
        if self.switch:
            self.switch = False
            TELEMETRY.enable()
        super().step()


def test_block_spans_keep_the_task_name_and_lane():
    net, items, results = ring("lanes", relay=SwitchingRelay)
    relays = [p for p in net.processes if isinstance(p, SwitchingRelay)]
    TELEMETRY.reset()
    try:
        net.start()
        send(items, results, range(2))          # telemetry off
        relays[RELAYS // 2].switch = True       # on, in the middle of a resume
        send(items, results, range(2, 5))
        events = TELEMETRY.events()
        tasks = {a.name: a for a in net.live_threads() if isinstance(a, Task)}
    finally:
        TELEMETRY.disable()
    stop(net, items)
    TELEMETRY.reset()

    assert len(tasks) == RELAYS
    lanes = {task.vtid: name for name, task in tasks.items()}
    blocks = [e for e in events if e.category == "kpn.block"]
    assert blocks
    per_lane = {}
    for e in events:
        # nothing is emitted from the loop's own lane: every event of a
        # step, a park or a wake belongs to a task or a real thread
        assert e.thread_name != "lanes-loop", e
        if e.tid < 0:
            assert lanes[e.tid] == e.thread_name, e
    for e in blocks:
        if e.phase == "B":
            # a park's span is named after the task that parked
            assert e.args["process"] == e.thread_name
        per_lane.setdefault(e.tid, []).append(e.phase)
    # the relay that switched telemetry on opened its park in its own lane
    switched = tasks[relays[RELAYS // 2].name]
    assert per_lane[switched.vtid][0] == "B"
    for tid, phases in per_lane.items():
        if tid < 0:
            # park, wake, park, ...: the wake closes the span in the lane
            # of the task it wakes, whichever thread issues it
            assert phases[::2] == ["B"] * len(phases[::2]), lanes[tid]
            assert phases[1::2] == ["E"] * len(phases[1::2]), lanes[tid]


# ---------------------------------------------------------------------------
# the loop-thread test after a hand-off
# ---------------------------------------------------------------------------

# A relay whose declared rule names no input is not gated on its input:
# its read of an empty channel sleeps inside the step and borrows the
# loop's thread.

class UngatedRelay(Relay):
    """Declares a rule that names no input: every step starts, and a read
    of an empty input hands the loop's thread off."""

    def awaits(self):
        return ()


class StrictCollect(IterativeProcess):
    """Declared (``kpn_strict``): its gate parks it on an empty input."""

    kpn_strict = True

    def __init__(self, src, out, **kw):
        super().__init__(**kw)
        self.src, self.out = src, out
        self.track(src)

    def step(self):
        self.out.append(LONG.read(self.src))


def test_wake_from_a_borrowed_thread_reaches_the_sleeping_loop(hold_monitor):
    # both actors wait on this test's writes: a settle window longer than
    # the test keeps the monitor from calling that a true deadlock
    net = Network(name="borrow", backend="async")
    x, y = net.channel(name="bw-x"), net.channel(name="bw-y")
    feed = x.get_output_stream()                # written by this test
    got = []
    net.add(UngatedRelay(x.get_input_stream(), y.get_output_stream(),
                         name="fwd"))
    net.add(StrictCollect(y.get_input_stream(), got, name="collect"))
    net.start()
    loop = net._loop
    forward = next(a for a in net.live_threads() if a.name == "fwd")
    deadline = time.monotonic() + 10
    # "fwd" sleeps on its borrowed thread, "collect" is parked on y, and
    # the loop's next thread, with nothing to run, sleeps on its condition
    while not (forward.on_thread and loop._cond._waiters):
        assert time.monotonic() < deadline, "the loop never went to sleep"
        time.sleep(0.005)
    notified_by_loop = []
    notify = loop._cond.notify

    def recording(*args):
        notified_by_loop.append(threading.current_thread() is loop.thread)
        notify(*args)

    loop._cond.notify = recording

    LONG.write(feed, 7)     # "fwd" wakes on its own thread, writes y ...
    while not got:          # ... and "collect" must run on the loop's
        assert time.monotonic() < deadline, "lost wake-up"
        time.sleep(0.005)
    assert got == [7]
    # the wake went through the condition, from a thread that was no
    # longer the loop's
    assert notified_by_loop[:1] == [False]
    feed.close()
    assert net.join(timeout=10)


class Arrivals(queue.Queue):
    """What StrictCollect appends to, for a test to wait on."""

    append = queue.Queue.put


def test_hand_offs_under_a_tiny_switch_interval_lose_no_wake_up(handoffs):
    """One token at a time through ungated relays on one loop: each
    finds its input empty, hands off, and from the borrowed thread wakes
    the next relay and requeues itself, with a thread switch forced
    every microsecond.  Every token arrives, in order."""
    tokens = 150
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        net = Network(name="stress", backend="async")
        chans = [net.channel(name=f"st-{k}") for k in range(6)]
        items, arrivals = queue.Queue(), Arrivals()
        net.add(Feed(chans[0].get_output_stream(), items, name="st-feed"))
        for k in range(5):
            net.add(UngatedRelay(chans[k].get_input_stream(),
                                 chans[k + 1].get_output_stream(),
                                 name=f"st-fwd-{k}"))
        net.add(StrictCollect(chans[-1].get_input_stream(), arrivals,
                              name="st-collect"))
        net.start()
        for value in range(tokens):
            items.put(value)
            assert arrivals.get(timeout=10) == value, "a wake-up was lost"
        items.put(None)
        assert net.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert len(handoffs) >= tokens      # the path under test was taken
