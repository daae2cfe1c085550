"""The async backend's one suspension mechanism: firing-rule gate,
thread hand-off, and the monitor's refusal to judge a guess.

A task's step is plain blocking code that runs exactly once, so whatever
a process keeps its state in is safe; what can go wrong instead is
liveness (a gate that waits for something the step does not need) and
thread bookkeeping (a loop that loses or leaks the thread a step slept
on).  The thread backend is the oracle throughout.  Also here: the
completion and loop-local wake-up cases that outlived the step snapshot
they used to share a file with.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TrueDeadlockError
from repro.kpn import Network, scheduler
from repro.kpn.aio import EventLoop, Task
from repro.kpn.history import HistoryCapture
from repro.kpn.process import IterativeProcess
from repro.processes import (Collect, Scale, Sequence, fibonacci, hamming,
                             modulo_merge, newton_sqrt)
from repro.processes.codecs import LONG

BACKENDS = ["thread", "async"]


def _threads_left(before, timeout=5.0):
    """Threads started since ``before`` (a set of ``threading.enumerate()``)
    still alive.  Loop and borrowed threads end on their own, a moment
    after join; a thread of an earlier test that ends meanwhile is not
    counted against this one, as a bare ``active_count`` would."""
    deadline = time.monotonic() + timeout
    while True:
        left = set(threading.enumerate()) - before
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.01)


@pytest.fixture
def handoffs(monkeypatch):
    """Every hand-off as ``(process class name, mode)``."""
    seen = []
    hand_off = Task.hand_off

    def recording(self, buffer, mode):
        if not self.on_thread:
            seen.append((type(self.process).__name__, mode))
        hand_off(self, buffer, mode)

    monkeypatch.setattr(Task, "hand_off", recording)
    return seen


@pytest.fixture
def forced(monkeypatch):
    """Names of the tasks the monitor released from an assumed wait."""
    seen = []
    force = Task.force

    def recording(self, buffer, mode):
        seen.append(self.name)
        force(self, buffer, mode)

    monkeypatch.setattr(Task, "force", recording)
    return seen


# ---------------------------------------------------------------------------
# exactly once, whatever the state lives in
# ---------------------------------------------------------------------------

class Box:
    n = 0


class BoxRelay(IterativeProcess):
    """Mutates an attribute of a plain object, then reads — the state the
    old per-step snapshot could not see and silently re-mutated."""

    def __init__(self, src, out, **kw):
        super().__init__(**kw)
        self.src, self.out = src, out
        self.box = Box()
        self.track(src, out)

    def step(self):
        self.box.n += 1
        LONG.write(self.out, LONG.read(self.src) + self.box.n)


class ArrayRelay(BoxRelay):
    def __init__(self, src, out, **kw):
        super().__init__(src, out, **kw)
        self.box = np.zeros(1, dtype=np.int64)

    def step(self):
        self.box[0] += 1
        LONG.write(self.out, LONG.read(self.src) + int(self.box[0]))


class TwoReadRelay(BoxRelay):
    """State mutated *between* two reads: the second read sleeps mid-step."""

    def step(self):
        a = LONG.read(self.src)
        self.box.n += 1
        b = LONG.read(self.src)
        LONG.write(self.out, a + b + self.box.n)


@pytest.mark.parametrize("relay, expected", [
    (BoxRelay, [1, 1002, 2003, 3004, 4005, 5006]),
    (ArrayRelay, [1, 1002, 2003, 3004, 4005, 5006]),
    (TwoReadRelay, [1001, 5002, 9003]),
])
@pytest.mark.parametrize("backend", BACKENDS)
def test_state_in_any_object_is_mutated_once_per_step(backend, relay, expected):
    net = Network(backend=backend)
    a = net.channel(capacity=LONG.width)        # one element: every hop waits
    b = net.channel(capacity=LONG.width)
    out = []
    net.add(Sequence(a.get_output_stream(), stride=1000, iterations=6))
    net.add(relay(a.get_input_stream(), b.get_output_stream()))
    net.add(Collect(b.get_input_stream(), out))
    assert net.run(timeout=30)
    assert out == expected


class Counted(IterativeProcess):
    """Counts entries into each body; its step reads twice and writes
    twice over one-element channels, so it sleeps inside the step."""

    def __init__(self, src, out, **kw):
        super().__init__(**kw)
        self.src, self.out = src, out
        self.entries = {"on_start": 0, "step": 0, "on_stop": 0}
        self.track(src, out)

    def on_start(self):
        self.entries["on_start"] += 1
        LONG.write(self.out, -1)
        LONG.write(self.out, -2)                # sleeps inside on_start

    def step(self):
        self.entries["step"] += 1
        a, b = LONG.read(self.src), LONG.read(self.src)
        LONG.write(self.out, a)
        LONG.write(self.out, b)

    def on_stop(self):
        self.entries["on_stop"] += 1
        super().on_stop()


class LoopSource(IterativeProcess):
    """Writes ``items`` from a run loop of its own: a custom ``run``."""

    def __init__(self, out, items, **kw):
        super().__init__(**kw)
        self.out, self.items = out, items
        self.track(out)

    def run(self):
        try:
            for item in self.items:
                LONG.write(self.out, item)
        finally:
            self.on_stop()


@pytest.mark.parametrize("fused", [False, True])
def test_no_body_is_entered_twice(fused, handoffs):
    net = Network(backend="async")
    a = net.channel(capacity=LONG.width)
    b = net.channel(capacity=LONG.width)
    c = net.channel(capacity=LONG.width)
    out = []
    # a custom run loop keeps its thread and stays out of the fused chain,
    # so channel a is a real one-element ring either way: a pump of the
    # chain counted+scale+collect sleeps in it like a lone step does
    net.add(LoopSource(a.get_output_stream(), range(20)))
    counted = net.add(Counted(a.get_input_stream(), b.get_output_stream()))
    net.add(Scale(b.get_input_stream(), c.get_output_stream(), 1))
    net.add(Collect(c.get_input_stream(), out))
    if fused:
        net.optimize()
    assert net.run(timeout=30)
    assert (net.fusion_plan is not None) == fused
    assert out == [-1, -2] + list(range(20))
    assert counted.entries == {"on_start": 1, "step": 11, "on_stop": 1}
    assert counted.steps_completed == 10        # the 11th met end of stream
    assert handoffs, "one-element channels must have made a step sleep"


# ---------------------------------------------------------------------------
# hand-off: the loop goes on, the borrowed thread comes back
# ---------------------------------------------------------------------------

class PairSum(IterativeProcess):
    """Default rule (one input): the gate sees the first element, the
    second read finds the channel empty and sleeps."""

    def __init__(self, src, out, **kw):
        super().__init__(**kw)
        self.src, self.out = src, out
        self.track(src, out)

    def step(self):
        LONG.write(self.out, LONG.read(self.src) + LONG.read(self.src))


class Gated(IterativeProcess):
    """A thread-hosted source that writes only when told to."""

    kpn_async = False

    def __init__(self, out, go, **kw):
        super().__init__(**kw)
        self.out, self.go = out, go
        self.track(out)

    def step(self):
        self.go.acquire()
        LONG.write(self.out, self.steps_completed)


def test_step_blocking_on_its_second_read_hands_off(handoffs):
    baseline = set(threading.enumerate())
    net = Network(backend="async")
    slow = net.channel(name="slow")
    summed = net.channel(name="summed")
    side = net.channel(name="side")
    go, side_go = threading.Semaphore(0), threading.Semaphore(0)
    sums, others = [], []
    net.add(Gated(slow.get_output_stream(), go, iterations=2, name="gated"))
    net.add(PairSum(slow.get_input_stream(), summed.get_output_stream(),
                    name="pair"))
    net.add(Collect(summed.get_input_stream(), sums, name="sums"))
    # a bystander on the same loop: it must be served while "pair" sleeps
    net.add(Gated(side.get_output_stream(), side_go, iterations=50,
                  name="side-gated"))
    net.add(Collect(side.get_input_stream(), others, name="others"))
    net.start()
    loop = net._loop
    first_thread = loop.thread

    go.release()                                # first element only
    deadline = time.monotonic() + 10
    while not handoffs and time.monotonic() < deadline:
        time.sleep(0.005)
    assert handoffs == [("PairSum", "read")]
    assert loop.thread is not first_thread      # the loop moved on
    # the hand-off comes first in the buffer's _block, the accounting's
    # record of the wait a moment later
    entry = None
    while entry is None and time.monotonic() < deadline:
        entry = next((b for b in net.wait_snapshot()["blocked"]
                      if b["thread"] == "pair"), None)
        time.sleep(0.001)
    assert entry is not None, "pair never recorded as blocked"
    assert entry["kind"] == "task" and entry["on_thread"] is True
    assert entry["assumed"] is False            # an observed wait
    for _ in range(50):
        side_go.release()
    while len(others) < 50 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert others == list(range(50))            # served meanwhile
    assert sums == []

    go.release()
    assert net.join(timeout=30)
    assert sums == [1]
    assert handoffs == [("PairSum", "read")]
    assert _threads_left(baseline) == set()


def test_handed_off_task_is_tagged_in_top():
    from repro.telemetry.distributed import render_top

    snap = {"backend": "async", "blocked": [
        {"thread": "a", "kind": "task", "mode": "read", "channel": "x",
         "capacity": 8, "buffered": 0, "assumed": True, "on_thread": False},
        {"thread": "b", "kind": "task", "mode": "read", "channel": "y",
         "capacity": 8, "buffered": 0, "assumed": False, "on_thread": True}]}
    text = render_top([{"name": "n", "stats": {}, "snapshot": snap}],
                      show_blocked=True)
    assert "on x (0/8B) [task]\n" in text + "\n"
    assert "on y (0/8B) [task+thread]" in text


def test_block_span_of_a_handed_off_step_names_the_task(handoffs):
    from repro.telemetry.core import TELEMETRY

    TELEMETRY.reset().enable()
    try:
        net = Network(backend="async", name="spans")
        a = net.channel(capacity=LONG.width, name="sp-a")
        b = net.channel(name="sp-b")
        out = []
        net.add(Sequence(a.get_output_stream(), iterations=6, name="seq"))
        net.add(PairSum(a.get_input_stream(), b.get_output_stream(),
                        name="pair"))
        net.add(Collect(b.get_input_stream(), out, name="sink"))
        assert net.run(timeout=30)
        events = TELEMETRY.events()
        counted = TELEMETRY.counter("kpn.task.handoffs")
    finally:
        TELEMETRY.disable().reset()
    assert out == [1, 5, 9]
    instants = [e for e in events if e.name == "task.handoff"]
    assert len(instants) == len(handoffs) > 0
    assert {(e.args["process"], e.args["channel"], e.args["mode"])
            for e in instants} == {("pair", "sp-a", "read")}
    assert counted == len(handoffs)
    # the thread a step sleeps on is named after the loop; the span is not
    slept = [e for e in events if e.category == "kpn.block"
             and e.phase == "B" and e.args["channel"] == "sp-a"
             and e.args["process"] == "pair"]
    assert slept
    assert not [e for e in events if e.category == "kpn.block"
                and "loop" in str((e.args or {}).get("process", ""))]


# ---------------------------------------------------------------------------
# no verdict on a guess
# ---------------------------------------------------------------------------

class Alternator(IterativeProcess):
    """Even steps write without reading, odd steps read: two of these
    facing each other are live, and both gates (default rule: "reads its
    only input") are wrong about every even step."""

    def __init__(self, src, out, **kw):
        super().__init__(**kw)
        self.src, self.out = src, out
        self.got = []
        self.track(src, out)

    def step(self):
        if self.steps_completed % 2 == 0:
            LONG.write(self.out, self.steps_completed)
        else:
            self.got.append(LONG.read(self.src))


class DeclaredAlternator(Alternator):
    def awaits(self):
        return (self.src,) if self.steps_completed % 2 else ()


def _facing_pair(cls, steps=8, **network):
    net = Network(backend="async", name=f"pair-{cls.__name__}", **network)
    ab, ba = net.channel(name="ab"), net.channel(name="ba")
    a = net.add(cls(ba.get_input_stream(), ab.get_output_stream(),
                    iterations=steps, name="a"))
    b = net.add(cls(ab.get_input_stream(), ba.get_output_stream(),
                    iterations=steps, name="b"))
    return net, a, b


def test_assumed_waits_are_run_for_real_before_a_true_deadlock_verdict(forced):
    net, a, b = _facing_pair(Alternator)
    assert net.run(timeout=30)                  # not TrueDeadlockError
    assert a.got == b.got == [0, 2, 4, 6]
    assert set(forced) == {"a", "b"}


def test_declared_waits_are_never_force_run(forced, handoffs):
    net, a, b = _facing_pair(DeclaredAlternator)
    assert net.run(timeout=30)
    assert a.got == b.got == [0, 2, 4, 6]
    assert forced == [] and handoffs == []


@pytest.mark.parametrize("relay, guessing", [(BoxRelay, True), (Scale, False)],
                         ids=["opaque", "kpn_strict"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_real_true_deadlock_still_diagnosed_after_the_check(
        backend, relay, guessing, forced):
    """Two relays facing each other with no token.  Opaque ones wait on a
    guess: once run for real they are observed waits and the verdict
    stands.  ``kpn_strict`` vouches for the default rule: judged as they
    lie, like a declared rule."""
    make = relay if guessing else (lambda src, out, **kw: Scale(src, out, 1, **kw))
    net = Network(backend=backend)
    ab, ba = net.channel(name="ab"), net.channel(name="ba")
    net.add(make(ba.get_input_stream(), ab.get_output_stream(), name="a"))
    net.add(make(ab.get_input_stream(), ba.get_output_stream(), name="b"))
    with pytest.raises(TrueDeadlockError) as info:
        net.run(timeout=30)
    assert set(info.value.blocked) == {"a", "b"}
    assert sorted(forced) == (["a", "b"] if guessing and backend == "async"
                              else [])


def test_growth_disabled_verdict_waits_for_observed_waits(forced, monkeypatch):
    """A full output is a guess too: the step might write elsewhere."""

    class Chooser(IterativeProcess):
        def __init__(self, full, free, **kw):
            super().__init__(**kw)
            self.full, self.free = full, free
            self.track(full, free)

        def step(self):
            LONG.write(self.free, self.steps_completed)

    class FreeThenFull(IterativeProcess):
        def __init__(self, free, full, into, **kw):
            super().__init__(**kw)
            self.free, self.full, self.into = free, full, into
            self.track(free, full)

        def step(self):
            self.into.extend(LONG.read(self.free) for _ in range(5))
            self.into.append(LONG.read(self.full))

    monkeypatch.setattr(scheduler, "MAX_CAPACITY", LONG.width)
    net = Network(backend="async")
    full = net.channel(capacity=LONG.width, name="full")
    free = net.channel(name="free")
    full.get_output_stream().write(LONG.encode(7))  # stays full to the end
    out = []
    net.add(Chooser(full.get_output_stream(), free.get_output_stream(),
                    iterations=5, name="chooser"))
    net.add(FreeThenFull(free.get_input_stream(), full.get_input_stream(),
                         out, iterations=1, name="reader"))
    # the chooser parks on room in "full", the reader sleeps on "free":
    # a write wait with growth off — and not an ArtificialDeadlockError
    assert net.run(timeout=30)
    assert out == [0, 1, 2, 3, 4, 7]
    assert forced == ["chooser"]


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

def test_relay_ring_of_two_thousand_never_hands_off(handoffs):
    baseline = set(threading.enumerate())
    relays, tokens = 2000, 10                   # 20 000 hops
    net = Network(backend="async", name="ring")
    chans = [net.channel(name=f"r{k}") for k in range(relays + 1)]
    out = []
    net.add(Sequence(chans[0].get_output_stream(), iterations=tokens))
    for k in range(relays):
        net.add(Scale(chans[k].get_input_stream(),
                      chans[k + 1].get_output_stream(), 1, name=f"relay-{k}"))
    net.add(Collect(chans[-1].get_input_stream(), out))
    assert net.run(timeout=120)
    assert out == list(range(tokens))
    assert handoffs == []
    assert _threads_left(baseline) == set()


def _dynamic_farm():
    from repro.parallel.farm import build_farm
    from repro.parallel.tasks import CallableTask, RangeProducerTask

    # channels no write can find full: a pickled frame that straddles the
    # room left in a full channel sleeps mid-write, which is a legitimate
    # hand-off and not what the firing rules are about
    return build_farm(RangeProducerTask(60, lambda i: CallableTask(pow, i, 2)),
                      n_workers=2, mode="dynamic", channel_capacity=1 << 16,
                      network=Network(backend="async"))


@pytest.mark.parametrize("build", [
    lambda: fibonacci(80, network=Network(backend="async")),
    lambda: hamming(300, network=Network(backend="async")),
    lambda: newton_sqrt(2.0, network=Network(backend="async")),
    lambda: modulo_merge(60, 10, network=Network(backend="async")),
    _dynamic_farm,
], ids=["fibonacci", "hamming", "newton", "fig13", "farm-dynamic"])
def test_declared_library_rules_leave_the_figures_without_hand_offs(
        build, handoffs):
    baseline = set(threading.enumerate())
    built = build()
    net = built.network
    net.run(timeout=120)
    assert any(isinstance(t, Task) for t in net._threads)
    assert handoffs == []
    assert _threads_left(baseline) == set()


# ---------------------------------------------------------------------------
# property: random read/write scripts, thread backend as the oracle
# ---------------------------------------------------------------------------

class Scripted(IterativeProcess):
    """One step is a fixed sequence of reads and writes; what is written
    depends on everything read so far, in order."""

    def __init__(self, inputs, outputs, script, **kw):
        super().__init__(**kw)
        self.inputs, self.outputs = list(inputs), list(outputs)
        self.script = script
        self.acc = 0
        self.track(*inputs, *outputs)

    def step(self):
        for op, k in self.script:
            if op == "r":
                self.acc = (self.acc * 31 + LONG.read(self.inputs[k])) % 9973
            else:
                LONG.write(self.outputs[k], self.acc + k)


class DeclaredScripted(Scripted):
    def awaits(self):
        named = []
        for op, k in self.script:
            if op != "r":
                break
            if self.inputs[k] not in named:
                named.append(self.inputs[k])
        return named


@st.composite
def _networks(draw):
    """A chain of 2-4 scripted stages, each with up to two extra inputs
    (from sources) and one extra output (to a sink); optionally the last
    stage's extra output feeds the first stage's extra input.  Every
    channel carries ``rate`` elements per step at both ends, so a run
    consumes exactly what it produces; the *order* of a step's reads and
    writes is random, which is what decides between progress, Parks
    growth and true deadlock."""
    stages = draw(st.integers(2, 4))
    feedback = draw(st.booleans())
    rounds = draw(st.integers(1, 6))
    spec = []
    for i in range(stages):
        ins = draw(st.integers(1, 3))
        outs = draw(st.integers(1, 2))
        if feedback and i == 0:
            ins = max(ins, 2)
        if feedback and i == stages - 1:
            outs = 2
        in_rates = [draw(st.integers(1, 2)) for _ in range(ins)]
        out_rates = [draw(st.integers(1, 2)) for _ in range(outs)]
        spec.append([in_rates, out_rates])
    for i in range(1, stages):                  # chain edges agree
        spec[i][0][0] = spec[i - 1][1][0]
    if feedback:
        spec[0][0][1] = spec[-1][1][1]
    scripts = []
    for in_rates, out_rates in spec:
        ops = ([("r", k) for k, r in enumerate(in_rates) for _ in range(r)]
               + [("w", k) for k, r in enumerate(out_rates) for _ in range(r)])
        scripts.append(draw(st.permutations(ops)))
    capacities = st.sampled_from([8, 16, 24, 64])
    return {"stages": stages, "feedback": feedback, "rounds": rounds,
            "spec": spec, "scripts": scripts,
            "capacity": draw(st.lists(capacities, min_size=24, max_size=24))}


def _build(shape, cls, backend):
    net = Network(backend=backend, name="random")
    caps = iter(shape["capacity"])
    rounds = shape["rounds"]
    sinks = {}

    def channel(name):
        return net.channel(capacity=next(caps), name=name)

    def source(name, rate):
        ch = channel(name)
        net.add(Sequence(ch.get_output_stream(), start=len(name),
                         iterations=rate * rounds, name=f"src-{name}"))
        return ch.get_input_stream()

    def sink(name):
        ch = channel(name)
        sinks[name] = []
        net.add(Collect(ch.get_input_stream(), sinks[name],
                        name=f"sink-{name}"))
        return ch.get_output_stream()

    stages = shape["stages"]
    links = [channel(f"link{i}") for i in range(stages - 1)]
    loop = channel("loop") if shape["feedback"] else None
    for i, (in_rates, out_rates) in enumerate(shape["spec"]):
        inputs = []
        for k, rate in enumerate(in_rates):
            if k == 0 and i > 0:
                inputs.append(links[i - 1].get_input_stream())
            elif k == 1 and i == 0 and loop is not None:
                inputs.append(loop.get_input_stream())
            else:
                inputs.append(source(f"in{i}.{k}", rate))
        outputs = []
        for k in range(len(out_rates)):
            if k == 0 and i < stages - 1:
                outputs.append(links[i].get_output_stream())
            elif k == 1 and i == stages - 1 and loop is not None:
                outputs.append(loop.get_output_stream())
            else:
                outputs.append(sink(f"out{i}.{k}"))
        net.add(cls(inputs, outputs, shape["scripts"][i], iterations=rounds,
                    name=f"stage{i}"))
    return net, sinks


def _outcome(shape, cls, backend):
    net, sinks = _build(shape, cls, backend)
    capture = HistoryCapture(net)
    try:
        net.run(timeout=60)
        verdict = "finished"
    except TrueDeadlockError:
        verdict = "true-deadlock"
    return verdict, capture.raw(), sinks


@settings(max_examples=40, deadline=None)
@given(shape=_networks())
def test_random_scripts_match_the_thread_backend(shape):
    baseline = set(threading.enumerate())
    oracle = _outcome(shape, Scripted, "thread")
    for cls in (Scripted, DeclaredScripted):
        assert _outcome(shape, cls, "async") == oracle, cls.__name__
    assert _threads_left(baseline) == set()


# ---------------------------------------------------------------------------
# completion is once-only
# ---------------------------------------------------------------------------

def test_raising_on_finish_completes_once_and_spares_the_loop():
    loop = EventLoop(name="finish-loop")
    calls = []

    def on_finish():
        calls.append(1)
        raise RuntimeError("observer bug")

    ch = Network(name="unused").channel()
    out = []
    first = Task(Sequence(ch.get_output_stream(), iterations=3), loop,
                 on_finish=on_finish)
    first.start()
    first.join(5)
    assert not first.is_alive()
    assert calls == [1]             # not retried by the loop's handler
    assert loop.thread.is_alive()
    second = Task(Collect(ch.get_input_stream(), out), loop)
    second.start()
    second.join(5)
    assert not second.is_alive() and out == [0, 1, 2]
    loop.stop()


def test_live_count_exact_when_the_finish_kick_raises():
    net = Network(name="finish-raises", backend="async")
    ch = net.channel()
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=20))
    net.add(Collect(ch.get_input_stream(), out))

    def kick():
        raise RuntimeError("monitor bug")

    # only _actor_finished looks this up at call time; the accounting
    # captured the real bound method when the network was built.  The
    # first to raise is start()'s own count-out, after every spawn
    net.monitor.kick = kick
    with pytest.raises(RuntimeError, match="monitor bug"):
        net.start()
    deadline = time.monotonic() + 10
    while net.live_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert out == list(range(20))
    assert net.live_threads() == []
    assert net.live_count() == 0    # each actor counted exactly once
    with pytest.raises(RuntimeError, match="monitor bug"):
        net.join(timeout=10)        # the loop recorded it as a failure


# ---------------------------------------------------------------------------
# loop-local wake-ups
# ---------------------------------------------------------------------------

def test_schedule_from_the_loop_thread_skips_the_condition(monkeypatch):
    """A task that reschedules itself from inside the loop appends without
    touching the condition; an outside thread still locks and notifies."""

    class CountingCondition(threading.Condition):
        entered = 0

        def __enter__(self):
            self.entered += 1
            return super().__enter__()

    monkeypatch.setattr(threading, "Condition", CountingCondition)
    loop = EventLoop(name="local-wake")
    monkeypatch.undo()
    cond = loop._cond
    done = threading.Event()

    class Hopper:
        """Duck-types the one method the loop calls."""
        hops = 0
        process = None

        def _resume(self):
            self.hops += 1
            if self.hops < 1000:
                loop.schedule(self)
            else:
                done.set()

    hopper = Hopper()
    loop.schedule(hopper)           # from this thread: lock + notify
    assert done.wait(10)
    assert hopper.hops == 1000
    # one entry for the outside schedule, a handful for the loop going to
    # sleep — not one per hop
    assert cond.entered < 20
    loop.stop()
    loop.thread.join(5)
    assert not loop.thread.is_alive()
