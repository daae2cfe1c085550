"""Unit behaviours of the cooperative (``backend="async"``) substrate.

Trace equivalence over the bundled examples lives in
tests/test_backend_equivalence.py; here the mechanism itself is probed:
hosting rules, park/wake on full and empty buffers, the Thread-shaped
task surface, hybrid thread+task networks, deadlock detection and
Parks growth over parked tasks, telemetry attribution to virtual tids,
and profiler blocked-time joins.
"""

import threading
import time

import pytest

from repro.errors import ArtificialDeadlockError, EndOfStreamError
from repro.kpn import Network, scheduler
from repro.kpn.aio import EventLoop, Task, async_hostable
from repro.kpn.process import IterativeProcess
from repro.processes import Collect, Scale, Sequence
from repro.processes.codecs import LONG
from repro.processes.networks import modulo_merge
from repro.processes.routing import Turnstile
from repro.processes.sources import FromIterable
from repro.telemetry.core import TELEMETRY


# ---------------------------------------------------------------------------
# hosting rules
# ---------------------------------------------------------------------------

def test_async_hostable_rules():
    net = Network(name="host-rules")
    a = net.channel(name="hr-a")
    b = net.channel(name="hr-b")
    out = []
    seq = Sequence(a.get_output_stream(), iterations=3)
    col = Collect(a.get_input_stream(), out)
    # plain IterativeProcess with default run: cooperative
    assert async_hostable(seq) and async_hostable(col)
    # an iterable may sleep on something that is not a channel:
    # FromIterable opts out (kpn_async = False) and keeps its thread
    src = FromIterable(b.get_output_stream(), [1, 2, 3])
    assert not async_hostable(src)
    # declared-@nondeterminate (Turnstile readiness polling) needs a thread
    c = net.channel(name="hr-c")
    t = Turnstile([b.get_input_stream()], b.get_output_stream(),
                  c.get_output_stream())
    assert not async_hostable(t)
    # explicit opt-out

    class OptOut(Sequence):
        kpn_async = False

    assert not async_hostable(OptOut(b.get_output_stream(), iterations=1))


def test_fused_chain_hosts_as_single_task():
    net = Network(name="fused-host", backend="async")
    ch = net.channel(name="fh")
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=50, name="s"))
    net.add(Collect(ch.get_input_stream(), out, name="c"))
    from repro.kpn.compile import fuse
    plan = fuse(net)
    assert plan.chains, "expected the pair to fuse"
    net.start()
    tasks = [t for t in net._threads if isinstance(t, Task)]
    assert len(tasks) == 1  # one chain, one cooperative task
    assert net.join(timeout=30)
    assert out == list(range(50))


def test_hybrid_network_mixes_threads_and_tasks():
    net = Network(name="hybrid", backend="async")
    ch = net.channel(name="hy")
    out = []
    net.add(FromIterable(ch.get_output_stream(), list(range(20)), name="src"))
    net.add(Collect(ch.get_input_stream(), out, name="dst"))
    net.start()
    kinds = {t.name: isinstance(t, threading.Thread) for t in net._threads}
    assert kinds["src"] is True      # custom run: OS thread
    assert kinds["dst"] is False     # default skeleton: task
    assert net.join(timeout=30)
    assert out == list(range(20))


# ---------------------------------------------------------------------------
# park / wake
# ---------------------------------------------------------------------------

def test_backpressure_park_and_wake_capacity_one():
    """500 values through a 1-slot channel: every write parks on full,
    every read parks on empty, and the stream still arrives in order."""
    net = Network(name="bp", backend="async")
    ch = net.channel(capacity=LONG.width, name="bp-ch")
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=500, name="w"))
    net.add(Collect(ch.get_input_stream(), out, name="r"))
    assert net.run(timeout=60)
    assert out == list(range(500))


def test_on_stop_runs_once_after_parks():
    stops = []

    class Src(IterativeProcess):
        def __init__(self, out, **kw):
            super().__init__(iterations=100, **kw)
            self.out = out
            self.track(out)
            self.n = 0

        def step(self):
            LONG.write(self.out, self.n)
            self.n += 1

        def on_stop(self):
            stops.append(self.name)
            super().on_stop()

    net = Network(name="stoponce", backend="async")
    ch = net.channel(capacity=LONG.width * 2, name="so-ch")
    out = []
    net.add(Src(ch.get_output_stream(), name="src"))
    net.add(Collect(ch.get_input_stream(), out, name="dst"))
    assert net.run(timeout=60)
    assert out == list(range(100))
    assert stops == ["src"]  # exactly once, despite many parked attempts


class _WriteThenWait(IterativeProcess):
    """P: writes 1, 2, 3, then reads the reply."""

    def __init__(self, out, reply):
        super().__init__(iterations=1, name="P")
        self.out, self.reply = out, reply
        self.got = []
        self.track(out, reply)

    def step(self):
        for value in (1, 2, 3):
            LONG.write(self.out, value)
        self.got.append(LONG.read(self.reply))


class _SumAtEnd(IterativeProcess):
    """Q: reads to end of stream, then writes the sum."""

    def __init__(self, source, out):
        super().__init__(name="Q")
        self.source, self.out = source, out
        self.seen = []
        self.track(source, out)

    def step(self):
        try:
            self.seen.append(LONG.read(self.source))
        except EndOfStreamError:
            LONG.write(self.out, sum(self.seen))
            raise


@pytest.mark.parametrize("backend", ["thread", "async"])
def test_a_spent_iteration_budget_ends_the_task(backend):
    """Scale(iterations=3) has done its last step while its input is
    empty and open (P still holds it, waiting on the reply).  It must
    end, not park on that input: its end is what lets Q reply."""
    net = Network(backend=backend)
    a, b, c = (net.channel(name=n) for n in "abc")
    p = net.add(_WriteThenWait(a.get_output_stream(), c.get_input_stream()))
    net.add(Scale(a.get_input_stream(), b.get_output_stream(), 10,
                  iterations=3, name="Scale-0"))
    net.add(_SumAtEnd(b.get_input_stream(), c.get_output_stream()))
    try:
        assert net.run(timeout=10)
    finally:
        net.shutdown()
    assert p.got == [60]


def test_step_exception_propagates_from_join():
    class Bad(IterativeProcess):
        def step(self):
            raise RuntimeError("kaput-async")

    net = Network(name="bad", backend="async")
    net.add(Bad(name="bad"))
    with pytest.raises(RuntimeError, match="kaput-async"):
        net.run(timeout=30)


# ---------------------------------------------------------------------------
# the Thread-shaped task surface
# ---------------------------------------------------------------------------

def test_task_duck_types_thread_surface():
    net = Network(name="surface", backend="async")
    ch = net.channel(name="sf")
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=5, name="s"))
    net.add(Collect(ch.get_input_stream(), out, name="c"))
    net.start()
    tasks = [t for t in net._threads if isinstance(t, Task)]
    assert {t.name for t in tasks} == {"s", "c"}
    assert all(t.daemon for t in tasks)
    assert all(t.vtid < 0 for t in tasks)  # never collides with OS tids
    assert net.join(timeout=30)
    for t in tasks:
        assert not t.is_alive()
        t.join(0.1)  # second join is a no-op, like a finished Thread


def test_network_loop_restarts_after_stop():
    net = Network(name="mw", backend="async")
    ch = net.channel(name="mw-ch")
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=200, name="s"))
    net.add(Collect(ch.get_input_stream(), out, name="c"))
    assert net.run(timeout=60)
    assert out == list(range(200))
    first = net._loop
    assert first.stopped and first.thread.name == "mw-loop"
    # a task spawned after the run starts a fresh loop
    ch = net.channel(name="mw-again")
    again = []
    net.spawn(Sequence(ch.get_output_stream(), iterations=50, name="s2"))
    net.spawn(Collect(ch.get_input_stream(), again, name="c2"))
    assert net.join(timeout=60)
    assert again == list(range(50))
    assert net._loop is not first and net._loop.stopped


class _Tick(IterativeProcess):
    def __init__(self, ran, **kw):
        super().__init__(iterations=1, **kw)
        self.ran = ran

    def step(self):
        self.ran.append(self.name)


def test_a_spawn_racing_the_last_count_out_never_lands_on_a_stopped_loop(
        monkeypatch):
    """Each one-step task is the network's only actor, so its count-out
    stops the loop.  A task built slowly gives the previous one time to
    end while the next spawn is between choosing a loop and counting its
    task in; the two are one lock section, so every task runs."""
    init = Task.__init__

    def slow_init(self, *args, **kw):
        init(self, *args, **kw)
        time.sleep(0.02)            # the previous task ends meanwhile

    monkeypatch.setattr(Task, "__init__", slow_init)
    net = Network(name="relay", backend="async")
    ran = []
    for k in range(10):
        net.spawn(_Tick(ran, name=f"tick-{k}"))
    assert net.join(timeout=10)
    assert sorted(ran) == sorted(f"tick-{k}" for k in range(10))
    assert net.live_count() == 0 and net._loop.stopped


def test_event_loop_survives_runner_failure():
    """A crash inside the runner marks that task done instead of killing
    the loop and stranding its mates."""
    loop = EventLoop(name="crash-loop")

    class Broken:
        name = "broken"
        failure = None

    class Victim(Task):
        def _resume(self):
            raise ValueError("runner bug")

    victim = Victim.__new__(Victim)
    victim.process = Broken()
    victim.name = "broken"
    victim.loop = loop
    victim._done = threading.Lock()
    victim._done.acquire()
    victim._finished = False
    victim._on_finish = None
    loop.schedule(victim)
    victim.join(5)
    assert not victim.is_alive()
    assert isinstance(victim.process.failure, ValueError)
    loop.stop()


# ---------------------------------------------------------------------------
# deadlock monitor over parked tasks
# ---------------------------------------------------------------------------

def test_wait_snapshot_reports_task_kind_and_backend(hold_monitor):
    net = Network(name="snapshot", backend="async")
    ch = net.channel(name="ws-ch")

    class Forever(IterativeProcess):
        def __init__(self, stream, **kw):
            super().__init__(**kw)
            self.stream = stream
            self.track(stream)

        def step(self):
            self.stream.read(1)  # no writer: parks forever

    net.add(Forever(ch.get_input_stream(), name="stuck"))
    net.start()
    deadline = threading.Event()
    for _ in range(100):
        snap = net.wait_snapshot()
        if snap["blocked"]:
            break
        deadline.wait(0.02)
    assert snap["backend"] == "async"
    assert snap["blocked"], "parked task never showed up in the snapshot"
    entry = snap["blocked"][0]
    assert entry["thread"] == "stuck"
    assert entry["kind"] == "task"
    assert entry["mode"] == "read"
    net.shutdown()
    assert net.join(timeout=10)


def test_parks_growth_resolves_artificial_deadlock_with_tasks():
    net = Network(backend="async")
    built = modulo_merge(150, divisor=10, network=net, channel_capacity=16)
    assert built.run(timeout=60) == list(range(1, 151))
    assert net.growth_events(), "expected Parks growth under async"


def test_true_deadlock_diagnosed_with_tasks(monkeypatch):
    monkeypatch.setattr(scheduler, "MAX_CAPACITY", 16)
    net = Network(backend="async")
    built = modulo_merge(150, divisor=10, network=net, channel_capacity=16)
    with pytest.raises(ArtificialDeadlockError) as info:
        built.run(timeout=60)
    assert info.value.blocked


# ---------------------------------------------------------------------------
# telemetry and profiler attribution
# ---------------------------------------------------------------------------

def test_telemetry_events_land_in_virtual_task_lanes():
    TELEMETRY.reset().enable()
    try:
        net = Network(name="lanes", backend="async")
        ch = net.channel(capacity=LONG.width, name="ln-ch")
        out = []
        net.add(Sequence(ch.get_output_stream(), iterations=50, name="s"))
        net.add(Collect(ch.get_input_stream(), out, name="c"))
        assert net.run(timeout=60)
        assert out == list(range(50))
        events = TELEMETRY.events()
    finally:
        TELEMETRY.disable().reset()
    spans = [e for e in events if e.category == "kpn.process"]
    assert {e.thread_name for e in spans} >= {"s", "c"}
    lanes = {e.thread_name: e.tid for e in spans}
    assert lanes["s"] < 0 and lanes["c"] < 0  # attributed to the task,
    assert lanes["s"] != lanes["c"]           # not the loop thread
    # block spans pair up inside each task's lane (B and E both present)
    blocks = [e for e in events if e.category == "kpn.block"]
    assert blocks, "capacity-1 channel must have produced block spans"
    per_lane = {}
    for e in blocks:
        per_lane.setdefault(e.tid, []).append(e.phase)
    for tid, phases in per_lane.items():
        assert phases.count("B") == phases.count("E"), \
            f"unbalanced block spans in lane {tid}"


def test_profiler_blocked_time_attribution_under_async():
    from repro.telemetry.profile import PROFILER, analyze

    TELEMETRY.reset().enable()
    PROFILER.reset().enable()
    try:
        net = Network(name="prof-async", backend="async")
        ch = net.channel(capacity=LONG.width, name="pa-ch")
        out = []
        net.add(Sequence(ch.get_output_stream(), iterations=300, name="w"))
        net.add(Collect(ch.get_input_stream(), out, name="r"))
        assert net.run(timeout=60)
        snap = PROFILER.snapshot(network=net)
        report = analyze(snap, net.channel_map())
    finally:
        PROFILER.disable().reset()
        TELEMETRY.disable().reset()
    entry = next(e for e in report["channels"] if e["name"] == "pa-ch")
    # a 1-slot channel serializes the pair: both sides accumulate real
    # blocked time, attributed to the *processes*, not the loop thread
    assert entry["write_blocked_s"] > 0 or entry["read_blocked_s"] > 0
    assert entry["producer"] == "w"


# ---------------------------------------------------------------------------
# scale smoke (the 10k+ claim is benchmarked; keep CI honest but fast)
# ---------------------------------------------------------------------------

def test_two_thousand_process_relay_ring_smoke():
    class Root(IterativeProcess):
        def __init__(self, out, **kw):
            super().__init__(iterations=3, **kw)
            self.out = out
            self.track(out)
            self.n = 0

        def step(self):
            LONG.write(self.out, self.n)
            self.n += 1

    class Relay(IterativeProcess):
        def __init__(self, src, out, **kw):
            super().__init__(**kw)
            self.src = src
            self.out = out
            self.track(src, out)

        def step(self):
            LONG.write(self.out, LONG.read(self.src))

    class Drain(IterativeProcess):
        def __init__(self, src, **kw):
            super().__init__(**kw)
            self.src = src
            self.track(src)
            self.total = 0

        def step(self):
            self.total += LONG.read(self.src)

    n = 2000
    net = Network(name="ring2k", backend="async")
    chans = [net.channel(name=f"rk{i}") for i in range(n - 1)]
    net.add(Root(chans[0].get_output_stream(), name="root"))
    for i in range(1, n - 1):
        net.add(Relay(chans[i - 1].get_input_stream(),
                      chans[i].get_output_stream(), name=f"relay-{i}"))
    drain = net.add(Drain(chans[-1].get_input_stream(), name="drain"))
    assert net.run(timeout=120)
    assert drain.total == 0 + 1 + 2
