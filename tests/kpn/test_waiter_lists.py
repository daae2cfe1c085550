"""One waiter list per direction: a thread sleeping in a channel operation
waits on the same list as a parked cooperative task, and every wake site
wakes both.

* an interrupted wait leaves no sleeper on the list and no entry in the
  accounting (``Condition.wait``'s contract);
* threads and tasks blocked together on one ring are each woken into the
  outcome they owe by ``close_write``, ``close_read`` and ``grow``;
* a capacity-1 channel under a tiny switch interval loses no wake-up.
"""

import signal
import sys
import threading
import time

import pytest

from repro.errors import BrokenChannelError, ChannelClosedError, ChannelError
from repro.kpn import Network
from repro.kpn.aio import Task
from repro.kpn.buffers import BlockAccounting, BoundedByteBuffer
from repro.kpn.process import IterativeProcess, StopProcess
from repro.kpn.streams import LocalInputStream, LocalOutputStream

from tests.conftest import start_thread

PER_KIND = 3


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


# ---------------------------------------------------------------------------
# an interrupted wait
# ---------------------------------------------------------------------------

class _Interrupted(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"),
                    reason="needs signal.pthread_kill")
def test_an_interrupted_wait_leaves_no_sleeper_and_no_accounting_entry():
    acct = BlockAccounting()
    buf = BoundedByteBuffer(8, name="interrupted", accounting=acct)
    main = threading.get_ident()

    def interrupt():
        # signal even if the reader never shows up: it must not hang
        deadline = time.monotonic() + 10
        while not buf._readers and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.05)    # let the reader get from the list into its wait
        signal.pthread_kill(main, signal.SIGUSR1)

    def handler(signum, frame):
        raise _Interrupted

    previous = signal.signal(signal.SIGUSR1, handler)
    try:
        helper = start_thread(interrupt)
        with pytest.raises(_Interrupted):
            buf.read(1)
        helper.join(10)
    finally:
        signal.signal(signal.SIGUSR1, previous)
    assert not helper.is_alive()
    assert buf._readers == []
    assert threading.current_thread() not in acct.snapshot()
    assert acct.total_blocked == 0
    # the ring is intact: the next write wakes nobody and is read back
    buf.write(b"x")
    assert buf.read(1) == b"x"


# ---------------------------------------------------------------------------
# threads and tasks on one list
# ---------------------------------------------------------------------------

class _OneRead(IterativeProcess):
    """Reads one byte through its own endpoint on a shared ring."""

    kpn_strict = True               # a declared rule: parks are observed

    def __init__(self, buffer, outcomes, **kw):
        super().__init__(**kw)
        self.src = LocalInputStream(buffer)
        self.outcomes = outcomes
        self.track(self.src)

    def step(self):
        self.outcomes.append(("task", _outcome(self.src.read, 1)))
        raise StopProcess

    def on_stop(self):
        pass                        # the ring is shared: leave its ends open


class _OneWrite(IterativeProcess):
    """Writes one byte through its own endpoint on a shared ring."""

    def __init__(self, buffer, outcomes, **kw):
        super().__init__(**kw)
        self.out = LocalOutputStream(buffer)
        self.outcomes = outcomes
        self.track(self.out)

    def step(self):
        self.outcomes.append(("task", _outcome(self.out.write, b"w")))
        raise StopProcess

    def on_stop(self):
        pass


def _outcome(op, arg):
    try:
        result = op(arg)
    except ChannelError as exc:
        return type(exc)
    return "written" if result is None else result


def _blocked_together(mode, capacity):
    """``PER_KIND`` threads and ``PER_KIND`` tasks blocked on one ring's
    ``mode`` side; returns the network, the ring and the outcome list."""
    # the monitor must see the stall (output parks need it) but not end
    # it: its callers hold it off (hold_monitor)
    net = Network(name=f"mixed-{mode}", backend="async")
    buf = net.channel(capacity=capacity, name=f"mixed-{mode}").buffer
    outcomes = []
    if mode == "write":
        buf.write(b"f" * capacity)
    process = _OneWrite if mode == "write" else _OneRead
    for k in range(PER_KIND):
        net.add(process(buf, outcomes, name=f"{mode}-task-{k}"))
    net.start()

    def blocking_op():
        # each thread its own endpoint, like each task
        if mode == "write":
            result = _outcome(LocalOutputStream(buf).write, b"w")
        else:
            result = _outcome(LocalInputStream(buf).read, 1)
        outcomes.append(("thread", result))

    for k in range(PER_KIND):
        start_thread(blocking_op, name=f"{mode}-thread-{k}")

    def waiters():
        return buf._readers if mode == "read" else buf._writers

    _wait_for(lambda: len(waiters()) == 2 * PER_KIND)
    assert sum(isinstance(w, Task) for w in waiters()) == PER_KIND
    return net, buf, outcomes


def _all_woken_into(net, buf, outcomes, expected):
    _wait_for(lambda: len(outcomes) == 2 * PER_KIND)
    assert sorted(outcomes, key=repr) == sorted(
        [("task", expected)] * PER_KIND + [("thread", expected)] * PER_KIND,
        key=repr)
    assert buf._readers == [] and buf._writers == []
    assert net.join(timeout=30)


@pytest.mark.parametrize("wake, expected", [
    ("close_write", b""),
    ("close_read", ChannelClosedError),
])
def test_every_blocked_reader_is_woken_into_its_outcome(hold_monitor, wake,
                                                      expected):
    net, buf, outcomes = _blocked_together("read", 8)
    getattr(buf, wake)()
    _all_woken_into(net, buf, outcomes, expected)


@pytest.mark.parametrize("wake, expected", [
    ("close_write", ChannelClosedError),
    ("close_read", BrokenChannelError),
    ("grow", "written"),
])
def test_every_blocked_writer_is_woken_into_its_outcome(hold_monitor, wake,
                                                      expected):
    net, buf, outcomes = _blocked_together("write", 1)
    if wake == "grow":
        buf.grow(1 + 2 * PER_KIND)
    else:
        getattr(buf, wake)()
    _all_woken_into(net, buf, outcomes, expected)
    if wake == "grow":
        assert buf.available() == 1 + 2 * PER_KIND


# ---------------------------------------------------------------------------
# stress: a capacity-1 channel, every byte a block both ways
# ---------------------------------------------------------------------------

TOTAL = 20_000
PAYLOAD = bytes(i % 251 for i in range(TOTAL))
STRESS_BOUND_S = 60.0


class _Collect(IterativeProcess):
    kpn_strict = True

    def __init__(self, src, got, **kw):
        super().__init__(**kw)
        self.src = src
        self.got = got
        self.track(src)

    def step(self):
        byte = self.src.read(1)
        if not byte:
            raise StopProcess
        self.got += byte


def _write_bytewise(buf):
    for i in range(TOTAL):
        buf.write(PAYLOAD[i:i + 1])
    buf.close_write()


@pytest.fixture
def tiny_switch_interval():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def test_thread_to_thread_over_capacity_one(tiny_switch_interval):
    buf = BoundedByteBuffer(1, name="stress-tt")
    got = bytearray()

    def consume():
        while True:
            byte = buf.read(1)
            if not byte:
                return
            got.extend(byte)

    started = time.monotonic()
    reader = start_thread(consume, name="stress-reader")
    writer = start_thread(_write_bytewise, buf, name="stress-writer")
    writer.join(STRESS_BOUND_S)
    reader.join(STRESS_BOUND_S)
    assert not reader.is_alive() and not writer.is_alive()
    assert time.monotonic() - started < STRESS_BOUND_S
    assert bytes(got) == PAYLOAD


def test_thread_to_task_over_capacity_one(tiny_switch_interval):
    net = Network(name="stress-tk", backend="async")
    ch = net.channel(capacity=1, name="stress-tk")
    got = bytearray()
    net.add(_Collect(ch.get_input_stream(), got, name="stress-collect"))
    started = time.monotonic()
    net.start()
    writer = start_thread(_write_bytewise, ch.buffer, name="stress-writer")
    assert net.join(timeout=STRESS_BOUND_S)
    writer.join(STRESS_BOUND_S)
    assert not writer.is_alive()
    assert time.monotonic() - started < STRESS_BOUND_S
    assert bytes(got) == PAYLOAD
