"""The consumer endpoint's read-ahead (LocalInputStream) against a bytes FIFO.

A read that finds nothing held steals everything the ring buffers; later
reads slice that batch without touching the ring.  Whatever mix of read
calls a consumer makes, and whenever the producer closes or aborts, the
channel must still behave as one FIFO of bytes: the state machine below
checks that against a plain bytearray.  The directed tests cover the
places where held bytes could be lost or repeated — splicing, migration,
a task-hosted reader — and the diagnostics that must count them.
"""

import pickle
import struct
import sys
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import BrokenChannelError, EndOfStreamError
from repro.kpn import Network
from repro.kpn.channel import Channel, wait_any_readable
from repro.kpn.process import IterativeProcess
from repro.kpn.scheduler import DeadlockPolicy
from repro.processes import Collect, Scale, Sequence
from repro.processes.codecs import LONG, OBJECT, StructCodec

CAPACITY = 32
sizes = st.integers(min_value=1, max_value=24)


class ReadAheadMachine(RuleBasedStateMachine):
    """Random write sizes against random read calls of random sizes.

    Blocking is avoided, not modelled: a write is cut to the ring's free
    space, and a read is only issued when the model says it will not wait
    (the blocking paths are in test_buffers.py / test_streams.py).
    """

    def __init__(self):
        super().__init__()
        self.ch = Channel(CAPACITY, name="model")
        self.out = self.ch.get_output_stream()
        self.inp = self.ch.get_input_stream()
        self.model = bytearray()
        self.next_byte = 0
        self.closed = False
        self.aborted = False

    # -- producer -------------------------------------------------------
    @rule(n=sizes)
    def write(self, n):
        n = min(n, self.ch.buffer.free_space())
        if self.closed or n == 0:
            return
        data = bytes((self.next_byte + k) % 251 for k in range(n))
        self.next_byte += n
        self.out.write(data)
        self.model.extend(data)

    @rule(aborted=st.booleans())
    def close_write(self, aborted):
        if self.closed:
            return
        self.closed, self.aborted = True, aborted
        if aborted:
            self.out.abort()
        else:
            self.out.close()

    # -- consumer -------------------------------------------------------
    @rule(n=sizes)
    def read(self, n):
        """1..n bytes, the oldest first."""
        if not self.model:
            if self.closed and self.aborted:
                with pytest.raises(BrokenChannelError):
                    self.inp.read(n)
            elif self.closed:
                assert self.inp.read(n) == b""
            return  # open and empty: would block
        got = self.inp.read(n)
        assert 1 <= len(got) <= n
        assert got == bytes(self.model[:len(got)])
        del self.model[:len(got)]

    @rule(n=sizes)
    def read_exactly(self, n):
        if len(self.model) >= n:
            assert self.inp.read_exactly(n) == bytes(self.model[:n])
            del self.model[:n]
        elif self.closed:
            # the stream ends before (or inside) the element; what was
            # there is consumed by the failed read
            with pytest.raises(BrokenChannelError if self.aborted
                               else EndOfStreamError):
                self.inp.read_exactly(n)
            self.model.clear()
        # else: would block

    @rule(n=sizes)
    def read_in_place(self, n):
        """A fixed-width codec's read: unpacked where the element lies."""
        codec = StructCodec(f"{n}s", f"bytes{n}")
        if len(self.model) >= n:
            assert codec.read(self.inp) == bytes(self.model[:n])
            del self.model[:n]
        elif self.closed:
            with pytest.raises(BrokenChannelError if self.aborted
                               else EndOfStreamError):
                codec.read(self.inp)
            self.model.clear()
        # else: would block

    @rule()
    def drain_for_migration(self):
        assert self.ch.drain() == bytes(self.model)
        self.model.clear()

    # -- what every observer must agree on ------------------------------
    @invariant()
    def counts_include_the_batch(self):
        left = len(self.model)
        held = self.ch.reader.held()
        assert held + self.ch.buffer.available() == left
        assert self.inp.available() == left
        assert self.ch.buffered() == left
        assert self.ch.occupancy()["buffered"] == left
        assert self.inp.at_eof() == (self.closed and left == 0)
        assert self.inp.poll_ready() == (left > 0 or self.closed)

    @invariant()
    def bounded_by_capacity_plus_one_batch(self):
        assert self.ch.buffer.available() <= CAPACITY
        assert self.ch.reader.held() <= CAPACITY


TestReadAheadModel = ReadAheadMachine.TestCase
TestReadAheadModel.settings = settings(max_examples=150,
                                       stateful_step_count=60, deadline=None)


# ---------------------------------------------------------------------------
# the batch itself
# ---------------------------------------------------------------------------

def _longs(values):
    return b"".join(LONG.encode(v) for v in values)


def test_one_refill_serves_the_whole_burst():
    ch = Channel(1024)
    ch.get_output_stream().write(_longs(range(10)))
    inp = ch.get_input_stream()
    assert LONG.read(inp) == 0
    # one steal emptied the ring; the other nine are held by the endpoint
    assert ch.buffer.available() == 0
    assert ch.reader.held() == 72
    assert [LONG.read(inp) for _ in range(9)] == list(range(1, 10))
    assert ch.buffered() == 0


def test_element_spanning_two_batches():
    ch = Channel(1024)
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    word = LONG.encode(0x0102030405060708)
    out.write(LONG.encode(7) + word[:3])
    assert LONG.read(inp) == 7            # batch now holds 3 of the next 8
    out.write(word[3:])
    assert LONG.read(inp) == 0x0102030405060708


# ---------------------------------------------------------------------------
# the in-place read against read_exactly, where the element does not lie
# whole in the batch
# ---------------------------------------------------------------------------

def _both_ways(script):
    """Run ``script(channel, read)`` twice on fresh channels: ``read``
    is ``LONG.read`` (in place where it can be) and then
    ``read_exactly`` decoded.  Both runs must read the same values and
    end with the same error text."""
    def exact(inp):
        return struct.unpack(">q", inp.read_exactly(8))[0]

    outcomes = []
    for read in (LONG.read, exact):
        got = []
        try:
            script(Channel(1024), lambda inp: got.append(read(inp)))
            outcomes.append((got, None))
        except EndOfStreamError as exc:
            outcomes.append((got, str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def test_in_place_read_of_an_element_torn_across_two_refills():
    word = LONG.encode(0x0102030405060708)

    def script(ch, read):
        out, inp = ch.get_output_stream(), ch.get_input_stream()
        out.write(LONG.encode(7) + word[:3])
        read(inp)                         # the batch holds 3 of the next 8
        out.write(word[3:])
        read(inp)                         # finished from the next refill
        out.write(LONG.encode(9))
        read(inp)                         # whole in a fresh batch again

    assert _both_ways(script) == ([7, 0x0102030405060708, 9], None)


def test_in_place_read_at_end_of_stream_inside_an_element():
    def script(ch, read):
        out, inp = ch.get_output_stream(), ch.get_input_stream()
        out.write(LONG.encode(5) + LONG.encode(6)[:3])
        out.close()
        read(inp)
        read(inp)

    assert _both_ways(script) == (
        [5], "stream ended mid-element: wanted 8 bytes, got 3")

    def at_the_end(ch, read):
        out, inp = ch.get_output_stream(), ch.get_input_stream()
        out.write(LONG.encode(5))
        out.close()
        read(inp)
        read(inp)

    assert _both_ways(at_the_end) == ([5], "end of stream")


def test_in_place_read_after_a_splice_under_a_held_batch():
    """The endpoint holds one element and 3 bytes of the next when an
    upstream channel is spliced behind it: the rest of that element
    comes from the spliced channel."""
    word = LONG.encode(-2)

    def script(ch, read):
        out, inp = ch.get_output_stream(), ch.get_input_stream()
        out.write(LONG.encode(1) + LONG.encode(2) + word[:3])
        read(inp)                         # 2 and 3 bytes of -2 held
        up = Channel(1024, name="up")
        up.get_output_stream().write(word[3:] + LONG.encode(3))
        up.get_output_stream().close()
        inp.splice_from(up.get_input_stream())
        out.close()
        assert inp.sequence.local_head is None
        for _ in range(4):
            read(inp)

    assert _both_ways(script) == ([1, 2, -2, 3], "end of stream")


def test_in_place_read_unpacks_the_batch_itself():
    ch = Channel(1024)
    ch.get_output_stream().write(_longs([4, 5]))
    inp = ch.get_input_stream()
    batch, pos = inp.read_in_place(8)
    assert (batch, pos) == (ch.reader._batch, 0)
    assert batch is ch.reader._batch      # no copy, no slice
    assert inp.read_in_place(8) == (batch, 8)
    assert ch.reader.held() == 0


def test_object_frames_decode_in_place_as_through_read_exactly():
    """``OBJECT.read`` decodes a frame's header and pickle where they lie:
    a frame whole in the batch, one torn across two refills, and end of
    stream inside a frame read the same values and end with the same
    error text as decoding what ``read_exactly`` returns."""
    frame = OBJECT.encode({"k": list(range(20))})

    def exact(inp):
        (length,) = struct.unpack(">I", inp.read_exactly(4))
        return pickle.loads(inp.read_exactly(length))

    outcomes = []
    for read in (OBJECT.read, exact):
        ch = Channel(1024)
        out, inp = ch.get_output_stream(), ch.get_input_stream()
        got = []
        try:
            out.write(OBJECT.encode("a") + frame[:10])
            got.append(read(inp))         # the batch holds 10 of the next
            out.write(frame[10:] + frame[:2])
            got.append(read(inp))         # finished from the next refill
            out.write(frame[2:] + frame[:7])
            out.close()
            got.append(read(inp))         # a header torn, then whole
            got.append(read(inp))         # 7 bytes of a frame, then EOF
        except EndOfStreamError as exc:
            outcomes.append((got, str(exc)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (
        ["a", {"k": list(range(20))}, {"k": list(range(20))}],
        f"stream ended mid-element: wanted {len(frame) - 4} bytes, got 3")


def test_frames_larger_than_the_batch_finish_through_read():
    ch = Channel(64)
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    payload = bytes(range(256)) * 4
    writer = threading.Thread(target=out.write, args=(payload,), daemon=True)
    writer.start()
    assert inp.read_exactly(len(payload)) == payload
    writer.join(10)
    assert not writer.is_alive()


def test_longs_through_a_three_byte_ring_span_three_refills():
    ch = Channel(3)
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    drains = []
    drain = ch.buffer.drain_up_to

    def counted(max_bytes):
        view = drain(max_bytes)
        drains.append(len(view))
        return view
    ch.buffer.drain_up_to = counted
    values = [(-1) ** i * (i << 40) + i for i in range(200)]

    def produce():
        for v in values:
            LONG.write(out, v)
        out.close()
    writer = threading.Thread(target=produce, daemon=True)
    writer.start()
    assert [LONG.read(inp) for _ in values] == values
    with pytest.raises(EndOfStreamError):
        LONG.read(inp)
    writer.join(10)
    assert not writer.is_alive()
    # no batch holds more than 3 bytes, so every 8-byte element was
    # finished by further reads across at least three refills
    assert max(drains) <= 3
    assert sum(drains) == 8 * len(values)


def test_close_by_reader_drops_the_batch_and_breaks_the_writer():
    ch = Channel(1024)
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    out.write(_longs(range(4)))
    assert LONG.read(inp) == 0
    inp.close()
    assert ch.buffered() == 0
    with pytest.raises(BrokenChannelError):
        out.write(b"x")


# ---------------------------------------------------------------------------
# splicing: the removed process's endpoint still holds read-ahead
# ---------------------------------------------------------------------------

def _spliced_pair(backend="thread"):
    """``up -> [removed process] -> down``, the process already gone: it
    consumed one element of ``up`` (reading the rest ahead), forwarded
    100 and 101 on ``down``, spliced its input behind them and left.
    The removed process ran on this thread, whatever the backend."""
    net = Network(backend=backend)
    up, down = net.channel(name="up"), net.channel(name="down")
    up.get_output_stream().write(_longs(range(1, 11)))
    own_input = up.get_input_stream()
    assert LONG.read(own_input) == 1
    assert up.reader.held() == 72
    down.get_output_stream().write(_longs([100, 101]))
    down.get_input_stream().splice_from(own_input)
    down.get_output_stream().close()
    up.get_output_stream().write(_longs([11, 12]))
    up.get_output_stream().close()
    return net, up, down


EXPECTED_AFTER_SPLICE = [100, 101] + list(range(2, 13))


def test_splice_drains_upstream_read_ahead_in_order():
    _, up, down = _spliced_pair()
    inp = down.get_input_stream()
    assert inp.available() == 16 + 72 + 16
    got = []
    with pytest.raises(EndOfStreamError):
        while True:
            got.append(LONG.read(inp))
    assert got == EXPECTED_AFTER_SPLICE


@pytest.mark.parametrize("backend", ["thread", "async"])
def test_splice_with_read_ahead_feeds_either_kind_of_consumer(backend):
    net, up, down = _spliced_pair(backend)
    got = []
    net.add(Collect(down.get_input_stream(), got, name="sink"))
    net.run(timeout=30)
    assert got == EXPECTED_AFTER_SPLICE
    assert up.reader.held() == 0


# ---------------------------------------------------------------------------
# a task-hosted reader reads ahead exactly like a thread-hosted one
# ---------------------------------------------------------------------------

class HoldProbe(IterativeProcess):
    """Reads one long per step and notes what its endpoint holds and what
    the ring still buffers right after the read."""

    def __init__(self, source, seen, iterations):
        super().__init__(iterations=iterations, name="probe")
        self.source = source
        self.seen = seen
        self.track(source)

    def step(self):
        value = LONG.read(self.source)
        ch = self.source.channel
        self.seen.append((value, ch.reader.held(), ch.buffer.available()))


@pytest.mark.parametrize("backend", ["thread", "async"])
def test_only_a_thread_hosted_reader_holds_bytes(backend):
    net = Network(backend=backend)
    ch = net.channel()
    ch.get_output_stream().write(_longs(range(5)))
    seen = []
    net.add(HoldProbe(ch.get_input_stream(), seen, iterations=5))
    net.run(timeout=30)
    assert [v for v, _, _ in seen] == list(range(5))
    # whichever kind of actor hosts the reader, its first read takes the
    # whole ring and the endpoint serves the rest: a task's step is plain
    # blocking code, so it holds read-ahead exactly like a thread
    assert [(h, b) for _, h, b in seen] == [(n, 0) for n in [32, 24, 16, 8, 0]]


def test_task_returns_what_a_thread_read_ahead():
    """A thread reads ahead, then the stream goes to a task: the task
    returns the held bytes first, in order, then reads ahead itself."""
    net = Network(backend="async")
    ch = net.channel()
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    out.write(_longs(range(4)))
    assert LONG.read(inp) == 0            # this thread now holds 1, 2, 3
    out.write(_longs([4, 5]))
    out.close()
    assert (ch.reader.held(), ch.buffer.available()) == (24, 16)
    seen = []
    net.add(HoldProbe(inp, seen, iterations=5))
    net.run(timeout=30)
    assert [v for v, _, _ in seen] == [1, 2, 3, 4, 5]
    # the thread's batch is used up where it lies (nothing goes back to
    # the ring), then the task's own refill takes 4 and 5 together
    assert [(h, b) for _, h, b in seen] == [
        (16, 16), (8, 16), (0, 16), (8, 0), (0, 0)]
    assert ch.buffer.total_read == ch.buffer.total_written == 48


# ---------------------------------------------------------------------------
# migration: held bytes travel ahead of the ring's
# ---------------------------------------------------------------------------

def test_internal_channel_migrates_with_its_batch():
    from repro.distributed.migration import dumps_migration, loads_migration
    from repro.kpn.process import CompositeProcess

    net = Network()
    inner = net.channel(name="inner")
    out, inp = inner.get_output_stream(), inner.get_input_stream()
    out.write(_longs([10, 11, 12]))
    assert LONG.read(inp) == 10           # 11, 12 held by the endpoint
    out.write(_longs([13]))               # 13 in the ring
    assert (inner.reader.held(), inner.buffer.available()) == (16, 8)
    got = []
    comp = CompositeProcess(name="whole")
    comp.add(Sequence(out, start=14, iterations=2, name="src"))
    comp.add(Collect(inp, got, name="dst"))
    clone = loads_migration(dumps_migration(comp), network=Network())
    assert inner.buffered() == 0          # shipped, not copied
    clone.network.spawn(clone)
    assert clone.network.join(timeout=30)
    assert clone.processes[1].into == [11, 12, 13, 14, 15]


class SlowScale(Scale):
    """Scale with a per-step dwell (module-level: pickles)."""

    def step(self):
        time.sleep(0.002)
        super().step()


def test_live_migration_with_a_non_empty_batch():
    from repro.distributed.migration import migrate_live
    from repro.distributed.server import ComputeServer, ServerClient

    server = ComputeServer(name="ra").start()
    client = ServerClient("127.0.0.1", server.port)
    try:
        net = Network()
        a, b = net.channels_n(2, capacity=1 << 16)
        total = 200
        # everything is buffered before the stage starts, so its first
        # read takes all of it and the batch cannot be empty at the pause
        a.get_output_stream().write(_longs(range(total)))
        a.get_output_stream().close()
        got = []
        stage = SlowScale(a.get_input_stream(), b.get_output_stream(), 3,
                          codec="long", name="slow-x3")
        net.add(stage)
        net.add(Collect(b.get_input_stream(), got, name="sink"))
        net.start()
        deadline = time.monotonic() + 30
        while stage.steps_completed < 3 and time.monotonic() < deadline:
            time.sleep(0.002)
        ctrl = stage.control()
        ctrl.request_pause()
        assert ctrl.wait_parked(timeout=30)
        done = stage.steps_completed
        assert 0 < done < total
        assert a.reader.held() == 8 * (total - done)
        ctrl.resume()
        migrate_live(stage, client, timeout=30)
        assert a.buffered() == 0
        assert net.join(timeout=120)
        assert got == [3 * k for k in range(total)]
    finally:
        client.close()
        server.stop()


# ---------------------------------------------------------------------------
# diagnostics count what the endpoint holds
# ---------------------------------------------------------------------------

def test_channel_holding_a_kilobyte_is_not_reported_empty():
    from repro.analysis.graphproofs import _edges
    from repro.processes import Discard

    net = Network()
    ch = net.channel(capacity=2048, name="held")
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    out.write(_longs(range(129)))
    assert LONG.read(inp) == 0
    assert ch.buffer.available() == 0 and ch.reader.held() == 1024

    assert ch.occupancy()["buffered"] == 1024
    assert net.total_buffered_bytes() == 1024
    assert net.census()["channels"]["held"]["buffered"] == 1024
    # the graph passes see the channel as pre-seeded
    net.add(Sequence(out, iterations=1, name="src"))
    net.add(Discard(inp, name="sink"))
    (edge,), _ = _edges(net)
    assert edge.buffered == 1024 and edge.deferred
    # and the nondeterminate readiness test sees data, with an empty ring
    assert inp.poll_ready()
    assert wait_any_readable([inp], timeout=0) == [0]


def test_wait_snapshot_counts_read_ahead_behind_a_blocked_writer():
    # a settle window longer than the test: nothing grows the ring
    net = Network(policy=DeadlockPolicy(settle_ms=30_000))
    ch = net.channel(capacity=16, name="tight")
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    out.write(_longs([1, 2]))
    assert LONG.read(inp) == 1            # 8 bytes held, ring empty
    net.add(Sequence(out, iterations=10, name="src"))   # fills 16, blocks
    net.start()
    try:
        deadline = time.monotonic() + 10
        blocked = []
        while not blocked and time.monotonic() < deadline:
            blocked = net.wait_snapshot()["blocked"]
            time.sleep(0.005)
        entry, = blocked
        assert (entry["mode"], entry["capacity"]) == ("write", 16)
        assert entry["buffered"] == 24
    finally:
        net.shutdown()


# ---------------------------------------------------------------------------
# the notify guard: nobody waiting, nobody signalled, nobody stranded
# ---------------------------------------------------------------------------

def test_tight_pipeline_under_fast_switching_loses_no_wakeup():
    """More threads than cores over 16-byte rings: every hop blocks both
    ways thousands of times, so a skipped notify would strand a thread."""
    total = 3000
    net = Network()
    chans = net.channels_n(5, capacity=16)
    got = []
    net.add(Sequence(chans[0].get_output_stream(), iterations=total))
    for k in range(4):
        net.add(Scale(chans[k].get_input_stream(),
                      chans[k + 1].get_output_stream(), 1))
    net.add(Collect(chans[4].get_input_stream(), got))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        net.start()
        assert net.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert got == list(range(total))
    assert net.growth_events() == []
    for ch in chans:
        assert ch.buffer._readers == ch.buffer._writers == []
