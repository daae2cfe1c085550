"""The re-pointed channel endpoint against the Figure-3 stack it replaces.

A ``ChannelOutputStream``'s ``write`` / ``write_vectored`` /
``would_block_on`` are the bound methods of whatever is the lowest layer
*now*, and ``ChannelInputStream.read_exactly`` serves a whole element out
of the local endpoint's read-ahead; ``switch_to``, ``replace_head``,
``splice_from``, the EOF pop, ``close`` and ``abort`` do the re-pointing.
The state machine below drives two identical channels in lock step — one
through the endpoint, one by walking the layers by hand with non-``bytes``
data (so the ring's in-lock branch for a fitting ``bytes`` element is
compared with ``_write_locked``) — and requires the same bytes, the same
exceptions with the same messages, and the same books.  The directed
tests cover what one thread cannot: a writer blocked while the target is
switched, a producer racing the switch, elements torn across batches and
splice boundaries.
"""

import sys
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import (BrokenChannelError, ChannelClosedError,
                          ChannelError, EndOfStreamError)
from repro.kpn.channel import Channel
from repro.kpn.streams import InputStream, LocalOutputStream, OutputStream
from repro.processes.codecs import LONG
from repro.telemetry.core import TELEMETRY

CAPACITY = 48
sizes = st.integers(min_value=1, max_value=24)
#: elements are shorter than writes, so that several lie in one batch
elements = st.integers(min_value=1, max_value=9)
#: the rules that end one side of the channel act one time in four: a run
#: is then mostly traffic and re-pointing, not errors after the end
seldom = st.integers(min_value=0, max_value=3).map(lambda k: k == 0)


# ---------------------------------------------------------------------------
# a foreign transport: a plain byte FIFO with an output and an input end
# ---------------------------------------------------------------------------

class Fifo:
    def __init__(self, name, preload=b"", closed=False):
        self.name = name
        self.data = bytearray(preload)
        self.written = bytearray(preload)
        self.closed = closed
        self.aborted = False
        self.read_closed = False


class FifoOutput(OutputStream):
    def __init__(self, fifo):
        self.fifo = fifo

    def write(self, data):
        if self.fifo.read_closed:
            raise BrokenChannelError(f"reader closed fifo {self.fifo.name!r}")
        if self.fifo.closed:
            raise ChannelClosedError(f"write on closed fifo {self.fifo.name!r}")
        self.fifo.data += data
        self.fifo.written += data

    def write_vectored(self, chunks):
        for chunk in chunks:
            self.write(chunk)

    def close(self):
        self.fifo.closed = True

    def abort(self):
        self.fifo.closed = self.fifo.aborted = True


class FifoInput(InputStream):
    """Never blocks: the machine issues no read that would have to."""

    def __init__(self, fifo):
        self.fifo = fifo

    def read(self, max_bytes):
        fifo = self.fifo
        if fifo.read_closed:
            raise ChannelClosedError(f"read on closed fifo {fifo.name!r}")
        if not fifo.data:
            if fifo.aborted:
                raise BrokenChannelError(f"writer of fifo {fifo.name!r} aborted")
            assert fifo.closed, "the machine issued a read that would block"
            return b""
        chunk = bytes(fifo.data[:max_bytes])
        del fifo.data[:max_bytes]
        return chunk

    def close(self):
        self.fifo.read_closed = True
        self.fifo.data.clear()

    def available(self):
        return len(self.fifo.data)

    def at_eof(self):
        return self.fifo.closed and not self.fifo.data


# ---------------------------------------------------------------------------
# the two sides: through the endpoint, and down the layers by hand
# ---------------------------------------------------------------------------

class Side:
    def __init__(self, tag):
        self.tag = tag
        self.ch = Channel(CAPACITY, name=f"m-{tag}")
        self.ch.buffer.record_history()
        self.out = self.ch.get_output_stream()
        self.inp = self.ch.get_input_stream()
        self.fifos = {}
        self.upstreams = []

    def fifo(self, key, **kwargs):
        if key not in self.fifos:
            self.fifos[key] = Fifo(f"{key}-{self.tag}", **kwargs)
        return self.fifos[key]

    def books(self):
        buffer = self.ch.buffer
        return {
            "history": buffer.history_bytes(),
            "total_written": buffer.total_written,
            "total_read": buffer.total_read,
            "high_watermark": buffer.high_watermark,
            "capacity": buffer.capacity,
            "growths": [{k: v for k, v in g.items() if k != "t"}
                        for g in buffer.growths],
            "buffered": self.ch.buffered(),
            "held": self.ch.reader.held(),
            "fifos": {key: (bytes(f.written), bytes(f.data), f.closed,
                            f.aborted, f.read_closed)
                      for key, f in self.fifos.items()},
            "counters": {key.replace(f"-{self.tag}", ""): value
                         for key, value in TELEMETRY.counters().items()
                         if f"-{self.tag}" in key},
        }


class Endpoint(Side):
    """What a process does: calls the endpoint's attributes."""

    def write(self, data):
        self.out.write(data)

    def write_vectored(self, chunks):
        self.out.write_vectored(chunks)

    def read_exactly(self, n):
        return self.inp.read_exactly(n)


class Walked(Side):
    """The stack of Figure 3, a layer at a time, with data that is not
    ``bytes``: sequence -> lowest layer -> ``_write_locked``, and blocking
    -> sequence -> local."""

    def write(self, data):
        self.out.sequence.write(memoryview(data))

    def write_vectored(self, chunks):
        self.out.sequence.write_vectored([memoryview(c) for c in chunks])

    def read_exactly(self, n):
        return self.inp.blocking.read_exactly(n)


class Segment:
    """A transport as the model sees it — a plain byte FIFO: the bytes it
    still has to deliver and how it ends."""

    def __init__(self, pending=b"", closed=False):
        self.pending = bytearray(pending)
        self.closed = closed
        self.aborted = False


class RepointMachine(RuleBasedStateMachine):
    """Blocking is avoided, not modelled (as in test_read_ahead.py): a
    ring write is cut to the free space and a read is issued only when
    the model says it returns or raises."""

    def __init__(self):
        super().__init__()
        self._telemetry = TELEMETRY.enabled_scope(reset=True)
        self._telemetry.__enter__()
        self.sut, self.ref = Endpoint("sut"), Walked("ref")
        self.next_byte = 0
        self.n_fifos = 0
        # the model: where writes go (the ring or a fifo, and the fifo's
        # key), and the transports queued in the reader's sequence
        self.ring = Segment()
        self.target = self.ring
        self.target_key = None
        self.segments = [self.ring]
        self.out_closed = False
        self.in_closed = False
        self.in_finished = False

    def teardown(self):
        self._telemetry.__exit__(None, None, None)

    # -- both sides, one outcome ------------------------------------------
    def both(self, op):
        outcomes = []
        for side in (self.sut, self.ref):
            try:
                outcomes.append(("ok", op(side)))
            except ChannelError as exc:
                outcomes.append((type(exc).__name__,
                                 str(exc).replace("-ref'", "-sut'")))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def payload(self, n):
        data = bytes((self.next_byte + k) % 251 for k in range(n))
        self.next_byte += n
        return data

    def reaches_reader(self, segment):
        return any(s is segment for s in self.segments)

    # -- producer ---------------------------------------------------------
    def _room(self, n):
        if self.target is self.ring and not self.out_closed:
            n = min(n, self.sut.ch.buffer.free_space())
            assert n == min(n, self.ref.ch.buffer.free_space())
        return n

    def _wrote(self, outcome, data):
        if self.out_closed:
            assert outcome == ("ChannelClosedError",
                               "write on closed SequenceOutputStream")
        elif self.in_closed and self.reaches_reader(self.target):
            assert outcome[0] == "BrokenChannelError"
            if self.target is self.ring:
                assert outcome[1] == "reader closed channel 'm-sut'"
        else:
            assert outcome == ("ok", None)
            self.target.pending += data

    @rule(n=sizes)
    def write(self, n):
        n = self._room(n)
        if n:
            data = self.payload(n)
            self._wrote(self.both(lambda side: side.write(data)), data)

    @rule(a=sizes, b=sizes)
    def write_vectored(self, a, b):
        n = self._room(a + b)
        if n:
            data = self.payload(n)
            chunks = [data[:a], data[a:]]
            self._wrote(self.both(lambda side: side.write_vectored(chunks)),
                        data)

    @rule(to_ring=st.booleans())
    def switch_to(self, to_ring):
        if to_ring:
            key, segment = None, self.ring
            make = lambda side: LocalOutputStream(side.ch.buffer)
        else:
            key, segment = f"f{self.n_fifos}", Segment()
            self.n_fifos += 1
            make = lambda side: FifoOutput(side.fifo(key))
        outcome = self.both(
            lambda side: side.out.sequence.switch_to(make(side)))
        if self.out_closed:
            assert outcome == ("ChannelClosedError",
                               "switch_to on closed SequenceOutputStream")
        else:
            assert outcome == ("ok", None)
            self.target, self.target_key = segment, key

    @rule(now=seldom, aborted=st.booleans())
    def close(self, now, aborted):
        if not now:
            return
        assert self.both(lambda side: side.out.abort() if aborted
                         else side.out.close()) == ("ok", None)
        if not self.out_closed:
            self.out_closed = True
            self.target.closed, self.target.aborted = True, aborted

    @rule(extra=sizes)
    def grow(self, extra):
        capacity = self.sut.ch.capacity + extra
        self.both(lambda side: side.ch.grow(capacity, "manual", "w"))

    # -- reconfiguration of the consumer's sequence -------------------------
    @rule(now=seldom, n=st.integers(min_value=0, max_value=24),
          ahead=st.booleans())
    def splice_from(self, now, n, ahead):
        """An upstream channel holding ``n`` bytes, closed, its consumer
        gone (having read one byte, and the rest ahead, if ``ahead``)."""
        if not now:
            return
        data = self.payload(n)
        index = len(self.sut.upstreams)

        def splice(side):
            up = Channel(CAPACITY, name=f"up{index}-{side.tag}")
            side.upstreams.append(up)
            up.get_output_stream().write(data)
            up.get_output_stream().close()
            if ahead and n:
                assert up.get_input_stream().read(1) == data[:1]
            side.inp.splice_from(up.get_input_stream())

        outcome = self.both(splice)
        if self.in_closed:
            assert outcome == ("ChannelClosedError",
                               "append on closed SequenceInputStream")
        elif self.in_finished:
            assert outcome == ("ChannelClosedError",
                               "append after end of stream already observed")
        else:
            assert outcome == ("ok", None)
            self.segments.append(
                Segment(data[1:] if ahead else data, closed=True))

    @rule(now=seldom, fuse=st.booleans(),
          n=st.integers(min_value=0, max_value=24))
    def replace_head(self, now, fuse, n):
        """The compiler's rewiring: the reading end of the fifo writes
        now go to (``fuse``), or of a preloaded, closed one.  Whatever the
        old head still held is out of the reader's reach from here on."""
        if not now or (fuse and self.target_key is None):
            return
        if fuse:
            key, segment = self.target_key, self.target
            if self.reaches_reader(segment):
                return
            make = lambda side: FifoInput(side.fifos[key])
        else:
            key = f"f{self.n_fifos}"
            self.n_fifos += 1
            preload = self.payload(n)
            segment = Segment(preload, closed=True)
            make = lambda side: FifoInput(
                side.fifo(key, preload=preload, closed=True))
        outcome = self.both(
            lambda side: side.inp.sequence.replace_head(make(side)))
        if self.in_closed:
            assert outcome == ("ChannelClosedError",
                               "replace_head on closed SequenceInputStream")
        elif self.in_finished:
            assert outcome == (
                "ChannelClosedError",
                "replace_head after end of stream already observed")
        else:
            assert outcome == ("ok", None)
            # the reader never gets what the old head had left
            self.segments[0] = segment

    @rule(now=seldom)
    def close_read(self, now):
        if not now:
            return
        assert self.both(lambda side: side.inp.close()) == ("ok", None)
        self.in_closed = True

    # -- consumer ---------------------------------------------------------
    def _readable(self):
        """(bytes a read can get without waiting, whether the stream then
        ends — cleanly or by the abort — rather than blocks)."""
        total = 0
        for segment in self.segments:
            total += len(segment.pending)
            if not segment.closed:
                return total, False
            if segment.aborted:
                return total, True
        return total, True

    def _pop(self):
        """A read saw the head's clean end: the sequence moves on."""
        head = self.segments.pop(0)
        assert head.closed and not head.aborted and not head.pending
        if not self.segments:
            self.in_finished = True

    def _took(self, data):
        """``data`` came out: it is what was due, taken from the head on,
        past every exhausted stream in the way."""
        while data:
            head = self.segments[0]
            if not head.pending:
                self._pop()
                continue
            take = min(len(data), len(head.pending))
            assert data[:take] == head.pending[:take]
            del head.pending[:take]
            data = data[take:]

    def _ran_out(self, outcome, clean):
        """A read went on to the end of the stream: what was left is
        consumed with it, and it ended ``clean`` or by the abort."""
        while self.segments:
            head = self.segments[0]
            head.pending.clear()
            if head.aborted:
                assert outcome[0] == "BrokenChannelError"
                break
            self._pop()
        else:
            assert outcome[0] == clean

    @rule(n=elements)
    def read_exactly(self, n):
        if self.in_closed:
            assert self.both(lambda side: side.read_exactly(n)) == (
                "ChannelClosedError", "read on closed SequenceInputStream")
            return
        ready, ends = self._readable()
        if ready >= n:
            kind, data = self.both(lambda side: side.read_exactly(n))
            assert kind == "ok" and len(data) == n
            self._took(data)
        elif ends:
            outcome = self.both(lambda side: side.read_exactly(n))
            if outcome[0] == "EndOfStreamError":
                assert outcome[1] == ("end of stream" if ready == 0 else (
                    f"stream ended mid-element: wanted {n} bytes, "
                    f"got {ready}"))
            self._ran_out(outcome, "EndOfStreamError")

    @rule(n=elements, k=st.integers(min_value=2, max_value=5))
    def burst(self, n, k):
        """What a stage does: ``k`` elements written, then read one by
        one — the first refills, the rest lie whole in the batch."""
        for _ in range(k):
            self.write(n)
        for _ in range(k):
            self.read_exactly(n)

    def _short_read(self, n, call):
        if self.in_closed:
            assert self.both(call) == (
                "ChannelClosedError", "read on closed SequenceInputStream")
            return
        ready, ends = self._readable()
        if ready:
            kind, data = self.both(call)
            assert kind == "ok" and 1 <= len(data) <= n
            self._took(data)
        elif ends:
            outcome = self.both(call)
            assert outcome[0] != "ok" or len(outcome[1]) == 0
            self._ran_out(outcome, "ok")

    @rule(n=sizes)
    def read(self, n):
        self._short_read(n, lambda side: side.inp.read(n))

    @rule(n=sizes)
    def readinto(self, n):
        def call(side):
            target = bytearray(n)
            return bytes(target[:side.inp.readinto(target)])
        self._short_read(n, call)

    # -- what must hold after every step ------------------------------------
    @invariant()
    def same_books(self):
        assert self.sut.books() == self.ref.books()
        assert self.sut.ch.buffer.history_bytes() == bytes(
            self.sut.ch.buffer.history)

    @invariant()
    def would_block_on_is_the_walked_answer(self):
        for side in (self.sut, self.ref):
            assert (side.inp.would_block_on()
                    is side.inp.sequence.would_block_on())
            assert (side.out.would_block_on()
                    is side.out.sequence.would_block_on())
        for end in ("inp", "out"):
            sut = getattr(self.sut, end).would_block_on()
            ref = getattr(self.ref, end).would_block_on()
            assert (sut is None) == (ref is None)
            assert sut is None or sut is self.sut.ch.buffer

    @invariant()
    def bounded_by_capacity_plus_one_batch(self):
        capacity = self.sut.ch.capacity
        assert self.sut.ch.buffer.available() <= capacity
        assert self.sut.ch.reader.held() <= capacity


TestRepointModel = RepointMachine.TestCase
TestRepointModel.settings = settings(max_examples=150,
                                     stateful_step_count=60, deadline=None)


# ---------------------------------------------------------------------------
# the messages, spelled out (they are the parent's)
# ---------------------------------------------------------------------------

def _longs(values):
    return b"".join(LONG.encode(v) for v in values)


def test_errors_keep_their_types_and_messages():
    ch = Channel(64, name="c")
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    out.write(b"abc")
    out.close()
    for write in (out.write, out.write_vectored, out.sequence.write):
        with pytest.raises(ChannelClosedError,
                           match="^write on closed SequenceOutputStream$"):
            write(b"x")
    with pytest.raises(EndOfStreamError, match="^stream ended mid-element: "
                                               "wanted 8 bytes, got 3$"):
        inp.read_exactly(8)
    with pytest.raises(EndOfStreamError, match="^end of stream$"):
        inp.read_exactly(8)

    ch = Channel(64, name="c")
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    out.write(_longs([1, 2]))
    assert LONG.read(inp) == 1
    out.abort()
    assert LONG.read(inp) == 2            # an aborted stream still drains
    with pytest.raises(BrokenChannelError,
                       match="^writer of channel 'c' aborted$"):
        LONG.read(inp)

    ch = Channel(64, name="c")
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    out.write(_longs([1, 2]))
    assert LONG.read(inp) == 1
    inp.close()
    with pytest.raises(BrokenChannelError, match="^reader closed channel 'c'$"):
        out.write(b"x")
    with pytest.raises(ChannelClosedError,
                       match="^read on closed SequenceInputStream$"):
        LONG.read(inp)                    # not the element it still held


def test_a_foreign_lowest_layer_is_called_directly():
    ch = Channel(64)
    out = ch.get_output_stream()
    sink = FifoOutput(Fifo("sink"))
    out.sequence.switch_to(sink)
    assert out.write == sink.write
    assert out.write_vectored == sink.write_vectored
    assert out.would_block_on == sink.would_block_on
    out.sequence.switch_to(LocalOutputStream(ch.buffer))
    assert out.write == ch.buffer.write
    assert out.write_vectored == ch.buffer.write_vectored


# ---------------------------------------------------------------------------
# two threads
# ---------------------------------------------------------------------------

def test_write_blocked_during_switch_goes_to_the_old_target():
    ch = Channel(16, name="tight")
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    out.write(b"a" * 16)                  # full
    writer = threading.Thread(target=out.write, args=(b"b" * 8,), daemon=True)
    writer.start()
    deadline = time.monotonic() + 10
    while not ch.buffer._writers_waiting and time.monotonic() < deadline:
        time.sleep(0.001)
    assert ch.buffer._writers_waiting == 1
    other = Fifo("other")
    out.sequence.switch_to(FifoOutput(other))
    assert inp.read_exactly(16) == b"a" * 16      # makes room: writer wakes
    writer.join(10)
    assert not writer.is_alive()
    out.write(b"c" * 8)
    assert inp.read_exactly(8) == b"b" * 8        # delivered to the ring
    assert bytes(other.written) == b"c" * 8       # the next one was not
    assert ch.buffer.total_written == 24


class _Recorder(OutputStream):
    def __init__(self, tag, log):
        self.tag, self.log = tag, log

    def write(self, data):
        self.log.append(self.tag)

    def write_vectored(self, chunks):
        self.log.append(self.tag)


def test_producer_mixing_both_calls_never_sees_half_a_switch():
    """One switch per round while the producer alternates ``write`` and
    ``write_vectored``: once anything has reached the new target, nothing
    may reach the old one (that would reorder the channel's bytes)."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    deadline = time.monotonic() + 5
    try:
        for _ in range(300):
            if time.monotonic() > deadline:
                break
            log = []
            ch = Channel(64)
            out = ch.get_output_stream()
            out.sequence.switch_to(_Recorder("old", log))
            go, switched = threading.Event(), threading.Event()

            def produce():
                go.wait(10)
                while not switched.is_set() or log[-1] != "new":
                    out.write(b"x")
                    out.write_vectored((b"y",))
                    if len(log) > 200_000:
                        break

            producer = threading.Thread(target=produce, daemon=True)
            producer.start()
            go.set()
            while len(log) < 20 and producer.is_alive():
                pass
            out.sequence.switch_to(_Recorder("new", log))
            switched.set()
            producer.join(10)
            assert not producer.is_alive()
            first_new = log.index("new")
            assert "old" not in log[first_new:]
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# torn elements take the stack and come back whole
# ---------------------------------------------------------------------------

def test_element_straddling_two_batches_and_a_splice_boundary():
    word = LONG.encode(0x0102030405060708)
    up, down = Channel(64, name="up"), Channel(64, name="down")
    out, inp = down.get_output_stream(), down.get_input_stream()
    out.write(LONG.encode(7) + word[:3])
    assert LONG.read(inp) == 7            # the batch holds 3 of the next 8
    assert down.reader.held() == 3
    out.write(word[3:6])                  # a second batch: 3 more
    up.get_output_stream().write(word[6:] + LONG.encode(9))
    up.get_output_stream().close()
    inp.splice_from(up.get_input_stream())
    out.close()                           # ... and the last 2 upstream
    assert LONG.read(inp) == 0x0102030405060708
    assert LONG.read(inp) == 9
    with pytest.raises(EndOfStreamError):
        LONG.read(inp)
