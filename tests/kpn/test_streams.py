"""Unit tests for the Figure-3 stream layer classes."""

import threading
import time

import pytest

from repro.errors import ChannelClosedError, EndOfStreamError
from repro.kpn.buffers import BoundedByteBuffer
from repro.kpn.streams import (BlockingInputStream, LocalInputStream,
                               LocalOutputStream, SequenceInputStream,
                               SequenceOutputStream)

from tests.conftest import start_thread


def pipe(capacity=64):
    buf = BoundedByteBuffer(capacity)
    return LocalOutputStream(buf), LocalInputStream(buf), buf


# ---------------------------------------------------------------------------
# local streams
# ---------------------------------------------------------------------------

def test_local_streams_roundtrip():
    out, inp, _ = pipe()
    out.write(b"data")
    assert inp.read(10) == b"data"


def test_local_input_close_breaks_writer():
    out, inp, _ = pipe()
    inp.close()
    from repro.errors import BrokenChannelError

    with pytest.raises(BrokenChannelError):
        out.write(b"x")


def test_local_output_close_gives_eof_after_drain():
    out, inp, _ = pipe()
    out.write(b"ab")
    out.close()
    assert inp.read(10) == b"ab"
    assert inp.read(10) == b""
    assert inp.at_eof()


def test_local_available():
    out, inp, _ = pipe()
    out.write(b"abc")
    assert inp.available() == 3


# ---------------------------------------------------------------------------
# BlockingInputStream
# ---------------------------------------------------------------------------

def test_read_exactly_accumulates_across_short_reads():
    out, inp, _ = pipe(capacity=2)  # forces chunked delivery
    blocking = BlockingInputStream(inp)
    result = []
    t = start_thread(lambda: result.append(blocking.read_exactly(8)))
    out.write(b"01234567")
    t.join(timeout=10)
    assert result == [b"01234567"]


def test_read_exactly_raises_on_clean_eof():
    out, inp, _ = pipe()
    out.close()
    with pytest.raises(EndOfStreamError):
        BlockingInputStream(inp).read_exactly(4)


def test_read_exactly_raises_on_mid_element_eof():
    out, inp, _ = pipe()
    out.write(b"ab")
    out.close()
    with pytest.raises(EndOfStreamError, match="mid-element"):
        BlockingInputStream(inp).read_exactly(4)


def test_blocking_stream_plain_read_passthrough():
    out, inp, _ = pipe()
    out.write(b"xyz")
    assert BlockingInputStream(inp).read(2) == b"xy"


# ---------------------------------------------------------------------------
# SequenceInputStream — splicing
# ---------------------------------------------------------------------------

def test_sequence_reads_streams_in_order():
    out1, in1, _ = pipe()
    out2, in2, _ = pipe()
    out1.write(b"first")
    out1.close()
    out2.write(b"second")
    out2.close()
    seq = SequenceInputStream(in1)
    seq.append(in2)
    data = b""
    while True:
        chunk = seq.read(4)
        if not chunk:
            break
        data += chunk
    assert data == b"firstsecond"


def test_sequence_append_while_reading_first():
    """The Figure-10 splice: append before the current stream closes."""
    out1, in1, _ = pipe()
    out2, in2, _ = pipe()
    seq = SequenceInputStream(in1)
    out1.write(b"AA")
    seq.append(in2)       # splice happens before out1 closes
    out1.close()
    out2.write(b"BB")
    out2.close()
    collected = b""
    while True:
        chunk = seq.read(10)
        if not chunk:
            break
        collected += chunk
    assert collected == b"AABB"


def test_sequence_eof_only_after_last_stream():
    out1, in1, _ = pipe()
    out1.close()
    out2, in2, _ = pipe()
    out2.write(b"x")
    out2.close()
    seq = SequenceInputStream(in1)
    seq.append(in2)
    assert seq.read(10) == b"x"
    assert seq.read(10) == b""


def test_sequence_append_after_finish_rejected():
    out1, in1, _ = pipe()
    out1.close()
    seq = SequenceInputStream(in1)
    assert seq.read(10) == b""  # observes final EOF
    out2, in2, _ = pipe()
    with pytest.raises(ChannelClosedError):
        seq.append(in2)


def test_sequence_close_closes_all_queued_streams():
    out1, in1, buf1 = pipe()
    out2, in2, buf2 = pipe()
    seq = SequenceInputStream(in1)
    seq.append(in2)
    seq.close()
    assert buf1.read_closed and buf2.read_closed
    with pytest.raises(ChannelClosedError):
        seq.read(1)


def test_sequence_empty_is_immediate_eof():
    seq = SequenceInputStream()
    assert seq.read(4) == b""


def test_sequence_available_sums_queued():
    out1, in1, _ = pipe()
    out2, in2, _ = pipe()
    out1.write(b"ab")
    out2.write(b"cde")
    seq = SequenceInputStream(in1)
    seq.append(in2)
    assert seq.available() == 5


def test_sequence_blocking_read_wakes_on_data():
    out1, in1, _ = pipe()
    seq = SequenceInputStream(in1)
    result = []
    t = start_thread(lambda: result.append(seq.read(4)))
    time.sleep(0.05)
    out1.write(b"late")
    t.join(timeout=10)
    assert result == [b"late"]


# ---------------------------------------------------------------------------
# SequenceOutputStream — switching
# ---------------------------------------------------------------------------

def test_sequence_output_switch_redirects_subsequent_writes():
    out1, in1, _ = pipe()
    out2, in2, _ = pipe()
    seq = SequenceOutputStream(out1)
    seq.write(b"one")
    seq.switch_to(out2)
    seq.write(b"two")
    assert in1.read(10) == b"one"
    assert in2.read(10) == b"two"


def test_sequence_output_switch_can_close_old():
    out1, in1, buf1 = pipe()
    out2, _, _ = pipe()
    seq = SequenceOutputStream(out1)
    seq.switch_to(out2, close_old=True)
    assert buf1.write_closed


def test_sequence_output_close_is_terminal():
    out1, _, buf1 = pipe()
    seq = SequenceOutputStream(out1)
    seq.close()
    assert buf1.write_closed
    with pytest.raises(ChannelClosedError):
        seq.write(b"x")
    out2, _, _ = pipe()
    with pytest.raises(ChannelClosedError):
        seq.switch_to(out2)


def test_sequence_output_double_close_idempotent():
    out1, _, _ = pipe()
    seq = SequenceOutputStream(out1)
    seq.close()
    seq.close()
