"""What one element costs in Python frames — the count the hop claim rests on.

``LONG.write`` into a ring with room and ``LONG.read`` from a batch the
endpoint already holds are each one frame below the codec and take no
sequence lock (they were 8 and 5 frames and an RLock each when every call
walked the Figure-3 stack).  An endpoint whose sequence is fused, spliced
or closed still goes through the stack, layer by layer.  Counted with
``sys.setprofile`` ``call`` events, which see Python frames only, so the
numbers repeat exactly.
"""

import sys

import pytest

from repro.errors import ChannelClosedError
from repro.kpn.channel import Channel
from repro.kpn.compile import _FusedPipe, _PipeInput, _PipeOutput
from repro.processes.codecs import LONG


class CountingLock:
    """Stands in for a sequence stream's lock and counts acquisitions."""

    def __init__(self, lock):
        self.lock = lock
        self.taken = 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def calls(func, *args):
    """``Class.function`` of every Python frame entered by
    ``func(*args)``, ``func``'s own first (``co_qualname`` is 3.11+, so
    the class is taken from the frame's ``self``)."""
    seen = []

    def profiler(frame, event, arg):
        if event == "call":
            owner = frame.f_locals.get("self")
            seen.append(f"{type(owner).__name__}.{frame.f_code.co_name}")

    sys.setprofile(profiler)
    try:
        func(*args)
    except ChannelClosedError:
        pass
    finally:
        sys.setprofile(None)
    return [name for name in seen if not name.startswith("CountingLock.")]


def channel():
    """A channel with room, its endpoints, and counting sequence locks;
    three elements are written and the first read, so two lie whole in
    what the consumer endpoint holds."""
    ch = Channel(1024, name="hop")
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    out.sequence._lock = CountingLock(out.sequence._lock)
    inp.sequence._lock = CountingLock(inp.sequence._lock)
    for value in (1, 2, 3):
        LONG.write(out, value)
    assert LONG.read(inp) == 1 and ch.reader.held() == 16
    out.sequence._lock.taken = inp.sequence._lock.taken = 0
    return ch, out, inp


def test_hit_path_is_one_frame_below_the_codec_and_takes_no_lock():
    ch, out, inp = channel()
    for _ in range(2):                    # exact, so it repeats
        assert calls(LONG.write, out, 4) == [
            "StructCodec.write", "BoundedByteBuffer.write"]
        assert calls(LONG.read, inp) == [
            "StructCodec.read", "ChannelInputStream.read_exactly"]
    assert out.sequence._lock.taken == inp.sequence._lock.taken == 0
    assert inp.sequence.local_head is ch.reader


def test_an_empty_batch_takes_the_stack_to_refill():
    ch, out, inp = channel()
    assert [LONG.read(inp), LONG.read(inp)] == [2, 3]
    LONG.write(out, 4)
    assert calls(LONG.read, inp)[:5] == [
        "StructCodec.read", "ChannelInputStream.read_exactly",
        "BlockingInputStream.read_exactly", "SequenceInputStream.read",
        "LocalInputStream.read"]
    assert inp.sequence._lock.taken == 1


def test_spliced_endpoint_reads_through_the_stack():
    ch, out, inp = channel()
    up = Channel(1024, name="up")
    inp.splice_from(up.get_input_stream())
    assert inp.sequence.local_head is None
    inp.sequence._lock.taken = 0
    # the element lies whole in the batch, as on the hit path
    assert calls(LONG.read, inp) == [
        "StructCodec.read", "ChannelInputStream.read_exactly",
        "BlockingInputStream.read_exactly", "SequenceInputStream.read",
        "LocalInputStream.read"]
    assert inp.sequence._lock.taken == 1
    assert inp.would_block_on() is None


def test_fused_endpoint_reaches_the_pipe_through_the_stack():
    ch, out, inp = channel()
    pipe = _FusedPipe(ch)
    out.sequence.switch_to(_PipeOutput(pipe))
    inp.sequence.replace_head(_PipeInput(pipe))
    assert inp.sequence.local_head is None
    inp.sequence._lock.taken = 0
    # the pipe's output end is the lowest layer now, called directly
    assert calls(LONG.write, out, 9) == [
        "StructCodec.write", "_PipeOutput.write", "_FusedPipe.write_bytes"]
    assert calls(LONG.read, inp) == [
        "StructCodec.read", "ChannelInputStream.read_exactly",
        "BlockingInputStream.read_exactly", "SequenceInputStream.read",
        "_PipeInput.read", "_FusedPipe.read"]
    assert inp.sequence._lock.taken == 1
    assert ch.buffer.total_written == 24  # nothing more reached the ring


def test_closed_endpoint_raises_from_the_sequence():
    ch, out, inp = channel()
    out.close()
    assert calls(LONG.write, out, 4) == [
        "StructCodec.write", "SequenceOutputStream._raise_closed"]
    with pytest.raises(ChannelClosedError, match="SequenceOutputStream"):
        LONG.write(out, 4)
    inp.close()
    assert inp.sequence.local_head is None
    assert calls(LONG.read, inp) == [
        "StructCodec.read", "ChannelInputStream.read_exactly",
        "BlockingInputStream.read_exactly", "SequenceInputStream.read"]
    with pytest.raises(ChannelClosedError, match="SequenceInputStream"):
        LONG.read(inp)


def test_local_head_follows_the_sequence():
    ch, out, inp = channel()
    seq = inp.sequence
    out.close()
    assert [LONG.read(inp), LONG.read(inp)] == [2, 3]
    assert seq.local_head is ch.reader    # drained, its end not yet seen
    assert inp.read(8) == b""
    assert seq.local_head is None         # popped at end of stream

    ch, out, inp = channel()
    up = Channel(1024, name="up")
    LONG.write(up.get_output_stream(), 7)
    inp.splice_from(up.get_input_stream())
    out.close()
    assert [LONG.read(inp) for _ in range(3)] == [2, 3, 7]
    # what is left is the spliced channel's own sequence, not a local end
    assert inp.sequence.local_head is None
    assert up.get_input_stream().sequence.local_head is up.reader
