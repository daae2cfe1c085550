"""Unit tests for the zero-copy data-plane primitives of BoundedByteBuffer
(write_vectored / write_donate / drain_up_to / read_available)."""

import threading
import time

import pytest

from repro.errors import BrokenChannelError, ChannelClosedError
from repro.kpn.buffers import BoundedByteBuffer
from tests.conftest import start_thread


# ---------------------------------------------------------------------------
# write_vectored
# ---------------------------------------------------------------------------

def test_write_vectored_matches_sequential_writes():
    buf = BoundedByteBuffer(64)
    buf.write_vectored([b"ab", b"", bytearray(b"cd"), memoryview(b"ef")])
    assert buf.read(64) == b"abcdef"
    assert buf.total_written == 6


def test_write_vectored_empty_batch_is_noop():
    buf = BoundedByteBuffer(64)
    buf.write_vectored([])
    buf.write_vectored([b"", b""])
    assert buf.available() == 0


def test_write_vectored_blocks_on_capacity_and_chunks():
    buf = BoundedByteBuffer(4)
    collected = bytearray()

    def reader():
        while True:
            chunk = buf.read(3)
            if not chunk:
                return
            collected.extend(chunk)

    t = start_thread(reader)
    buf.write_vectored([b"abcdef", b"ghij"])  # 10 bytes through a 4-byte pipe
    buf.close_write()
    t.join(timeout=10)
    assert bytes(collected) == b"abcdefghij"


def test_write_vectored_raises_when_reader_closed():
    buf = BoundedByteBuffer(64)
    buf.close_read()
    with pytest.raises(BrokenChannelError):
        buf.write_vectored([b"xy"])


# ---------------------------------------------------------------------------
# write_donate
# ---------------------------------------------------------------------------

def test_write_donate_adopts_storage_without_copy():
    buf = BoundedByteBuffer(64)
    donated = bytearray(b"take my storage")
    buf.write_donate(donated)
    # a full drain steals the ring storage back: the very same object
    view = buf.drain_up_to(64)
    assert view.obj is donated
    assert bytes(view) == b"take my storage"


def test_write_donate_falls_back_to_copy_when_not_empty():
    buf = BoundedByteBuffer(64)
    buf.write(b"head-")
    buf.write_donate(bytearray(b"tail"))
    assert buf.read(64) == b"head-tail"


def test_write_donate_oversized_chunks_like_write():
    buf = BoundedByteBuffer(4)
    collected = bytearray()

    def reader():
        while True:
            chunk = buf.read(64)
            if not chunk:
                return
            collected.extend(chunk)

    r = start_thread(reader)
    buf.write_donate(bytearray(b"0123456789"))  # larger than capacity
    buf.close_write()
    r.join(timeout=10)
    assert bytes(collected) == b"0123456789"


def test_write_donate_respects_history_recording():
    buf = BoundedByteBuffer(64)
    buf.record_history()
    buf.write_donate(bytearray(b"logged"))
    assert buf.read(64) == b"logged"
    assert buf.history_bytes() == b"logged"


def test_write_donate_raises_when_reader_closed():
    buf = BoundedByteBuffer(64)
    buf.close_read()
    with pytest.raises(BrokenChannelError):
        buf.write_donate(bytearray(b"xy"))


# ---------------------------------------------------------------------------
# drain_up_to / read_available
# ---------------------------------------------------------------------------

def test_drain_up_to_returns_owned_view_and_eof():
    buf = BoundedByteBuffer(64)
    buf.write(b"abc")
    view = buf.drain_up_to(64)
    assert bytes(view) == b"abc"
    buf.close_write()
    assert len(buf.drain_up_to(64)) == 0  # empty view == EOF


def test_drain_up_to_view_survives_later_writes_and_grow():
    buf = BoundedByteBuffer(8)
    buf.write(b"stable!!")
    view = buf.drain_up_to(8)  # steals the storage
    buf.grow(32)
    buf.write(b"XXXXXXXX")  # fresh storage, must not touch the view
    assert bytes(view) == b"stable!!"


def test_drain_up_to_partial_take_copies_safely():
    buf = BoundedByteBuffer(64)
    buf.write(b"abcdef")
    view = buf.drain_up_to(3)  # partial: copy path
    buf.write(b"ghi")
    assert bytes(view) == b"abc"
    assert buf.read(64) == b"defghi"


def test_drain_up_to_blocks_until_data():
    buf = BoundedByteBuffer(64)
    got = []

    def drain():
        got.append(bytes(buf.drain_up_to(64)))

    t = start_thread(drain)
    time.sleep(0.05)
    assert not got  # still blocked
    buf.write(b"late")
    t.join(timeout=10)
    assert got == [b"late"]


def test_read_available_never_blocks():
    buf = BoundedByteBuffer(64)
    assert len(buf.read_available(16)) == 0  # empty, not EOF, no block
    buf.write(b"now")
    assert bytes(buf.read_available(16)) == b"now"
    buf.close_write()
    assert len(buf.read_available(16)) == 0  # EOF also reads as empty


def test_drain_and_available_raise_after_close_read():
    buf = BoundedByteBuffer(64)
    buf.close_read()
    with pytest.raises(ChannelClosedError):
        buf.drain_up_to(8)
    with pytest.raises(ChannelClosedError):
        buf.read_available(8)


# ---------------------------------------------------------------------------
# _compact edge cases
# ---------------------------------------------------------------------------

def test_compact_threshold_boundary():
    """Compaction fires only once consumed bytes pass the fixed floor AND
    dominate the storage — neither condition alone may trigger it."""
    buf = BoundedByteBuffer(1 << 20)
    buf.write(b"x" * 10000)
    buf.read(4096)
    # floor passed? no: read_pos == 4096 is not > 4096
    assert buf._read_pos == 4096
    buf.read(1)
    # floor passed (4097 > 4096) but 4097*2 < 10000: not dominating yet
    assert buf._read_pos == 4097
    buf.read(1000)
    # 5097 > 4096 and 5097*2 >= 10000: compaction resets the origin
    assert buf._read_pos == 0
    assert buf.read(1 << 20) == b"x" * (10000 - 5097)


def test_compact_does_not_fire_below_floor():
    buf = BoundedByteBuffer(1 << 20)
    buf.write(b"y" * 4096)
    buf.read(4000)  # dominates (4000*2 >= 4096) but under the 4096 floor
    assert buf._read_pos == 4000
    assert buf.read(1 << 20) == b"y" * 96


def test_grow_while_reader_holds_pending_view():
    """Views handed out by the drain APIs own their storage, so growing
    (which may enlarge the ring's bytearray) can never invalidate them or
    raise BufferError on resize."""
    buf = BoundedByteBuffer(16)
    buf.write(b"0123456789abcdef")
    partial = buf.read_available(6)   # copy path
    rest = buf.drain_up_to(16)        # steal path
    buf.grow(1 << 16)
    buf.write(b"Z" * 1000)            # storage regrows under the views
    assert bytes(partial) == b"012345"
    assert bytes(rest) == b"6789abcdef"
    assert buf.read(2000) == b"Z" * 1000


def test_interleaved_close_write_during_drain():
    """EOF arriving while a reader drains: remaining bytes are delivered
    first, then the empty-view EOF signal — never a lost tail."""
    buf = BoundedByteBuffer(1 << 16)
    total = 200 * 1000
    writer = start_thread(lambda: (buf.write(b"d" * total), buf.close_write()))
    seen = 0
    while True:
        view = buf.drain_up_to(777)  # odd size: exercise partial takes
        if len(view) == 0:
            break
        assert bytes(view) == b"d" * len(view)
        seen += len(view)
    writer.join(timeout=10)
    assert seen == total


def test_interleaved_close_read_breaks_blocked_writer():
    buf = BoundedByteBuffer(8)
    failed = threading.Event()

    def writer():
        try:
            buf.write(b"w" * 1000)  # blocks on the tiny capacity
        except BrokenChannelError:
            failed.set()

    t = start_thread(writer)
    time.sleep(0.05)
    buf.drain_up_to(4)   # consume a little, writer refills and re-blocks
    buf.close_read()     # now break it mid-write
    assert failed.wait(timeout=10)
    t.join(timeout=10)
