"""Unit tests for BoundedByteBuffer: the contract everything rests on."""

import threading
import time

import pytest

from repro.errors import BrokenChannelError, ChannelClosedError
from repro.kpn.buffers import BlockAccounting, BoundedByteBuffer, _Sleeper

from tests.conftest import start_thread


# ---------------------------------------------------------------------------
# basic FIFO behaviour
# ---------------------------------------------------------------------------

def test_write_then_read_roundtrip():
    buf = BoundedByteBuffer(64)
    buf.write(b"hello")
    assert buf.read(5) == b"hello"


def test_fifo_order_preserved_across_chunks():
    buf = BoundedByteBuffer(8)
    collected = []

    def reader():
        while True:
            chunk = buf.read(3)
            if not chunk:
                return
            collected.append(chunk)

    t = start_thread(reader)
    buf.write(b"abcdefghijklmnopqrstuvwxyz")
    buf.close_write()
    t.join(timeout=10)
    assert b"".join(collected) == b"abcdefghijklmnopqrstuvwxyz"


def test_read_returns_at_most_max_bytes():
    buf = BoundedByteBuffer(64)
    buf.write(b"abcdef")
    assert buf.read(4) == b"abcd"
    assert buf.read(4) == b"ef"


def test_read_zero_bytes_is_empty():
    buf = BoundedByteBuffer(64)
    assert buf.read(0) == b""


def test_write_empty_is_noop():
    buf = BoundedByteBuffer(64)
    buf.write(b"")
    assert buf.available() == 0


def test_available_and_free_space():
    buf = BoundedByteBuffer(10)
    buf.write(b"abc")
    assert buf.available() == 3
    assert buf.free_space() == 7


def test_counters_track_totals():
    buf = BoundedByteBuffer(64)
    buf.write(b"abcd")
    buf.read(2)
    assert buf.total_written == 4
    assert buf.total_read == 2


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        BoundedByteBuffer(0)


# ---------------------------------------------------------------------------
# blocking semantics
# ---------------------------------------------------------------------------

def test_read_blocks_until_data_arrives():
    buf = BoundedByteBuffer(64)
    result = []
    t = start_thread(lambda: result.append(buf.read(3)))
    time.sleep(0.05)
    assert not result, "read returned before any data was written"
    buf.write(b"xyz")
    t.join(timeout=10)
    assert result == [b"xyz"]


def test_write_blocks_when_full():
    buf = BoundedByteBuffer(4)
    buf.write(b"abcd")
    done = threading.Event()

    def writer():
        buf.write(b"e")
        done.set()

    start_thread(writer)
    time.sleep(0.05)
    assert not done.is_set(), "write completed despite full buffer"
    assert buf.read(2) == b"ab"
    assert done.wait(timeout=10)


def test_oversized_write_delivered_in_chunks():
    buf = BoundedByteBuffer(4)
    received = []

    def reader():
        while True:
            chunk = buf.read(100)
            if not chunk:
                return
            received.append(chunk)

    t = start_thread(reader)
    buf.write(b"0123456789" * 10)  # 100 bytes through a 4-byte pipe
    buf.close_write()
    t.join(timeout=10)
    assert b"".join(received) == b"0123456789" * 10


# ---------------------------------------------------------------------------
# close semantics (paper section 3.4)
# ---------------------------------------------------------------------------

def test_close_write_lets_reader_drain_then_eof():
    buf = BoundedByteBuffer(64)
    buf.write(b"tail")
    buf.close_write()
    assert buf.read(2) == b"ta"     # drains buffered data first
    assert buf.read(2) == b"il"
    assert buf.read(2) == b""       # only then end of stream


def test_close_read_breaks_subsequent_writes_immediately():
    buf = BoundedByteBuffer(64)
    buf.write(b"unread")
    buf.close_read()
    with pytest.raises(BrokenChannelError):
        buf.write(b"more")


def test_close_read_wakes_blocked_writer():
    buf = BoundedByteBuffer(2)
    buf.write(b"ab")
    errors = []

    def writer():
        try:
            buf.write(b"c")
        except BrokenChannelError as exc:
            errors.append(exc)

    t = start_thread(writer)
    time.sleep(0.05)
    buf.close_read()
    t.join(timeout=10)
    assert len(errors) == 1


def test_close_write_wakes_blocked_reader_with_eof():
    buf = BoundedByteBuffer(64)
    result = []
    t = start_thread(lambda: result.append(buf.read(3)))
    time.sleep(0.05)
    buf.close_write()
    t.join(timeout=10)
    assert result == [b""]


def test_read_after_close_read_raises():
    buf = BoundedByteBuffer(64)
    buf.close_read()
    with pytest.raises(ChannelClosedError):
        buf.read(1)


def test_write_after_close_write_raises():
    buf = BoundedByteBuffer(64)
    buf.close_write()
    with pytest.raises(ChannelClosedError):
        buf.write(b"x")


def test_double_close_is_idempotent():
    buf = BoundedByteBuffer(64)
    buf.close_write()
    buf.close_write()
    buf.close_read()
    buf.close_read()


def test_at_eof_reflects_drain_state():
    buf = BoundedByteBuffer(64)
    buf.write(b"x")
    buf.close_write()
    assert not buf.at_eof()
    buf.read(1)
    assert buf.at_eof()


# ---------------------------------------------------------------------------
# growth (Parks bounded scheduling)
# ---------------------------------------------------------------------------

def test_grow_increases_capacity():
    buf = BoundedByteBuffer(4)
    buf.grow(16)
    assert buf.capacity == 16
    buf.write(b"0123456789")  # would have blocked at 4


def test_grow_wakes_blocked_writer():
    buf = BoundedByteBuffer(2)
    buf.write(b"ab")
    done = threading.Event()

    def writer():
        buf.write(b"cdef")
        done.set()

    start_thread(writer)
    time.sleep(0.05)
    assert not done.is_set()
    buf.grow(16)
    assert done.wait(timeout=10)
    assert buf.available() == 6


def test_shrink_rejected():
    buf = BoundedByteBuffer(16)
    with pytest.raises(ValueError):
        buf.grow(8)


# ---------------------------------------------------------------------------
# drain (migration support)
# ---------------------------------------------------------------------------

def test_drain_returns_everything_and_unblocks_writers():
    buf = BoundedByteBuffer(4)
    buf.write(b"abcd")
    done = threading.Event()

    def writer():
        buf.write(b"ef")
        done.set()

    start_thread(writer)
    time.sleep(0.05)
    assert buf.drain() == b"abcd"
    assert done.wait(timeout=10)
    assert buf.drain() == b"ef"


# ---------------------------------------------------------------------------
# accounting (deadlock-monitor feed)
# ---------------------------------------------------------------------------

def test_accounting_records_blocked_reader():
    acct = BlockAccounting()
    buf = BoundedByteBuffer(64, accounting=acct)
    t = start_thread(lambda: buf.read(1))
    time.sleep(0.05)
    assert acct.read_blocked == 1
    snap = acct.snapshot()
    assert list(snap.values())[0] == (buf, "read")
    buf.write(b"x")
    t.join(timeout=10)
    assert acct.total_blocked == 0


def test_accounting_records_blocked_writer():
    acct = BlockAccounting()
    buf = BoundedByteBuffer(1, accounting=acct)
    buf.write(b"a")
    t = start_thread(lambda: buf.write(b"b"))
    time.sleep(0.05)
    assert acct.write_blocked == 1
    buf.read(1)
    t.join(timeout=10)
    assert acct.total_blocked == 0


def test_accounting_generation_bumps_on_transitions():
    acct = BlockAccounting()
    buf = BoundedByteBuffer(64, accounting=acct)
    g0 = acct.generation
    t = start_thread(lambda: buf.read(1))
    time.sleep(0.05)
    assert acct.generation > g0
    buf.write(b"x")
    t.join(timeout=10)


def test_unowned_accounting_kicks_on_a_wait_never_on_a_wake():
    """No network owns it (``live`` is None): every wait is a possible
    last one.  A network's own rule is pinned in test_stall_rule.py."""
    calls = []
    acct = BlockAccounting(on_change=lambda: calls.append(1))
    assert acct.live is None
    buf = BoundedByteBuffer(64, accounting=acct)
    t = start_thread(lambda: buf.read(1))
    time.sleep(0.05)
    assert calls == [1]     # the wait
    buf.write(b"x")
    t.join(timeout=10)
    assert calls == [1]     # not the wake
    assert acct.total_blocked == 0


def test_a_sleeper_on_several_lists_tolerates_a_second_wake():
    # a reader of several channels sleeps on each of their reader lists:
    # two rings may both wake it before it takes itself off them
    acct = BlockAccounting()
    buf = BoundedByteBuffer(64, accounting=acct)
    key = acct._enter(buf, "read")
    sleeper = _Sleeper(acct, key)
    sleeper.unparked(buf, "read")
    sleeper.unparked(buf, "read")
    assert sleeper.lock.acquire(timeout=0)
    assert acct.total_blocked == 0
