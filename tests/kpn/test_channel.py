"""Unit tests for Channel endpoints, splicing, and wait_any_readable."""

import threading
import time

import pytest

from repro.errors import BrokenChannelError, EndOfStreamError
from repro.kpn.buffers import BlockAccounting
from repro.kpn.channel import (Channel, ChannelInputStream, make_channels,
                               wait_any_readable)

from tests.conftest import start_thread


def test_endpoints_are_singletons():
    ch = Channel(64)
    assert ch.get_output_stream() is ch.get_output_stream()
    assert ch.get_input_stream() is ch.get_input_stream()


def test_roundtrip_via_endpoints():
    ch = Channel(64)
    ch.get_output_stream().write(b"payload")
    assert ch.get_input_stream().read(16) == b"payload"


def test_read_exactly_via_endpoint():
    ch = Channel(64)
    ch.get_output_stream().write(b"abcdef")
    assert ch.get_input_stream().read_exactly(6) == b"abcdef"


def test_close_output_then_input_sees_eof():
    ch = Channel(64)
    ch.get_output_stream().write(b"z")
    ch.get_output_stream().close()
    inp = ch.get_input_stream()
    assert inp.read_exactly(1) == b"z"
    with pytest.raises(EndOfStreamError):
        inp.read_exactly(1)
    assert inp.at_eof()


def test_close_input_breaks_output():
    ch = Channel(64)
    ch.get_input_stream().close()
    with pytest.raises(BrokenChannelError):
        ch.get_output_stream().write(b"x")


def test_grow_via_channel():
    ch = Channel(4)
    ch.grow(64)
    assert ch.capacity == 64


def test_names_autogenerated_and_unique():
    a, b = Channel(), Channel()
    assert a.name != b.name


def test_make_channels_helper():
    channels = make_channels(3, capacity=32, prefix="t")
    assert [c.name for c in channels] == ["t-0", "t-1", "t-2"]
    assert all(c.capacity == 32 for c in channels)


def test_set_accounting_rebinds_buffer():
    ch = Channel(16)
    acct = BlockAccounting()
    ch.set_accounting(acct)
    assert ch.buffer.accounting is acct


# ---------------------------------------------------------------------------
# splice_from (reconfiguration)
# ---------------------------------------------------------------------------

def test_splice_from_transfers_tail_and_detaches():
    up = Channel(64, name="up")        # upstream channel (was Cons's input)
    down = Channel(64, name="down")    # downstream channel (Cons -> consumer)
    down.get_output_stream().write(b"copied-by-cons:")
    up.get_output_stream().write(b"direct")
    up.get_output_stream().close()

    down.get_input_stream().splice_from(up.get_input_stream())
    down.get_output_stream().close()   # Cons stops

    assert up.get_input_stream().detached
    up.get_input_stream().close()      # Cons's onStop: must be a no-op now

    inp = down.get_input_stream()
    assert inp.read_exactly(len(b"copied-by-cons:direct")) == b"copied-by-cons:direct"
    with pytest.raises(EndOfStreamError):
        inp.read_exactly(1)


def test_poll_ready_states():
    ch = Channel(64)
    inp = ch.get_input_stream()
    assert not inp.poll_ready()
    ch.get_output_stream().write(b"x")
    assert inp.poll_ready()
    inp.read_exactly(1)
    assert not inp.poll_ready()
    ch.get_output_stream().close()
    assert inp.poll_ready()  # EOF counts as ready (read won't block)


# ---------------------------------------------------------------------------
# wait_any_readable (Turnstile primitive)
# ---------------------------------------------------------------------------

def test_wait_any_immediate_when_data_present():
    a, b = Channel(64), Channel(64)
    b.get_output_stream().write(b"x")
    ready = wait_any_readable([a.get_input_stream(), b.get_input_stream()],
                              timeout=5)
    assert ready == [1]


def test_wait_any_wakes_on_late_data():
    a, b = Channel(64), Channel(64)

    def late_writer():
        time.sleep(0.05)
        a.get_output_stream().write(b"y")

    start_thread(late_writer)
    ready = wait_any_readable([a.get_input_stream(), b.get_input_stream()],
                              timeout=10)
    assert ready == [0]


def test_wait_any_reports_eof_as_ready():
    a = Channel(64)
    a.get_output_stream().close()
    assert wait_any_readable([a.get_input_stream()], timeout=5) == [0]


def test_wait_any_timeout_returns_empty():
    a = Channel(64)
    assert wait_any_readable([a.get_input_stream()], timeout=0.05) == []


def test_wait_any_wakes_on_late_data_on_a_later_input():
    a, b = Channel(64), Channel(64)

    def late_writer():
        time.sleep(0.05)
        b.get_output_stream().write(b"y")

    start_thread(late_writer)
    ready = wait_any_readable([a.get_input_stream(), b.get_input_stream()],
                              timeout=10)
    assert ready == [1]
    assert not a.buffer._readers and not b.buffer._readers


def test_an_idle_wait_sleeps_instead_of_polling(monkeypatch):
    a, b = Channel(64), Channel(64)
    looks = []
    poll_ready = ChannelInputStream.poll_ready

    def counted(self):
        looks.append(self)
        return poll_ready(self)

    monkeypatch.setattr(ChannelInputStream, "poll_ready", counted)
    assert wait_any_readable([a.get_input_stream(), b.get_input_stream()],
                             timeout=0.3) == []
    assert len(looks) <= 4


def test_wait_any_multiple_ready_reports_all():
    a, b = Channel(64), Channel(64)
    a.get_output_stream().write(b"1")
    b.get_output_stream().write(b"2")
    ready = wait_any_readable([a.get_input_stream(), b.get_input_stream()],
                              timeout=5)
    assert ready == [0, 1]
