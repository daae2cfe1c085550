"""Telemetry and framing of a link's DATA frames.

A DATA frame is one drain of the producer's buffer, which takes everything
buffered, so back-to-back small writes share one frame.  The byte counters
describe the *bytes* and must come out exact at both ends; the frame
counters describe the transport, and must agree between the ends and with
the drains that made the frames."""

import time

import pytest

from repro.kpn.buffers import BoundedByteBuffer
from repro.telemetry.core import TELEMETRY
from repro.distributed.sockets import ReceiverPump, SenderPump

from tests.conftest import start_thread


@pytest.fixture
def hub():
    TELEMETRY.reset().enable()
    try:
        yield TELEMETRY
    finally:
        TELEMETRY.disable().reset()


def _pump_bytes(name, payload_writes, prefill=False, drains=None):
    """Push ``payload_writes`` through a linked pump pair; return the
    (bytes_out, bytes_in, chunks_out, chunks_in) counters for the link.

    ``prefill`` writes everything, and closes, before the receiver
    connects, so the sender pump's first drain finds the whole stream
    buffered.  ``drains``, a list, receives the size of every view the
    sender pump's ``drain_up_to`` returned.
    """
    src = BoundedByteBuffer(1 << 16, name=f"{name}-src")
    dst = BoundedByteBuffer(1 << 16, name=f"{name}-dst")
    if drains is not None:
        drain = src.drain_up_to

        def counted(max_bytes):
            view = drain(max_bytes)
            drains.append(len(view))
            return view
        src.drain_up_to = counted
    sender = SenderPump(src, name=name)
    host, port = sender.ensure_listener()
    sender.start()

    def produce():
        for p in payload_writes:
            src.write(p)
        src.close_write()

    if prefill:
        produce()
    receiver = ReceiverPump(dst, connect=(host, port), name=name).start()
    total = sum(len(p) for p in payload_writes)
    try:
        writer = None if prefill else start_thread(produce)
        got = bytearray()
        while True:
            chunk = dst.read(1 << 16)
            if not chunk:
                break
            got += chunk
        if writer is not None:
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert bytes(got) == b"".join(payload_writes)
        # the counters are bumped by the pump threads right around the
        # frame sends; EOF has crossed, so one short grace poll suffices
        deadline = time.monotonic() + 5
        while (TELEMETRY.counter("link.bytes_in", link=name) < total
               and time.monotonic() < deadline):
            time.sleep(0.01)
    finally:
        sender.close()
        receiver.close()
    return (TELEMETRY.counter("link.bytes_out", link=name),
            TELEMETRY.counter("link.bytes_in", link=name),
            TELEMETRY.counter("link.chunks_out", link=name),
            TELEMETRY.counter("link.chunks_in", link=name))


def test_byte_counters_exact_for_bursty_writes(hub):
    writes = [b"%04d" % i * 11 for i in range(300)]  # bursty small writes
    total = sum(len(w) for w in writes)

    out, inn, chunks_out, chunks_in = _pump_bytes("bursty", writes)

    # bytes describe the data: exact at both ends
    assert out == inn == total
    # frames describe the transport: every write fits the ring whole, so
    # a frame carries at least one write and bursts may only share frames
    assert chunks_out == chunks_in
    assert 1 <= chunks_out <= len(writes)


def test_frame_and_byte_counters_agree_between_ends(hub):
    writes = [bytes([i % 256]) * 513 for i in range(100)]
    out, inn, chunks_out, chunks_in = _pump_bytes("parity", writes)
    assert out == inn == sum(len(w) for w in writes)
    assert chunks_out == chunks_in


def test_one_data_frame_per_drain(hub):
    writes = [b"%04d" % i * 11 for i in range(300)]
    total = sum(len(w) for w in writes)
    drains = []
    out, inn, chunks_out, chunks_in = _pump_bytes(
        "framing", writes, prefill=True, drains=drains)
    # the first drain takes the whole buffered stream, the second finds
    # it closed and empty: one DATA frame, then EOF
    assert drains == [total, 0]
    assert TELEMETRY.counter("wire.frames_sent", tag="DATA") == 1
    assert chunks_out == chunks_in == 1
    assert out == inn == total
