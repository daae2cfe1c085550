"""Unit tests for the socket pumps, without the migration machinery."""

import socket
import threading
import time

import pytest

from repro.errors import BrokenChannelError
from repro.kpn.buffers import BoundedByteBuffer
from repro.distributed.sockets import ReceiverPump, SenderPump
from repro.distributed.wire import Tag, recv_frame, send_frame

from tests.conftest import start_thread


def linked_pumps(sender_cap=1024, receiver_cap=1024, name="unit"):
    """A sender (listen mode) and receiver (connect mode) pair."""
    src = BoundedByteBuffer(sender_cap, name=f"{name}-src")
    dst = BoundedByteBuffer(receiver_cap, name=f"{name}-dst")
    sender = SenderPump(src, name=f"{name}-s")
    host, port = sender.ensure_listener()
    sender.start()
    receiver = ReceiverPump(dst, connect=(host, port), name=f"{name}-r").start()
    return src, dst, sender, receiver


def test_bytes_flow_end_to_end():
    src, dst, sender, receiver = linked_pumps()
    src.write(b"hello across the wire")
    deadline = time.monotonic() + 10
    collected = b""
    while len(collected) < 21 and time.monotonic() < deadline:
        collected += dst.read(64)
    assert collected == b"hello across the wire"
    src.close_write()               # the pumps end with the stream
    assert dst.read(64) == b""


def test_eof_propagates():
    src, dst, sender, receiver = linked_pumps()
    src.write(b"last")
    src.close_write()
    assert dst.read(16) == b"last"
    assert dst.read(16) == b""  # EOF crossed the wire


def test_large_transfer_integrity():
    src, dst, sender, receiver = linked_pumps(sender_cap=4096,
                                              receiver_cap=4096)
    payload = bytes(range(256)) * 512  # 128 KiB
    writer = start_thread(lambda: (src.write(payload), src.close_write()))
    collected = bytearray()
    while True:
        chunk = dst.read(1 << 16)
        if not chunk:
            break
        collected.extend(chunk)
    writer.join(timeout=10)
    assert bytes(collected) == payload


def test_backpressure_bounds_consumer_buffer():
    """The consumer-side buffer respects its bound regardless of how much
    the producer sends.  (The *total* in-flight volume additionally
    includes kernel TCP queues — documented slack, see DESIGN.md — so the
    producer itself only throttles at multi-megabyte scale.)"""
    src, dst, sender, receiver = linked_pumps(sender_cap=64, receiver_cap=64)
    done = threading.Event()
    total = 5000

    def producer():
        data = b"x" * 50
        for _ in range(total // 50):
            src.write(data)
        src.close_write()
        done.set()

    start_thread(producer)
    collected = 0
    while True:
        assert dst.available() <= 64  # the bound under test
        chunk = dst.read(1 << 12)
        if not chunk:
            break
        collected += len(chunk)
    assert collected == total
    assert done.wait(timeout=10)


def test_close_read_propagates_back_to_producer():
    """Consumer closing its buffer breaks producer-side writes — lazily,
    on the next data the link carries, exactly the paper's §3.4 rule
    ("an exception ... the next time the corresponding OutputStream is
    written to")."""
    src, dst, sender, receiver = linked_pumps(sender_cap=64, receiver_cap=64)
    src.write(b"seed")
    time.sleep(0.1)
    dst.close_read()
    # the signal rides the data plane: keep writing until it lands
    deadline = time.monotonic() + 10
    broke = False
    while time.monotonic() < deadline and not broke:
        try:
            src.write(b"more")
        except BrokenChannelError:
            broke = True
        time.sleep(0.01)
    assert broke, "CLOSE_READ never reached the producer side"
    assert src.read_closed


def test_receiver_treats_connection_loss_as_eof():
    src, dst, sender, receiver = linked_pumps()
    src.write(b"pre")
    time.sleep(0.1)
    sender.close()  # simulate producer host death
    assert dst.read(16) == b"pre"
    assert dst.read(16) == b""  # clean EOF, not a hang
    src.close_write()   # the dead host's pump, asleep on its buffer, ends


def test_sender_listener_reuse_address_info():
    src = BoundedByteBuffer(64)
    sender = SenderPump(src, name="addr")
    host1, port1 = sender.ensure_listener()
    host2, port2 = sender.ensure_listener()
    assert (host1, port1) == (host2, port2)  # idempotent
    sender.close()


def test_frames_multiplex_control_and_data():
    """LISTEN_REQ arriving between DATA frames must not corrupt the
    stream (receiver handles it inline)."""
    dst = BoundedByteBuffer(1024, name="mux-dst")
    receiver = ReceiverPump(dst, name="mux-r")
    host, port = receiver.ensure_listener()
    receiver.start()
    sock = socket.create_connection((host, port))
    send_frame(sock, Tag.DATA, b"one")
    send_frame(sock, Tag.LISTEN_REQ)
    tag, payload = recv_frame(sock)  # the LISTEN_OK reply
    assert tag == Tag.LISTEN_OK
    send_frame(sock, Tag.DATA, b"two")
    send_frame(sock, Tag.EOF)
    collected = b""
    while True:
        chunk = dst.read(64)
        if not chunk:
            break
        collected += chunk
    assert collected == b"onetwo"
    sock.close()
