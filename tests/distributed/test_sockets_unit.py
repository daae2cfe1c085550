"""Unit tests for the socket pumps, without the migration machinery."""

import pickle
import socket
import sys
import threading
import time

import pytest

from repro.errors import BrokenChannelError, MigrationError
from repro.kpn.buffers import BoundedByteBuffer
from repro.distributed.sockets import ReceiverPump, SenderPump
from repro.distributed.wire import FrameReader, Tag, recv_frame, send_frame

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


def test_a_consumer_redial_loses_and_repeats_nothing():
    """The send gate under a short switch interval: the producer writes
    without pause while its consumer redials.  The old connection carries
    no DATA after LISTEN_OK, so reading it up to LISTEN_OK and the new one
    to EOF gives the stream exactly once, in order.  The producer keeps
    writing until the new connection is up, so the stream cannot end
    before the redial starts."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        src = BoundedByteBuffer(256, name="redial-src")
        sender = SenderPump(src, name="redial")
        sender.start()
        payload = bytearray()
        redialled = threading.Event()

        def produce():
            tail = 64                   # writes after the redial
            while tail:
                chunk = bytes((len(payload) + k) % 251 for k in range(16))
                src.write(chunk)
                payload.extend(chunk)
                tail -= redialled.is_set()
            src.close_write()

        writer = start_thread(produce)
        got = bytearray()
        old = socket.create_connection(sender.ensure_listener())
        reader = FrameReader(old)
        while len(got) < 1000:
            tag, data = reader.recv_frame()
            assert tag == Tag.DATA
            got += data
        send_frame(old, Tag.LISTEN_REQ)
        while True:
            tag, data = reader.recv_frame()
            if tag == Tag.LISTEN_OK:
                break
            assert tag == Tag.DATA
            got += data
        old.close()
        new = socket.create_connection(pickle.loads(data))
        redialled.set()
        reader = FrameReader(new)
        while True:
            tag, data = reader.recv_frame()
            if tag == Tag.EOF:
                break
            assert tag == Tag.DATA
            got += data
        new.close()
    finally:
        sys.setswitchinterval(interval)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert bytes(got) == payload
    assert sender.listener is None      # both dial-ins taken, both closed


def test_a_failed_consumer_hop_leaves_the_ring_bounded():
    """While its consumer moves, a full ring grows by exactly what the
    producer sends before it sees LISTEN_REQ; when the handshake fails,
    the ring keeps that bound and blocks the pump again."""
    dst = BoundedByteBuffer(64, name="stay-dst")
    receiver = ReceiverPump(dst, name="stay")
    producer = socket.create_connection(receiver.ensure_listener())
    receiver.start()
    send_frame(producer, Tag.DATA, b"x" * 40)
    send_frame(producer, Tag.DATA, b"y" * 40)   # blocks the pump at 64 B
    deadline = time.monotonic() + 10
    while dst.free_space() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert dst.free_space() == 0
    receiver.request_peer_listener = (
        lambda: ReceiverPump.request_peer_listener(receiver, timeout=1.0))
    outcome = []

    def move():
        try:
            receiver.begin_migration()
        except MigrationError as exc:
            outcome.append(exc)

    mover = start_thread(move)
    tag, _ = recv_frame(producer)
    assert tag == Tag.LISTEN_REQ
    send_frame(producer, Tag.DATA, b"z" * 100)  # sent before LISTEN_REQ
    mover.join(timeout=10)                      # ... which goes unanswered
    assert len(outcome) == 1
    assert dst.capacity == 180                  # just what it holds
    assert [g["cause"] for g in dst.growths] == ["migration"] * 2
    send_frame(producer, Tag.DATA, b"w" * 10)
    time.sleep(0.2)
    assert (dst.available(), receiver.moved) == (180, 180)   # w waits
    send_frame(producer, Tag.EOF)
    collected = b""
    while True:
        chunk = dst.read(256)
        if not chunk:
            break
        collected += chunk
    assert collected == b"x" * 40 + b"y" * 40 + b"z" * 100 + b"w" * 10
    producer.close()
