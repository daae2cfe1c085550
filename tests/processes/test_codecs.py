"""Codec behaviour, including the OBJECT hot path: frames must stay
independent across messages and across interleaved streams, and a codec
keeps no copy of a stream's methods — an endpoint's are re-pointed when
its transport is switched, and a copy would be stale."""

import io

import pytest

from repro.errors import EndOfStreamError
from repro.kpn.channel import Channel
from repro.processes.codecs import (BOOL, DOUBLE, INT, LONG, OBJECT,
                                    get_codec)


def test_object_codec_round_trip_over_channel():
    ch = Channel(4096)
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    values = ["hello", {"k": [1, 2, 3]}, (None, True), 42, b"\x00" * 100]
    for v in values:
        OBJECT.write(out, v)
    assert [OBJECT.read(inp) for _ in values] == values


def test_object_frames_independent_across_messages():
    # identity/memo state must not bleed between frames: the same object
    # written twice arrives as two independent copies
    ch = Channel(4096)
    out, inp = ch.get_output_stream(), ch.get_input_stream()
    payload = {"shared": [1, 2]}
    OBJECT.write(out, payload)
    OBJECT.write(out, payload)
    a, b = OBJECT.read(inp), OBJECT.read(inp)
    assert a == b == payload
    assert a is not b
    a["shared"].append(3)
    assert b["shared"] == [1, 2]


def test_object_codec_interleaved_streams():
    # per-stream cached dispatch state must not cross streams
    ch1, ch2 = Channel(4096), Channel(4096)
    o1, o2 = ch1.get_output_stream(), ch2.get_output_stream()
    i1, i2 = ch1.get_input_stream(), ch2.get_input_stream()
    for n in range(10):
        OBJECT.write(o1, ("one", n))
        OBJECT.write(o2, ("two", n))
    for n in range(10):
        assert OBJECT.read(i2) == ("two", n)
        assert OBJECT.read(i1) == ("one", n)


def test_object_codec_follows_a_switched_transport():
    from repro.kpn.streams import OutputStream

    class Other(OutputStream):
        def __init__(self):
            self.frames = []

        def write(self, data):
            self.frames.append(bytes(data))

        def write_vectored(self, chunks):
            self.frames.append(b"".join(chunks))

    ch = Channel(4096)
    out, other = ch.get_output_stream(), Other()
    OBJECT.write(out, "first")
    out.sequence.switch_to(other)
    OBJECT.write(out, "second")
    assert bytes(ch.buffer.drain()) == OBJECT.encode("first")
    assert other.frames == [OBJECT.encode("second")]


def test_object_codec_plain_bytesio_source():
    # a sink without write_vectored gets one joined frame, a source
    # without read_exactly the fallback loop
    buf = io.BytesIO()
    OBJECT.write(buf, "abc")
    OBJECT.write(buf, [1, 2])
    buf.seek(0)
    assert OBJECT.read(buf) == "abc"
    assert OBJECT.read(buf) == [1, 2]
    with pytest.raises(EndOfStreamError):
        OBJECT.read(buf)


def test_object_encode_matches_write():
    ch = Channel(4096)
    OBJECT.write(ch.get_output_stream(), {"x": 1})
    framed = ch.buffer.drain()
    assert bytes(framed) == OBJECT.encode({"x": 1})


@pytest.mark.parametrize("codec,value", [
    (LONG, -(1 << 40)), (INT, -12345), (DOUBLE, 3.5), (BOOL, True),
])
def test_struct_codecs_round_trip(codec, value):
    ch = Channel(64)
    codec.write(ch.get_output_stream(), value)
    assert codec.read(ch.get_input_stream()) == value


def test_get_codec_names():
    assert get_codec("object") is OBJECT
    assert get_codec(LONG) is LONG
    with pytest.raises(ValueError):
        get_codec("nope")
