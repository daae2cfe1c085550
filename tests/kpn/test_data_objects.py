"""The typed layer over byte channels: the codecs, and every source of
element bytes they read from."""

import io
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EndOfStreamError
from repro.kpn.channel import Channel
from repro.kpn.compile import _CodecShim, _FusedPipe, _PipeInput, _PipeOutput
from repro.kpn.history import HistoryCapture
from repro.kpn.network import Network
from repro.kpn.streams import BlockingInputStream
from repro.processes.codecs import (BOOL, DOUBLE, INT, LONG, OBJECT,
                                    StructCodec, get_codec)


def fresh(capacity=1 << 16):
    ch = Channel(capacity)
    return ch.get_output_stream(), ch.get_input_stream(), ch


# ---------------------------------------------------------------------------
# struct codecs: the DataOutputStream encodings
# ---------------------------------------------------------------------------

def test_primitive_roundtrip_each_type():
    out, inp, _ = fresh()
    BOOL.write(out, True)
    INT.write(out, -123456)
    LONG.write(out, 1 << 40)
    DOUBLE.write(out, 3.141592653589793)
    assert BOOL.read(inp) is True
    assert INT.read(inp) == -123456
    assert LONG.read(inp) == 1 << 40
    assert DOUBLE.read(inp) == 3.141592653589793


def test_struct_codecs_are_java_big_endian():
    assert LONG.encode(1) == b"\x00" * 7 + b"\x01"
    assert INT.encode(-2) == b"\xff\xff\xff\xfe"
    assert DOUBLE.encode(1.5) == struct.pack(">d", 1.5)
    assert BOOL.encode(True) == b"\x01"


@given(st.lists(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
                max_size=50))
@settings(max_examples=50, deadline=None)
def test_long_stream_roundtrip_property(values):
    out, inp, _ = fresh()
    for v in values:
        LONG.write(out, v)
    assert [LONG.read(inp) for _ in values] == values


@given(st.lists(st.floats(allow_nan=False), max_size=50))
@settings(max_examples=50, deadline=None)
def test_double_stream_roundtrip_property(values):
    out, inp, _ = fresh()
    for v in values:
        DOUBLE.write(out, v)
    assert [DOUBLE.read(inp) for _ in values] == values


def test_eof_mid_value_raises():
    out, inp, _ = fresh()
    out.write(b"\x00\x01")  # half an int
    out.close()
    with pytest.raises(EndOfStreamError):
        INT.read(inp)


def test_interleaved_types_preserve_framing():
    out, inp, _ = fresh()
    for k in range(10):
        INT.write(out, k)
        OBJECT.write(out, f"v{k}")
    for k in range(10):
        assert INT.read(inp) == k
        assert OBJECT.read(inp) == f"v{k}"


# ---------------------------------------------------------------------------
# the object codec: the ObjectOutputStream frame
# ---------------------------------------------------------------------------

def test_object_roundtrip_various():
    out, inp, _ = fresh()
    samples = [None, 42, "text", [1, 2, {"a": (3, 4)}], {"k": b"bytes"}]
    for obj in samples:
        OBJECT.write(out, obj)
    for obj in samples:
        assert OBJECT.read(inp) == obj


_OBJECTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=20)


@given(_OBJECTS)
@settings(max_examples=40, deadline=None)
def test_object_roundtrip_property(obj):
    out, inp, _ = fresh(1 << 20)
    OBJECT.write(out, obj)
    assert OBJECT.read(inp) == obj


def test_corrupted_length_prefix_detected():
    out, inp, _ = fresh(64)
    out.write(b"\xff\xff\xff\xff")  # 4 GiB frame claim
    # closed, so a reader that trusted the claim would fail on end of
    # stream rather than wait for the body
    out.close()
    with pytest.raises(ValueError, match="exceeds cap"):
        OBJECT.read(inp)


def test_object_encode_is_a_standalone_frame():
    frame = OBJECT.encode({"x": 1})
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    assert pickle.loads(frame[4:]) == {"x": 1}


def test_mismatched_codec_fails_the_run_promptly():
    """LONG wired into an OBJECT reader: the first long's high word reads
    as a 4 GiB frame, which fails the reader (and the run) at once
    instead of ending it quietly with nothing delivered."""
    import time

    from repro.processes import Collect, Sequence
    from repro.processes.transforms import MapProcess

    net = Network()
    a, b = net.channels_n(2)
    out: list = []
    net.add(Sequence(a.get_output_stream(), start=-1, stride=-1,
                     iterations=100))
    net.add(MapProcess(a.get_input_stream(), b.get_output_stream(),
                       lambda x: x, codec=OBJECT))
    net.add(Collect(b.get_input_stream(), out, codec=OBJECT))
    t = time.monotonic()
    with pytest.raises(ValueError, match="exceeds cap"):
        net.run(timeout=20)
    assert time.monotonic() - t < 1.0
    assert out == []


# ---------------------------------------------------------------------------
# every source of element bytes yields the same elements
# ---------------------------------------------------------------------------
#
# Each source is fed the same stream: whole elements, then ``tail``, the
# raw bytes of a cut-off element (empty for a full stream).  It returns
# every element it reads before its end, and raises EndOfStreamError on a
# cut-off element.

def _via_channel(codec, values, tail):
    out, inp, _ = fresh(1 << 20)
    for v in values:
        codec.write(out, v)
    out.write(tail)
    out.close()
    got = []
    while not inp.at_eof():
        got.append(codec.read(inp))
    return got


def _via_fused_pipe(object_mode):
    def source(codec, values, tail):
        ch = Channel(1 << 20)
        out, inp = ch.get_output_stream(), ch.get_input_stream()
        # wired as FusionPlan.apply wires an intra-chain channel
        pipe = _FusedPipe(ch, object_codec=codec if object_mode else None)
        out.sequence.switch_to(_PipeOutput(pipe))
        inp.sequence.replace_head(_PipeInput(pipe))
        pipe.reader_endpoint = inp
        if object_mode:
            out._fused_pipe = inp._fused_pipe = pipe
        shim = _CodecShim(codec)
        for v in values:
            shim.write(out, v)
        out.write(tail)
        out.close()
        got = []
        while not inp.at_eof():
            got.append(shim.read(inp))
        return got
    return source


def _via_bytesio(codec, values, tail):
    data = b"".join(codec.encode(v) for v in values) + tail
    buf = io.BytesIO(data)
    source = BlockingInputStream(buf)
    got = []
    while buf.tell() < len(data):
        got.append(codec.read(source))
    return got


def _via_history(codec, values, tail):
    net = Network()
    ch = net.channel(capacity=1 << 20, name="h")
    capture = HistoryCapture(net, codecs={"h": codec})
    out = ch.get_output_stream()
    for v in values:
        codec.write(out, v)
    out.write(tail)
    return list(capture.decode()["h"])


SOURCES = {
    "channel": _via_channel,
    "fused-objects": _via_fused_pipe(object_mode=True),
    "fused-bytes": _via_fused_pipe(object_mode=False),
    "bytesio": _via_bytesio,
    "history": _via_history,
}

ELEMENTS = {
    "long": st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    "int": st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
    "double": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "object": _OBJECTS,
}


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("name", sorted(ELEMENTS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_source_yields_the_same_elements(name, source, data):
    codec, read_all = get_codec(name), SOURCES[source]
    values = data.draw(st.lists(ELEMENTS[name], min_size=1, max_size=12))
    assert read_all(codec, values, b"") == values
    # the last element cut one byte short: a one-byte element simply
    # ends the stream early, any other is cut mid-element
    *whole, last = values
    tail = codec.encode(last)[:-1]
    if tail:
        with pytest.raises(EndOfStreamError):
            read_all(codec, whole, tail)
    else:
        assert read_all(codec, whole, tail) == whole


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("codec,value", [
    (LONG, -(1 << 62)), (INT, 2 ** 31 - 1), (DOUBLE, 2.5), (BOOL, True),
    (OBJECT, {"nested": [1, 2]}),
])
def test_codec_roundtrip(codec, value):
    ch = Channel(1 << 16)
    codec.write(ch.get_output_stream(), value)
    assert codec.read(ch.get_input_stream()) == value


def test_codec_encode_matches_write():
    ch = Channel(64)
    LONG.write(ch.get_output_stream(), 7)
    assert ch.get_input_stream().read_exactly(8) == LONG.encode(7)


def test_get_codec_by_name_and_instance():
    assert get_codec("long") is LONG
    assert get_codec(LONG) is LONG
    with pytest.raises(ValueError):
        get_codec("nope")


def test_named_codecs_pickle_to_singletons():
    assert pickle.loads(pickle.dumps(LONG)) is LONG
    assert pickle.loads(pickle.dumps(OBJECT)) is OBJECT


def test_adhoc_struct_codec_pickles_by_format():
    c = StructCodec(">h", "short")
    c2 = pickle.loads(pickle.dumps(c))
    assert c2.encode(-7) == c.encode(-7)


def test_byte_level_process_between_typed_ends():
    """A type-blind copier between typed ends must preserve framing."""
    from repro.processes import Collect, Identity, Sequence

    net = Network()
    a, b = net.channels_n(2)
    out: list[int] = []
    net.add(Sequence(a.get_output_stream(), start=5, iterations=20))
    net.add(Identity(a.get_input_stream(), b.get_output_stream()))
    net.add(Collect(b.get_input_stream(), out))
    net.run(timeout=30)
    assert out == list(range(5, 25))
