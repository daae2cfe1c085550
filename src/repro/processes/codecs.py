"""Element codecs: the one typed layer over the byte channels.

The paper's processes layer ``DataOutputStream`` / ``ObjectOutputStream``
over the raw channel streams inside each process (section 3.1).  A *codec*
bundles the two directions of that layering so that typed library
processes (Add, Scale, Merge, …) can be written once and parameterized by
element type, while the channels — and any byte-level process spliced in
between, such as Cons or Duplicate — remain type-agnostic.  The codecs are
the only code that knows an element's bytes:

* :class:`StructCodec` carries the Java big-endian encodings
  ``DataOutputStream`` wrote (LONG, INT, DOUBLE, BOOL);
* :class:`ObjectCodec` stands in for ``ObjectOutputStream``: a 4-byte
  big-endian length, then a pickle, at most :data:`MAX_FRAME_BYTES` long.

A codec reads through the source's ``read_in_place``, which says where
the element lies, so that it is decoded at its offset in the endpoint's
read-ahead with no copy, and writes through the sink's
``write``/``write_vectored``: a channel endpoint has all three.
A fixed-width codec also decodes a run of whole elements at once
(:meth:`StructCodec.unpack_all`) and encodes a list of them as one write
(:meth:`StructCodec.write_all`): that is how a map stage consumes what its
endpoint has already read ahead.
A foreign byte source (a file, a ``BytesIO``) is wrapped in
:class:`~repro.kpn.streams.BlockingInputStream` first; a foreign sink
takes :meth:`Codec.encode`.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any

from repro.kpn.streams import InputStream, OutputStream

__all__ = [
    "Codec", "StructCodec", "ObjectCodec",
    "LONG", "INT", "DOUBLE", "BOOL", "OBJECT",
    "MAX_FRAME_BYTES", "get_codec",
]

#: Upper bound on one pickled element (64 MiB).  A length prefix above it
#: is a corrupted stream or a reader whose codec does not match the
#: writer's, and is refused before a byte of the body is read.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class Codec:
    """Encode/decode one element to/from a byte stream."""

    #: bytes per element, or None for variable-width codecs
    width: int | None = None

    #: codecs are stateless after construction; the module-level singletons
    #: (LONG, OBJECT, ...) are legitimately shared between processes, so the
    #: race detector (repro.analysis.races) must not report them
    __kpn_shared_ok__ = True

    def write(self, out: OutputStream, value: Any) -> None:
        raise NotImplementedError

    def read(self, source: InputStream) -> Any:
        raise NotImplementedError

    def encode(self, value: Any) -> bytes:
        raise NotImplementedError

    def _format_key(self):
        """What two codecs must share to read each other's bytes."""
        return type(self)

    def same_format(self, other: "Codec") -> bool:
        """True when ``other`` decodes exactly the bytes this codec writes
        (the graph compiler's object fast path and the ``codec-mismatch``
        lint rule both ask this of an edge's two ends)."""
        return self._format_key() == other._format_key()


class StructCodec(Codec):
    """Fixed-width codec described by a :mod:`struct` format string of one
    value (``">q"``, ``"?"``, ``"8s"``)."""

    def __init__(self, fmt: str, name: str) -> None:
        self._struct = struct.Struct(fmt)
        self.width = self._struct.size
        self.name = name
        # n elements as one format: ">q" -> ">{n}q", "8s" -> "8s8s..."
        self._order = fmt[:1] if fmt[:1] in "@=<>!" else ""
        self._code = fmt[len(self._order):]
        #: one compiled Struct per run length seen (struct's own cache
        #: holds 100 formats and empties itself when full)
        self._runs: dict[int, struct.Struct] = {}

    def _run(self, n: int) -> struct.Struct:
        run = self._runs.get(n)
        if run is None:
            code = self._code
            run = self._runs[n] = struct.Struct(
                self._order + (f"{n}{code}" if len(code) == 1 else code * n))
        return run

    def write(self, out: OutputStream, value: Any) -> None:
        out.write(self._struct.pack(value))

    def read(self, source: InputStream) -> Any:
        # the element at its offset in what the source holds: no copy
        return self._struct.unpack_from(*source.read_in_place(self.width))[0]

    def unpack_all(self, view) -> tuple:
        """Decode ``view``, a whole number of elements, in one call."""
        return self._run(len(view) // self.width).unpack(view)

    def write_all(self, out: OutputStream, values: list) -> None:
        """``write`` each of ``values`` in turn, as one pack and one write.

        A value ``write`` would refuse fails the whole pack; then the
        values before it are written one by one and ``write`` raises on
        it, so the stream ends exactly where, and with the error that,
        element-at-a-time writing would have ended it.
        """
        try:
            data = self._run(len(values)).pack(*values)
        except Exception:
            for value in values:
                self.write(out, value)
            raise
        out.write(data)

    def encode(self, value: Any) -> bytes:
        return self._struct.pack(value)

    def _format_key(self):
        return (type(self), self._struct.format)

    def __reduce__(self):
        # struct.Struct objects are unpicklable; named codecs rebuild via
        # the registry, ad-hoc ones via their format string.  This is what
        # lets processes holding codecs migrate between servers.
        if _BY_NAME.get(self.name) is self:
            return (get_codec, (self.name,))
        return (StructCodec, (self._struct.format, self.name))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StructCodec {self.name}>"


class ObjectCodec(Codec):
    """Variable-width pickle-framed codec (``ObjectOutputStream`` analogue).

    This is the per-task hot path of every farm (one read + one write per
    Worker step).  Both directions call the stream's own attributes and
    keep no copy of them: a channel endpoint's ``write_vectored`` is
    re-pointed when its transport is switched, and a copy would go on
    writing into the old one.

    * reads use the stream's ``read_in_place``, so a frame the endpoint
      holds is unpickled from its read-ahead with no copy;
    * writes go through the stream's ``write_vectored``, so the 4-byte
      header and the payload reach the channel in one call with no
      ``header + payload`` concatenation copy.

    Both directions check the frame against :data:`MAX_FRAME_BYTES`
    before a byte moves.  The error is a ``ValueError``, not a
    :class:`~repro.errors.ChannelError`: a mismatched codec fails its
    process, and the run, instead of ending it as a quiet termination.

    Reusing actual ``Pickler``/``Unpickler`` *objects* per stream was
    measured and rejected: with CPython's C implementation,
    ``pickle.dumps`` beats a reused ``Pickler`` + ``BytesIO`` at every
    payload size (the framework setup it would amortize is cheaper than
    the Python-level buffer juggling), and clearing an ``Unpickler``'s
    memo between messages is not supported by the C accelerator.  The
    per-message allocation that matters — the joined frame — is what the
    vectored write removes.
    """

    width = None
    name = "object"
    _LEN = struct.Struct(">I")

    def __reduce__(self):
        return (get_codec, ("object",))

    def write(self, out: OutputStream, value: Any) -> None:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        out.write_vectored((self._header(payload), payload))

    def read(self, source: InputStream) -> Any:
        # header and payload decoded where they lie, as StructCodec.read
        in_place = source.read_in_place
        (length,) = self._LEN.unpack_from(*in_place(4))
        if length > MAX_FRAME_BYTES:
            raise _oversized(length)
        buf, pos = in_place(length)
        return pickle.loads(buf[pos:pos + length])

    def encode(self, value: Any) -> bytes:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return self._header(payload) + payload

    def _header(self, payload: bytes) -> bytes:
        if len(payload) > MAX_FRAME_BYTES:
            raise _oversized(len(payload))
        return self._LEN.pack(len(payload))


def _oversized(length: int) -> ValueError:
    return ValueError(
        f"object frame of {length} bytes exceeds cap {MAX_FRAME_BYTES}; "
        f"corrupted stream or mismatched codec?")


LONG = StructCodec(">q", "long")
INT = StructCodec(">i", "int")
DOUBLE = StructCodec(">d", "double")
BOOL = StructCodec("?", "bool")
OBJECT = ObjectCodec()

_BY_NAME = {"long": LONG, "int": INT, "double": DOUBLE, "bool": BOOL,
            "object": OBJECT}


def get_codec(spec: "Codec | str") -> Codec:
    """Resolve a codec instance or name ('long', 'double', 'object', …)."""
    if isinstance(spec, Codec):
        return spec
    try:
        return _BY_NAME[spec]
    except KeyError:
        raise ValueError(f"unknown codec {spec!r}; known: {sorted(_BY_NAME)}")
