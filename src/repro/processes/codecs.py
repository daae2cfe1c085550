"""Element codecs: how typed tokens map onto channel byte streams.

The paper's processes layer ``DataOutputStream`` / ``ObjectOutputStream``
over the raw channel streams inside each process (section 3.1).  A *codec*
bundles the two directions of that layering so that typed library
processes (Add, Scale, Merge, …) can be written once and parameterized by
element type, while the channels — and any byte-level process spliced in
between, such as Cons or Duplicate — remain type-agnostic.

Fixed-width codecs (LONG, DOUBLE, INT, BOOL) use Java-compatible
big-endian encodings; OBJECT uses length-prefixed pickle frames.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any

from repro.kpn.data import DataInputStream, DataOutputStream
from repro.kpn.streams import InputStream, OutputStream

__all__ = [
    "Codec", "StructCodec", "ObjectCodec",
    "LONG", "INT", "DOUBLE", "BOOL", "OBJECT",
    "get_codec",
]


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
    """Fixed-width codec described by a :mod:`struct` format string."""

    def __init__(self, fmt: str, name: str) -> None:
        self._struct = struct.Struct(fmt)
        self.width = self._struct.size
        self.name = name

    def write(self, out: OutputStream, value: Any) -> None:
        out.write(self._struct.pack(value))

    def read(self, source: InputStream) -> Any:
        try:
            exact = source.read_exactly
        except AttributeError:
            exact = _exact_reader(source)
        return self._struct.unpack_from(exact(self.width))[0]

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

    * reads use the stream's ``read_exactly`` (a foreign source without
      one gets :func:`_exact_reader`'s loop, shared with
      :class:`StructCodec`);
    * writes go through the stream's ``write_vectored`` when present, so
      the 4-byte header and the payload reach the channel in one call with
      no ``header + payload`` concatenation copy.

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
        try:
            vectored = out.write_vectored
        except AttributeError:          # foreign sink (a file, a BytesIO)
            out.write(self._LEN.pack(len(payload)) + payload)
        else:
            vectored((self._LEN.pack(len(payload)), payload))

    def read(self, source: InputStream) -> Any:
        try:
            exact = source.read_exactly
        except AttributeError:
            exact = _exact_reader(source)
        (length,) = self._LEN.unpack_from(exact(4))
        return pickle.loads(exact(length))

    def encode(self, value: Any) -> bytes:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return self._LEN.pack(len(payload)) + payload


def _exact_reader(source: InputStream):
    """An exact-length reader for a foreign ``source`` that has only
    ``read`` (a file, a BytesIO): loop until the count is reached."""
    def exact(n: int) -> bytes:
        parts: list[bytes] = []
        remaining = n
        while remaining > 0:
            chunk = source.read(remaining)
            if not chunk:
                from repro.errors import EndOfStreamError
                raise EndOfStreamError("end of stream")
            parts.append(chunk)
            remaining -= len(chunk)
        return b"".join(parts)
    return exact


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
