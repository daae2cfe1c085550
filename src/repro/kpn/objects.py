"""Arbitrary-object I/O over byte channels (``java.io.Object*Stream`` analogue).

Objects are pickled and framed with a 4-byte big-endian length prefix so
they travel over the same byte channels as everything else, preserving the
paper's "all communication between processes takes the form of streams of
bytes" discipline.  The generic Producer/Worker/Consumer processes of
section 5.1 move :class:`~repro.parallel.tasks.Task` objects through these
streams.

A frame size cap guards against a corrupted or misaligned stream being
interpreted as a multi-gigabyte allocation.
"""

from __future__ import annotations

import io
import pickle
import struct
from typing import Any

from repro.errors import ChannelError
from repro.kpn.data import DataInputStream
from repro.kpn.streams import InputStream, OutputStream

__all__ = ["ObjectInputStream", "ObjectOutputStream", "MAX_FRAME_BYTES"]

#: Upper bound on a single serialized object (64 MiB).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class ObjectOutputStream:
    """Pickles objects into length-prefixed frames on an output stream."""

    def __init__(self, out: OutputStream,
                 protocol: int = pickle.HIGHEST_PROTOCOL) -> None:
        self.out = out
        self.protocol = protocol

    def write_object(self, obj: Any) -> None:
        payload = pickle.dumps(obj, protocol=self.protocol)
        if len(payload) > MAX_FRAME_BYTES:
            raise ChannelError(
                f"object frame of {len(payload)} bytes exceeds cap {MAX_FRAME_BYTES}")
        header = _LEN.pack(len(payload))
        # One vectored write keeps the frame contiguous with no
        # header+payload concatenation; readers reassemble by
        # exact-length reads.
        write_vectored = getattr(self.out, "write_vectored", None)
        if write_vectored is not None:
            write_vectored((header, payload))
        else:
            self.out.write(header + payload)

    def flush(self) -> None:
        self.out.flush()

    def close(self) -> None:
        self.out.close()


class ObjectInputStream:
    """Reads frames produced by :class:`ObjectOutputStream`."""

    def __init__(self, source: InputStream) -> None:
        self._data = DataInputStream(source)
        self.source = source

    def read_object(self) -> Any:
        header = self._data._exact(4)
        (length,) = _LEN.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ChannelError(
                f"incoming frame of {length} bytes exceeds cap {MAX_FRAME_BYTES}"
                " (corrupted or misaligned stream?)")
        payload = self._data._exact(length)
        return pickle.loads(payload)

    def close(self) -> None:
        self.source.close()


def dumps_framed(obj: Any, protocol: int = pickle.HIGHEST_PROTOCOL) -> bytes:
    """Serialize ``obj`` to a standalone length-prefixed frame (bytes)."""
    buf = io.BytesIO()

    class _Sink(OutputStream):
        def write(self, data: bytes) -> None:
            buf.write(data)

        def close(self) -> None:  # pragma: no cover - unused
            pass

    ObjectOutputStream(_Sink(), protocol).write_object(obj)
    return buf.getvalue()
