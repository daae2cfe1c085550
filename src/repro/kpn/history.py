"""Channel-history capture: observe the object Kahn's theorem talks about.

Determinacy (paper §2) is a statement about "the history of data elements
produced on the communication channels" — *all* channels, not just the
ones a sink happens to watch.  This module captures those histories from
a live network so they can be compared, channel by channel, against the
least fixed point of the compiled equations:

    net = Network(); ...build...
    capture = HistoryCapture(net, codecs={"ch-0": "long", ...})  # or infer
    net.run()
    histories = capture.decode()   # {channel name: tuple of elements}

Byte histories are recorded losslessly in the buffers (a flag set before
the run); decoding applies each channel's codec.  ``infer_codecs`` takes
per-channel codecs from the program graph where the standard library
exposes them (the ``codec`` attribute convention).
"""

from __future__ import annotations

import io
from typing import Dict, Optional, Tuple

from repro.kpn.network import Network

__all__ = ["HistoryCapture", "decode_bytes", "infer_codecs"]


class _BytesSource:
    """Minimal InputStream over captured bytes (for codec decoding)."""

    def __init__(self, data: bytes) -> None:
        self._buf = io.BytesIO(data)
        self._len = len(data)

    def read(self, n: int) -> bytes:
        return self._buf.read(n)

    def read_exactly(self, n: int) -> bytes:
        data = self._buf.read(n)
        if len(data) != n:
            from repro.errors import EndOfStreamError

            raise EndOfStreamError("history ended mid-element")
        return data

    def exhausted(self) -> bool:
        return self._buf.tell() >= self._len


def decode_bytes(data: bytes, codec) -> Tuple:
    """Decode a full byte history with a codec; trailing partial elements
    are impossible for intact histories and raise if present."""
    from repro.processes.codecs import get_codec

    codec = get_codec(codec)
    source = _BytesSource(data)
    out = []
    while not source.exhausted():
        out.append(codec.read(source))
    return tuple(out)


def infer_codecs(network: Network) -> Dict[str, object]:
    """Per-channel element codec, for every channel where it is known.

    The program graph resolves it (:mod:`repro.kpn.topology`): the
    codec the *producer* declares, forwarded through byte-level
    processes (Cons, Duplicate, Identity) from their input channel.
    """
    return {edge.name: edge.codec for edge in network.topology().edges
            if edge.codec is not None}


class HistoryCapture:
    """Turn on byte-history recording for every channel of a network.

    Create *before* ``net.run()`` (existing channels are armed now; ones
    created later by reconfiguration are armed on :meth:`refresh`).
    """

    def __init__(self, network: Network,
                 codecs: Optional[Dict[str, object]] = None) -> None:
        self.network = network
        self.codecs = dict(codecs) if codecs else None
        self._armed: set[str] = set()
        self.refresh()

    def refresh(self) -> None:
        with self.network._lock:
            channels = list(self.network.channels)
        for ch in channels:
            if ch.name not in self._armed:
                ch.buffer.record_history(True)
                self._armed.add(ch.name)

    def raw(self) -> Dict[str, bytes]:
        with self.network._lock:
            channels = list(self.network.channels)
        return {ch.name: ch.buffer.history_bytes() for ch in channels}

    def decode(self) -> Dict[str, Tuple]:
        """Decoded per-channel element histories.

        Channels with no known codec are skipped (their raw bytes remain
        available via :meth:`raw`).
        """
        codecs = self.codecs if self.codecs is not None \
            else infer_codecs(self.network)
        out: Dict[str, Tuple] = {}
        for name, data in self.raw().items():
            codec = codecs.get(name)
            if codec is None:
                continue
            out[name] = decode_bytes(data, codec)
        return out
