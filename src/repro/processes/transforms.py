"""Byte-level and element-level transform processes.

The byte-level processes are the paper's showcase for type independence
(section 3.1): "Some processes, such as Cons and Duplicate simply process
bytes and need not be aware of any structure within a byte stream."

* :class:`Cons` — stream concatenation: forwards everything from its
  *head* input, then everything from its *tail* input.  With a one-shot
  ``Constant`` on the head this is exactly the paper's "inserts an element
  at the head of a stream" (Figure 2).
* :class:`SelfRemovingCons` — the reconfiguring variant of Figures 9–10:
  once the head is exhausted it splices its tail channel directly into its
  downstream channel and removes itself from the graph, so no copying
  thread remains.
* :class:`Duplicate` — fan-out of one byte stream to N outputs (Figure 5).
* :class:`Scale`, :class:`MapProcess` — element-level transforms used by
  the Hamming network (Figure 12) and general plumbing.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.errors import ChannelError, EndOfStreamError
from repro.kpn.channel import ChannelInputStream, ChannelOutputStream
from repro.kpn.process import IterativeProcess, StopProcess
from repro.kpn.streams import InputStream, OutputStream
from repro.processes.codecs import Codec, LONG, get_codec

__all__ = ["Cons", "SelfRemovingCons", "Duplicate", "Scale", "MapProcess", "Identity"]

#: chunk size for byte-level copying; FIFO order is preserved regardless
COPY_CHUNK = 4096


class Cons(IterativeProcess):
    """Byte-level stream concatenation: head, then tail.

    The paper's Fibonacci graph uses ``Cons`` to prepend the seed value
    produced by a one-iteration ``Constant`` to the stream circulating in
    the feedback loop (Figure 6).
    """

    kpn_strict = True
    kpn_rate_balanced = True
    #: the head is copied out before the tail is ever read — on a
    #: feedback cycle this is the initial token (paper Figure 6)
    kpn_deferred_inputs = ("tail",)

    def __init__(self, head: InputStream, tail: InputStream, out: OutputStream,
                 name: Optional[str] = None) -> None:
        super().__init__(iterations=0, name=name)
        self.head = head
        self.tail = tail
        self.out = out
        self._phase = 0  # 0 = copying head, 1 = copying tail
        self.track(head, tail, out)

    def awaits(self):
        # never the tail while the head lasts: on a feedback cycle the
        # head is the initial token (SelfRemovingCons stays in phase 0)
        return (self.head if self._phase == 0 else self.tail,)

    def step(self) -> None:
        source = self.head if self._phase == 0 else self.tail
        chunk = source.read(COPY_CHUNK)
        if chunk:
            self.out.write(chunk)
        elif self._phase == 0:
            self._phase = 1
        else:
            raise EndOfStreamError("both inputs exhausted")


class SelfRemovingCons(Cons):
    """Cons that removes itself from the graph after the head is exhausted.

    "To avoid unnecessary copying of data and improve efficiency, the Cons
    processes remove themselves from the program graph" (Figure 9).  The
    removal is the 3-stage splice of Figure 10: the tail channel's input
    stream is appended to the downstream channel's SequenceInputStream,
    then this process stops and closes its *output*, so the consumer
    drains the bytes Cons already copied and continues reading directly
    from the upstream channel "without interruption".

    Requires channel-endpoint streams (it must reach the actual channels
    to rewire them); plain Cons works with any streams.
    """

    def __init__(self, head: InputStream, tail: ChannelInputStream,
                 out: ChannelOutputStream, name: Optional[str] = None) -> None:
        super().__init__(head, tail, out, name=name)
        self.removed = False

    def step(self) -> None:
        chunk = self.head.read(COPY_CHUNK)
        if chunk:
            self.out.write(chunk)
            return
        # Head exhausted: splice tail channel into the downstream channel.
        downstream_input = self.out.channel.get_input_stream()
        downstream_input.splice_from(self.tail)  # detaches self.tail
        self.removed = True
        # Stopping closes our output; the consumer drains it, reaches its
        # end, and the spliced stream becomes active.
        raise StopProcess


class Duplicate(IterativeProcess):
    """Copies its input byte stream to every output (paper Figure 5).

    Two termination disciplines for the fan-out edge case (one branch's
    consumer closes while others still read):

    * ``resilient=False`` (default, the paper's Figure-5 semantics): the
      first broken output stops the whole Duplicate.  This is what makes
      sink-limited termination cascade *upstream through fan-outs* — the
      paper's "first 100 primes" mode needs it — at the price that
      sibling branches are cut at a buffering-dependent point.
    * ``resilient=True`` (Kahn-faithful): a broken output is dropped and
      the remaining branches keep receiving data until input EOF (or all
      outputs break).  Sibling histories then match the denotational
      semantics exactly under any capacity — the property-based
      determinacy tests run in this mode — but an upstream cut no longer
      propagates through the fan-out, so sink-limited graphs must bound
      their sources instead.
    """

    kpn_strict = True
    kpn_rate_balanced = True

    def __init__(self, source: InputStream, outputs: Sequence[OutputStream],
                 resilient: bool = False, name: Optional[str] = None) -> None:
        super().__init__(iterations=0, name=name)
        self.source = source
        self.outputs = list(outputs)
        self.resilient = resilient
        self._broken: set[int] = set()
        self.track(source, *outputs)

    def step(self) -> None:
        chunk = self.source.read(COPY_CHUNK)
        if not chunk:
            raise EndOfStreamError("input exhausted")
        if not self.resilient:
            for out in self.outputs:
                out.write(chunk)
            return
        for i, out in enumerate(self.outputs):
            if i in self._broken:
                continue
            try:
                out.write(chunk)
            except ChannelError:
                self._broken.add(i)
        if len(self._broken) == len(self.outputs):
            raise EndOfStreamError("all outputs closed")

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_broken"] = set(self._broken)
        return state


class Identity(IterativeProcess):
    """Copies input bytes to output unchanged (useful as a buffer stage)."""

    kpn_strict = True
    kpn_rate_balanced = True

    def __init__(self, source: InputStream, out: OutputStream,
                 name: Optional[str] = None) -> None:
        super().__init__(iterations=0, name=name)
        self.source = source
        self.out = out
        self.track(source, out)

    def step(self) -> None:
        chunk = self.source.read(COPY_CHUNK)
        if not chunk:
            raise EndOfStreamError("input exhausted")
        self.out.write(chunk)


class Scale(IterativeProcess):
    """Multiplies each element by a constant (Hamming network, Figure 12)."""

    kpn_strict = True
    kpn_rate_balanced = True

    def __init__(self, source: InputStream, out: OutputStream, factor: Any,
                 iterations: int = 0, codec: "Codec | str" = LONG,
                 name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.out = out
        self.factor = factor
        self.codec = get_codec(codec)
        self.track(source, out)

    def step(self) -> None:
        self.codec.write(self.out, self.codec.read(self.source) * self.factor)


class MapProcess(IterativeProcess):
    """Applies a pure function to each element.

    The host-language escape hatch of section 1: any Python callable can
    become a process, and as long as it is pure (no shared state with
    other processes) the network remains determinate.
    """

    kpn_strict = True
    kpn_rate_balanced = True

    def __init__(self, source: InputStream, out: OutputStream,
                 fn: Callable[[Any], Any], iterations: int = 0,
                 codec: "Codec | str" = LONG,
                 out_codec: "Codec | str | None" = None,
                 name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.out = out
        self.fn = fn
        self.codec = get_codec(codec)
        self.out_codec = get_codec(out_codec) if out_codec is not None else self.codec
        self.track(source, out)

    def step(self) -> None:
        self.out_codec.write(self.out, self.fn(self.codec.read(self.source)))
