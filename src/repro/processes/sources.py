"""Source processes: they only produce (paper Figures 2, 6, 7).

* :class:`Constant` — writes a constant value; with ``iterations=1`` it is
  the paper's way of seeding cycles (the two ``Constant(1, …, 1)``
  processes in the Fibonacci graph of Figure 6).
* :class:`Sequence` — consecutive integers; the integer feed of the
  prime sieve (Figure 7), where an iteration limit of 99 makes the
  network "compute all prime numbers less than 100".
* :class:`FromIterable` — drives a network from any Python iterable,
  the idiomatic way to feed test vectors in.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.kpn.process import IterativeProcess, StopProcess
from repro.kpn.streams import OutputStream
from repro.processes.codecs import Codec, LONG, get_codec

__all__ = ["Constant", "Sequence", "FromIterable"]


class Constant(IterativeProcess):
    """Writes ``value`` to its output once per step."""

    kpn_strict = True
    kpn_rate_balanced = True

    def __init__(self, value: Any, out: OutputStream, iterations: int = 0,
                 codec: "Codec | str" = LONG, name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.value = value
        self.out = out
        self.codec = get_codec(codec)
        self.track(out)

    def step(self) -> None:
        self.codec.write(self.out, self.value)


class Sequence(IterativeProcess):
    """Writes ``start, start+stride, start+2*stride, …``."""

    kpn_strict = True
    kpn_rate_balanced = True

    def __init__(self, out: OutputStream, start: int = 0, stride: int = 1,
                 iterations: int = 0, codec: "Codec | str" = LONG,
                 name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.out = out
        self.next_value = start
        self.stride = stride
        self.codec = get_codec(codec)
        self.track(out)

    def step(self) -> None:
        self.codec.write(self.out, self.next_value)
        self.next_value += self.stride


class FromIterable(IterativeProcess):
    """Writes the elements of an iterable, then stops (closing its output)."""

    kpn_strict = True
    kpn_rate_balanced = True
    # the iterable is user code that may sleep: it keeps a thread on async
    kpn_async = False

    def __init__(self, out: OutputStream, items: Iterable[Any],
                 codec: "Codec | str" = LONG, name: Optional[str] = None) -> None:
        super().__init__(iterations=0, name=name)
        self.out = out
        self.items = items
        self.codec = get_codec(codec)
        self.track(out)

    def on_start(self) -> None:
        self._items = iter(self.items)

    def step(self) -> None:
        try:
            item = next(self._items)
        except StopIteration:
            raise StopProcess from None
        self.codec.write(self.out, item)
