"""Element-wise arithmetic processes (Figures 2, 11, 12).

All of these read one element from each input per step and write one
element, so they are continuous Kahn functions by construction.  The
element type is a codec parameter; the Fibonacci and sieve networks use
LONG, the Newton square-root network uses DOUBLE.
"""

from __future__ import annotations

from typing import Optional

from repro.kpn.process import IterativeProcess
from repro.kpn.streams import InputStream, OutputStream
from repro.processes.codecs import BOOL, Codec, LONG, get_codec

__all__ = ["Add", "Subtract", "Multiply", "Divide", "Average", "Equal",
           "ModuloFilter", "BinaryOp"]


class BinaryOp(IterativeProcess):
    """Base: combine one element from each of two inputs per step.

    A subclass states what a pair becomes, once, in :meth:`combine`; the
    step applies it, and so does the kernel the semantics compiler
    builds for every ``BinaryOp``.
    """

    kpn_strict = True
    kpn_rate_balanced = True

    def __init__(self, left: InputStream, right: InputStream, out: OutputStream,
                 iterations: int = 0, codec: "Codec | str" = LONG,
                 out_codec: "Codec | str | None" = None,
                 name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.left = left
        self.right = right
        self.out = out
        self.codec = get_codec(codec)
        self.out_codec = get_codec(out_codec) if out_codec is not None else self.codec
        self.track(left, right, out)

    def combine(self, a, b):
        raise NotImplementedError

    def awaits(self):
        return self.left, self.right

    def step(self) -> None:
        a = self.codec.read(self.left)
        b = self.codec.read(self.right)
        self.out_codec.write(self.out, self.combine(a, b))


class Add(BinaryOp):
    """Adds two streams element-wise (the Fibonacci feedback adder)."""

    def combine(self, a, b):
        return a + b


class Subtract(BinaryOp):
    def combine(self, a, b):
        return a - b


class Multiply(BinaryOp):
    def combine(self, a, b):
        return a * b


class Divide(BinaryOp):
    """Element-wise division (the x / r_{n-1} stage of Figure 11)."""

    def combine(self, a, b):
        return a / b


class Average(BinaryOp):
    """Element-wise mean (the (x/r + r)/2 stage of Figure 11)."""

    def combine(self, a, b):
        return (a + b) / 2


class Equal(BinaryOp):
    """Emits booleans: are the two inputs element-wise equal?

    In the Newton network this detects that "the limits of precision of
    the floating-point representation have been reached and the root
    estimate stops changing".
    """

    def __init__(self, left: InputStream, right: InputStream, out: OutputStream,
                 iterations: int = 0, codec: "Codec | str" = LONG,
                 name: Optional[str] = None) -> None:
        super().__init__(left, right, out, iterations=iterations, codec=codec,
                         out_codec=BOOL, name=name)

    def combine(self, a, b):
        return a == b


class ModuloFilter(IterativeProcess):
    """Drops multiples of ``divisor``; passes everything else through.

    The ``Modulo`` process of the Sieve of Eratosthenes (Figures 7–8):
    each newly discovered prime inserts one of these to "filter out
    multiples of a newly encountered prime".  Note a step may consume
    several inputs before producing an output; that is still a continuous
    (indeed monotonic) stream function.
    """

    kpn_strict = True         # reads before it ever writes
    kpn_rate_balanced = True  # single-output filter: writes <= reads

    def __init__(self, source: InputStream, out: OutputStream, divisor: int,
                 iterations: int = 0, codec: "Codec | str" = LONG,
                 name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.out = out
        self.divisor = divisor
        self.codec = get_codec(codec)
        self.track(source, out)

    def keeps(self, value) -> bool:
        """The filter's predicate: the step and the kernel both apply it."""
        return value % self.divisor != 0

    def step(self) -> None:
        while True:
            value = self.codec.read(self.source)
            if self.keeps(value):
                self.codec.write(self.out, value)
                return
