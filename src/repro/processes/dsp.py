"""Signal-processing processes.

The paper motivates process networks with "signal processing and
scientific computation applications ... embedded signal processing, sonar
beam forming, and image processing" (section 1).  This module provides
the classic streaming DSP blocks as Kahn processes.  All are continuous
stream functions — rate-changing ones included (a downsampler consuming k
inputs per output is still monotonic) — so networks built from them stay
determinate, and each has a denotational kernel registered with the
network compiler (``Zip``'s is every ``BinaryOp``'s).

Blocks
------
Delay           k-sample delay line (prepends initial values)
FIRFilter       finite-impulse-response filter (direct form)
MovingAverage   length-k box filter (a FIRFilter convenience)
Downsample      keep every k-th element
Upsample        insert k−1 fill values after every element
Zip / Unzip     merge two streams into pairs / split pairs round-robin
Window          sliding windows of length k with configurable hop
Accumulate      running reduction (prefix sums by default)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, Sequence

from repro.kpn.process import IterativeProcess
from repro.kpn.streams import InputStream, OutputStream
from repro.processes.arithmetic import BinaryOp
from repro.processes.codecs import Codec, DOUBLE, LONG, OBJECT, get_codec

__all__ = ["Delay", "FIRFilter", "MovingAverage", "Downsample", "Upsample",
           "Zip", "Unzip", "Window", "Accumulate"]


class Delay(IterativeProcess):
    """k-sample delay: output = initial values, then the input stream.

    The streaming identity ``delay_k(X) = [i_1..i_k] ++ X`` — a Cons with
    a constant head, but element- rather than byte-oriented, and the
    canonical way to seed DSP feedback loops.
    """

    kpn_strict = True
    kpn_rate_balanced = True

    def __init__(self, source: InputStream, out: OutputStream,
                 initial: Sequence[Any], iterations: int = 0,
                 codec: "Codec | str" = DOUBLE, name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.out = out
        self.initial = tuple(initial)
        if self.initial:
            # the initial values are written before the source is first
            # read — on a feedback cycle they are the initial tokens
            self.kpn_deferred_inputs = ("source",)
        self.codec = get_codec(codec)
        self.track(source, out)

    def on_start(self) -> None:
        for value in self.initial:
            self.codec.write(self.out, value)

    def step(self) -> None:
        self.codec.write(self.out, self.codec.read(self.source))


class FIRFilter(IterativeProcess):
    """Direct-form FIR: y[n] = Σ coeffs[j] · x[n−j].

    Produces one output per input once the tap line has filled; the first
    ``len(coeffs)−1`` inputs prime the line (standard "valid" mode, so
    output length = input length − taps + 1).
    """

    def __init__(self, source: InputStream, out: OutputStream,
                 coeffs: Sequence[float], iterations: int = 0,
                 codec: "Codec | str" = DOUBLE, name: Optional[str] = None) -> None:
        if not coeffs:
            raise ValueError("FIRFilter needs at least one coefficient")
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.out = out
        self.coeffs = tuple(coeffs)
        self.codec = get_codec(codec)
        self._taps: deque = deque(maxlen=len(self.coeffs))
        self.track(source, out)

    def step(self) -> None:
        self._taps.append(self.codec.read(self.source))
        if len(self._taps) == len(self.coeffs):
            acc = sum(c * x for c, x in zip(self.coeffs, reversed(self._taps)))
            self.codec.write(self.out, acc)

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_taps"] = deque(self._taps, maxlen=len(self.coeffs))
        return state


class MovingAverage(FIRFilter):
    """Length-k box filter: the uniform FIR."""

    def __init__(self, source: InputStream, out: OutputStream, k: int,
                 iterations: int = 0, codec: "Codec | str" = DOUBLE,
                 name: Optional[str] = None) -> None:
        if k < 1:
            raise ValueError("window length must be >= 1")
        super().__init__(source, out, [1.0 / k] * k, iterations=iterations,
                         codec=codec, name=name)


class Downsample(IterativeProcess):
    """Keep every k-th element (the first of each group of k)."""

    def __init__(self, source: InputStream, out: OutputStream, k: int,
                 iterations: int = 0, codec: "Codec | str" = DOUBLE,
                 name: Optional[str] = None) -> None:
        if k < 1:
            raise ValueError("decimation factor must be >= 1")
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.out = out
        self.k = k
        self.codec = get_codec(codec)
        self.track(source, out)

    def step(self) -> None:
        keep = self.codec.read(self.source)
        self.codec.write(self.out, keep)
        for _ in range(self.k - 1):
            self.codec.read(self.source)  # EOF mid-group ends the process


class Upsample(IterativeProcess):
    """Emit each element followed by k−1 copies of ``fill``."""

    def __init__(self, source: InputStream, out: OutputStream, k: int,
                 fill: Any = 0.0, iterations: int = 0,
                 codec: "Codec | str" = DOUBLE, name: Optional[str] = None) -> None:
        if k < 1:
            raise ValueError("expansion factor must be >= 1")
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.out = out
        self.k = k
        self.fill = fill
        self.codec = get_codec(codec)
        self.track(source, out)

    def step(self) -> None:
        self.codec.write(self.out, self.codec.read(self.source))
        for _ in range(self.k - 1):
            self.codec.write(self.out, self.fill)


class Zip(BinaryOp):
    """Pairs elements of two streams: out = ((a1,b1), (a2,b2), …).

    Output uses the object codec (tuples); inputs share ``codec``.
    """

    def __init__(self, left: InputStream, right: InputStream,
                 out: OutputStream, iterations: int = 0,
                 codec: "Codec | str" = DOUBLE, name: Optional[str] = None) -> None:
        super().__init__(left, right, out, iterations=iterations, codec=codec,
                         out_codec=OBJECT, name=name)

    def combine(self, a, b):
        return (a, b)


class Unzip(IterativeProcess):
    """Round-robin split: even-indexed elements left, odd-indexed right."""

    def __init__(self, source: InputStream, left_out: OutputStream,
                 right_out: OutputStream, iterations: int = 0,
                 codec: "Codec | str" = DOUBLE, name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.left_out = left_out
        self.right_out = right_out
        self.codec = get_codec(codec)
        self.track(source, left_out, right_out)

    def step(self) -> None:
        self.codec.write(self.left_out, self.codec.read(self.source))
        self.codec.write(self.right_out, self.codec.read(self.source))


class Window(IterativeProcess):
    """Sliding windows: tuples of length k advancing by ``hop``."""

    def __init__(self, source: InputStream, out: OutputStream, k: int,
                 hop: int = 1, iterations: int = 0,
                 codec: "Codec | str" = DOUBLE, name: Optional[str] = None) -> None:
        if k < 1 or hop < 1:
            raise ValueError("window length and hop must be >= 1")
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.out = out
        self.k = k
        self.hop = hop
        self.codec = get_codec(codec)
        self._buf: deque = deque(maxlen=k)
        self.track(source, out)

    def step(self) -> None:
        needed = self.k if not self._buf else self.hop
        for _ in range(needed):
            self._buf.append(self.codec.read(self.source))
        if len(self._buf) == self.k:
            OBJECT.write(self.out, tuple(self._buf))

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_buf"] = deque(self._buf, maxlen=self.k)
        return state


class Accumulate(IterativeProcess):
    """Running reduction: out[n] = fn(out[n−1], in[n]); prefix sums by
    default."""

    def __init__(self, source: InputStream, out: OutputStream,
                 fn: Callable[[Any, Any], Any] = None, initial: Any = 0,
                 iterations: int = 0, codec: "Codec | str" = DOUBLE,
                 name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.out = out
        self.fn = fn
        self.state = initial
        self.codec = get_codec(codec)
        self.track(source, out)

    def step(self) -> None:
        value = self.codec.read(self.source)
        self.state = (self.state + value) if self.fn is None \
            else self.fn(self.state, value)
        self.codec.write(self.out, self.state)


# ---------------------------------------------------------------------------
# denotational kernels for the compiler
# ---------------------------------------------------------------------------

def _register_dsp_kernels() -> None:
    """Called by :mod:`repro.semantics.compile` when *it* is imported, so
    importing the process library does not load the semantics package."""
    from repro.semantics.closed import CStream
    from repro.semantics.compile import register_kernel

    @register_kernel(Delay)
    def _delay(p, ctx):
        initial = p.initial

        def kernel(inputs):
            (s,) = inputs
            return (CStream(initial + s.elems, s.closed),)

        ctx.node(p, kernel, [p.source], [p.out])

    @register_kernel(FIRFilter)
    def _fir(p, ctx):
        coeffs = p.coeffs

        def kernel(inputs):
            (s,) = inputs
            k = len(coeffs)
            out = tuple(
                sum(c * s.elems[i - j] for j, c in enumerate(coeffs))
                for i in range(k - 1, len(s.elems)))
            return (CStream(out, s.closed),)

        ctx.node(p, kernel, [p.source], [p.out])

    @register_kernel(Downsample)
    def _down(p, ctx):
        k = p.k

        def kernel(inputs):
            (s,) = inputs
            out = s.elems[::k]
            # the last kept element is only safe once its whole group has
            # arrived (or the stream closed)
            if not s.closed and len(s.elems) % k != 0:
                pass  # partial group: its head was already emitted; fine
            return (CStream(out, s.closed),)

        ctx.node(p, kernel, [p.source], [p.out])

    @register_kernel(Upsample)
    def _up(p, ctx):
        k, fill = p.k, p.fill

        def kernel(inputs):
            (s,) = inputs
            out = []
            for x in s.elems:
                out.append(x)
                out.extend([fill] * (k - 1))
            return (CStream(tuple(out), s.closed),)

        ctx.node(p, kernel, [p.source], [p.out])

    @register_kernel(Unzip)
    def _unzip(p, ctx):
        def kernel(inputs):
            (s,) = inputs
            left = s.elems[0::2]
            right = s.elems[1::2]
            return (CStream(left, s.closed), CStream(right, s.closed))

        ctx.node(p, kernel, [p.source], [p.left_out, p.right_out])

    @register_kernel(Window)
    def _window(p, ctx):
        k, hop = p.k, p.hop

        def kernel(inputs):
            (s,) = inputs
            out = tuple(tuple(s.elems[i:i + k])
                        for i in range(0, len(s.elems) - k + 1, hop))
            return (CStream(out, s.closed),)

        ctx.node(p, kernel, [p.source], [p.out])

    @register_kernel(Accumulate)
    def _acc(p, ctx):
        fn = p.fn
        initial = p.state

        def kernel(inputs):
            (s,) = inputs
            out = []
            acc = initial
            for x in s.elems:
                acc = (acc + x) if fn is None else fn(acc, x)
                out.append(acc)
            return (CStream(tuple(out), s.closed),)

        ctx.node(p, kernel, [p.source], [p.out])
