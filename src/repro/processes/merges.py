"""Deterministic merge processes.

:class:`OrderedMerge` is the ``Merge`` of the Hamming network (Figure 12):
an order-preserving merge of two ascending streams that eliminates
duplicates.  Unlike the Turnstile (routing.py) it is fully determinate —
it decides which input to read *from the data itself*, never from timing.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import EndOfStreamError
from repro.kpn.process import IterativeProcess
from repro.kpn.streams import InputStream, OutputStream
from repro.processes.codecs import Codec, LONG, get_codec

__all__ = ["OrderedMerge", "ordered_merge_tree"]

_MISSING = object()


class OrderedMerge(IterativeProcess):
    """Merge two ascending streams, dropping duplicates.

    When one input ends, the remainder of the other is passed through, so
    the merge of a finite and an infinite stream is well-defined.
    """

    def __init__(self, left: InputStream, right: InputStream, out: OutputStream,
                 iterations: int = 0, codec: "Codec | str" = LONG,
                 dedup: bool = True, name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.left = left
        self.right = right
        self.out = out
        self.codec = get_codec(codec)
        self.dedup = dedup
        self._a = _MISSING  # pending element from left
        self._b = _MISSING  # pending element from right
        self._left_done = False
        self._right_done = False
        self.track(left, right, out)

    def awaits(self):
        named = []                  # exactly what _fill is about to read
        if self._a is _MISSING and not self._left_done:
            named.append(self.left)
        if self._b is _MISSING and not self._right_done:
            named.append(self.right)
        return named

    def _fill(self) -> None:
        if self._a is _MISSING and not self._left_done:
            try:
                self._a = self.codec.read(self.left)
            except EndOfStreamError:
                self._left_done = True
        if self._b is _MISSING and not self._right_done:
            try:
                self._b = self.codec.read(self.right)
            except EndOfStreamError:
                self._right_done = True

    def step(self) -> None:
        self._fill()
        a, b = self._a, self._b
        if a is _MISSING and b is _MISSING:
            raise EndOfStreamError("both inputs exhausted")
        if b is _MISSING:
            self.codec.write(self.out, a)
            self._a = _MISSING
            return
        if a is _MISSING:
            self.codec.write(self.out, b)
            self._b = _MISSING
            return
        if a < b:
            self.codec.write(self.out, a)
            self._a = _MISSING
        elif b < a:
            self.codec.write(self.out, b)
            self._b = _MISSING
        else:  # equal
            self.codec.write(self.out, a)
            self._a = _MISSING
            if self.dedup:
                self._b = _MISSING
            else:
                pass  # emit the duplicate on a later step

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        # _MISSING is a module-level sentinel; re-bind on unpickle via
        # name rather than shipping the object identity.
        state["_a_missing"] = state.pop("_a") is _MISSING
        state["_b_missing"] = state.pop("_b") is _MISSING
        if not state["_a_missing"]:
            state["_a_value"] = self._a
        if not state["_b_missing"]:
            state["_b_value"] = self._b
        return state

    def __setstate__(self, state: dict) -> None:
        a_missing = state.pop("_a_missing")
        b_missing = state.pop("_b_missing")
        a_value = state.pop("_a_value", None)
        b_value = state.pop("_b_value", None)
        self.__dict__.update(state)
        self._a = _MISSING if a_missing else a_value
        self._b = _MISSING if b_missing else b_value


def ordered_merge_tree(network, inputs, out, codec: "Codec | str" = LONG,
                       capacity: Optional[int] = None, dedup: bool = True,
                       prefix: str = "merge"):
    """Build a balanced tree of OrderedMerge processes over N inputs.

    Returns the list of processes created (already added to ``network``).
    The Hamming network needs a 3-way merge; the paper composes it from
    binary merges, as does this helper.
    """
    processes = []
    level = list(inputs)
    tier = 0
    while len(level) > 1:
        next_level = []
        for i in range(0, len(level) - 1, 2):
            if len(level) - i == 2 and not next_level and len(level) == 2:
                merged_out = out
            else:
                ch = network.channel(capacity, name=f"{prefix}-t{tier}-{i // 2}")
                merged_out = ch.get_output_stream()
            m = OrderedMerge(level[i], level[i + 1], merged_out, codec=codec,
                             dedup=dedup, name=f"{prefix}-{tier}-{i // 2}")
            network.add(m)
            processes.append(m)
            if merged_out is not out:
                next_level.append(merged_out.channel.get_input_stream())
        if len(level) % 2 == 1:
            next_level.append(level[-1])
        level = next_level
        tier += 1
    return processes
