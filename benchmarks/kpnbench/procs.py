"""Benchmark-owned processes: the load source, the checking sink, a relay.

Kept apart from :mod:`kpnbench.workloads` because importing this module
imports ``repro``, and a repeat times that import as part of set-up.
"""

from __future__ import annotations

import time
from array import array

from repro.kpn.process import IterativeProcess, StopProcess
from repro.processes.codecs import LONG, get_codec


class LoadSource(IterativeProcess):
    """Writes the items of a :class:`Load` through a codec."""

    kpn_async = False       # it sleeps: never on a shared event loop

    def __init__(self, out, load, codec=LONG, name="load"):
        super().__init__(name=name)
        self.out = out
        self.load = load
        self.codec = get_codec(codec)
        self.track(out)

    def step(self):
        try:
            item = next(self.load)
        except StopIteration:
            raise StopProcess
        self.codec.write(self.out, item)


class Sink(IterativeProcess):
    """Checks every output against the oracle; keeps counts, not items.

    Takes the clock and the CPU meter at marks of the closed phase
    (after the warm-up share, then every ``sizes.closed_slice`` items, and at
    its last item) and stamps the receipt of every paced item.
    """

    kpn_async = False       # reads the clock: must not be replayed

    def __init__(self, source, oracle, sizes, drained, cpu_meter,
                 codec=LONG, window=None, name="sink"):
        super().__init__(name=name)
        self.source = source
        self.oracle = oracle
        self.sizes = sizes
        self.drained = drained
        self.cpu_meter = cpu_meter
        self.window = window
        self.codec = get_codec(codec)
        self.count = 0
        self.wrong = 0
        self.next_mark = sizes.warm - 1
        self.marks = []             # [(item, wall, cpu)] through the closed phase
        self.received = array("d")  # receipt time of each paced item
        self.track(source)

    def step(self):
        out = self.codec.read(self.source)
        i = self.count
        self.count = i + 1
        if not self.oracle(i, out):
            self.wrong += 1
        if self.window is not None:
            self.window.release()
        if i >= self.next_mark:
            self._mark(i)

    def _mark(self, i):
        sizes = self.sizes
        if i >= sizes.closed:
            self.received.append(time.monotonic())
            return
        self.marks.append((i, time.monotonic(), self.cpu_meter()))
        if i == sizes.closed - 1:
            self.next_mark = sizes.closed
            self.drained.set()
        else:
            self.next_mark = min(i + sizes.closed_slice, sizes.closed - 1)


class Relay(IterativeProcess):
    """One hop of the ring: the smallest process a user would write."""

    def __init__(self, src, out, name=None):
        super().__init__(name=name)
        self.src = src
        self.out = out
        self.track(src, out)

    def step(self):
        LONG.write(self.out, LONG.read(self.src))
