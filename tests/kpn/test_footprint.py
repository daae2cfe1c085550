"""What a process costs to build: an async relay's channel and task hold
no condition variable or event of their own, and the bytes traced per
relay stay under a fixed bound.

A sleeping thread waits on a buffer's waiter list, like a parked task, and
a task's completion is a pre-acquired lock, so building an N-relay ring
constructs the same handful of ``threading.Condition`` / ``Event`` objects
(the event loop's, the deadlock monitor's) whatever N is.
"""

import gc
import threading
import tracemalloc

from repro.kpn import Network
from repro.kpn.process import IterativeProcess
from repro.processes.codecs import LONG

#: bytes tracemalloc traces per relay (one channel and one task) at
#: n = 1000, measured at 3.4 KB on CPython 3.11; a Condition pair per
#: channel and an Event per task would add 3.2 KB
BYTES_PER_RELAY = 5000


class Relay(IterativeProcess):
    def __init__(self, src, out, **kw):
        super().__init__(**kw)
        self.src = src
        self.out = out
        self.track(src, out)

    def step(self):
        LONG.write(self.out, LONG.read(self.src))


def _build_and_start(n):
    net = Network(name=f"footprint-{n}", backend="async")
    chans = [net.channel(name=f"fp{k}") for k in range(n + 1)]
    for k in range(n):
        net.add(Relay(chans[k].get_input_stream(),
                      chans[k + 1].get_output_stream(), name=f"fp-relay-{k}"))
    net.start()
    return net, chans


def _finish(net, chans):
    """Close the ring's head: the end of stream cascades down every relay."""
    chans[0].get_output_stream().close()
    assert net.join(timeout=60)


def _synchronisers_built(n, monkeypatch):
    """Conditions and Events this thread constructs while building and
    starting the ring (threads left over from other tests do not count)."""
    made = []
    builder = threading.get_ident()
    for cls in (threading.Condition, threading.Event):
        init = cls.__init__

        def counting(self, *args, _init=init, **kw):
            if threading.get_ident() == builder:
                made.append(type(self).__name__)
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting)
    try:
        net, chans = _build_and_start(n)
    finally:
        monkeypatch.undo()
    _finish(net, chans)
    return len(made)


def test_condition_and_event_count_does_not_grow_with_the_ring(monkeypatch):
    small = _synchronisers_built(50, monkeypatch)
    large = _synchronisers_built(500, monkeypatch)
    assert small == large


def test_bytes_traced_per_relay_stay_under_the_bound():
    n = 1000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        net, chans = _build_and_start(n)
        per_relay = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    _finish(net, chans)
    assert per_relay < BYTES_PER_RELAY, per_relay
