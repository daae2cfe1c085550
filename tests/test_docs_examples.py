"""The code in docs/extending.md must actually work."""

import zlib

import pytest

from repro.kpn import IterativeProcess, Network
from repro.processes import Collect, FromIterable, Map, Sequence
from repro.processes.codecs import LONG, get_codec
from repro.semantics.closed import CStream
from repro.semantics.compile import compile_network, register_kernel
from repro.parallel import run_farm
from repro.distributed.balancer import PlacementPolicy
from repro.telemetry.core import TELEMETRY


# -- section 1 + 2: custom process with a registered kernel -----------------

class ClampAbove(IterativeProcess):
    """Passes values through, clamping anything above `limit`."""

    def __init__(self, source, out, limit, iterations=0, codec="long",
                 name=None):
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.out = out
        self.limit = limit
        self.codec = get_codec(codec)
        self.track(source, out)

    def step(self):
        value = self.codec.read(self.source)
        self.codec.write(self.out, min(value, self.limit))


@register_kernel(ClampAbove)
def _clamp_kernel(p, ctx):
    limit = p.limit

    def kernel(inputs):
        (s,) = inputs
        return (CStream(tuple(min(x, limit) for x in s.elems), s.closed),)

    ctx.node(p, kernel, [p.source], [p.out])


def test_custom_process_and_kernel_roundtrip():
    net = Network()
    a, b = net.channels_n(2)
    out = []
    net.add(FromIterable(a.get_output_stream(), [1, 99, 5, 42]))
    net.add(ClampAbove(a.get_input_stream(), b.get_output_stream(), 10))
    net.add(Collect(b.get_input_stream(), out))
    predicted = compile_network(net).predict("ch-1")
    net.run(timeout=30)
    assert out == [1, 10, 5, 10]
    assert list(predicted) == out


# -- section 1, "Declaring a map" ---------------------------------------------

class MapClamp(Map):
    """The section's ``ClampAbove``: it states ``element_fn`` only."""

    def __init__(self, source, out, limit, iterations=0, codec="long",
                 name=None):
        super().__init__(source, out, iterations=iterations, codec=codec,
                         name=name)
        self.limit = limit

    def element_fn(self):
        limit = self.limit
        return lambda value: min(value, limit)


@pytest.mark.parametrize("backend", ["thread", "async"])
def test_batched_map_snippet(backend):
    values = [(k * 37) % 101 for k in range(500)]
    with TELEMETRY.enabled_scope(reset=True):
        net = Network(backend=backend)
        a, b = net.channel(capacity=1 << 13), net.channel()
        feed = a.get_output_stream()
        LONG.write_all(feed, values)
        feed.close()
        out = []
        clamp = net.add(MapClamp(a.get_input_stream(), b.get_output_stream(),
                                 50, iterations=400))
        net.add(Collect(b.get_input_stream(), out))
        net.run(timeout=30)
        writes = TELEMETRY.counter("kpn.channel.writes", channel=b.name)
    assert out == [min(v, 50) for v in values[:400]]
    assert clamp.steps_completed == 400
    assert 0 < writes < 400             # batched: one write per run


@pytest.mark.parametrize("backend", ["thread", "async"])
def test_element_fn_snippet(backend):
    net = Network(backend=backend)
    a, b, c = net.channels_n(3)
    out = []
    # a fusable head: FromIterable keeps a thread of its own
    net.add(Sequence(a.get_output_stream(), iterations=500))
    clamp = net.add(MapClamp(a.get_input_stream(), b.get_output_stream(), 250))
    net.add(ClampAbove(b.get_input_stream(), c.get_output_stream(), 400))
    net.add(Collect(c.get_input_stream(), out))
    predicted = compile_network(net).predict(b.name)    # no register_kernel
    assert net.optimize().fusion_plan.pulled == [[clamp]]
    net.run(timeout=30)
    assert out == list(predicted) == [min(v, 250) for v in range(500)]
    assert clamp.steps_completed == 500


# -- section 3: custom task workload -----------------------------------------

class Crc32Task:
    def __init__(self, index, blob):
        self.index = index
        self.blob = blob

    def run(self):
        return (self.index, zlib.crc32(self.blob))


class Crc32ProducerTask:
    def __init__(self, blobs):
        self.blobs = list(blobs)
        self.i = 0

    def run(self):
        if self.i >= len(self.blobs):
            return None
        task = Crc32Task(self.i, self.blobs[self.i])
        self.i += 1
        return task


def test_custom_workload_through_farm():
    blobs = [bytes([i]) * 100 for i in range(12)]
    results = run_farm(Crc32ProducerTask(blobs), n_workers=3, mode="dynamic",
                       timeout=120)
    assert results == [(i, zlib.crc32(b)) for i, b in enumerate(blobs)]


# -- section 4: custom placement policy ---------------------------------------

class PinnedPlacement(PlacementPolicy):
    def __init__(self, pins):
        self.pins = pins

    def assign(self, n_workers, profiles):
        return [self.pins[i % len(self.pins)] for i in range(n_workers)]


def test_pinned_placement():
    from repro.distributed.balancer import ServerProfile

    profiles = [ServerProfile(i, f"s{i}") for i in range(3)]
    assert PinnedPlacement([0, 0, 1]).assign(5, profiles) == [0, 0, 1, 0, 0]


# -- README quickstart ----------------------------------------------------------

def test_readme_quickstart():
    from repro.processes import MapProcess, Sequence

    net = Network()
    raw, squared = net.channels_n(2)
    out = []
    net.add(Sequence(raw.get_output_stream(), start=1, iterations=10))
    net.add(MapProcess(raw.get_input_stream(), squared.get_output_stream(),
                       lambda x: x * x))
    net.add(Collect(squared.get_input_stream(), out))
    net.run()
    assert out == [k * k for k in range(1, 11)]
