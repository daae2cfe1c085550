"""Batched map steps: ``Scale.steps`` and ``MapProcess.steps``.

A rate-1 map reads its first element as ``step`` does (the only read
that may block), then takes every whole element its input endpoint has
already read ahead (``ChannelInputStream.take_ready``), never more than
the ``iterations=`` budget allows, and writes all the results with one
pack and one channel write.  These tests pin what must not change —
histories, budgets, failure prefixes, migration, splicing, the override
rule — and the one thing that must: the number of ring writes.
"""

import struct

import pytest

from repro.kpn import Network
from repro.kpn.channel import Channel
from repro.kpn.history import HistoryCapture
from repro.kpn.process import IterativeProcess, _declares
from repro.processes import (Collect, FromIterable, MapProcess, Scale,
                             Sequence)
from repro.processes.codecs import BOOL, DOUBLE, INT, LONG, StructCodec
from repro.semantics.compile import compile_network
from repro.telemetry.core import TELEMETRY

MODES = ("thread", "async", "fused")


def _longs(values):
    return b"".join(LONG.encode(v) for v in values)


def _prefilled(net, values, name="a"):
    """A closed channel already holding ``values``."""
    ch = net.channel(capacity=max(1024, 8 * len(values)), name=name)
    out = ch.get_output_stream()
    out.write(_longs(values))
    out.close()
    return ch


def _inc(x):
    return x + 1


class CountingScale(Scale):
    """Scale recording the size of every ``steps`` call (module level:
    it pickles to an in-process compute server)."""

    batches = []

    def steps(self, limit):
        done = super().steps(limit)
        CountingScale.batches.append(done)
        return done


class PerElementScale(Scale):
    """Overrides ``step`` only: one element per call, whatever Scale does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def step(self):
        self.calls += 1
        super().step()


class PerElementMap(MapProcess):
    def step(self):
        super().step()


class OffsetScale(Scale):
    """Restates the function alone: every path must run this one."""

    def element_fn(self):
        factor = self.factor
        return lambda value: value * factor + 1


# ---------------------------------------------------------------------------
# the codec: a run of elements is the concatenation of its elements
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("codec, values", [
    (LONG, [0, -1, 1 << 62, 7]),
    (INT, [3, -(1 << 31)]),
    (DOUBLE, [0.5, -2.25, 1e300]),
    (BOOL, [True, False, True]),
    (StructCodec(">8s", "tag"), [b"abcdefgh", b"01234567"]),
])
def test_unpack_all_and_write_all_match_one_element_at_a_time(codec, values):
    data = b"".join(codec.encode(v) for v in values)
    assert list(codec.unpack_all(memoryview(data))) == values
    ch = Channel(1 << 12)
    codec.write_all(ch.get_output_stream(), values)
    assert ch.drain() == data
    assert ch.buffer.total_written == len(data)


def test_write_all_writes_the_good_prefix_then_raises_as_write_does():
    ch = Channel(1 << 12)
    with pytest.raises(struct.error) as batched:
        LONG.write_all(ch.get_output_stream(), [1, 2, 1 << 63, 4])
    with pytest.raises(struct.error) as single:
        LONG.write(ch.get_output_stream(), 1 << 63)
    assert str(batched.value) == str(single.value)
    assert ch.drain() == _longs([1, 2])


# ---------------------------------------------------------------------------
# the same histories
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("capacity", [16, None])
@pytest.mark.parametrize("mode", MODES)
def test_histories_equal_the_fixed_point(mode, capacity):
    values = list(range(-300, 300, 3))
    net = Network(backend="async" if mode == "async" else "thread",
                  **({} if capacity is None
                     else {"default_capacity": capacity}))
    a, b, c, d = net.channels_n(4)
    out = []
    net.add(FromIterable(a.get_output_stream(), values))
    net.add(Scale(a.get_input_stream(), b.get_output_stream(), 3))
    net.add(MapProcess(b.get_input_stream(), c.get_output_stream(), _inc))
    net.add(Scale(c.get_input_stream(), d.get_output_stream(), -2))
    net.add(Collect(d.get_input_stream(), out))
    predicted = compile_network(net, max_len=len(values) + 1).predict_all()
    capture = HistoryCapture(net)       # before fusing: pipes mirror it
    if mode == "fused":
        net.optimize()
        assert net.fusion_plan.fused
    assert net.run(timeout=60)
    assert out == [-2 * (3 * v + 1) for v in values]
    raw = capture.raw()
    for ch in (a, b, c, d):
        assert raw[ch.name] == _longs(predicted[ch.name]), ch.name


@pytest.mark.parametrize("mode", MODES)
def test_a_subclass_stating_only_element_fn_runs_it_everywhere(mode):
    net = Network(backend="async" if mode == "async" else "thread")
    a, b = net.channels_n(2)
    out = []
    net.add(Sequence(a.get_output_stream(), iterations=5))
    net.add(OffsetScale(a.get_input_stream(), b.get_output_stream(), 3))
    net.add(Collect(b.get_input_stream(), out))
    predicted = compile_network(net).predict(b.name)
    if mode == "fused":
        assert net.optimize().fusion_plan.fused
    assert net.run(timeout=30)
    assert out == list(predicted) == [1, 4, 7, 10, 13]


# ---------------------------------------------------------------------------
# the budget
# ---------------------------------------------------------------------------

class HeldAtStop(Scale):
    """Records what its input endpoint still holds when it stops."""

    held_at_stop = None

    def on_stop(self):
        self.held_at_stop = self.source.channel.reader.held()
        super().on_stop()


@pytest.mark.parametrize("backend", ["thread", "async"])
def test_budget_is_exact_when_the_read_ahead_holds_more(backend):
    net = Network(backend=backend)
    a = _prefilled(net, range(100))
    b = net.channel(capacity=1 << 12, name="b")
    out = []
    stage = net.add(HeldAtStop(a.get_input_stream(), b.get_output_stream(),
                               2, iterations=10))
    net.add(Collect(b.get_input_stream(), out))
    assert net.run(timeout=30)
    assert out == [2 * k for k in range(10)]
    assert stage.steps_completed == 10
    assert stage.held_at_stop == 8 * 90


def test_steps_takes_at_most_its_limit():
    a, b = Channel(1 << 12, name="a"), Channel(1 << 12, name="b")
    a.get_output_stream().write(_longs(range(100)))
    stage = Scale(a.get_input_stream(), b.get_output_stream(), 2)
    assert stage.steps(10) == 10
    assert a.reader.held() == 8 * 90
    assert stage.steps(1) == 1
    assert stage.steps(1000) == 89
    assert b.drain() == _longs(2 * k for k in range(100))


# ---------------------------------------------------------------------------
# a failure mid-batch
# ---------------------------------------------------------------------------

def _run_failing(stage_cls, backend, *args):
    net = Network(backend=backend)
    a = _prefilled(net, [1, 2, 3, 1 << 62, 5, 6])
    b = net.channel(capacity=1 << 12, name="b")
    capture = HistoryCapture(net)
    net.add(stage_cls(a.get_input_stream(), b.get_output_stream(), *args))
    with pytest.raises(Exception) as failure:
        net.run(timeout=30)
    return capture.raw()["b"], type(failure.value), str(failure.value)


def _refuse_huge(x):
    if x > 1 << 40:
        raise ValueError(f"refused {x}")
    return x * 4


@pytest.mark.parametrize("backend", ["thread", "async"])
@pytest.mark.parametrize("batched, per_element, arg", [
    (Scale, PerElementScale, 4),            # 4 << 62 overflows LONG
    (MapProcess, PerElementMap, _refuse_huge),
])
def test_a_failure_mid_batch_matches_per_element(batched, per_element, arg,
                                                 backend):
    assert _declares(batched, "steps")
    assert not _declares(per_element, "steps")
    got = _run_failing(batched, backend, arg)
    want = _run_failing(per_element, backend, arg)
    assert got == want
    assert got[0] == _longs([4, 8, 12])
    assert got[1] in (struct.error, ValueError)


# ---------------------------------------------------------------------------
# where the read-ahead comes from
# ---------------------------------------------------------------------------

def test_a_consumer_end_behind_a_receiver_pump_still_batches():
    from repro.distributed.server import ComputeServer, ServerClient

    server = ComputeServer(name="batched").start()
    try:
        client = ServerClient("127.0.0.1", server.port)
        net = Network()
        total = 2000
        a = _prefilled(net, range(total))
        b = net.channel(name="b")
        out = []
        CountingScale.batches = []
        client.run(CountingScale(a.get_input_stream(), b.get_output_stream(),
                                 3, name="remote-x3"))
        net.add(Collect(b.get_input_stream(), out))
        assert net.run(timeout=60)
        assert out == [3 * k for k in range(total)]
        assert sum(CountingScale.batches) == total
        assert max(CountingScale.batches) > 1
    finally:
        server.stop()


def test_a_spliced_input_falls_back_to_one_element():
    b, a, c = (Channel(1 << 12, name=n) for n in "bac")
    b.get_output_stream().write(_longs(range(10)))
    b.get_output_stream().close()
    a.get_output_stream().write(_longs(range(10, 20)))
    a.get_output_stream().close()
    down = b.get_input_stream()
    down.splice_from(a.get_input_stream())
    stage = Scale(down, c.get_output_stream(), 2)
    sizes = []
    while sum(sizes) < 20:
        sizes.append(stage.steps(100))
    # the sequence reads b's pipe end, then a's whole sequence: it has no
    # local head, so every call is one element, b's held ones included
    assert sizes == [1] * 20
    assert c.drain() == _longs(2 * k for k in range(20))


# ---------------------------------------------------------------------------
# the override rule
# ---------------------------------------------------------------------------

def test_which_classes_batch():
    class Both(PerElementScale):
        def steps(self, limit):
            return super().steps(limit)

    class StepAndFn(PerElementMap):
        def element_fn(self):
            return super().element_fn()

    class Plain(IterativeProcess):
        def step(self):
            pass

    for name in ("steps", "element_fn"):
        assert _declares(Scale, name) and _declares(MapProcess, name)
        assert _declares(HeldAtStop, name)
        assert not _declares(PerElementScale, name)
        assert not _declares(PerElementMap, name)
        assert not _declares(Plain, name)
        assert not _declares(IterativeProcess, name)
    assert _declares(Both, "steps") and not _declares(Both, "element_fn")
    assert _declares(StepAndFn, "element_fn")
    assert not _declares(StepAndFn, "steps")


@pytest.mark.parametrize("backend", ["thread", "async"])
def test_a_subclass_overriding_step_only_stays_per_element(backend):
    net = Network(backend=backend)
    a = _prefilled(net, range(300))
    b = net.channel(name="b")
    out = []
    stage = net.add(PerElementScale(a.get_input_stream(),
                                    b.get_output_stream(), 5))
    net.add(Collect(b.get_input_stream(), out))
    assert net.run(timeout=30)
    assert out == [5 * k for k in range(300)]
    assert stage.calls == 301          # the last one meets end of stream


# ---------------------------------------------------------------------------
# the write-count pin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["thread", "async"])
def test_a_prefilled_chain_writes_each_ring_in_batches(backend):
    """20k items through four Scale stages: a stage writes each run of
    elements its endpoint read ahead with one ring write, so an interior
    channel sees at most a quarter of the per-element 20k writes."""
    total = 20000
    with TELEMETRY.enabled_scope(reset=True):
        net = Network(backend=backend)
        hops = [_prefilled(net, range(total), name="hop-0")]
        hops += [net.channel(name=f"hop-{k}") for k in range(1, 5)]
        for k in range(4):
            net.add(Scale(hops[k].get_input_stream(),
                          hops[k + 1].get_output_stream(), 2))
        out = []
        net.add(Collect(hops[4].get_input_stream(), out, name="sink"))
        assert net.run(timeout=120)
        writes = {ch.name: TELEMETRY.counter("kpn.channel.writes",
                                             channel=ch.name)
                  for ch in hops[1:]}
    assert out == [16 * k for k in range(total)]
    for name, n in writes.items():
        assert 0 < n <= total // 4, (name, n)
