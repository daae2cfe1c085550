"""Pulled map stages: a fused map runs inside its consumer's read.

When a fused chain's interior stage declares ``element_fn`` and both of
its pipes move objects of its own codecs, the compiler marks it pulled.
The read of the output pipe of a run of pulled stages takes one object
from the run's source pipe and applies each stage's function in turn,
counting a step of each, in one loop with no pump in between.  These
tests pin what must not change — histories, sink outputs, failures, the
downstream end, step counts — and what must: the number of
``_StepDriver.pump`` calls and of Python frames an element costs.
"""

import collections
import gc
import threading

import pytest

from repro.errors import ChannelClosedError, EndOfStreamError
from repro.kpn import Network
from repro.kpn.compile import FusedChain
from repro.kpn.history import HistoryCapture
from repro.kpn.process import _StepDriver
from repro.processes import Collect, MapProcess, Scale, Sequence
from repro.processes.codecs import DOUBLE, LONG
from repro.semantics.compile import compile_network

BACKENDS = ("thread", "async")


def _half(x):
    return x / 2


def _inc(x):
    return x + 1


class PerElementMap(MapProcess):
    """Overrides ``step`` only: never pulled, always pumped."""

    def step(self):
        super().step()


def _mixed_chain(net, count, codec_of):
    """Sequence -> Scale -> MapProcess(LONG -> DOUBLE) -> Scale -> MapProcess
    -> Collect; ``codec_of`` records each channel's element codec."""
    a, b, c, d, e = net.channels_n(5, prefix="mix")
    out = []
    net.add(Sequence(a.get_output_stream(), start=-40, stride=3,
                     iterations=count, name="src"))
    net.add(Scale(a.get_input_stream(), b.get_output_stream(), 3,
                  name="x3"))
    net.add(MapProcess(b.get_input_stream(), c.get_output_stream(), _half,
                       out_codec=DOUBLE, name="half"))
    net.add(Scale(c.get_input_stream(), d.get_output_stream(), -2.5,
                  codec=DOUBLE, name="x-2.5"))
    net.add(MapProcess(d.get_input_stream(), e.get_output_stream(), _inc,
                       codec=DOUBLE, name="inc"))
    net.add(Collect(e.get_input_stream(), out, codec=DOUBLE, name="sink"))
    codec_of.update({a.name: LONG, b.name: LONG, c.name: DOUBLE,
                     d.name: DOUBLE, e.name: DOUBLE})
    return out


def _encode(codec, values):
    return b"".join(codec.encode(v) for v in values)


@pytest.mark.parametrize("backend", BACKENDS)
def test_pulled_histories_equal_the_unfused_run_and_the_fixed_point(
        backend, monkeypatch):
    count = 300
    want_out = [-2.5 * (3 * (-40 + 3 * k)) / 2 + 1 for k in range(count)]

    # unfused: byte histories through the rings
    codec_of = {}
    net = Network(backend=backend)
    out = _mixed_chain(net, count, codec_of)
    predicted = compile_network(net, max_len=count + 1).predict_all()
    capture = HistoryCapture(net)
    assert net.run(timeout=60)
    assert out == want_out
    unfused = capture.raw()
    for name, codec in codec_of.items():
        assert unfused[name] == _encode(codec, predicted[name]), name

    # fused and pulled: every element each channel delivers, seen at the
    # element functions — what each pulled stage reads and what it
    # returns — and at the tail, whose reads are the sink's list
    delivered, returned = {}, {}

    def spied(element_fn):
        def spy(stage):
            fn = element_fn(stage)
            into = delivered.setdefault(stage.source.channel.name, [])
            outof = returned.setdefault(stage.out.channel.name, [])

            def recorded(value):
                into.append(value)
                outof.append(fn(value))
                return outof[-1]
            return recorded
        return spy

    for cls in (Scale, MapProcess):
        monkeypatch.setattr(cls, "element_fn", spied(cls.element_fn))
    net = Network(backend=backend)
    out = _mixed_chain(net, count, {})
    plan = net.optimize().fusion_plan
    assert plan.to_dict()["chains"][0]["pulled"] == ["x3", "half", "x-2.5",
                                                     "inc"]
    assert net.run(timeout=60)
    assert out == want_out
    assert [type(v) for v in out] == [float] * count
    delivered["mix-4"] = out
    assert sorted(delivered) == sorted(codec_of)
    assert sorted(returned) == ["mix-1", "mix-2", "mix-3", "mix-4"]
    for name, codec in codec_of.items():
        assert _encode(codec, delivered[name]) == unfused[name], name
    for name, values in returned.items():
        assert _encode(codec_of[name], values) == unfused[name], name


def _failing(k):
    def fn(x):
        if x == k:
            raise ValueError(f"refused {x}")
        return x * 10
    return fn


def _run_chain(backend, map_cls, fn, fused, abort_input=False):
    """[pre-filled a] -> Scale -> map_cls(fn) -> Scale -> Collect; returns
    what the run raised, the sink's list and each stage's end."""
    net = Network(backend=backend)
    a = net.channel(capacity=1 << 12, name="a")
    feed = a.get_output_stream()
    LONG.write_all(feed, list(range(12)))
    if abort_input:
        feed.abort()
    else:
        feed.close()
    b, c, d = net.channels_n(3, prefix="f")
    out = []
    stages = [
        net.add(Scale(a.get_input_stream(), b.get_output_stream(), 1,
                      name="head")),
        net.add(map_cls(b.get_input_stream(), c.get_output_stream(), fn,
                        name="map")),
        net.add(Scale(c.get_input_stream(), d.get_output_stream(), 2,
                      name="after")),
        net.add(Collect(d.get_input_stream(), out, name="sink")),
    ]
    if fused:
        pulled = net.optimize().fusion_plan.pulled
        assert pulled == ([stages[1:3]] if map_cls is MapProcess
                          else [stages[2:3]])
    try:
        net.run(timeout=60)
        raised = None
    except Exception as exc:  # noqa: BLE001 - compared below
        raised = (type(exc), str(exc))
    ends = [(s.steps_completed, s._abort_on_close,
             None if s.failure is None else type(s.failure))
            for s in stages]
    return raised, out, ends


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("abort_input", [False, True])
def test_a_failure_in_a_pulled_stage_matches_the_pump(backend, abort_input):
    fn = _failing(7)
    got = _run_chain(backend, MapProcess, fn, True, abort_input)
    assert got == _run_chain(backend, PerElementMap, fn, True, abort_input)
    raised, out, ends = got
    assert raised == (ValueError, "refused 7")
    assert out == [20 * k for k in range(7)]
    # the map failed: it closes its output, so downstream ends by EOF
    assert ends[1:] == [(7, False, ValueError), (7, False, None),
                        (7, False, None)]
    # unfused, how far the head ran ahead is timing, and a batched step
    # that fails counts none of its batch: compare how each stage ended
    raised, out, unfused = _run_chain(backend, MapProcess, fn, False,
                                      abort_input)
    assert (raised, out) == got[:2]
    assert [e[1:] for e in unfused[1:]] == [e[1:] for e in ends[1:]]


def _run_mid_run_failure(backend, map_cls, fused):
    """Sequence -> Scale -> Scale -> map_cls(fails at 7) -> Scale -> Collect:
    fused, the failing map is the second of three pulled stages."""
    net = Network(backend=backend)
    a, b, c, d, e = net.channels_n(5, prefix="mid")
    out = []
    stages = [
        net.add(Sequence(a.get_output_stream(), start=0, iterations=12,
                         name="src")),
        net.add(Scale(a.get_input_stream(), b.get_output_stream(), 1,
                      name="head")),
        net.add(map_cls(b.get_input_stream(), c.get_output_stream(),
                        _failing(7), name="map")),
        net.add(Scale(c.get_input_stream(), d.get_output_stream(), 2,
                      name="after")),
        net.add(Collect(d.get_input_stream(), out, name="sink")),
    ]
    if fused:
        pulled = net.optimize().fusion_plan.pulled
        assert pulled == ([stages[1:4]] if map_cls is MapProcess
                          else [[stages[1], stages[3]]])
    with pytest.raises(ValueError, match="refused 7"):
        net.run(timeout=60)
    return out, [(s.steps_completed, s._abort_on_close,
                  None if s.failure is None else type(s.failure))
                 for s in stages]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_failure_inside_a_run_ends_that_stage(backend):
    got = _run_mid_run_failure(backend, MapProcess, True)
    assert got == _run_mid_run_failure(backend, PerElementMap, True)
    out, ends = got
    assert out == [20 * k for k in range(7)]
    # the map alone failed; the stage before it died writing into the
    # input the map closed, the stages after it of its EOF
    assert ends[2:] == [(7, False, ValueError), (7, False, None),
                        (7, False, None)]
    assert ends[1][1:] == (True, None)
    # unfused, whether the stage before the map ran out of input or
    # into the map's close first is timing: compare from the map on
    unfused_out, unfused = _run_mid_run_failure(backend, MapProcess, False)
    assert unfused_out == out
    assert [e[1:] for e in unfused[2:]] == [e[1:] for e in ends[2:]]


def test_a_byte_read_that_ends_the_run_is_seen_by_the_next_object_read():
    """A byte read of a run's last pipe steps the run's last stage
    outside the run's loop; when that step ends the stage, the next
    object read reports the end instead of running the run again."""
    net = Network()
    a, b, c = net.channels_n(3, prefix="byte")
    stages = [
        net.add(Sequence(a.get_output_stream(), start=0, iterations=20,
                         name="src")),
        net.add(Scale(a.get_input_stream(), b.get_output_stream(), 1,
                      name="head")),
        net.add(MapProcess(b.get_input_stream(), c.get_output_stream(),
                           _failing(3), name="map")),
        net.add(Collect(c.get_input_stream(), [], name="sink")),
    ]
    chain = net.optimize().fusion_plan.fused[0]
    end = chain.pipes[-1]
    assert [stage for _, stage, _ in end.pulled] == stages[1:3]
    assert [end.read_object() for _ in range(3)] == [0, 10, 20]
    assert end.read(8) == b""
    assert type(stages[2].failure) is ValueError
    with pytest.raises(EndOfStreamError):
        end.read_object()
    assert [s.steps_completed for s in stages[:3]] == [4, 4, 3]


def test_a_run_read_after_its_reader_closed_raises_closed():
    net = Network()
    a, b, c = net.channels_n(3, prefix="shut")
    net.add(Sequence(a.get_output_stream(), start=1, name="src"))
    for k, (src, dst) in enumerate([(a, b), (b, c)]):
        net.add(Scale(src.get_input_stream(), dst.get_output_stream(), 2,
                      name=f"x2-{k}"))
    net.add(Collect(c.get_input_stream(), [], name="sink"))
    end = net.optimize().fusion_plan.fused[0].pipes[-1]
    assert [end.read_object() for _ in range(2)] == [4, 8]
    end.close_read()
    with pytest.raises(ChannelClosedError):
        end.read_object()


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_aborted_input_cascades_through_pulled_stages(backend):
    fn = _failing(None)
    got = _run_chain(backend, MapProcess, fn, True, abort_input=True)
    assert got == _run_chain(backend, PerElementMap, fn, True,
                             abort_input=True)
    assert got == _run_chain(backend, MapProcess, fn, False,
                             abort_input=True)
    raised, out, ends = got
    assert raised is None
    assert out == [20 * k for k in range(12)]
    # the head died of the abort: every stage after it does in turn
    assert ends == [(12, True, None)] * 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_budgeted_middle_map_is_pumped_and_exact(backend):
    net = Network(backend=backend)
    a, b, c, d = net.channels_n(4, prefix="bud")
    out = []
    net.add(Sequence(a.get_output_stream(), start=1, iterations=50,
                     name="src"))
    first = net.add(Scale(a.get_input_stream(), b.get_output_stream(), 2,
                          name="first"))
    budgeted = net.add(Scale(b.get_input_stream(), c.get_output_stream(), 3,
                             iterations=7, name="budgeted"))
    last = net.add(Scale(c.get_input_stream(), d.get_output_stream(), 5,
                         name="last"))
    net.add(Collect(d.get_input_stream(), out, name="sink"))
    plan = net.optimize().fusion_plan
    assert plan.pulled == [[first, last]]
    assert "pulled: first, last" in plan.describe()
    assert net.run(timeout=60)
    assert budgeted.steps_completed == 7
    assert out == [30 * k for k in range(1, 8)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_limited_sink_leaves_the_step_counts_of_the_pump(backend):
    net = Network(backend=backend)
    a, b, c, d = net.channels_n(4, prefix="lim")
    out = []
    stages = [net.add(Sequence(a.get_output_stream(), start=1, name="src"))]
    for k, (src, dst) in enumerate([(a, b), (b, c), (c, d)]):
        stages.append(net.add(Scale(src.get_input_stream(),
                                    dst.get_output_stream(), 2,
                                    name=f"x2-{k}")))
    stages.append(net.add(Collect(d.get_input_stream(), out, iterations=5,
                                  name="sink")))
    assert net.optimize().fusion_plan.pulled == [stages[1:4]]
    assert net.run(timeout=60)
    assert out == [8 * k for k in range(1, 6)]
    # each stage's last step wrote into a closed pipe
    assert [s.steps_completed for s in stages] == [8, 7, 6, 5, 5]
    assert all(s.failure is None for s in stages)
    assert [s._abort_on_close for s in stages] == [True] * 4 + [False]


def _scale_chain(backend, total):
    """source -> 4 x Scale(2) -> sink, optimized; the sink's list."""
    net = Network(backend=backend)
    hops = net.channels_n(5, prefix="hop")
    net.add(Sequence(hops[0].get_output_stream(), start=1,
                     iterations=total, name="src"))
    for k in range(4):
        net.add(Scale(hops[k].get_input_stream(),
                      hops[k + 1].get_output_stream(), 2, name=f"x2-{k}"))
    out = []
    net.add(Collect(hops[4].get_input_stream(), out, name="sink"))
    net.optimize()
    return net, out


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_fused_map_run_is_pulled_not_pumped(backend, monkeypatch):
    """20k elements through source -> 4 Scale -> sink: on threads the
    sink and the source step in their own loops and the four maps in
    the sink's reads, so only starts and ends pump (one pump per stage
    step made 6 an element); an async task steps its stages in its
    resume, and pumps them as a thread does."""
    total = 20000
    pumps = [0]
    pump = _StepDriver.pump

    def counting(driver):
        pumps[0] += 1
        return pump(driver)

    monkeypatch.setattr(_StepDriver, "pump", counting)
    net, out = _scale_chain(backend, total)
    assert net.run(timeout=120)
    assert out == [16 * k for k in range(1, total + 1)]
    assert pumps[0] <= 16, pumps[0]


def test_a_fused_element_costs_its_stage_bodies():
    """The Python frames the fused thread enters for 20k elements of
    source -> 4 Scale -> sink: per element the sink's step and codec
    read, the run's read, the source pipe's read and fill, the source's
    step and codec write, and the four element functions — 11, where
    one read per stage and a pump per step made 17."""
    total = 20000
    net, out = _scale_chain("thread", total)
    frames = collections.defaultdict(collections.Counter)
    chain_thread = []

    def profiler(frame, event, arg):
        if event == "call":
            ident = threading.get_ident()
            if frame.f_code is FusedChain.run.__code__:
                chain_thread.append(ident)
            owner = frame.f_locals.get("self")
            frames[ident][f"{type(owner).__name__}.{frame.f_code.co_name}"] += 1

    # as tests/kpn/test_hop_frames.py: no collection runs Python code
    # on the fused thread meanwhile
    collecting = gc.isenabled()
    gc.disable()
    threading.setprofile(profiler)
    try:
        assert net.run(timeout=120)
    finally:
        threading.setprofile(None)
        if collecting:
            gc.enable()
    assert out == [16 * k for k in range(1, total + 1)]
    seen = frames[chain_thread[0]]
    assert sum(seen.values()) <= 12 * total, seen.most_common(12)
    # two an element, and a few more at the start and the end
    assert seen["_FusedPipe.read_object"] <= 2 * total + 16, \
        seen.most_common(12)


class SeededScale(Scale):
    """A pulled map whose ``on_start`` writes one element first."""

    def on_start(self):
        self.codec.write(self.out, -1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_entry_queued_inside_a_run_is_delivered_first(backend):
    def run(fused):
        net = Network(backend=backend)
        hops = net.channels_n(5, prefix="seed")
        net.add(Sequence(hops[0].get_output_stream(), start=1,
                         iterations=40, name="src"))
        kinds = (Scale, SeededScale, Scale, Scale)
        for k, cls in enumerate(kinds):
            net.add(cls(hops[k].get_input_stream(),
                        hops[k + 1].get_output_stream(), 2, name=f"s{k}"))
        out = []
        net.add(Collect(hops[4].get_input_stream(), out, name="sink"))
        if fused:
            assert [s.name for s in
                    net.optimize().fusion_plan.pulled[0]] == ["s0", "s1",
                                                              "s2", "s3"]
        capture = HistoryCapture(net)
        assert net.run(timeout=60)
        return out, capture.raw()

    out, histories = run(fused=False)
    assert out == [-4] + [16 * k for k in range(1, 41)]
    # a fused channel records no history (its elements move as objects):
    # the fused run's sink list is compared, and the unfused histories
    # are as the seed predicts
    assert histories["seed-2"] == _encode(LONG, [-1] + [
        4 * k for k in range(1, 41)])
    assert run(fused=True)[0] == out

