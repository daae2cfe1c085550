"""The network compiler: derived equations must predict operational runs."""

import math

import pytest

from repro.kpn import Network
from repro.kpn.process import CompositeProcess, IterativeProcess
from repro.processes import (Add, BinaryOp, Collect, Cons, Duplicate,
                             FromIterable, Guard, MapProcess, ModuloRouter,
                             OrderedMerge, Scale, Sequence, fibonacci,
                             hamming, modulo_merge, newton_sqrt, primes)
from repro.semantics.compile import (CompiledNetwork, UncompilableProcessError,
                                     compile_network, register_kernel)


def check_prediction(built, channel_name, max_len=1000, limit=None,
                     timeout=120.0):
    compiled = compile_network(built.network, max_len=max_len)
    predicted = compiled.predict(channel_name, limit=limit)
    operational = built.run(timeout=timeout)
    assert list(predicted) == operational
    return compiled


# ---------------------------------------------------------------------------
# the paper's figure networks, compiled automatically
# ---------------------------------------------------------------------------

def test_compile_fibonacci():
    check_prediction(fibonacci(20), "fib-7", max_len=30)


def test_compile_sieve_below():
    check_prediction(primes(below=60), "sieve-out")


def test_compile_sieve_recursive():
    check_prediction(primes(below=40, recursive=True), "sieve-out")


def test_compile_hamming():
    check_prediction(hamming(30), "ham-out", max_len=80, limit=30)


def test_compile_fig13_full_drain():
    """The closed-stream semantics lets the merge drain its survivor:
    the prediction covers all 60 values, not just up to the last multiple."""
    check_prediction(modulo_merge(60, divisor=7), "f13-out")


def test_compile_newton_sqrt():
    """Unbounded source + feedback + data-dependent Guard termination."""
    built = newton_sqrt(2.0)
    compiled = compile_network(built.network, max_len=200)
    predicted = compiled.predict("newton2-4")
    operational = built.run(timeout=60)
    assert list(predicted) == operational
    assert predicted[0] == pytest.approx(math.sqrt(2.0))


# ---------------------------------------------------------------------------
# hand-built networks
# ---------------------------------------------------------------------------

def test_compile_pipeline():
    net = Network()
    a, b = net.channels_n(2)
    out = []
    net.add(FromIterable(a.get_output_stream(), [3, 1, 4]))
    net.add(MapProcess(a.get_input_stream(), b.get_output_stream(),
                       lambda x: x + 10))
    net.add(Collect(b.get_input_stream(), out))
    compiled = compile_network(net)
    assert compiled.predict("ch-1") == (13, 11, 14)
    net.run(timeout=30)
    assert out == [13, 11, 14]


def test_compile_diamond():
    net = Network()
    a, left, right, merged = net.channels_n(4)
    out = []
    net.add(Sequence(a.get_output_stream(), start=1, iterations=5))
    net.add(Duplicate(a.get_input_stream(),
                      [left.get_output_stream(), right.get_output_stream()]))
    net.add(Add(left.get_input_stream(), right.get_input_stream(),
                merged.get_output_stream()))
    net.add(Collect(merged.get_input_stream(), out))
    compiled = compile_network(net)
    assert compiled.predict("ch-3") == (2, 4, 6, 8, 10)
    net.run(timeout=30)
    assert out == [2, 4, 6, 8, 10]


def test_compile_inside_composites():
    net = Network()
    a, b = net.channels_n(2)
    out = []
    comp = CompositeProcess()
    comp.add(FromIterable(a.get_output_stream(), [5]))
    comp.add(Scale(a.get_input_stream(), b.get_output_stream(), 3))
    net.add(comp)
    net.add(Collect(b.get_input_stream(), out))
    compiled = compile_network(net)
    assert compiled.predict("ch-1") == (15,)


def test_predict_all_exposes_internal_streams():
    built = fibonacci(10)
    compiled = compile_network(built.network, max_len=15)
    streams = compiled.predict_all()
    assert set(streams) >= {f"fib-{i}" for i in range(9)}
    # internal consistency: gb = be + df elementwise
    gb, be, df = streams["fib-8"], streams["fib-1"], streams["fib-3"]
    n = len(gb)
    assert gb == tuple(x + y for x, y in zip(be, df))[:n]


def test_sink_limits_recorded_and_applied():
    built = fibonacci(7)
    compiled = compile_network(built.network, max_len=30)
    assert compiled.sinks["fib-7"][1] == 7
    assert len(compiled.predict("fib-7")) == 7


# ---------------------------------------------------------------------------
# extensibility and failure modes
# ---------------------------------------------------------------------------

class Tripler(IterativeProcess):
    """A custom user process (no registered kernel by default)."""

    def __init__(self, source, out):
        super().__init__()
        self.source = source
        self.out = out
        self.track(source, out)

    def step(self):
        from repro.processes.codecs import LONG

        LONG.write(self.out, LONG.read(self.source) * 3)


def test_unknown_process_rejected_by_name():
    net = Network()
    a, b = net.channels_n(2)
    net.add(FromIterable(a.get_output_stream(), [1]))
    net.add(Tripler(a.get_input_stream(), b.get_output_stream()))
    with pytest.raises(UncompilableProcessError, match="Tripler"):
        compile_network(net)


def test_register_kernel_for_custom_process():
    from repro.semantics.closed import ck_map
    from repro.semantics import compile as C

    @register_kernel(Tripler)
    def _tripler(p, ctx):
        ctx.node(p, ck_map(lambda x: x * 3), [p.source], [p.out])

    try:
        net = Network()
        a, b = net.channels_n(2)
        out = []
        net.add(FromIterable(a.get_output_stream(), [2, 4]))
        net.add(Tripler(a.get_input_stream(), b.get_output_stream()))
        net.add(Collect(b.get_input_stream(), out))
        compiled = compile_network(net)
        assert compiled.predict("ch-1") == (6, 12)
        net.run(timeout=30)
        assert out == [6, 12]
    finally:
        C._COMPILERS.pop(Tripler, None)


def test_turnstile_is_uncompilable():
    from repro.processes import Turnstile

    net = Network()
    w0, pairs, idx = net.channels_n(3)
    net.add(Turnstile([w0.get_input_stream()], pairs.get_output_stream(),
                      idx.get_output_stream()))
    with pytest.raises(UncompilableProcessError):
        compile_network(net)


def test_subclass_inherits_base_kernel():
    class MyScale(Scale):
        pass

    net = Network()
    a, b = net.channels_n(2)
    net.add(FromIterable(a.get_output_stream(), [1, 2]))
    net.add(MyScale(a.get_input_stream(), b.get_output_stream(), 10))
    net.add(Collect(b.get_input_stream(), []))
    compiled = compile_network(net)
    assert compiled.predict("ch-1") == (10, 20)


class CappedAdd(Add):
    def combine(self, a, b):
        return min(a + b, 10)


class Max(BinaryOp):
    def combine(self, a, b):
        return max(a, b)


@pytest.mark.parametrize("op, want", [(CappedAdd, [3, 10, 10]),
                                      (Max, [2, 7, 9])])
def test_a_binary_op_compiles_to_its_own_combine(op, want):
    net = Network()
    left, right, c = net.channels_n(3)
    out = []
    net.add(FromIterable(left.get_output_stream(), [1, 5, 8]))
    net.add(FromIterable(right.get_output_stream(), [2, 7, 9]))
    net.add(op(left.get_input_stream(), right.get_input_stream(),
               c.get_output_stream()))
    net.add(Collect(c.get_input_stream(), out))
    predicted = compile_network(net).predict(c.name)
    assert net.run(timeout=30)
    assert out == list(predicted) == want


class OddUp(ModuloRouter):
    def goes_upper(self, value):
        return value % 2 == 1


@pytest.mark.parametrize("mode", ["thread", "async", "fused"])
def test_a_router_compiles_to_its_own_predicate(mode):
    net = Network(backend="async" if mode == "async" else "thread")
    src, up, low = net.channels_n(3)
    upper, lower = [], []
    net.add(FromIterable(src.get_output_stream(), range(10)))
    net.add(OddUp(src.get_input_stream(), up.get_output_stream(),
                  low.get_output_stream(), divisor=3))
    net.add(Collect(up.get_input_stream(), upper))
    net.add(Collect(low.get_input_stream(), lower))
    compiled = compile_network(net)
    predicted = [list(compiled.predict(up.name)),
                 list(compiled.predict(low.name))]
    if mode == "fused":
        assert net.optimize().fusion_plan.chains
    assert net.run(timeout=30)
    assert [upper, lower] == predicted == [[1, 3, 5, 7, 9], [0, 2, 4, 6, 8]]
