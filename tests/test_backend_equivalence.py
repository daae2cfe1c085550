"""Trace equivalence: every bundled example, thread vs. async backend.

The scheduler backend is pure mechanism: cooperative tasks on event
loops instead of one OS thread per process.  Kahn semantics say the
choice must be unobservable in channel histories, so the comparison
regimes mirror tests/test_fusion_equivalence.py:

* **Drain-mode** examples terminate by source exhaustion: complete runs
  are determinate, histories must be byte-identical across backends.

* **Sink-limited** examples end in a cascading shutdown whose cut point
  depends on scheduling; exact sink outputs plus byte-prefix equality
  on every channel (merge tails included -- abort-propagating close
  keeps them prefix-deterministic).

The async backend is exercised both bare and composed with the graph
compiler (a fused chain runs as a single cooperative task).
"""

import os

import pytest

from repro.kpn.history import HistoryCapture
from repro.kpn.network import resolve_backend
from repro.processes import (fibonacci, hamming, modulo_merge, newton_sqrt,
                             primes)


def farm_pipeline():
    from repro.parallel.farm import build_farm
    from repro.parallel.tasks import CallableTask, RangeProducerTask

    return build_farm(
        RangeProducerTask(25, lambda i: CallableTask(pow, i, 3)),
        n_workers=1, mode="pipeline")


DRAIN = {
    # primes-below keeps a FromIterable custom run loop and dynamic Sift
    # splicing: those host on helper threads even under backend="async",
    # exercising the hybrid thread+task network
    "primes-below": lambda: primes(below=30),
    "fig13": lambda: modulo_merge(60, 10),
    "fig19-pipeline": farm_pipeline,
}
SINK_LIMITED = {
    "fibonacci": lambda: fibonacci(15),
    "primes-count": lambda: primes(count=8),
    "hamming": lambda: hamming(15),
    "newton": lambda: newton_sqrt(2.0),
}


def norm(name):
    if name.startswith("farm-"):
        return "farm-" + name.split("-", 2)[-1]
    return name


def run_on(builder, backend, optimize=False, capture=True):
    """Build and run an example under REPRO_BACKEND=backend."""
    prev = os.environ.get("REPRO_BACKEND")
    os.environ["REPRO_BACKEND"] = backend
    try:
        built = builder()
    finally:
        if prev is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:
            os.environ["REPRO_BACKEND"] = prev
    net = getattr(built, "network", built)
    assert net.backend == backend
    cap = HistoryCapture(net) if capture else None
    if optimize:
        net.optimize()
    net.run(timeout=120)
    histories = {}
    if cap is not None:
        cap.refresh()
        histories = {norm(k): v for k, v in cap.raw().items()}
    results = getattr(built, "results", None)
    return histories, list(results) if results is not None else None


@pytest.mark.parametrize("name", sorted(DRAIN))
def test_drain_mode_backends_byte_identical(name):
    h0, o0 = run_on(DRAIN[name], "thread")
    h1, o1 = run_on(DRAIN[name], "async")
    assert o1 == o0
    assert set(h1) == set(h0)
    for ch in h0:
        assert h1[ch] == h0[ch], f"{name}: history of {ch} diverged"


@pytest.mark.parametrize("name", sorted(SINK_LIMITED))
def test_sink_limited_backends_outputs_exact_histories_prefix(name):
    h0, o0 = run_on(SINK_LIMITED[name], "thread")
    h1, o1 = run_on(SINK_LIMITED[name], "async")
    assert o1 == o0, f"{name}: sink outputs diverged"
    assert set(h1) == set(h0)
    for ch in h0:
        n = min(len(h0[ch]), len(h1[ch]))
        assert h1[ch][:n] == h0[ch][:n], \
            f"{name}: history prefix of {ch} diverged across backends"


@pytest.mark.parametrize("name", ["fibonacci", "hamming", "newton"])
def test_async_composes_with_graph_compiler(name):
    """Fused chains must run as cooperative tasks: compiled-async output
    equals plain thread output."""
    builders = dict(SINK_LIMITED)
    _, o0 = run_on(builders[name], "thread", capture=False)
    _, o1 = run_on(builders[name], "async", optimize=True, capture=False)
    assert o1 == o0


def test_fig13_fused_async_histories_identical():
    h0, o0 = run_on(DRAIN["fig13"], "thread")
    h1, o1 = run_on(DRAIN["fig13"], "async", optimize=True)
    assert o1 == o0
    for ch in h0:
        assert h1[ch] == h0[ch]


def test_dynamic_farm_result_set_stable_across_backends():
    from repro.parallel.farm import build_farm
    from repro.parallel.tasks import CallableTask, RangeProducerTask

    def build():
        return build_farm(
            RangeProducerTask(20, lambda i: CallableTask(pow, i, 2)),
            n_workers=2, mode="dynamic")

    _, o0 = run_on(build, "thread", capture=False)
    _, o1 = run_on(build, "async", capture=False)
    assert sorted(map(repr, o1)) == sorted(map(repr, o0))


@pytest.mark.parametrize("mode", ["pipeline", "dynamic"])
def test_farm_producer_and_consumer_are_tasks_under_async(mode):
    """User Task objects keep state the runtime cannot see; a step that
    runs exactly once does not care, so only the Worker (it waits on
    executor futures, not channels) still needs a thread of its own."""
    from repro.kpn.aio import Task
    from repro.kpn.network import Network
    from repro.parallel.farm import build_farm
    from repro.parallel.tasks import CallableTask, RangeProducerTask

    farm = build_farm(RangeProducerTask(20, lambda i: CallableTask(pow, i, 2)),
                      n_workers=2, mode=mode,
                      network=Network(backend="async"))
    farm.network.start()
    hosted = {t.name: isinstance(t, Task) for t in farm.network._threads}
    assert farm.network.join(timeout=60)
    assert hosted["Producer"] and hosted["Consumer"]
    assert not any(task for name, task in hosted.items()
                   if "Worker" in name)
    assert sorted(farm.results) == [i * i for i in range(20)]


@pytest.mark.parametrize("backend,fused", [("thread", False),
                                           ("async", False),
                                           ("thread", True),
                                           ("async", True)])
def test_on_stop_failure_ends_the_run_the_same_way(backend, fused):
    """One Figure-4 implementation: a cleanup that raises is the
    process's failure — recorded, and raised from join — whoever drives
    the process (its own thread used to lose it to threading.excepthook
    and report a clean run)."""
    from repro.kpn.network import Network
    from repro.processes import Collect, Scale, Sequence

    class BadCleanup(Scale):
        def on_stop(self):
            super().on_stop()
            raise RuntimeError("cleanup went wrong")

    net = Network(backend=backend)
    a, b = net.channel(name="a"), net.channel(name="b")
    out = []
    net.add(Sequence(a.get_output_stream(), iterations=5))
    bad = net.add(BadCleanup(a.get_input_stream(), b.get_output_stream(), 2))
    net.add(Collect(b.get_input_stream(), out))
    if fused:
        net.optimize()
        assert net.fusion_plan.fused, "the stage must run inside a chain"
    with pytest.raises(RuntimeError, match="cleanup went wrong"):
        net.run(timeout=60)
    assert isinstance(bad.failure, RuntimeError)
    assert out == [0, 2, 4, 6, 8]


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None) == "thread"
    monkeypatch.setenv("REPRO_BACKEND", "async")
    assert resolve_backend(None) == "async"
    assert resolve_backend("thread") == "thread"  # arg beats env
    with pytest.raises(ValueError):
        resolve_backend("fibers")
    monkeypatch.setenv("REPRO_BACKEND", "bogus")
    with pytest.raises(ValueError):
        resolve_backend(None)
