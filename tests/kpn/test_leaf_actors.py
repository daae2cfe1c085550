"""A network's actors are its leaf processes.

A composite groups processes for the graph, for migration and for the
paper's Figure 6; it runs no code of its own.  ``Network.spawn`` makes
each member an actor (a thread, or a task under the async backend), so
a composite is never an actor on either backend, the profiler charges
it no time, and a member's failure reaches ``Network.join`` like any
other process's.
"""

import time

import pytest

from repro.kpn import Network
from repro.kpn.process import CompositeProcess, IterativeProcess
from repro.processes import Collect, Scale, Sequence
from repro.telemetry.core import TELEMETRY
from repro.telemetry.profile import PROFILER, process_utilization

BACKENDS = ["thread", "async"]


def until(condition, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.002)


@pytest.fixture
def profiler_on():
    PROFILER.reset().enable()
    yield PROFILER
    PROFILER.disable().reset()
    TELEMETRY.disable().reset()


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_profiler_charges_a_composite_nothing(backend, profiler_on,
                                                  hold_monitor):
    # a settle window longer than the test: the member left waiting on
    # purpose is not called a true deadlock
    net = Network(name=f"util-{backend}", backend=backend)
    ch = net.channel(name="idle")
    net.add(CompositeProcess(
        [Collect(ch.get_input_stream(), [], name="member")],
        name="composite"))
    net.start()
    until(lambda: {a.name for a in net.accounting.snapshot()} == {"member"},
          "the member never waited")
    time.sleep(0.05)
    utilization = process_utilization(profiler_on.snapshot(network=net))
    ch.get_output_stream().close()
    assert net.join(timeout=10)
    assert "composite" not in utilization
    assert "member" in utilization


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("nested", [False, True])
def test_a_composite_of_three_is_three_actors(backend, nested):
    net = Network(name=f"three-{backend}", backend=backend)
    a, b = net.channel(name="three-a"), net.channel(name="three-b")
    out = []
    scale = Scale(a.get_input_stream(), b.get_output_stream(), 2,
                  name="scale")
    composite = net.add(CompositeProcess([
        Sequence(a.get_output_stream(), iterations=5, name="source"),
        CompositeProcess([scale], name="inner") if nested else scale,
        Collect(b.get_input_stream(), out, name="sink"),
    ], name="outer"))
    assert net.run(timeout=10)
    assert out == [0, 2, 4, 6, 8]
    assert sorted(t.name for t in net._threads) == ["scale", "sink", "source"]
    assert [p.name for p in net.topology().leaves] == [
        "source", "scale", "sink"]
    assert composite.failure is None


class Fails(IterativeProcess):
    def step(self):
        raise ValueError("member failed")


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_failing_member_fails_the_join(backend):
    net = Network(name=f"fail-{backend}", backend=backend)
    ch = net.channel(name="fail-ch")
    out = []
    net.add(CompositeProcess([
        Fails(name="fails"),
        Sequence(ch.get_output_stream(), iterations=3, name="source"),
        Collect(ch.get_input_stream(), out, name="sink"),
    ], name="composite"))
    with pytest.raises(ValueError, match="member failed"):
        net.run(timeout=10)
    assert out == [0, 1, 2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_join_returns_after_every_actor_is_counted_out(backend, monkeypatch):
    """A task is counted out before a join can see it finished, as a
    thread is.  A composite's thread used to outlast its members' exits;
    without it, a join that returned while an exit was still uncounted
    left ``live_count`` above zero."""
    counted_out = Network._actor_finished

    def slowly(self):
        time.sleep(0.05)
        counted_out(self)

    monkeypatch.setattr(Network, "_actor_finished", slowly)
    net = Network(name=f"count-{backend}", backend=backend)
    ch = net.channel(name="count-ch")
    net.add(Sequence(ch.get_output_stream(), iterations=3, name="source"))
    net.add(Collect(ch.get_input_stream(), [], name="sink"))
    assert net.run(timeout=10)
    assert net.live_count() == 0
