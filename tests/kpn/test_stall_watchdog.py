"""Stall snapshots: the wait graph a Tracer keeps for each stall it reads.

A reading in which every live actor is blocked, at the same accounting
generation as the reading before, is a stall.  The deadlock monitor's
settle window makes each stall of Figure 13 last long enough for the
Tracer's period to read it twice before Parks growth resolves it.
"""

import pytest

from repro.kpn import Network, Tracer, scheduler
from repro.processes.networks import modulo_merge
from repro.telemetry.core import TELEMETRY


@pytest.fixture
def parks(monkeypatch):
    """Set Parks' rule's constants for one test: ``parks(settle_ms=...,
    growth_factor=...)``."""
    def set_(settle_ms=600.0, growth_factor=2):
        monkeypatch.setattr(scheduler, "SETTLE_MS", settle_ms)
        monkeypatch.setattr(scheduler, "GROWTH_FACTOR", growth_factor)
    set_()
    return set_


def _traced_figure_13(count, capacity=16):
    net = Network()
    built = modulo_merge(count, divisor=10, network=net,
                         channel_capacity=capacity)
    with Tracer(net) as tracer:
        out = built.run(timeout=60)
    return net, out, tracer.report()


def test_watchdog_snapshots_induced_artificial_deadlock(parks):
    """Figure 13 with tiny channels stalls on a full buffer; the settle
    window holds the stall long enough to become an inspectable wait
    graph *before* Parks growth resumes it."""
    net, out, report = _traced_figure_13(200)
    assert out == list(range(1, 201))
    assert report.stalls, "the tracer never read a stall"
    snap = report.stalls[0]
    assert snap["stalled_for"] > 0
    assert snap["blocked"], "the wait graph must name the blocked parties"
    assert set(snap["live"]) <= {b["thread"] for b in snap["blocked"]}
    modes = {b["mode"] for b in snap["blocked"]}
    assert "write" in modes         # the artificial-deadlock signature
    for entry in snap["blocked"]:
        assert {"thread", "mode", "channel", "capacity",
                "buffered"} <= set(entry)
    # the stall resolved by growth, as usual
    assert net.growth_events()


def test_watchdog_emits_telemetry_instant(parks):
    TELEMETRY.reset().enable()
    try:
        _traced_figure_13(100)
        events = [e for e in TELEMETRY.events()
                  if e.name == "stall.wait_graph"]
        assert events
        assert events[0].args["blocked"]
        assert TELEMETRY.counter("kpn.scheduler.stall_snapshots") >= 1
    finally:
        TELEMETRY.disable().reset()


def test_watchdog_snapshots_once_per_stall(parks):
    """One stall -> one snapshot, however many readings fall inside the
    (deliberately slow) settle window that delays its resolution."""
    parks(settle_ms=400.0, growth_factor=4)
    net, _, report = _traced_figure_13(120)
    assert report.stalls
    assert report.samples > 2 * len(report.stalls)
    # never more snapshots than distinct stalls (growths + final verdicts)
    assert len(report.stalls) <= len(net.growth_events()) + 1
    generations = [s["generation"] for s in report.stalls]
    assert len(set(generations)) == len(generations)


def test_watchdog_quiet_when_progressing(parks):
    """Channels large enough for the whole run: the network keeps making
    progress until it ends, and no reading is a stall."""
    parks(settle_ms=20.0)
    net, out, report = _traced_figure_13(50, capacity=1 << 16)
    assert out == list(range(1, 51))
    assert net.growth_events() == []
    assert report.stalls == []
