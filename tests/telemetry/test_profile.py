"""The continuous profiler: blocked-time attribution, analyzer, advisor."""

import json
import threading

import pytest

from repro.kpn import Network
from repro.parallel import CallableTask, RangeProducerTask, build_farm
from repro.processes.networks import modulo_merge
from repro.telemetry.core import Event
from repro.telemetry.profile import (PROFILER, Profiler, analyze, fold_stacks,
                                     merge_profiles, process_utilization,
                                     render_profile, write_capacity_spec)


@pytest.fixture
def profiler(hub):
    """The global profiler over the enabled hub; detached afterwards."""
    PROFILER.reset().enable()
    try:
        yield PROFILER
    finally:
        PROFILER.disable().reset()


# ---------------------------------------------------------------------------
# the state machine, on a hand-crafted deterministic timeline
# ---------------------------------------------------------------------------

def _ev(ts, phase, name, category, tid=1, args=None):
    return Event(ts, phase, name, category, tid, f"thread-{tid}", args)


def test_blocked_time_accumulates_then_freezes_after_growth():
    """The Parks-growth acceptance story on synthetic events: a write
    block charges its channel while open, keeps accumulating between
    snapshots, and stops the instant the span ends (the grown channel no
    longer blocks anyone)."""
    prof = Profiler()
    prof._on_event(_ev(0.0, "B", "P", "kpn.process",
                       args={"kind": "iterative", "process": "P"}))
    prof._on_event(_ev(1.0, "B", "block.write", "kpn.block",
                       args={"channel": "c", "process": "P"}))

    snap = prof.snapshot(now=3.0)
    assert snap["processes"]["P"]["state"] == "write-blocked"
    assert snap["processes"]["P"]["channel"] == "c"
    assert snap["processes"]["P"]["blocked"]["write:c"] == pytest.approx(2.0)
    # still blocked: the open interval keeps growing snapshot to snapshot
    snap = prof.snapshot(now=5.0)
    assert snap["processes"]["P"]["blocked"]["write:c"] == pytest.approx(4.0)

    # the scheduler grows the channel and the write completes
    prof._on_event(_ev(5.5, "i", "channel.grow", "kpn.channel",
                       args={"channel": "c", "old": 64, "new": 128,
                             "process": "P"}))
    prof._on_event(_ev(6.0, "E", "block.write", "kpn.block"))

    for now, running in ((7.0, 2.0), (9.0, 4.0)):
        snap = prof.snapshot(now=now)
        p = snap["processes"]["P"]
        assert p["blocked"]["write:c"] == pytest.approx(5.0)  # frozen
        assert p["running_s"] == pytest.approx(running)       # accumulating
        assert p["state"] == "running"


def test_snapshot_charges_without_closing_and_exit_finishes():
    prof = Profiler()
    prof._on_event(_ev(0.0, "B", "P", "kpn.process", args={"kind": "k"}))
    prof._on_event(_ev(2.0, "B", "block.read", "kpn.block",
                       args={"channel": "in", "process": "P"}))
    prof._on_event(_ev(3.0, "E", "block.read", "kpn.block"))
    prof._on_event(_ev(4.0, "E", "P", "kpn.process"))
    snap = prof.snapshot(now=10.0)
    p = snap["processes"]["P"]
    assert p["state"] == "done"
    assert p["finished"] == pytest.approx(4.0)
    # 0-2 running, 2-3 read-blocked, 3-4 running; nothing after the exit
    assert p["running_s"] == pytest.approx(3.0)
    assert p["blocked"]["read:in"] == pytest.approx(1.0)
    assert process_utilization(snap)["P"] == pytest.approx(0.75)


def test_fold_stacks_format():
    prof = Profiler()
    prof._on_event(_ev(0.0, "B", "P", "kpn.process", args={}))
    prof._on_event(_ev(1.0, "B", "block.write", "kpn.block",
                       args={"channel": "c", "process": "P"}))
    prof._on_event(_ev(3.0, "E", "block.write", "kpn.block"))
    prof._on_event(_ev(3.5, "E", "P", "kpn.process"))
    snap = prof.snapshot(now=4.0)
    node = snap["node"]
    lines = fold_stacks(snap)
    assert f"{node};P;running 1500000" in lines
    assert f"{node};P;write-blocked;c 2000000" in lines


# ---------------------------------------------------------------------------
# a real skewed pipeline: attribution + analyzer + advisor
# ---------------------------------------------------------------------------

def test_advisor_on_known_skewed_pipeline(profiler, tmp_path):
    """Producer floods a slow worker through a small channel: the tasks
    channel must rank first, its writers' blocked time must dominate, and
    the advisor must recommend more capacity for it."""
    handle = build_farm(
        RangeProducerTask(40, lambda i: CallableTask(pow, i, 2)),
        n_workers=1, mode="pipeline", slowdowns=[0.004],
        channel_capacity=256)
    assert handle.run(timeout=120) == [i ** 2 for i in range(40)]
    snap = profiler.snapshot(network=handle.network)
    report = analyze(snap, handle.network.channel_map())

    tasks_name = next(ch.name for ch in handle.network.channels
                      if ch.name.endswith("-tasks"))
    # the flooded tasks channel and the consumer's results channel soak
    # up all the blocked time; the tasks channel must be at the top and
    # carry the write pressure
    ranked_names = [e["name"] for e in report["channels"]]
    assert tasks_name in ranked_names[:2]
    top = next(e for e in report["channels"] if e["name"] == tasks_name)
    assert top["write_blocked_s"] > 0
    assert top["producer"] == "Producer"
    assert "Producer" in top["writers"]
    # writers blocked most of the run => advise more than current capacity
    assert top["recommended_capacity"] > 256
    assert "blocked" in top["reason"]
    # the slow worker is the root cause and the producer is mostly blocked
    utils = {p["name"]: p["utilization"] for p in report["processes"]}
    assert utils["Worker"] > utils["Producer"]
    assert report["root_cause"] is not None
    assert report["root_cause"]["process"] == "Worker"
    assert report["chain"], "expected a backpressure chain to the root"

    path = write_capacity_spec(report, str(tmp_path / "spec.json"))
    spec = json.loads(open(path).read())
    assert spec["version"] == 1
    assert spec["channels"][tasks_name]["initial_capacity"] > 256
    text = render_profile(report)
    assert "bottleneck channels" in text and tasks_name in text
    assert "root cause" in text


def test_occupancy_sampling_and_gauges(profiler, hub):
    net = Network(name="gauged")
    ch = net.channel(64, name="g-chan")
    snap = profiler.snapshot(network=net)
    entry = snap["channels"]["g-chan"]
    assert entry["capacity"] == 64
    assert entry["buffered"] == 0
    gauges = hub.gauges()
    assert gauges["kpn.channel.capacity_bytes{channel=g-chan}"] == 64
    assert gauges["kpn.channel.occupancy_bytes{channel=g-chan}"] == 0


# ---------------------------------------------------------------------------
# Parks growth, for real (fig13), plus the event-args audit
# ---------------------------------------------------------------------------

def test_parks_growth_recorded_and_block_events_joinable(profiler, hub):
    net = Network()
    built = modulo_merge(200, divisor=10, network=net, channel_capacity=16)
    assert built.run(timeout=60) == list(range(1, 201))

    snap = profiler.snapshot(network=net)
    grown = {name: c for name, c in snap["channels"].items()
             if c.get("grown_to")}
    assert grown, "expected at least one grown channel"
    for name, c in grown.items():
        assert c["grow_events"] >= 1
        assert c["growers"], f"{name} grew without an attributed process"

    # audit: every block span begin and every grow instant carries the
    # channel AND process names, so traces join across event families
    known_procs = {p.name for p in net.processes} | \
        {t.name for t in threading.enumerate()}
    block_begins = [e for e in hub.events()
                    if e.category == "kpn.block" and e.phase == "B"]
    assert block_begins
    for e in block_begins:
        assert e.args["channel"]
        assert e.args["process"]
    for e in hub.events():
        if e.name == "channel.grow":
            assert e.args["channel"]
            assert "process" in e.args

    # the advisor pre-sizes grown channels to their final capacity
    report = analyze(snap, net.channel_map())
    for name, c in grown.items():
        rec = report["spec"]["channels"][name]
        assert rec["initial_capacity"] >= c["grown_to"]
        assert "grew" in rec["reason"]


# ---------------------------------------------------------------------------
# merging (the cluster path) and farm label uniqueness
# ---------------------------------------------------------------------------

def test_merge_profiles_disambiguates_and_sums():
    a = {"node": "srv-0", "pid": 10, "t": 2.0, "network": "farm",
         "processes": {"P": {"kind": "k", "state": "done", "channel": None,
                             "running_s": 1.0, "blocked": {"read:c": 0.5},
                             "started": 0.0, "finished": 2.0}},
         "channels": {"c": {"initial_capacity": 64, "grown_to": 128,
                            "grow_events": 1, "growers": ["P"]}}}
    b = {"node": "srv-1", "pid": 11, "t": 3.0,
         "processes": {"P": {"kind": "k", "state": "done", "channel": None,
                             "running_s": 2.0, "blocked": {},
                             "started": 0.0, "finished": 3.0}},
         "channels": {"c": {"initial_capacity": 64, "grown_to": 256,
                            "grow_events": 2, "growers": ["Q"]}}}
    merged = merge_profiles({"srv-0": a, "srv-1": b})
    assert merged["nodes"] == ["srv-0", "srv-1"]
    assert merged["network"] == "farm"
    assert set(merged["processes"]) == {"P", "srv-1/P"}
    assert merged["processes"]["P"]["node"] == "srv-0"
    chan = merged["channels"]["c"]
    assert chan["grown_to"] == 256          # max wins
    assert chan["grow_events"] == 3         # events sum
    assert sorted(chan["growers"]) == ["P", "Q"]
    # merged snapshots flow straight into the analyzer
    report = analyze(merged)
    assert {e["name"] for e in report["channels"]} == {"c"}


def test_farm_channels_carry_per_farm_prefix():
    h1 = build_farm(RangeProducerTask(1, lambda i: CallableTask(pow, i, 2)),
                    n_workers=2, mode="dynamic")
    h2 = build_farm(RangeProducerTask(1, lambda i: CallableTask(pow, i, 2)),
                    n_workers=2, mode="dynamic")
    names1 = {ch.name for ch in h1.network.channels}
    names2 = {ch.name for ch in h2.network.channels}
    assert all(n.startswith("farm-") for n in names1 | names2)
    assert not names1 & names2, "two farms must not share channel labels"
    # run one to make sure renamed plumbing still works end to end
    assert h1.run(timeout=60) == [0]
    assert h2.run(timeout=60) == [0]
