"""Merged cluster traces: one timeline, one lane per node, linked flows."""

import json
import os

import pytest

from repro.config import RunConfig
from repro.distributed.cluster import LocalCluster
from repro.parallel import CallableTask
from repro.telemetry.clock import ProbeSample, estimate_offset
from repro.telemetry.distributed import merge_node_traces, write_merged_trace


# ---------------------------------------------------------------------------
# merging fake nodes (pure, no sockets)
# ---------------------------------------------------------------------------

def fake_event(ts, ph="i", name="e", tid=1, thread="t", args=None):
    return {"ts": ts, "ph": ph, "name": name, "cat": "test", "tid": tid,
            "thread": thread, "args": args}


def test_merge_two_skewed_nodes_yields_single_monotone_timeline():
    """Two nodes whose hub clocks differ by known skews: after applying
    the estimated offsets, the merged trace is one monotone timeline that
    matches the ground-truth event order."""
    # ground truth: events happen at wall times 1.0 .. 6.0, alternating nodes
    skew_a, skew_b = 100.0, -40.0   # node clock = wall - skew
    wall_times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    node_a = [fake_event(w - skew_a, name=f"a{i}")
              for i, w in enumerate(wall_times) if i % 2 == 0]
    node_b = [fake_event(w - skew_b, name=f"b{i}")
              for i, w in enumerate(wall_times) if i % 2 == 1]
    # probes as the observer (whose clock IS wall time) would take them
    est_a = estimate_offset([ProbeSample(sent=w, remote=w + 0.001 - skew_a,
                                         received=w + 0.002)
                             for w in (0.1, 0.2, 0.3)])
    est_b = estimate_offset([ProbeSample(sent=w, remote=w + 0.001 - skew_b,
                                         received=w + 0.002)
                             for w in (0.1, 0.2, 0.3)])
    assert est_a.offset == pytest.approx(skew_a, abs=1e-6)
    assert est_b.offset == pytest.approx(skew_b, abs=1e-6)
    doc = merge_node_traces([
        {"name": "alpha", "events": node_a, "offset": est_a.offset},
        {"name": "beta", "events": node_b, "offset": est_b.offset},
    ])
    items = [i for i in doc["traceEvents"] if i["ph"] != "M"]
    by_time = sorted(items, key=lambda i: i["ts"])
    assert [i["name"] for i in by_time] == ["a0", "b1", "a2", "b3", "a4", "b5"]
    # aligned timestamps recover wall time (microseconds)
    assert [i["ts"] for i in by_time] == pytest.approx(
        [w * 1e6 for w in wall_times], abs=1.0)
    # one lane per node, in the order given
    names = {i["pid"]: i["args"]["name"] for i in doc["traceEvents"]
             if i["name"] == "process_name"}
    assert names == {1: "alpha", 2: "beta"}


def test_merge_preserves_flow_ids_and_thread_metadata(tmp_path):
    nodes = [
        {"name": "client", "offset": 0.0, "events": [
            fake_event(0.1, ph="B", name="rpc.send", tid=7, thread="main"),
            fake_event(0.2, ph="s", name="rpc", tid=7, thread="main",
                       args={"flow_id": 99}),
            fake_event(0.4, ph="E", name="rpc.send", tid=7, thread="main"),
        ]},
        {"name": "server", "offset": -0.05, "events": [
            fake_event(0.3, ph="B", name="rpc.execute", tid=9, thread="conn"),
            fake_event(0.35, ph="f", name="rpc", tid=9, thread="conn",
                       args={"flow_id": 99}),
            fake_event(0.5, ph="E", name="rpc.execute", tid=9, thread="conn"),
        ]},
    ]
    path = str(tmp_path / "merged.json")
    assert write_merged_trace(path, nodes) == path
    with open(path) as fh:
        doc = json.load(fh)
    start = next(i for i in doc["traceEvents"] if i["ph"] == "s")
    end = next(i for i in doc["traceEvents"] if i["ph"] == "f")
    assert start["id"] == end["id"] == 99
    assert start["pid"] != end["pid"]       # the flow crosses lanes
    assert end["bp"] == "e"
    threads = [i for i in doc["traceEvents"] if i["name"] == "thread_name"]
    assert {(t["pid"], t["args"]["name"]) for t in threads} == {
        (1, "main"), (2, "conn")}


def test_merge_empty_and_unnamed_nodes():
    doc = merge_node_traces([{"events": []}])
    names = [i["args"]["name"] for i in doc["traceEvents"]
             if i["name"] == "process_name"]
    assert names == ["node-1"]


# ---------------------------------------------------------------------------
# against real clusters
# ---------------------------------------------------------------------------

def test_thread_mode_cluster_dedupes_shared_hub_to_one_lane(hub):
    with LocalCluster(2, mode="thread") as cluster:
        cluster.ping_all()
        doc = cluster.merged_trace()
    lanes = [i for i in doc["traceEvents"] if i["name"] == "process_name"]
    assert len(lanes) == 1          # servers share this interpreter's hub
    assert lanes[0]["args"]["name"].startswith("client:")
    assert any(i["ph"] == "s" for i in doc["traceEvents"])


def test_process_mode_merged_trace_links_dispatch_across_lanes(hub, tmp_path):
    """The acceptance flow: a LocalCluster run with telemetry enabled
    produces ONE merged Chrome trace where a remote task dispatch appears
    as a flow-linked send→execute span pair across two node lanes, with
    all timestamps on one aligned timeline.

    When REPRO_TRACE_ARTIFACT is set (CI), the merged trace is also
    written there and uploaded as a build artifact.
    """
    artifact = os.environ.get("REPRO_TRACE_ARTIFACT")
    path = artifact or str(tmp_path / "merged-trace.json")
    with LocalCluster(1, mode="process",
                      config=RunConfig(telemetry=True)) as cluster:
        client = cluster.client(0)
        assert client.ping() == "server-0"
        assert client.call(CallableTask(pow, 2, 10)) == 1024
        doc = cluster.merged_trace(path)
    with open(path) as fh:
        assert json.load(fh) == doc
    lanes = {i["pid"]: i["args"]["name"] for i in doc["traceEvents"]
             if i["name"] == "process_name"}
    assert len(lanes) == 2          # client lane + one true server process
    assert "server-0" in lanes.values()
    client_pid = next(p for p, n in lanes.items() if n.startswith("client:"))
    server_pid = next(p for p, n in lanes.items() if n == "server-0")
    starts = {i["id"]: i for i in doc["traceEvents"] if i["ph"] == "s"}
    ends = {i["id"]: i for i in doc["traceEvents"] if i["ph"] == "f"}
    linked = [(starts[fid], ends[fid]) for fid in starts if fid in ends]
    assert linked, "no flow-linked send→execute pair crossed the wire"
    for start, end in linked:
        assert start["pid"] == client_pid
        assert end["pid"] == server_pid
        # aligned single timeline: the execute follows the send (the
        # estimator's error is bounded by half the loopback RTT)
        assert end["ts"] >= start["ts"] - 10_000  # 10 ms slack in µs
    # the execute span for the call is on the server lane and carries op
    assert any(i["ph"] == "B" and i["name"] == "rpc.execute"
               and i["pid"] == server_pid
               and i.get("args", {}).get("op") == "call"
               for i in doc["traceEvents"])
