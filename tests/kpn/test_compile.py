"""Unit tests for the graph compiler (repro.kpn.compile).

Covers chain detection shapes on the bundled figure networks, the
refusal rules (nondeterminate / dynamic / custom run loop / shared
state / side channels / already-started), fused-pipe semantics, the
object fast path, capacity specs, and the CLI subcommand.  The
fused-vs-unfused trace equivalence suite lives in
tests/test_fusion_equivalence.py.
"""

import json

import pytest

from repro.errors import BrokenChannelError, EndOfStreamError
from repro.kpn.compile import (FusedChain, _FusedPipe, compile_network,
                               fuse, load_capacity_spec)
from repro.kpn.network import Network
from repro.processes import (Collect, FromIterable, Scale, Sequence,
                             fibonacci, hamming, modulo_merge, newton_sqrt,
                             primes)
from repro.processes.codecs import LONG


def chain_names(plan):
    return sorted(tuple(s.name for s in stages)
                  for stages, _, _, _ in plan.chains)


def build_linear(n_stages=3, count=50):
    """Sequence -> Scale*(n_stages-2) -> Collect on named channels."""
    net = Network()
    chans = net.channels_n(n_stages - 1, prefix="lin")
    net.add(Sequence(chans[0].get_output_stream(), start=0,
                     iterations=count, name="Src"))
    for i in range(n_stages - 2):
        net.add(Scale(chans[i].get_input_stream(),
                      chans[i + 1].get_output_stream(), factor=2,
                      name=f"Map-{i}"))
    out = []
    net.add(Collect(chans[-1].get_input_stream(), out, iterations=count,
                    name="Dst"))
    return net, out


# ---------------------------------------------------------------------------
# chain detection
# ---------------------------------------------------------------------------

def test_linear_pipeline_fuses_to_one_thread():
    net, out = build_linear(4)
    plan = compile_network(net)
    assert chain_names(plan) == [("Src", "Map-0", "Map-1", "Dst")]
    plan.apply()
    assert len(net.processes) == 1
    assert isinstance(net.processes[0], FusedChain)
    assert net.fusion_plan is plan
    net.run(timeout=30)
    assert out == [i * 4 for i in range(50)]


def test_fibonacci_chain_shapes():
    # Duplicate has 2 outputs (tail only), Cons has 2 inputs (cannot sit
    # mid-chain), so exactly the two Constant->Cons prefixes fuse
    plan = compile_network(fibonacci(10).network)
    assert chain_names(plan) == [("Constant-ab", "Cons-b"),
                                 ("Constant-cd", "Cons-f")]


def test_newton_chain_shapes():
    plan = compile_network(newton_sqrt(2.0).network)
    assert chain_names(plan) == [("Average", "Dup-rnext"),
                                 ("Equal", "Guard"),
                                 ("Seed", "Cons-r"),
                                 ("X", "Divide")]


def test_fig13_fuses_source_and_sink_pairs():
    plan = compile_network(modulo_merge(50, 10).network)
    assert chain_names(plan) == [("Merge", "Sink"), ("Source", "Mod")]
    # single-input consumers with matching LONG codecs: object fast path
    assert all(oc is not None
               for _, _, codecs, _ in plan.chains for oc in codecs)


def test_hamming_merge_nodes_fuse_as_tails_only():
    # OrderedMerge has two inputs, so it can terminate a chain but never
    # continue one; the x3 branch feeds the tree root directly and the
    # root cannot be an interior stage, so Scale-3 stays threaded
    plan = compile_network(hamming(10).network)
    names = chain_names(plan)
    assert ("One", "Cons-h") in names
    assert any(c[0] == "Scale-2" for c in names)
    assert all(len(c) == 2 for c in names)


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

def test_sift_refused_as_dynamic():
    plan = compile_network(primes(count=8).network)
    assert plan.chains == []
    refused = dict(plan.refusals)
    assert "Sift" in refused and "dynamic" in refused["Sift"]


def test_turnstile_refused_as_nondeterminate():
    from repro.parallel.farm import build_farm
    from repro.parallel.tasks import CallableTask, RangeProducerTask

    handle = build_farm(
        RangeProducerTask(10, lambda i: CallableTask(pow, i, 2)),
        n_workers=2, mode="dynamic")
    plan = compile_network(handle.network)
    refused = dict(plan.refusals)
    assert any("@nondeterminate" in reason for reason in refused.values())
    fused = {n for c in chain_names(plan) for n in c}
    assert "Turnstile" not in fused


def test_custom_run_loop_refused():
    net = Network()
    ch = net.channel(name="from-iter")
    net.add(FromIterable(ch.get_output_stream(), [1, 2, 3], name="Iter"))
    out = []
    net.add(Collect(ch.get_input_stream(), out, name="Dst"))
    plan = compile_network(net)
    assert plan.chains == []
    assert "custom run()" in dict(plan.refusals)["Iter"]


def test_shared_state_refused():
    shared = []
    net = Network()
    a, b = net.channels_n(2, prefix="sh")
    net.add(Sequence(a.get_output_stream(), iterations=5, name="SrcA"))
    net.add(Sequence(b.get_output_stream(), iterations=5, name="SrcB"))
    # two sinks collecting into the SAME list: a shared-state race
    net.add(Collect(a.get_input_stream(), shared, name="DstA"))
    net.add(Collect(b.get_input_stream(), shared, name="DstB"))
    plan = compile_network(net)
    assert plan.chains == []
    reasons = dict(plan.refusals)
    assert any("shared mutable state" in r for r in reasons.values())


def test_two_process_cycle_not_fused():
    # A -> B -> A: fusing would hide one direction's channel from the
    # deadlock monitor while the other still blocks
    net = Network()
    ab = net.channel(name="cy-ab")
    ba = net.channel(name="cy-ba")
    net.add(Scale(ba.get_input_stream(), ab.get_output_stream(), factor=1,
                  iterations=10, name="A"))
    net.add(Scale(ab.get_input_stream(), ba.get_output_stream(), factor=1,
                  iterations=10, name="B"))
    plan = compile_network(net)
    assert plan.chains == []


def test_channel_with_two_readers_is_never_fused_through():
    # the planner used to keep one consumer per channel, last one wins:
    # it fused Src -> Map -> Dst over "tap" and starved the second reader
    net = Network()
    tap = net.channel(name="tap")
    out = net.channel(name="out")
    net.add(Sequence(tap.get_output_stream(), iterations=10, name="Src"))
    net.add(Collect(tap.get_input_stream(), [], name="Thief"))
    net.add(Scale(tap.get_input_stream(), out.get_output_stream(), factor=2,
                  name="Map"))
    net.add(Collect(out.get_input_stream(), [], name="Dst"))
    plan = compile_network(net)
    assert "tap" not in plan.fused_channel_names
    assert chain_names(plan) == [("Map", "Dst")]
    reason = dict(plan.refusals)["tap"]
    assert "Thief" in reason and "Map" in reason and "Src" in reason


def test_compile_after_start_rejected():
    net, _ = build_linear()
    net.start()
    with pytest.raises(RuntimeError):
        compile_network(net)
    net.join(timeout=30)


def test_presized_buffer_with_queued_data_not_fused():
    net, _ = build_linear(3)
    # pre-seed one channel: rewiring would strand the queued bytes
    net.channel_by_name("lin-0").get_output_stream().write(b"\0" * 8)
    plan = compile_network(net)
    assert "lin-0" not in plan.fused_channel_names


# ---------------------------------------------------------------------------
# fused pipe semantics
# ---------------------------------------------------------------------------

def make_pipe(**kwargs):
    return _FusedPipe(Network().channel(name="p"), **kwargs)


def test_pipe_byte_roundtrip_and_split_reads():
    pipe = make_pipe()
    pipe.write_bytes(b"abcdef")
    assert pipe.read(4) == b"abcd"
    assert pipe.read(10) == b"ef"
    pipe.write_bytes(b"xy")
    pipe.close_write()
    assert pipe.read(10) == b"xy"
    assert pipe.read(10) == b""  # EOF
    assert pipe.at_eof()


def test_pipe_write_after_reader_close_raises_broken():
    pipe = make_pipe()
    pipe.close_read()
    with pytest.raises(BrokenChannelError):
        pipe.write_bytes(b"z")
    with pytest.raises(BrokenChannelError):
        pipe.write_object(1)


def test_pipe_object_mode_with_byte_read_fallback():
    # a byte-level read on an object-mode pipe lazily encodes entries,
    # so even un-shimmed readers (module-global codecs) stay correct
    pipe = make_pipe(object_codec=LONG)
    pipe.write_object(7)
    pipe.write_object(8)
    assert pipe.available() == 16
    assert pipe.read(8) == LONG.encode(7)
    assert pipe.read_object() == 8
    pipe.close_write()
    with pytest.raises(EndOfStreamError):
        pipe.read_object()


def test_pipe_records_history_in_byte_mode():
    ch = Network().channel(name="h")
    ch.buffer.record_history(True)
    pipe = _FusedPipe(ch)
    pipe.write_bytes(b"1234")
    pipe.write_bytes(b"5678")
    assert pipe.read(8) == b"1234"
    assert ch.buffer.history_bytes() == b"12345678"


def test_object_fast_path_skips_codec_on_matching_edges():
    net, out = build_linear(3, count=20)
    plan = compile_network(net)
    ((stages, chans, codecs, _),) = plan.chains
    assert all(oc is not None for oc in codecs)  # LONG == LONG, 1-input
    plan.apply()
    net.run(timeout=30)
    assert out == [i * 2 for i in range(20)]


def test_armed_history_capture_forces_byte_mode():
    net, _ = build_linear(3)
    for ch in net.channels:
        ch.buffer.record_history(True)
    plan = compile_network(net)
    ((_, _, codecs, _),) = plan.chains
    assert all(oc is None for oc in codecs)


# ---------------------------------------------------------------------------
# channel collapse bookkeeping
# ---------------------------------------------------------------------------

def test_fused_channels_keep_identity_and_flag():
    net, _ = build_linear(3)
    plan = fuse(net)
    for name in plan.fused_channel_names:
        ch = net.channel_by_name(name)
        assert ch is not None and ch.fused
        assert ch.occupancy()["fused"] is True
    # boundary bookkeeping: unfused channels carry no flag
    other = Network().channel(name="plain")
    assert "fused" not in other.occupancy()
    net.run(timeout=30)


def test_farm_prefix_survives_fusion():
    from repro.parallel.farm import build_farm
    from repro.parallel.tasks import CallableTask, RangeProducerTask

    handle = build_farm(
        RangeProducerTask(10, lambda i: CallableTask(pow, i, 2)),
        n_workers=1, mode="pipeline")
    plan = fuse(handle.network)
    assert plan.fused_channel_names  # Producer->Worker->Consumer collapsed
    assert all(name.startswith("farm-") for name in plan.fused_channel_names)
    # profiler attribution keys are the channel names; they must be the
    # same objects the network still reports
    assert set(plan.fused_channel_names) <= set(handle.network.channel_map())
    handle.network.run(timeout=60)


# ---------------------------------------------------------------------------
# capacity specs (pass 3 + the Network(capacity_spec=...) satellite)
# ---------------------------------------------------------------------------

def test_load_capacity_spec_shapes(tmp_path):
    flat = {"a": 1024, "b": 2048}
    assert load_capacity_spec(flat) == flat
    advisor = {"version": 1, "network": "x",
               "channels": {"a": {"initial_capacity": 4096, "reason": "r"}}}
    assert load_capacity_spec(advisor) == {"a": 4096}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(advisor))
    assert load_capacity_spec(str(path)) == {"a": 4096}
    assert load_capacity_spec(None) == {}
    with pytest.raises(TypeError):
        load_capacity_spec([1, 2])


def test_plan_presizes_surviving_channels_only():
    net, _ = build_linear(3)
    sizes = {ch.name: ch.capacity for ch in net.channels}
    spec = {name: cap * 4 for name, cap in sizes.items()}
    plan = fuse(net, spec=spec)
    fused = set(plan.fused_channel_names)
    for name, cap in sizes.items():
        ch = net.channel_by_name(name)
        if name in fused:
            assert ch.capacity == cap  # intra-chain: ring is bypassed
        else:
            assert ch.capacity == cap * 4
    assert all(name not in fused for name, _, _ in plan.presized)
    net.run(timeout=30)


def test_network_capacity_spec_presizes_at_creation(tmp_path):
    spec = {"version": 1,
            "channels": {"sized": {"initial_capacity": 9999}}}
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(spec))
    net = Network(capacity_spec=str(path))
    assert net.channel(name="sized").capacity == 9999
    assert net.channel(name="other").capacity == net.default_capacity
    # explicit capacity always wins over the spec
    assert net.channel(capacity=128, name="sized").capacity == 128
    # dict form works too and feeds optimize()'s default spec
    net2 = Network(capacity_spec={"sized": 4096})
    assert net2.channel(name="sized").capacity == 4096


# ---------------------------------------------------------------------------
# execution semantics of fused chains
# ---------------------------------------------------------------------------

def test_fused_stage_failure_propagates():
    from repro.processes import MapProcess

    def boom(v):
        if v == 3:
            raise ValueError("boom at 3")
        return v

    net = Network()
    a, b = net.channels_n(2, prefix="fl")
    net.add(Sequence(a.get_output_stream(), iterations=10, name="Src"))
    net.add(MapProcess(a.get_input_stream(), b.get_output_stream(), boom,
                       name="Boom"))
    net.add(Collect(b.get_input_stream(), [], name="Dst"))
    plan = fuse(net)
    assert chain_names(plan) == [("Src", "Boom", "Dst")]
    with pytest.raises(ValueError, match="boom at 3"):
        net.run(timeout=30)


def test_fused_iteration_limits_respected():
    # downstream limit truncates an infinite upstream source
    net = Network()
    ch = net.channel(name="lim")
    net.add(Sequence(ch.get_output_stream(), start=0, iterations=0,
                     name="Src"))
    out = []
    net.add(Collect(ch.get_input_stream(), out, iterations=7, name="Dst"))
    fuse(net)
    net.run(timeout=30)
    assert out == list(range(7))


def test_fused_run_with_boundary_channels():
    # only the middle pair fuses; channels to/from the threaded stages
    # keep full blocking semantics
    from repro.processes import Duplicate

    net = Network()
    src, d1, d2, merged = (net.channel(name=n)
                           for n in ("bn-src", "bn-d1", "bn-d2", "bn-out"))
    net.add(Sequence(src.get_output_stream(), iterations=30, name="Src"))
    net.add(Duplicate(src.get_input_stream(),
                      [d1.get_output_stream(), d2.get_output_stream()],
                      name="Dup"))
    net.add(Scale(d1.get_input_stream(), merged.get_output_stream(),
                  factor=10, iterations=30, name="Via"))
    out1, out2 = [], []
    net.add(Collect(merged.get_input_stream(), out1, name="Dst1"))
    net.add(Collect(d2.get_input_stream(), out2, name="Dst2"))
    plan = fuse(net)
    assert chain_names(plan) == [("Src", "Dup"), ("Via", "Dst1")]
    net.run(timeout=30)
    assert out1 == [i * 10 for i in range(30)]
    assert out2 == list(range(30))


def test_fused_spans_still_emitted():
    from repro.telemetry.core import TELEMETRY

    net, _ = build_linear(3, count=10)
    fuse(net)
    with TELEMETRY.enabled_scope(reset=True):
        net.run(timeout=30)
        names = {e.name for e in TELEMETRY.events()}
    # per-stage spans survive fusion (profiler attribution), plus the
    # chain's own span
    assert {"Src", "Map-0", "Dst"} <= names
    assert any(n.startswith("fused:") for n in names)


# ---------------------------------------------------------------------------
# plan reporting and CLI
# ---------------------------------------------------------------------------

def test_plan_describe_and_to_dict():
    net, _ = build_linear(3)
    plan = compile_network(net)
    text = plan.describe()
    assert "chain 1" in text and "Src -> Map-0 -> Dst" in text
    doc = plan.to_dict()
    assert doc["threads_before"] == 3 and doc["threads_after"] == 1
    assert doc["applied"] is False
    plan.apply()
    assert plan.to_dict()["applied"] is True
    net.run(timeout=30)


def test_cli_compile_plan_and_json(capsys):
    from repro.cli import main

    assert main(["compile", "fig13"]) == 0
    out = capsys.readouterr().out
    assert "Source -> Mod" in out and "Merge -> Sink" in out
    assert main(["compile", "primes", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chains"] == []
    assert any(r["subject"] == "Sift" for r in doc["refusals"])


def test_cli_compile_run_executes_fused(capsys):
    from repro.cli import main

    assert main(["compile", "fig13", "--run"]) == 0
    captured = capsys.readouterr()
    assert "ran to completion" in captured.err


def test_network_run_optimize_flag():
    net, out = build_linear(3, count=25)
    net.optimize()
    assert net.run(timeout=30)
    assert net.fusion_plan is not None and net.fusion_plan.applied
    assert out == [i * 2 for i in range(25)]
