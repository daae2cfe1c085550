"""Property-based determinacy over *generated* networks.

Three independent evaluators of every generated graph must agree:
1. the runtime (any drawn run configuration, graph-compiled or not, any
   channel capacity, any thread interleaving),
2. the compiled Kleene least fixed point,
3. a direct single-pass reference evaluator.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BACKENDS, RunConfig, use
from repro.semantics.compile import compile_network
from repro.semantics.randomnets import (NetSpec, build_operational,
                                        random_spec, reference_evaluate)

specs = st.integers(min_value=0, max_value=10 ** 9).map(
    lambda seed: random_spec(random.Random(seed), max_nodes=9))


def stream_channel_name(idx: int) -> str:
    return f"rn-{idx}"


def run_and_collect(spec: NetSpec, capacity=None, optimize=False):
    net, sinks = build_operational(spec, capacity=capacity)
    compiled = compile_network(net, max_len=500)
    if optimize:
        net.optimize()
    net.run(timeout=120)
    return net, sinks, compiled


@contextmanager
def hub_as(config: RunConfig):
    """The telemetry hub switched as ``config`` says, and left empty."""
    if not config.telemetry:
        yield
        return
    from repro.telemetry import TELEMETRY

    with TELEMETRY.enabled_scope(reset=True):
        yield
    TELEMETRY.reset()


@given(specs,
       st.builds(RunConfig, backend=st.sampled_from(BACKENDS),
                 telemetry=st.booleans()),
       st.booleans(), st.sampled_from([16, None]))
@settings(max_examples=100, deadline=None)
def test_runtime_equals_fixed_point_equals_reference(spec, config, optimize,
                                                     capacity):
    with use(config), hub_as(config):
        net, sinks, compiled = run_and_collect(spec, capacity, optimize)
    assert net.backend == config.backend
    reference = reference_evaluate(spec)
    for idx, collected in sinks.items():
        predicted = list(compiled.predict(stream_channel_name(idx)))
        assert collected == predicted, f"runtime != fixpoint on stream {idx}"
        assert collected == reference[idx], f"runtime != reference on {idx}"


@given(specs, st.sampled_from([16, 64, 4096]))
@settings(max_examples=25, deadline=None)
def test_runtime_capacity_independent(spec, capacity):
    _, sinks_a, _ = run_and_collect(spec, capacity=capacity)
    _, sinks_b, _ = run_and_collect(spec, capacity=1 << 16)
    assert {k: v for k, v in sinks_a.items()} == \
        {k: v for k, v in sinks_b.items()}


@given(specs)
@settings(max_examples=25, deadline=None)
def test_reference_evaluator_covers_all_streams(spec):
    reference = reference_evaluate(spec)
    assert len(reference) == spec.n_streams()


def test_generator_produces_wellformed_specs():
    rng = random.Random(42)
    for _ in range(200):
        spec = random_spec(rng)
        consumed = [i for node in spec.nodes for i in node.inputs]
        assert len(consumed) == len(set(consumed)), "stream consumed twice"
        created = spec.n_streams()
        assert all(i < created for i in consumed)
        # inputs always reference streams created by EARLIER nodes
        seen = 0
        for node in spec.nodes:
            assert all(i < seen for i in node.inputs)
            seen += 2 if node.kind == "dup" else 1


def test_generator_deterministic_by_seed():
    assert random_spec(random.Random(7)) == random_spec(random.Random(7))


def test_single_source_spec():
    spec = random_spec(random.Random(0), max_nodes=1)
    assert spec.nodes[0].kind == "source"
    net, sinks, compiled = run_and_collect(spec)
    assert list(sinks.values())[0] == list(spec.nodes[0].param)
