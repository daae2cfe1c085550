"""Trace equivalence: every bundled example, unfused vs. fused.

The Kahn-semantics contract of the graph compiler is that fusion changes
*scheduling*, never *histories*.  Two comparison regimes:

* **Drain-mode** examples terminate by source exhaustion (every process
  stops on its own limit or on a deterministically-closed input), so the
  complete run is determinate: histories must be **byte-identical** and
  sink outputs equal.

* **Sink-limited** examples (a ``Collect`` with an iteration cap, or
  Guard-triggered stop, feeding off an unbounded generator) end in a
  cascading shutdown whose cut point depends on thread timing.  Channel
  histories are prefix-ordered per Kahn up to that cut — *including* at
  the outputs of EOF-tolerant merges (``OrderedMerge``, ``Select``).
  Historically those tails were excluded: a cascade-terminated producer
  used to close its output like a clean EOF, so a merge could
  legitimately switch to pass-through mid-shutdown and emit a
  timing-dependent tail.  Abort-propagating close (``close_write(
  aborted=True)``) removed that escape hatch — the merge now sees the
  abort instead of an EOF and stops rather than improvising — so here
  we assert exact sink outputs plus byte-prefix equality on **every**
  channel (see ``test_merge_tails_prefix_deterministic`` below).

The dynamic task farm contains a declared-``@nondeterminate`` Turnstile;
only its result *set* is stable, and the compiler refuses to fuse the
Turnstile itself — asserted in tests/kpn/test_compile.py.
"""

import pytest

from repro.kpn.compile import fuse
from repro.kpn.history import HistoryCapture
from repro.processes import (fibonacci, hamming, modulo_merge, newton_sqrt,
                             primes)
from repro.processes.merges import OrderedMerge
from repro.processes.routing import Select


def farm_pipeline():
    from repro.parallel.farm import build_farm
    from repro.parallel.tasks import CallableTask, RangeProducerTask

    return build_farm(
        RangeProducerTask(25, lambda i: CallableTask(pow, i, 3)),
        n_workers=1, mode="pipeline")


DRAIN = {
    # primes-below is wholly refused (FromIterable custom run loop, Sift
    # dynamic): the compiler must be an exact no-op on it
    "primes-below": lambda: primes(below=30),
    "fig13": lambda: modulo_merge(60, 10),
    "fig19-pipeline": farm_pipeline,
}
EXPECT_NO_CHAINS = {"primes-below", "primes-count"}
SINK_LIMITED = {
    "fibonacci": lambda: fibonacci(15),
    "primes-count": lambda: primes(count=8),
    "hamming": lambda: hamming(15),
    "newton": lambda: newton_sqrt(2.0),
}


def norm(name):
    """Strip the per-build farm id so channel names compare across runs."""
    if name.startswith("farm-"):
        return "farm-" + name.split("-", 2)[-1]
    return name


def run_example(builder, optimize, capture=True):
    built = builder()
    net = getattr(built, "network", built)
    cap = HistoryCapture(net) if capture else None
    plan = fuse(net) if optimize else None
    net.run(timeout=120)
    histories = {}
    if cap is not None:
        cap.refresh()
        histories = {norm(k): v for k, v in cap.raw().items()}
    results = getattr(built, "results", None)
    return histories, list(results) if results is not None else None, net, plan


def eof_tolerant_producers(net):
    """Channel names produced by merges that survive an input's EOF."""
    out = set()
    for p in net.topology().leaves:
        if isinstance(p, (OrderedMerge, Select)):
            for s in p.output_streams:
                ch = getattr(s, "channel", None)
                if ch is not None:
                    out.add(norm(ch.name))
    return out


@pytest.mark.parametrize("name", sorted(DRAIN))
def test_drain_mode_histories_byte_identical(name):
    h0, o0, _, _ = run_example(DRAIN[name], optimize=False)
    h1, o1, _, plan = run_example(DRAIN[name], optimize=True)
    if name in EXPECT_NO_CHAINS:
        assert plan.chains == []
    else:
        assert plan.chains, f"{name}: expected at least one fused chain"
    assert o1 == o0
    assert set(h1) == set(h0)
    for ch in h0:
        assert h1[ch] == h0[ch], f"{name}: history of {ch} diverged"


@pytest.mark.parametrize("name", sorted(SINK_LIMITED))
def test_sink_limited_outputs_exact_histories_prefix(name):
    h0, o0, net0, _ = run_example(SINK_LIMITED[name], optimize=False)
    h1, o1, _, plan = run_example(SINK_LIMITED[name], optimize=True)
    if name in EXPECT_NO_CHAINS:
        assert plan.chains == []  # Sift is dynamic: whole net refused
    else:
        assert plan.chains, f"{name}: expected at least one fused chain"
    assert o1 == o0, f"{name}: sink outputs diverged"
    assert set(h1) == set(h0)
    for ch in h0:
        n = min(len(h0[ch]), len(h1[ch]))
        assert h1[ch][:n] == h0[ch][:n], \
            f"{name}: history prefix of {ch} diverged"


def test_merge_tails_prefix_deterministic():
    """Abort-propagating close makes merge tails prefix-deterministic
    under the shutdown cascade: a cascade-terminated input now aborts
    its output channel instead of presenting a clean EOF, so the merge
    never switches to pass-through mid-shutdown.  Two independent runs
    of the *unfused* hamming network must agree (prefix-wise) on the
    merge-output channels that used to be excluded from comparison."""
    h0, o0, net0, _ = run_example(SINK_LIMITED["hamming"], optimize=False)
    h1, o1, _, _ = run_example(SINK_LIMITED["hamming"], optimize=False)
    merges = eof_tolerant_producers(net0)
    assert merges  # hamming's merge tree is the canonical case
    assert all(ch.startswith("ham-merge") or ch == "ham-merged"
               for ch in merges)
    assert o1 == o0
    for ch in merges:
        n = min(len(h0[ch]), len(h1[ch]))
        assert h1[ch][:n] == h0[ch][:n], \
            f"merge tail {ch} diverged across identical unfused runs"


def test_dynamic_farm_result_set_stable():
    from repro.parallel.farm import build_farm
    from repro.parallel.tasks import CallableTask, RangeProducerTask

    def build():
        return build_farm(
            RangeProducerTask(20, lambda i: CallableTask(pow, i, 2)),
            n_workers=2, mode="dynamic")

    _, o0, _, _ = run_example(build, optimize=False, capture=False)
    _, o1, _, plan = run_example(build, optimize=True, capture=False)
    assert plan.chains  # plumbing around the Turnstile still fuses
    assert sorted(map(repr, o1)) == sorted(map(repr, o0))


@pytest.mark.parametrize("name", ["fibonacci", "hamming", "newton", "fig13"])
def test_object_fast_path_outputs(name):
    """No history capture armed: matching-codec edges pass objects and
    the sink outputs must still be exact."""
    builders = {"fibonacci": lambda: fibonacci(15),
                "hamming": lambda: hamming(15),
                "newton": lambda: newton_sqrt(2.0),
                "fig13": lambda: modulo_merge(60, 10)}
    _, o0, _, _ = run_example(builders[name], optimize=False, capture=False)
    _, o1, _, _ = run_example(builders[name], optimize=True, capture=False)
    assert o1 == o0
