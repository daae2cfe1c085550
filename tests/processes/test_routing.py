"""Routing processes: Guard, ModuloRouter, Scatter/Gather, Direct/Turnstile/Select."""

import threading
import time

import pytest

from repro.errors import TrueDeadlockError
from repro.kpn import Network
from repro.kpn.process import IterativeProcess
from repro.processes import (Collect, Direct, FromIterable, Gather, Guard,
                             MapProcess, ModuloRouter, Scatter, Select,
                             Sequence, Turnstile)
from repro.processes.codecs import BOOL, INT, OBJECT


# ---------------------------------------------------------------------------
# Guard
# ---------------------------------------------------------------------------

def run_guard(data, control, stop_after_true=False):
    net = Network()
    d, c, o = net.channels_n(3)
    out = []
    net.add(FromIterable(d.get_output_stream(), data))
    net.add(FromIterable(c.get_output_stream(), control, codec=BOOL))
    net.add(Guard(d.get_input_stream(), c.get_input_stream(),
                  o.get_output_stream(), stop_after_true=stop_after_true))
    net.add(Collect(o.get_input_stream(), out))
    net.run(timeout=30)
    return out


def test_guard_passes_only_true_controlled():
    assert run_guard([1, 2, 3, 4], [True, False, True, False]) == [1, 3]


def test_guard_stop_after_first_true():
    assert run_guard([1, 2, 3, 4], [False, True, True, True],
                     stop_after_true=True) == [2]


def test_guard_all_false_emits_nothing():
    assert run_guard([1, 2], [False, False]) == []


# ---------------------------------------------------------------------------
# ModuloRouter (Figure 13's mod)
# ---------------------------------------------------------------------------

def test_modulo_router_splits_by_divisibility():
    net = Network()
    src, up, low = net.channels_n(3)
    upper, lower = [], []
    net.add(Sequence(src.get_output_stream(), start=1, iterations=20))
    net.add(ModuloRouter(src.get_input_stream(), up.get_output_stream(),
                         low.get_output_stream(), 5))
    net.add(Collect(up.get_input_stream(), upper))
    net.add(Collect(low.get_input_stream(), lower))
    net.run(timeout=30)
    assert upper == [5, 10, 15, 20]
    assert lower == [x for x in range(1, 21) if x % 5]


# ---------------------------------------------------------------------------
# Scatter / Gather (Figure 16)
# ---------------------------------------------------------------------------

def scatter_gather(n_items, n_workers):
    net = Network()
    src = net.channel()
    outs = net.channels_n(n_workers, prefix="w")
    merged = net.channel(name="merged")
    out = []
    items = [{"i": i} for i in range(n_items)]
    net.add(FromIterable(src.get_output_stream(), items, codec=OBJECT))
    net.add(Scatter(src.get_input_stream(),
                    [c.get_output_stream() for c in outs]))
    net.add(Gather([c.get_input_stream() for c in outs],
                   merged.get_output_stream()))
    net.add(Collect(merged.get_input_stream(), out, codec=OBJECT))
    net.run(timeout=30)
    return items, out


@pytest.mark.parametrize("n_items,n_workers", [(12, 3), (10, 4), (7, 2), (3, 5)])
def test_scatter_gather_identity_any_remainder(n_items, n_workers):
    """Scatter∘Gather must be the identity even when the task count is not
    a multiple of the worker count (the EOF-mid-round case)."""
    items, out = scatter_gather(n_items, n_workers)
    assert out == items


def test_scatter_round_robin_counts():
    net = Network()
    src = net.channel()
    outs = net.channels_n(3, prefix="w")
    sinks = [[] for _ in range(3)]
    net.add(FromIterable(src.get_output_stream(), list(range(8)), codec=OBJECT))
    net.add(Scatter(src.get_input_stream(),
                    [c.get_output_stream() for c in outs]))
    for c, sink in zip(outs, sinks):
        net.add(Collect(c.get_input_stream(), sink, codec=OBJECT))
    net.run(timeout=30)
    assert sinks == [[0, 3, 6], [1, 4, 7], [2, 5]]


# ---------------------------------------------------------------------------
# Direct / Turnstile / Select (Figures 17–18)
# ---------------------------------------------------------------------------

def test_direct_routes_by_index_stream():
    net = Network()
    tasks, idx = net.channels_n(2)
    outs = net.channels_n(3, prefix="w")
    sinks = [[] for _ in range(3)]
    net.add(FromIterable(tasks.get_output_stream(), list("abcdef"), codec=OBJECT))
    net.add(FromIterable(idx.get_output_stream(), [0, 2, 2, 1, 0, 1], codec=INT))
    net.add(Direct(tasks.get_input_stream(), idx.get_input_stream(),
                   [c.get_output_stream() for c in outs]))
    for c, sink in zip(outs, sinks):
        net.add(Collect(c.get_input_stream(), sink, codec=OBJECT))
    net.run(timeout=30)
    assert sinks == [["a", "e"], ["d", "f"], ["b", "c"]]


def test_turnstile_pairs_results_with_indices():
    net = Network()
    ins = net.channels_n(2, prefix="w")
    pairs, idx = net.channels_n(2, prefix="t")
    got_pairs, got_idx = [], []
    net.add(FromIterable(ins[0].get_output_stream(), ["x0", "x1"], codec=OBJECT))
    net.add(FromIterable(ins[1].get_output_stream(), ["y0"], codec=OBJECT))
    net.add(Turnstile([c.get_input_stream() for c in ins],
                      pairs.get_output_stream(), idx.get_output_stream()))
    net.add(Collect(pairs.get_input_stream(), got_pairs, codec=OBJECT))
    net.add(Collect(idx.get_input_stream(), got_idx, codec=INT))
    net.run(timeout=30)
    # arrival order is nondeterministic, but pairs must be internally
    # consistent and complete
    assert sorted(got_pairs) == [(0, "x0"), (0, "x1"), (1, "y0")]
    assert got_idx == [i for i, _ in got_pairs]
    # per-worker FIFO preserved
    w0 = [r for i, r in got_pairs if i == 0]
    assert w0 == ["x0", "x1"]


@pytest.mark.parametrize("backend", ["thread", "async"])
def test_a_turnstile_cycle_with_no_token_is_a_true_deadlock(backend):
    """Turnstile -> worker -> Turnstile with nothing in flight: the
    Turnstile's wait on its inputs is a blocked read like the worker's,
    so the monitor names the deadlock instead of the run timing out."""
    net = Network(name="tcycle", backend=backend)
    pairs, results, idx = net.channels_n(3, prefix="tc")
    net.add(Turnstile([results.get_input_stream()], pairs.get_output_stream(),
                      idx.get_output_stream(), name="turnstile"))
    net.add(MapProcess(pairs.get_input_stream(), results.get_output_stream(),
                       lambda pair: pair[1], codec=OBJECT, name="worker"))
    net.add(Collect(idx.get_input_stream(), [], codec=INT, name="indices"))
    start = time.monotonic()
    with pytest.raises(TrueDeadlockError) as info:
        net.run(timeout=3)
    assert time.monotonic() - start < 2
    assert "turnstile" in info.value.blocked


class Bystander(IterativeProcess):
    """Live, and waiting on an event rather than a channel."""

    kpn_async = False

    def __init__(self, go, **kw):
        super().__init__(iterations=1, **kw)
        self.go = go

    def step(self):
        assert self.go.wait(10)


def test_a_waiting_turnstile_is_listed_as_blocked_reading():
    net = Network(name="tsnap")
    a, b = net.channel(name="ts-a"), net.channel(name="ts-b")
    pairs, idx = net.channels_n(2, prefix="ts-out")
    go, got = threading.Event(), []
    net.add(Turnstile([a.get_input_stream(), b.get_input_stream()],
                      pairs.get_output_stream(), idx.get_output_stream(),
                      name="turnstile"))
    net.add(Collect(pairs.get_input_stream(), got, codec=OBJECT, name="pairs"))
    net.add(Collect(idx.get_input_stream(), [], codec=INT, name="indices"))
    net.add(Bystander(go, name="bystander"))
    net.start()
    deadline = time.monotonic() + 5
    entry = None
    while entry is None and time.monotonic() < deadline:
        entry = next((e for e in net.wait_snapshot()["blocked"]
                      if e["thread"] == "turnstile"), None)
        time.sleep(0.005)
    assert entry is not None, "the waiting Turnstile is not listed"
    assert (entry["mode"], entry["channel"]) == ("read", "ts-a")
    OBJECT.write(b.get_output_stream(), "r")
    for ch in (a, b):
        ch.get_output_stream().close()
    go.set()
    assert net.join(timeout=10)
    assert got == [(1, "r")]


def test_select_resequences_to_dispatch_order():
    """Completion order 1,0 for dispatches 0,1 must still emit dispatch 0
    first."""
    net = Network()
    pairs, out_ch = net.channels_n(2)
    out = []
    # 2 workers; initial dispatches: 0->w0, 1->w1.  Completions arrive
    # w1 first (result "b" = dispatch 1), then w0 ("a" = dispatch 0).
    net.add(FromIterable(pairs.get_output_stream(),
                         [(1, "b"), (0, "a")], codec=OBJECT))
    net.add(Select(pairs.get_input_stream(), out_ch.get_output_stream(), 2))
    net.add(Collect(out_ch.get_input_stream(), out, codec=OBJECT))
    net.run(timeout=30)
    assert out == ["a", "b"]


def test_select_interleaved_requeue():
    """Indices also extend the dispatch order: completion k dispatches
    k+N to that worker."""
    net = Network()
    pairs, out_ch = net.channels_n(2)
    out = []
    # N=2. dispatch order starts [0,1].  Completions:
    #   (0,"a0") -> dispatch 2 goes to w0; order [0,1,0]
    #   (0,"a1") -> dispatch 3 to w0; order [0,1,0,0]
    #   (1,"b0") -> dispatch 4 to w1
    # results by dispatch: 0:"a0", 1:"b0", 2:"a1"
    net.add(FromIterable(pairs.get_output_stream(),
                         [(0, "a0"), (0, "a1"), (1, "b0")], codec=OBJECT))
    net.add(Select(pairs.get_input_stream(), out_ch.get_output_stream(), 2))
    net.add(Collect(out_ch.get_input_stream(), out, codec=OBJECT))
    net.run(timeout=30)
    assert out == ["a0", "b0", "a1"]


def test_select_flushes_pending_at_eof():
    net = Network()
    pairs, out_ch = net.channels_n(2)
    out = []
    net.add(FromIterable(pairs.get_output_stream(),
                         [(1, "late"), (1, "later"), (0, "first")],
                         codec=OBJECT))
    net.add(Select(pairs.get_input_stream(), out_ch.get_output_stream(), 2))
    net.add(Collect(out_ch.get_input_stream(), out, codec=OBJECT))
    net.run(timeout=30)
    assert out == ["first", "late", "later"]
