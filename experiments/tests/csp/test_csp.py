"""CSP runtime: rendezvous, ALT, poison propagation, and the farm."""

import threading
import time

import pytest

from experiments.csp import (Alternation, CSPProcess, InlineCSP, ParallelCSP,
                             PoisonError, SyncChannel, csp_farm)
from repro.parallel import (CallableTask, FactorConsumerResult,
                            FactorProducerTask, RangeProducerTask,
                            make_weak_key, run_farm)


def start_thread(fn, *args) -> threading.Thread:
    t = threading.Thread(target=fn, args=args, daemon=True)
    t.start()
    return t


# ---------------------------------------------------------------------------
# SyncChannel rendezvous semantics
# ---------------------------------------------------------------------------

def test_rendezvous_transfers_value():
    ch = SyncChannel()
    got = []
    t = start_thread(lambda: got.append(ch.read()))
    ch.write(42)
    t.join(timeout=10)
    assert got == [42]


def test_write_blocks_until_read():
    ch = SyncChannel()
    done = threading.Event()

    def writer():
        ch.write("x")
        done.set()

    start_thread(writer)
    time.sleep(0.05)
    assert not done.is_set(), "write completed without a rendezvous"
    assert ch.read() == "x"
    assert done.wait(timeout=10)


def test_read_blocks_until_write():
    ch = SyncChannel()
    got = []
    t = start_thread(lambda: got.append(ch.read()))
    time.sleep(0.05)
    assert got == []
    ch.write(1)
    t.join(timeout=10)
    assert got == [1]


def test_fifo_order_across_rendezvous():
    ch = SyncChannel()
    got = []

    def reader():
        for _ in range(50):
            got.append(ch.read())

    t = start_thread(reader)
    for i in range(50):
        ch.write(i)
    t.join(timeout=10)
    assert got == list(range(50))
    assert ch.transfers == 50


# ---------------------------------------------------------------------------
# poison
# ---------------------------------------------------------------------------

def test_poison_wakes_blocked_reader():
    ch = SyncChannel()
    errors = []

    def reader():
        try:
            ch.read()
        except PoisonError as exc:
            errors.append(exc)

    t = start_thread(reader)
    time.sleep(0.05)
    ch.poison()
    t.join(timeout=10)
    assert len(errors) == 1


def test_poison_wakes_blocked_writer():
    ch = SyncChannel()
    errors = []

    def writer():
        try:
            ch.write(1)
        except PoisonError as exc:
            errors.append(exc)

    t = start_thread(writer)
    time.sleep(0.05)
    ch.poison()
    t.join(timeout=10)
    assert len(errors) == 1


def test_operations_after_poison_raise():
    ch = SyncChannel()
    ch.poison()
    with pytest.raises(PoisonError):
        ch.write(1)
    with pytest.raises(PoisonError):
        ch.read()
    ch.poison()  # idempotent


# ---------------------------------------------------------------------------
# Alternation
# ---------------------------------------------------------------------------

def test_alt_returns_ready_channel():
    a, b = SyncChannel("a"), SyncChannel("b")
    start_thread(lambda: b.write("bee"))
    time.sleep(0.05)
    alt = Alternation([a, b])
    assert alt.select(timeout=5) == 1
    assert b.read() == "bee"
    alt.close()


def test_alt_timeout():
    alt = Alternation([SyncChannel()])
    assert alt.select(timeout=0.05) is None
    alt.close()


def test_alt_fair_rotation():
    """Two always-ready channels must both get selected."""
    a, b = SyncChannel("a"), SyncChannel("b")

    def feeder(ch):
        try:
            for i in range(100):
                ch.write(i)
        except PoisonError:
            pass

    start_thread(feeder, a)
    start_thread(feeder, b)
    alt = Alternation([a, b])
    picks = []
    for _ in range(20):
        i = alt.select(timeout=5)
        picks.append(i)
        [a, b][i].read()
    assert set(picks) == {0, 1}
    a.poison()
    b.poison()
    alt.close()


def test_alt_sees_poison_as_ready():
    ch = SyncChannel()
    ch.poison()
    alt = Alternation([ch])
    assert alt.select(timeout=5) == 0
    alt.close()


def test_alt_requires_channels():
    with pytest.raises(ValueError):
        Alternation([])


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def test_parallel_pipeline():
    a, b = SyncChannel(), SyncChannel()
    out = []

    def source():
        for i in range(10):
            a.write(i)

    def double():
        while True:
            b.write(a.read() * 2)

    def sink():
        while True:
            out.append(b.read())

    network = ParallelCSP([
        InlineCSP(source, poisons=[a], name="src"),
        InlineCSP(double, poisons=[b], name="mid"),
        InlineCSP(sink, name="snk"),
    ])
    assert network.run(timeout=60)
    assert out == [2 * i for i in range(10)]


def test_process_failure_surfaces():
    def bad():
        raise RuntimeError("csp boom")

    with pytest.raises(RuntimeError, match="csp boom"):
        ParallelCSP([InlineCSP(bad)]).run(timeout=30)


def test_join_timeout_returns_false():
    stuck = SyncChannel()
    network = ParallelCSP([InlineCSP(lambda: stuck.read(), name="stuck")])
    network.start()
    assert network.join(timeout=0.1) is False
    stuck.poison()
    assert network.join(timeout=10)


# ---------------------------------------------------------------------------
# the farm, and KPN equivalence
# ---------------------------------------------------------------------------

def test_csp_farm_order_preserved():
    results = csp_farm(RangeProducerTask(25, lambda i: CallableTask(pow, i, 2)),
                       n_workers=4, timeout=120)
    assert results == [i * i for i in range(25)]


def test_csp_farm_early_stop():
    n, p, d = make_weak_key(bits=48, found_at_task=6, seed=13)
    results = csp_farm(FactorProducerTask(n, max_tasks=10 ** 6), n_workers=4,
                       stop_when=FactorConsumerResult.stop_when, timeout=120)
    assert results[-1].found and results[-1].p == p
    assert [r.task_index for r in results] == list(range(len(results)))


def test_csp_farm_matches_kpn_farm():
    n, p, d = make_weak_key(bits=48, found_at_task=4, seed=21)
    producer = lambda: FactorProducerTask(n, max_tasks=15)  # noqa: E731
    kpn = run_farm(producer(), n_workers=3, mode="dynamic", timeout=120)
    csp = csp_farm(producer(), n_workers=3, timeout=120)
    assert [(r.task_index, r.p, r.d) for r in kpn] == \
        [(r.task_index, r.p, r.d) for r in csp]


def test_csp_farm_single_worker():
    results = csp_farm(RangeProducerTask(8, lambda i: CallableTask(abs, -i)),
                       n_workers=1, timeout=120)
    assert results == list(range(8))


def test_csp_farm_zero_tasks():
    assert csp_farm(RangeProducerTask(0, CallableTask), n_workers=3,
                    timeout=60) == []


def test_csp_farm_with_slowdowns_balances_on_demand():
    producer = RangeProducerTask(30, lambda i: CallableTask(abs, i))
    tasks = SyncChannel  # silence linters

    # run via internals to inspect per-worker counts
    from experiments.csp import farm as F

    tasks_ch = F.SyncChannel()
    requests = [F.SyncChannel() for _ in range(3)]
    replies = [F.SyncChannel() for _ in range(3)]
    results = [F.SyncChannel() for _ in range(3)]
    out = []
    workers = [F._Worker(i, requests[i], replies[i], results[i],
                         slowdown=[0.0, 0.01, 0.01][i]) for i in range(3)]
    network = F.ParallelCSP([
        F._Producer(producer, tasks_ch),
        F._Distributor(tasks_ch, requests, replies),
        *workers,
        F._Collector(results, out, None, replies),
    ])
    assert network.run(timeout=120)
    assert out == list(range(30))
    counts = [w.tasks_processed for w in workers]
    assert counts[0] == max(counts)  # the fast worker took the most
