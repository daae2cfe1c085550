"""The multicore compute plane: executor resolution, the process pool's
frame protocol and crash-retry contract, and farm integration.

Pool tests run real child interpreters; they use size-1/2 pools to keep
CI cheap and are spawn-safe (children are fresh ``python -m`` processes,
so nothing here depends on pytest state — these tests pass under
``-p no:cacheprovider`` too, which the CI smoke job uses).
"""

import os
import time

import pytest

from repro.errors import RemoteError
from repro.parallel.executor import (EXECUTOR_KINDS, InlineExecutor,
                                     ProcessPool, TaskExecutor,
                                     default_pool_size, resolve_executor,
                                     shared_executor)
from repro.parallel.tasks import CallableTask, RangeProducerTask
from repro.parallel.farm import run_farm
from repro.telemetry.core import TELEMETRY


def square_producer(n):
    return RangeProducerTask(n, lambda i: CallableTask(pow, i, 2))


# ---------------------------------------------------------------------------
# spec resolution and env knobs
# ---------------------------------------------------------------------------

def test_resolve_default_is_inline():
    assert resolve_executor(None).kind == "inline"
    assert resolve_executor("inline") is resolve_executor(None)


def test_resolve_env_knob(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "process")
    assert resolve_executor(None).kind == "process"
    monkeypatch.setenv("REPRO_EXECUTOR", "bogus")
    with pytest.raises(ValueError, match="bogus"):
        resolve_executor(None)


def test_resolve_instance_passthrough():
    ex = InlineExecutor()
    assert resolve_executor(ex) is ex


def test_shared_executors_are_singletons():
    a = shared_executor("process", size=1)
    b = shared_executor("process", size=99)  # size ignored after creation
    assert a is b and isinstance(a, ProcessPool)


def test_pool_size_env(monkeypatch):
    monkeypatch.setenv("REPRO_POOL_SIZE", "3")
    assert default_pool_size() == 3
    monkeypatch.setenv("REPRO_POOL_SIZE", "0")
    with pytest.raises(ValueError):
        default_pool_size()
    monkeypatch.delenv("REPRO_POOL_SIZE")
    assert default_pool_size() == (os.cpu_count() or 1)


def test_inline_run_task():
    assert InlineExecutor().run_task(CallableTask(pow, 2, 10)) == 1024


# ---------------------------------------------------------------------------
# the process pool
# ---------------------------------------------------------------------------

@pytest.fixture
def pool():
    p = ProcessPool(size=2)
    yield p
    p.close()


def test_pool_round_trip(pool):
    assert pool.run_task(CallableTask(pow, 7, 3)) == 343
    futures = [pool.submit(CallableTask(pow, i, 2)) for i in range(2)]
    assert [f.result() for f in futures] == [0, 1]
    assert [pool.run_task(CallableTask(pow, i, 2)) for i in range(6)] \
        == [i * i for i in range(6)]
    stats = pool.stats()
    assert stats["kind"] == "process" and stats["tasks_completed"] == 9
    assert stats["respawns"] == 0 and stats["idle"] == 2


class _TripleTask:
    def __init__(self, x):
        self.x = x

    def run(self):
        return self.x * 3


def test_pool_ships_test_module_tasks(pool):
    # the source-shipping pickler carries this test module's classes to
    # the children without any pre-installed code (paper section 6.2)
    assert pool.run_task(_TripleTask(14)) == 42


def _boom():
    raise ValueError("kaboom")


def test_pool_error_propagates_as_remote_error(pool):
    with pytest.raises(RemoteError, match="kaboom") as info:
        pool.run_task(CallableTask(_boom))
    assert "Traceback" in str(info.value)  # remote traceback included
    # the child survives a task error: next task works
    assert pool.run_task(CallableTask(pow, 2, 2)) == 4


def test_pool_large_out_of_band_payload(pool):
    np = pytest.importorskip("numpy")
    arr = np.arange(1 << 16, dtype=np.float64)
    out = pool.run_task(CallableTask(np.multiply, arr, 2.0))
    assert out.dtype == arr.dtype and np.array_equal(out, arr * 2.0)


def _sentinel_task(sentinel):
    """Sleeps forever on the first run; returns fast once ``sentinel``
    exists — so a killed-and-retried execution is distinguishable."""
    import os
    import time

    if not os.path.exists(sentinel):
        time.sleep(120)
        return "first-run"
    return "retried"


def test_pool_survives_child_killed_mid_task(tmp_path):
    sentinel = str(tmp_path / "retry-sentinel")
    pool = ProcessPool(size=1)
    try:
        with TELEMETRY.enabled_scope():
            before = TELEMETRY.counter("parallel.pool_respawns")
            future = pool.submit(CallableTask(_sentinel_task, sentinel))
            time.sleep(0.5)  # let the child enter the task
            open(sentinel, "w").close()
            os.kill(pool.child_pids()[0], 9)
            assert future.result() == "retried"
            assert TELEMETRY.counter("parallel.pool_respawns") == before + 1
        assert pool.respawns == 1
        # the pool is fully serviceable afterwards
        assert pool.run_task(CallableTask(pow, 3, 3)) == 27
    finally:
        pool.close()


def test_pool_survives_child_killed_while_idle():
    pool = ProcessPool(size=1)
    try:
        assert pool.run_task(CallableTask(pow, 2, 3)) == 8
        os.kill(pool.child_pids()[0], 9)
        time.sleep(0.2)
        assert pool.run_task(CallableTask(pow, 2, 4)) == 16
        assert pool.respawns == 1
    finally:
        pool.close()


def test_pool_close_is_idempotent_and_kills_children():
    pool = ProcessPool(size=2)
    pids = pool.child_pids()
    pool.close()
    pool.close()
    for pid in pids:
        with pytest.raises(OSError):
            os.kill(pid, 0)  # ESRCH: child really gone


# ---------------------------------------------------------------------------
# farm integration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["inline", "process"])
def test_farm_equivalent_across_backends(backend):
    got = run_farm(square_producer(12), n_workers=2, mode="dynamic",
                   executor=backend, timeout=120)
    assert got == [i * i for i in range(12)]


def test_farm_with_explicit_pool_instance():
    pool = ProcessPool(size=1)
    try:
        got = run_farm(square_producer(6), n_workers=2, mode="static",
                       executor=pool, timeout=120)
        assert got == [i * i for i in range(6)]
        assert pool.stats()["tasks_completed"] == 6
    finally:
        pool.close()


def test_worker_getstate_drops_resolved_executor():
    from repro.kpn.channel import Channel
    from repro.parallel.generic import Worker

    ch_in, ch_out = Channel(64), Channel(64)
    w = Worker(ch_in.get_input_stream(), ch_out.get_output_stream(),
               executor=InlineExecutor())
    w.on_start()
    state = w.__getstate__()
    assert state["_exec"] is None
    # a live instance does not travel — its kind (a resolvable spec) does
    assert state["executor"] == "inline"
    w2 = Worker(ch_in.get_input_stream(), ch_out.get_output_stream(),
                executor="process")
    assert w2.__getstate__()["executor"] == "process"


def test_executor_kinds_constant():
    assert set(EXECUTOR_KINDS) == {"inline", "process"}
    assert isinstance(resolve_executor("inline"), TaskExecutor)
