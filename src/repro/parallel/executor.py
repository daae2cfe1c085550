"""Multicore compute plane: pluggable executors for ``task.run()``.

The paper's farm experiments (Figures 19/20, Table 2) measure wall-clock
speedup across 34 CPUs.  In this reproduction every process is a Python
*thread*, so a farm's workers share one GIL and a CPU-bound workload
gains almost nothing from extra workers on one host — the network is
parallel, the compute is not.  This module separates the two concerns
the way PaPy-style pipelines do: **KPN semantics stay on threads**
(blocking reads, bounded buffers, cascading termination are untouched),
while the *compute* inside ``task.run()`` is delegated to a pluggable
executor:

* ``"inline"`` — run the task on the worker's own thread (the original
  behaviour, and the default: zero new moving parts);
* ``"process"`` — run on a shared :class:`ProcessPool` of warm child
  interpreters, one per CPU by default.  The KPN worker thread blocks on
  the future while the compute sidesteps the GIL entirely.

The process pool deliberately does **not** use :mod:`multiprocessing`
workers: children are plain ``python -m repro.parallel._pool_child``
subprocesses, each on one end of a ``socket.socketpair()``.  That is
spawn-safe by construction (a fresh interpreter imports this module;
nothing ever re-imports the parent's ``__main__``), matches how
:class:`~repro.distributed.cluster.LocalCluster` launches compute
servers, and lets a crashed child be respawned individually.  A child is
the distributed layer's request/reply endpoint
(:func:`repro.distributed.wire.serve_connection`, the loop the registry
and the compute servers run) with a one-entry dispatch table — run the
task — and the pool holds a :class:`~repro.distributed.wire.RequestClient`
per child: tasks and results are the wire's ``OBJ``/``OBJ_OOB`` frames,
pickled by the :class:`SourceShippingPickler` (so tasks whose classes
live in the caller's ``__main__`` or a test module just work) with
protocol-5 out-of-band buffers (so numpy blocks ride behind the pickle
stream, never copied into it).  Pool traffic therefore counts in the
``wire.*`` telemetry counters, carries the trace-context envelope, and
is bound by ``wire.MAX_PAYLOAD``: a task over it is a ``FrameError`` from
``submit``, a result over it a ``RemoteError`` from ``result()``.

Crash semantics: if a child dies mid-task (OOM kill, segfault,
``os.kill`` in the tests), the pool respawns it and retries the task
**once** on the fresh child; a second failure raises
:class:`~repro.errors.RemoteError` to the submitting thread.  Respawns
are counted in the ``parallel.pool_respawns`` telemetry counter.

Selection: ``run_farm(..., executor="process")``, or the run
configuration's ``executor`` and ``pool_size`` (:mod:`repro.config`,
resolved where the worker actually *runs*, so a Worker shipped to a
compute server picks up that host's setting).
One pool is shared per host: a :class:`~repro.distributed.server.ComputeServer`
hub and any number of hosted runnables submit to the same warm pool.
"""

from __future__ import annotations

import atexit
import os
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, List, Optional

from repro.config import EXECUTOR_KINDS, RunConfig
from repro.errors import ChannelError, RemoteError
from repro.telemetry.core import TELEMETRY as _telemetry

__all__ = [
    "TaskExecutor", "InlineExecutor", "ProcessPool",
    "resolve_executor", "shared_executor", "shutdown_shared_executors",
    "default_pool_size", "EXECUTOR_KINDS",
]


def default_pool_size() -> int:
    """Pool width: the run configuration's ``pool_size``."""
    return RunConfig.resolve().pool_size


# ---------------------------------------------------------------------------
# the executor interface
# ---------------------------------------------------------------------------

class TaskExecutor:
    """Where a Worker's ``task.run()`` actually executes."""

    kind = "abstract"

    def run_task(self, task: Any) -> Any:
        """Execute ``task.run()`` and return its result (blocking)."""
        return self.submit(task).result()

    def submit(self, task: Any):
        """Start executing ``task``; returns an object with ``result()``."""
        raise NotImplementedError

    def stats(self) -> dict:
        return {"kind": self.kind}

    def close(self) -> None:
        """Release resources; idempotent."""


class _DoneFuture:
    """An already-resolved future (inline execution finished in submit)."""

    __slots__ = ("_value", "_error")

    def __init__(self, value: Any = None, error: Optional[BaseException] = None):
        self._value = value
        self._error = error

    def result(self) -> Any:
        if self._error is not None:
            raise self._error
        return self._value


class InlineExecutor(TaskExecutor):
    """Runs the task on the calling thread — the paper's original shape."""

    kind = "inline"

    def run_task(self, task: Any) -> Any:
        return task.run()

    def submit(self, task: Any) -> _DoneFuture:
        try:
            return _DoneFuture(task.run())
        except BaseException as exc:  # noqa: BLE001 - future carries it
            return _DoneFuture(error=exc)


# ---------------------------------------------------------------------------
# the process pool
# ---------------------------------------------------------------------------

class _PoolChild:
    """One warm child interpreter and the client of its endpoint."""

    __slots__ = ("proc", "rpc")

    def __init__(self, proc: subprocess.Popen, sock: socket.socket) -> None:
        from repro.distributed.codebase import SourceShippingPickler
        from repro.distributed.wire import RequestClient

        self.proc = proc
        self.rpc = RequestClient(lambda: sock, RemoteError,
                                 f"pool child {proc.pid}",
                                 SourceShippingPickler)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass
        self.proc.wait()
        self.rpc.close()


class _PoolFuture:
    """Handle for one in-flight pool task; ``result()`` blocks the caller.

    The task was already sent to a dedicated child when this future was
    created; ``result()`` reads the child's reply, transparently
    respawning the child and retrying the task once if the child died.
    """

    __slots__ = ("_pool", "_child", "_frame", "_t0")

    def __init__(self, pool: "ProcessPool", child: _PoolChild,
                 frame: tuple) -> None:
        self._pool = pool
        self._child = child
        self._frame = frame
        self._t0 = time.perf_counter()

    def result(self) -> Any:
        pool = self._pool
        child = self._child
        attempts_left = pool.max_retries
        try:
            while True:
                try:
                    reply = child.rpc.receive()
                    break
                except OSError as exc:
                    child = pool._replace_crashed(child)
                    if child is None:
                        raise ChannelError("process pool closed") from exc
                    if attempts_left <= 0:
                        raise RemoteError(
                            f"pool task failed {pool.max_retries + 1} times: "
                            f"child died while executing it ({exc})") from exc
                    attempts_left -= 1
                    try:
                        child.rpc.send(self._frame)
                    except OSError:
                        pass       # the fresh child died too: loop retries
        finally:
            # also when the reply would not unpickle: its frame was read
            # whole, the child is in step and can take the next task
            if child is not None:
                pool._checkin(child)
        pool.tasks_completed += 1
        if _telemetry.enabled:
            _telemetry.inc("parallel.pool_tasks", 1, backend="process")
            _telemetry.observe("parallel.pool_exec_seconds",
                               time.perf_counter() - self._t0)
        return child.rpc.check(reply)["result"]


class ProcessPool(TaskExecutor):
    """A host-wide pool of warm child interpreters executing tasks.

    Parameters
    ----------
    size:
        Number of children (default: :func:`default_pool_size`).
    max_retries:
        How many times a task whose child died is retried on a fresh
        child (default 1, per the crash-survival contract).
    """

    kind = "process"

    def __init__(self, size: Optional[int] = None, max_retries: int = 1) -> None:
        self.size = size or default_pool_size()
        self.max_retries = max_retries
        self.tasks_completed = 0
        self.respawns = 0
        self.children_spawned = 0
        self._closed = False
        self._cv = threading.Condition()
        self._idle: deque = deque()
        self._children: List[_PoolChild] = []
        for _ in range(self.size):      # warm start: pay spawn cost once
            child = self._spawn()
            self._children.append(child)
            self._idle.append(child)

    # -- child lifecycle ----------------------------------------------------
    def _spawn(self) -> _PoolChild:
        # make sure the child can import repro even when the parent added
        # it to sys.path programmatically (scripts, embedded use)
        import repro

        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        if pkg_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (pkg_root + os.pathsep + existing
                                 if existing else pkg_root)
        ours, theirs = socket.socketpair()
        with theirs:
            # fd 1 is the parent's stderr: whatever a task writes there
            # must not land in the parent's stdout, which may be a protocol
            # of its own (a server's LISTENING line, a benchmark's JSON)
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.parallel._pool_child",
                 str(theirs.fileno())],
                stdin=subprocess.DEVNULL, stdout=2, stderr=None,
                pass_fds=(theirs.fileno(),), env=env)
        self.children_spawned += 1
        return _PoolChild(proc, ours)

    def _replace_crashed(self, child: _PoolChild) -> Optional[_PoolChild]:
        """Reap a dead child and hand back a fresh one (None if closed)."""
        child.kill()
        with self._cv:
            if self._closed:
                return None
            try:
                self._children.remove(child)
            except ValueError:
                pass
            fresh = self._spawn()
            self._children.append(fresh)
        self.respawns += 1
        if _telemetry.enabled:
            _telemetry.inc("parallel.pool_respawns")
        return fresh

    def child_pids(self) -> List[int]:
        with self._cv:
            return [c.pid for c in self._children]

    # -- checkout/checkin ---------------------------------------------------
    def _checkout(self) -> _PoolChild:
        t0 = time.perf_counter()
        with self._cv:
            while not self._idle and not self._closed:
                self._cv.wait()
            if self._closed:
                raise ChannelError("process pool closed")
            child = self._idle.popleft()
        if _telemetry.enabled:
            _telemetry.observe("parallel.pool_wait_seconds",
                               time.perf_counter() - t0)
        return child

    def _checkin(self, child: _PoolChild) -> None:
        with self._cv:
            if self._closed or child not in self._children:
                return
            self._idle.append(child)
            self._cv.notify()

    # -- the executor interface ---------------------------------------------
    def submit(self, task: Any) -> _PoolFuture:
        from repro.distributed.codebase import SourceShippingPickler
        from repro.distributed.wire import encode_obj

        # pickled once: a retry after a crash resends these bytes
        frame = encode_obj(task, SourceShippingPickler)
        while True:
            child = self._checkout()
            try:
                child.rpc.send(frame)
            except OSError:
                # child died while idle (e.g. killed between tasks):
                # replace it and try the next one — nothing ran yet, so
                # this is a respawn, not a task retry.
                fresh = self._replace_crashed(child)
                if fresh is None:
                    raise ChannelError("process pool closed")
                self._checkin(fresh)
                continue
            return _PoolFuture(self, child, frame)

    def stats(self) -> dict:
        with self._cv:
            idle = len(self._idle)
            total = len(self._children)
        return {"kind": self.kind, "size": self.size,
                "busy": total - idle, "idle": idle,
                "tasks_completed": self.tasks_completed,
                "respawns": self.respawns,
                "children_spawned": self.children_spawned}

    def close(self) -> None:
        with self._cv:
            if self._closed:
                return
            self._closed = True
            children, self._children = self._children, []
            self._idle.clear()
            self._cv.notify_all()
        for child in children:
            child.kill()


# ---------------------------------------------------------------------------
# child main loop (``python -m repro.parallel._pool_child``)
# ---------------------------------------------------------------------------

def _child_serve(fd: int) -> None:  # pragma: no cover - runs in subprocesses
    from repro.distributed.codebase import SourceShippingPickler
    from repro.distributed.wire import serve_connection

    # a task's print() follows fd 1 to the parent's stderr, line by line:
    # block-buffered, it would be lost when the parent kills this child
    sys.stdout = sys.stderr
    serve_connection(socket.socket(fileno=fd),
                     lambda task: {"ok": True, "result": task.run()},
                     SourceShippingPickler)


# ---------------------------------------------------------------------------
# shared per-host executors and spec resolution
# ---------------------------------------------------------------------------

_shared_lock = threading.Lock()
_shared: dict = {}
_INLINE = InlineExecutor()


def shared_executor(kind: str, size: Optional[int] = None) -> TaskExecutor:
    """The host-wide executor of the given kind, created on first use.

    The pool is warm-started once and shared by every farm, hosted
    runnable, and compute-server hub in this interpreter; ``size`` only
    applies to the first call that actually creates it.
    """
    if kind == "inline":
        return _INLINE
    with _shared_lock:
        ex = _shared.get(kind)
        if ex is None:
            if kind != "process":
                raise ValueError(
                    f"unknown executor kind {kind!r}; known: {EXECUTOR_KINDS}")
            ex = _shared[kind] = ProcessPool(size)
        return ex


def shutdown_shared_executors() -> None:
    """Close and forget the shared process pool (idempotent)."""
    with _shared_lock:
        executors, _shared_state = list(_shared.values()), _shared.clear()
    for ex in executors:
        try:
            ex.close()
        except Exception:
            pass


atexit.register(shutdown_shared_executors)


def resolve_executor(spec: "str | TaskExecutor | None") -> TaskExecutor:
    """Resolve an executor spec to a live executor.

    ``None`` follows the run configuration *at call time*, i.e. on the
    host where the worker runs — a Worker shipped to a compute server
    resolves against that server's configuration.  Strings name the
    shared per-host executors, sized by the configuration's
    ``pool_size``; an executor instance passes through (caller owns its
    lifecycle).
    """
    if isinstance(spec, TaskExecutor):
        return spec
    config = RunConfig.resolve(executor=spec)
    return shared_executor(config.executor, config.pool_size)
