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
subprocesses speaking a length-prefixed frame protocol over their
stdin/stdout pipes.  That is spawn-safe by construction (a fresh
interpreter imports this module; nothing ever re-imports the parent's
``__main__``), matches how :class:`~repro.distributed.cluster.LocalCluster`
launches compute servers, and lets a crashed child be respawned
individually.  Task and result transfer reuses the distributed layer's
machinery end to end: the :class:`SourceShippingPickler` (so tasks whose
classes live in the caller's ``__main__`` or a test module just work)
with pickle protocol-5 out-of-band buffer collection (so numpy blocks
and other large buffers ride behind the pickle stream, never copied
into it).

Crash semantics: if a child dies mid-task (OOM kill, segfault,
``os.kill`` in the tests), the pool respawns it and retries the task
**once** on the fresh child; a second failure raises
:class:`~repro.errors.RemoteError` to the submitting thread.  Respawns
are counted in the ``parallel.pool_respawns`` telemetry counter.

Selection: ``run_farm(..., executor="process")``, the ``REPRO_EXECUTOR``
environment variable (read where the worker actually *runs*, so a
Worker shipped to a compute server picks up that host's setting), and
``REPRO_POOL_SIZE`` for the pool width (default ``os.cpu_count()``).
One pool is shared per host: a :class:`~repro.distributed.server.ComputeServer`
hub and any number of hosted runnables submit to the same warm pool.
"""

from __future__ import annotations

import atexit
import io
import os
import pickle
import struct
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from typing import Any, List, Optional

from repro.errors import ChannelError, RemoteError
from repro.telemetry.core import TELEMETRY as _telemetry

__all__ = [
    "TaskExecutor", "InlineExecutor", "ProcessPool",
    "resolve_executor", "shared_executor", "shutdown_shared_executors",
    "default_pool_size", "EXECUTOR_KINDS",
]

#: the executor spec names ``resolve_executor`` accepts
EXECUTOR_KINDS = ("inline", "process")

_U32 = struct.Struct(">I")
_STATUS_OK = 0
_STATUS_TASK_ERROR = 1


def default_pool_size() -> int:
    """Pool width: ``REPRO_POOL_SIZE`` if set, else ``os.cpu_count()``."""
    env = os.environ.get("REPRO_POOL_SIZE", "").strip()
    if env:
        size = int(env)
        if size < 1:
            raise ValueError(f"REPRO_POOL_SIZE must be >= 1, got {size}")
        return size
    return os.cpu_count() or 1


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

    def result(self, timeout: Optional[float] = None) -> Any:
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
# task/result transfer (reuses the distributed serialization plane)
# ---------------------------------------------------------------------------

def _dumps_task(obj: Any) -> List[Any]:
    """Serialize for a pool child: source-shipping pickle + OOB buffers.

    Returns ``[pickle_bytes, raw_buffer, ...]`` — the protocol-5
    ``PickleBuffer`` views ride as separate frame parts, exactly like the
    RPC layer's ``OBJ_OOB`` frames, so large payloads are written to the
    pipe straight from their owning buffer.
    """
    from repro.distributed.codebase import SourceShippingPickler

    buffers: List[Any] = []

    def _collect(pb: pickle.PickleBuffer):
        try:
            buffers.append(pb.raw())
        except BufferError:        # non-contiguous: keep it in the stream
            return True
        return None

    buf = io.BytesIO()
    pickler = SourceShippingPickler(buf, buffer_callback=_collect)
    pickler.dump(obj)
    for action in pickler.post_actions:
        action()
    return [buf.getvalue(), *buffers]


def _loads_task(parts: List[bytes]) -> Any:
    from repro.distributed.migration import loads_migration

    return loads_migration(parts[0], buffers=parts[1:])


def _write_frame(fh, parts: List[Any], status: Optional[int] = None) -> None:
    header = bytearray()
    if status is not None:
        header.append(status)
    header += _U32.pack(len(parts))
    for p in parts:
        header += _U32.pack(len(p))
    fh.write(header)
    for p in parts:
        fh.write(p)
    fh.flush()


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if data is None or len(data) != n:
        raise EOFError("pool pipe closed")
    return data


def _read_frame(fh, with_status: bool = False):
    """Read one frame; returns ``None`` on clean EOF at a frame boundary."""
    first = fh.read(1)
    if not first:
        return None
    # without a status byte, ``first`` is already the nparts word's first
    # byte; with one, the whole 4-byte word is still unread
    status = first[0] if with_status else None
    rest = 4 if with_status else 3
    head = b"" if with_status else first
    (nparts,) = _U32.unpack(head + _read_exact(fh, rest))
    lens = _U32.iter_unpack(_read_exact(fh, 4 * nparts))
    parts = [_read_exact(fh, n) for (n,) in lens]
    return (status, parts) if with_status else parts


# ---------------------------------------------------------------------------
# the process pool
# ---------------------------------------------------------------------------

class _PoolChild:
    """One warm child interpreter and its pipe endpoints."""

    __slots__ = ("proc", "stdin", "stdout", "spawned_at")

    def __init__(self, proc: subprocess.Popen) -> None:
        self.proc = proc
        self.stdin = proc.stdin
        self.stdout = proc.stdout
        self.spawned_at = time.monotonic()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def kill(self) -> None:
        for closer in (self.stdin.close, self.stdout.close):
            try:
                closer()
            except OSError:
                pass
        try:
            self.proc.kill()
        except OSError:
            pass
        self.proc.wait()


class _PoolFuture:
    """Handle for one in-flight pool task; ``result()`` blocks the caller.

    The task was already sent to a dedicated child when this future was
    created; ``result()`` reads the child's reply, transparently
    respawning the child and retrying the task once if the child died.
    """

    __slots__ = ("_pool", "_child", "_parts", "_t0")

    def __init__(self, pool: "ProcessPool", child: _PoolChild,
                 parts: List[Any]) -> None:
        self._pool = pool
        self._child = child
        self._parts = parts
        self._t0 = time.perf_counter()

    def result(self, timeout: Optional[float] = None) -> Any:
        pool = self._pool
        child = self._child
        attempts_left = pool.max_retries
        while True:
            try:
                reply = _read_frame(child.stdout, with_status=True)
                if reply is None:
                    raise EOFError("pool child exited mid-task")
            except (EOFError, OSError, ValueError) as exc:
                child = pool._replace_crashed(child)
                if child is None:
                    raise ChannelError("process pool closed") from exc
                if attempts_left <= 0:
                    pool._checkin(child)
                    raise RemoteError(
                        f"pool task failed {pool.max_retries + 1} times: "
                        f"child died while executing it ({exc})") from exc
                attempts_left -= 1
                try:
                    _write_frame(child.stdin, self._parts)
                except OSError:
                    continue       # the fresh child died too: loop retries
                continue
            break
        pool._checkin(child)
        pool.tasks_completed += 1
        if _telemetry.enabled:
            _telemetry.inc("parallel.pool_tasks", 1, backend="process")
            _telemetry.observe("parallel.pool_exec_seconds",
                               time.perf_counter() - self._t0)
        status, parts = reply
        if status == _STATUS_TASK_ERROR:
            message, remote_tb = pickle.loads(parts[0])
            raise RemoteError(message, remote_tb)
        return _loads_task(parts)


class ProcessPool(TaskExecutor):
    """A host-wide pool of warm child interpreters executing tasks.

    Parameters
    ----------
    size:
        Number of children (default: ``REPRO_POOL_SIZE`` or CPU count).
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
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.parallel._pool_child"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=None,
            env=env)
        self.children_spawned += 1
        return _PoolChild(proc)

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
        parts = _dumps_task(task)
        while True:
            child = self._checkout()
            try:
                _write_frame(child.stdin, parts)
            except OSError:
                # child died while idle (e.g. killed between tasks):
                # replace it and try the next one — nothing ran yet, so
                # this is a respawn, not a task retry.
                fresh = self._replace_crashed(child)
                if fresh is None:
                    raise ChannelError("process pool closed")
                self._checkin(fresh)
                continue
            return _PoolFuture(self, child, parts)

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

def _child_serve() -> None:  # pragma: no cover - runs in subprocesses
    # Claim the stdout pipe for the frame protocol, then point fd 1 (and
    # sys.stdout) at stderr so a print() inside a task cannot corrupt it.
    proto_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    inp = os.fdopen(os.dup(0), "rb")
    while True:
        frame = _read_frame(inp)
        if frame is None:
            return
        try:
            task = _loads_task(frame)
            result = task.run()
            _write_frame(proto_out, _dumps_task(result), status=_STATUS_OK)
        except BaseException as exc:  # noqa: BLE001 - report to the parent
            payload = pickle.dumps(
                (f"{type(exc).__name__}: {exc}", traceback.format_exc()),
                protocol=pickle.HIGHEST_PROTOCOL)
            _write_frame(proto_out, [payload], status=_STATUS_TASK_ERROR)


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

    ``None`` consults ``REPRO_EXECUTOR`` (default ``"inline"``) *at call
    time*, i.e. on the host where the worker runs — a Worker shipped to a
    compute server resolves against that server's environment.  Strings
    name the shared per-host executors; an executor instance passes
    through (caller owns its lifecycle).
    """
    if isinstance(spec, TaskExecutor):
        return spec
    if spec is None:
        spec = os.environ.get("REPRO_EXECUTOR", "").strip() or "inline"
    if spec not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor {spec!r}; known: {EXECUTOR_KINDS}")
    return shared_executor(spec)


if __name__ == "__main__":  # pragma: no cover - child entry point
    _child_serve()
