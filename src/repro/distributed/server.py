"""Generic compute server (paper section 4.1).

"To support distributed computing, we have implemented a generic compute
server that is accessible via Remote Method Invocation."  Ours is a small
TCP server with the same two-method interface:

* ``run(runnable)`` — ship a Process/Runnable, return immediately; the
  server executes it in its own hosted network (one thread per process,
  deadlock monitor and all).
* ``call(task)`` — ship a Task, block until its ``run()`` result comes
  back (exceptions return as :class:`~repro.errors.RemoteError` with the
  remote traceback).

Payloads travel through the source-shipping migration pickler, so channel
endpoints become socket links automatically (section 4.2) and classes
defined in the client's ``__main__`` work without pre-installing code on
the servers (section 6.2).

In-process (tests)::

    server = ComputeServer(name="alpha").start()
    client = ServerClient("127.0.0.1", server.port)
    client.run(my_composite_process)

Standalone (real parallelism across OS processes)::

    python -m repro.distributed.server --name alpha --port 9001
"""

from __future__ import annotations

import argparse
import os
import threading
import time
from typing import Any, List, Optional

from repro.errors import RemoteError
from repro.kpn.network import BACKENDS, Network
from repro.kpn.process import Process
from repro.distributed.codebase import SourceShippingPickler, dumps_shipped
from repro.distributed.migration import loads_migration
from repro.distributed.registry import RegistryClient
from repro.distributed.wire import (OutOfBand, RequestClient, RequestServer,
                                    advertised_host, connect_with_retry)
from repro.telemetry.core import TELEMETRY as _telemetry
from repro.telemetry.profile import PROFILER as _profiler
from repro.telemetry.clock import ProbeSample, estimate_offset
from repro.telemetry.distributed import (TraceContext, activate,
                                         current_context, event_to_dict)

__all__ = ["ComputeServer", "ServerClient", "Runnable", "add_server_arguments",
           "serve"]


class Runnable:
    """Anything with a no-argument ``run`` method (tasks and processes)."""

    def run(self):  # pragma: no cover - interface
        raise NotImplementedError


class ComputeServer(RequestServer):
    """Hosts migrated processes and executes shipped tasks.

    Parameters
    ----------
    port:
        TCP port (0 = ephemeral).
    name:
        Server name, registered with the registry when one is given.
    registry:
        Optional ``(host, port)`` of a :class:`RegistryServer`.
    """

    def __init__(self, port: int = 0, name: str = "server",
                 registry: Optional[tuple[str, int]] = None,
                 executor: Any = None,
                 backend: Optional[str] = None) -> None:
        # replies go through the shipping pickler: results built from
        # shipped classes return to the client by source
        super().__init__(port, name, SourceShippingPickler)
        #: compute backend spec for shipped ``call`` tasks (resolved lazily
        #: so servers that never execute tasks never build a pool)
        self.executor = executor
        self._exec: Any = None
        #: network hosting every process migrated to this server;
        #: ``backend`` picks its scheduler (None: REPRO_BACKEND or thread)
        self.network = Network(name=f"{name}-net",
                               backend=backend).ensure_running()
        self._registry_client: Optional[RegistryClient] = None
        if registry is not None:
            self._registry_client = RegistryClient(*registry)
        #: count of run/call requests served (stats)
        self.tasks_run = 0
        self.processes_hosted = 0
        self.started_at = time.monotonic()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ComputeServer":
        super().start()
        if self._registry_client is not None:
            self._registry_client.register(self.name, advertised_host(), self.port)
        return self

    def stop(self) -> None:
        if self._registry_client is not None:
            try:
                self._registry_client.unregister(self.name)
            except Exception:
                pass
        super().stop()
        self.network.shutdown()

    # -- the dispatch table ------------------------------------------------------
    def _dispatch(self, request: dict) -> dict:
        if not _telemetry.enabled:
            return self._dispatch_inner(request)
        # The connection thread adopted the sender's trace context when
        # the serve loop unpickled the envelope: the execute span continues
        # the dispatching trace, and the flow-end event draws the arrow
        # from the client's send span into this lane.
        ctx = current_context()
        _telemetry.begin("rpc.execute", category="dist.rpc",
                         op=request.get("op"), server=self.name,
                         trace=ctx.trace_id if ctx else None)
        if ctx is not None:
            _telemetry.flow("f", "rpc", category="dist.rpc",
                            flow_id=ctx.flow_id)
        try:
            return self._dispatch_inner(request)
        finally:
            _telemetry.end("rpc.execute", category="dist.rpc")

    @staticmethod
    def _payload(request: dict):
        """The request's shipped-pickle bytes (unwrapping zero-copy frames)."""
        payload = request["payload"]
        return payload.data if isinstance(payload, OutOfBand) else payload

    def _dispatch_inner(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            # hub_now is the clock-alignment epoch exchange: clients
            # time this round trip to estimate our clock offset.
            return {"ok": True, "name": self.name,
                    "hub_now": _telemetry.now()}
        if op == "run":
            target = loads_migration(self._payload(request),
                                     network=self.network)
            self._run_async(target)
            return {"ok": True}
        if op == "call":
            target = loads_migration(self._payload(request),
                                     network=self.network)
            self.tasks_run += 1
            return {"ok": True, "result": self._executor().run_task(target)}
        if op == "wait_snapshot":
            return {"ok": True, "snapshot": self.network.wait_snapshot()}
        if op == "grow_channel":
            grown = self.network.grow_channel(
                request["channel"], request["capacity"],
                request.get("process", ""))
            return {"ok": True, "grown": grown}
        if op == "stats":
            failures = [
                {"process": p.name, "error": repr(p.failure)}
                for p in self.network.processes if p.failure is not None
            ]
            return {"ok": True, "name": self.name,
                    "backend": self.network.backend,
                    "tasks_run": self.tasks_run,
                    "processes_hosted": self.processes_hosted,
                    "live_threads": self.network.live_count(),
                    "channels": len(self.network.channels),
                    "uptime_seconds": time.monotonic() - self.started_at,
                    "telemetry_enabled": _telemetry.enabled,
                    "executor": self._executor_stats(),
                    "failures": failures}
        if op == "metrics":
            # Telemetry counterpart of wait_snapshot: one server's
            # share of a cluster-wide metrics aggregation.  The hub is
            # process-wide, so thread-mode clusters (several servers in
            # one interpreter) see the interpreter's combined counters.
            profile = (_profiler.snapshot(network=self.network)
                       if _profiler.enabled else None)
            return {"ok": True, "name": self.name,
                    "telemetry_enabled": _telemetry.enabled,
                    "counters": _telemetry.counters(),
                    "histograms": _telemetry.histogram_snapshots(),
                    "gauges": _telemetry.gauges(),
                    "profile": profile,
                    "events_emitted": _telemetry.events_emitted,
                    "tasks_run": self.tasks_run,
                    "processes_hosted": self.processes_hosted,
                    "live_threads": self.network.live_count(),
                    "channels": len(self.network.channels)}
        if op == "trace":
            # One node's share of the cluster trace: the event ring on
            # this hub's clock, plus identity (pid dedupes thread-mode
            # servers that share one interpreter hub) and hub_now so
            # the collector can sanity-check its offset estimate.
            return {"ok": True, "name": self.name,
                    "node": _telemetry.node, "pid": os.getpid(),
                    "hub_now": _telemetry.now(),
                    "telemetry_enabled": _telemetry.enabled,
                    "events": [event_to_dict(e)
                               for e in _telemetry.events()]}
        if op == "shutdown":
            threading.Thread(target=self.stop, daemon=True).start()
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _executor(self):
        """The server's compute backend, resolved on first use.

        Hosted Workers resolve their own specs; this one covers shipped
        ``call`` tasks, so a whole server — hub plus any number of hosted
        runnables — shares the one per-host pool.
        """
        if self._exec is None:
            from repro.parallel.executor import resolve_executor

            self._exec = resolve_executor(self.executor)
        return self._exec

    def _executor_stats(self) -> dict:
        if self._exec is None:
            spec = self.executor
            kind = spec if isinstance(spec, str) else getattr(
                spec, "kind", None)
            return {"kind": kind, "resolved": False}
        return {**self._exec.stats(), "resolved": True}

    def _run_async(self, target: Any) -> None:
        self.processes_hosted += 1
        if isinstance(target, Process):
            self.network.spawn(target)
        elif callable(getattr(target, "run", None)):
            # the dispatching trace follows the runnable into its thread
            ctx = current_context()

            def _run() -> None:
                with activate(ctx):
                    if _telemetry.enabled:
                        with _telemetry.span(
                                "task.run", category="dist.rpc",
                                server=self.name,
                                trace=ctx.trace_id if ctx else None):
                            target.run()
                    else:
                        target.run()

            threading.Thread(target=_run, name=f"{self.name}-runnable",
                             daemon=True).start()
        else:
            raise TypeError(f"cannot run {type(target).__name__}: no run()")


class ServerClient(RequestClient):
    """Client stub for a :class:`ComputeServer` (the RMI stub analogue)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        super().__init__(lambda: connect_with_retry(host, port), RemoteError,
                         f"server {host}:{port}", SourceShippingPickler)

    @classmethod
    def from_registry(cls, registry: RegistryClient, name: str) -> "ServerClient":
        host, port = registry.lookup(name)
        return cls(host, port)

    def request(self, payload: dict) -> dict:
        if not _telemetry.enabled:
            return super().request(payload)
        # Continue the caller's trace (or root a new one), bracket the
        # round trip in a send span, and open a flow: the server's
        # execute span ends it, so the merged trace draws an arrow
        # from this lane into the server's.
        parent = current_context()
        ctx = parent.child() if parent is not None else TraceContext.new_root()
        with activate(ctx):
            _telemetry.begin("rpc.send", category="dist.rpc",
                             op=payload.get("op"),
                             server=f"{self.host}:{self.port}",
                             trace=ctx.trace_id)
            _telemetry.flow("s", "rpc", category="dist.rpc",
                            flow_id=ctx.flow_id)
            try:
                return super().request(payload)
            finally:
                _telemetry.end("rpc.send", category="dist.rpc")

    # -- the Server interface (section 4.1) ---------------------------------
    def ping(self) -> str:
        return self.request({"op": "ping"})["name"]

    def run(self, target: Any) -> None:
        """``void run(Runnable)``: ship and return immediately."""
        self.request({"op": "run",
                       "payload": OutOfBand(dumps_shipped(target))})

    def call(self, task: Any) -> Any:
        """``Object run(Task)``: ship, execute, return the result."""
        return self.request({"op": "call",
                              "payload": OutOfBand(dumps_shipped(task))})["result"]

    def wait_snapshot(self) -> dict:
        """Per-server blocking snapshot (distributed deadlock detection)."""
        return self.request({"op": "wait_snapshot"})["snapshot"]

    def grow_channel(self, channel: str, capacity: int,
                     process: str = "") -> bool:
        """Grow a channel buffer on the remote server by name (see
        :meth:`repro.kpn.network.Network.grow_channel`)."""
        return self.request({"op": "grow_channel", "channel": channel,
                              "capacity": capacity,
                              "process": process})["grown"]

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def metrics(self) -> dict:
        """The server's telemetry snapshot (counters + hub status)."""
        return self.request({"op": "metrics"})

    def trace(self) -> dict:
        """The server's event buffer on its own hub clock (``trace`` op)."""
        return self.request({"op": "trace"})

    def clock_probe(self) -> ProbeSample:
        """One NTP-style probe: time a ping, note the server's hub clock."""
        sent = _telemetry.now()
        reply = self.request({"op": "ping"})
        received = _telemetry.now()
        return ProbeSample(sent=sent, remote=reply.get("hub_now", 0.0),
                           received=received)

    def clock_offset(self, probes: int = 5):
        """Estimate this server's hub-clock offset from ours.

        Returns an :class:`~repro.telemetry.clock.OffsetEstimate`; adding
        its ``offset`` to the server's event timestamps lands them on the
        local hub's timeline (the merged-trace alignment step).
        """
        return estimate_offset(self.clock_probe() for _ in range(probes))

    def shutdown(self) -> None:
        try:
            self.request({"op": "shutdown"})
        except Exception:
            pass


def add_server_arguments(parser: argparse.ArgumentParser) -> None:
    """The compute server's options: the one spelling, shared by ``python
    -m repro.distributed.server`` and ``repro server``."""
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--name", default="server")
    parser.add_argument("--registry", default=None,
                        help="host:port of a registry server")
    parser.add_argument("--advertise", default=None,
                        help="host other servers should dial back")
    parser.add_argument("--telemetry", action="store_true",
                        help="enable the telemetry hub (also: REPRO_TELEMETRY=1)")
    parser.add_argument("--profile", action="store_true",
                        help="enable the continuous KPN profiler — implies "
                             "--telemetry (also: REPRO_PROFILE=1)")
    # spelled out, not imported: repro.parallel pulls numpy into a process
    # that may never run a task (setup time and resident memory)
    parser.add_argument("--executor", default=None,
                        choices=("inline", "process"),
                        help="compute backend for shipped tasks and hosted "
                             "workers (also: REPRO_EXECUTOR)")
    parser.add_argument("--pool-size", type=int, default=None,
                        help="process pool width (also: REPRO_POOL_SIZE;"
                             " default: CPU count)")
    parser.add_argument("--backend", default=None, choices=BACKENDS,
                        help="scheduler backend for the hosted network "
                             "(also: REPRO_BACKEND; default thread)")


def main(argv: Optional[List[str]] = None) -> None:  # pragma: no cover
    parser = argparse.ArgumentParser(description="repro compute server")
    add_server_arguments(parser)
    serve(parser.parse_args(argv))


def serve(args: argparse.Namespace) -> None:  # pragma: no cover
    """Run a compute server configured by parsed
    :func:`add_server_arguments` options, until the process is killed."""
    if args.telemetry:
        _telemetry.enable()
    if args.profile:
        _profiler.enable()
    if args.executor:
        # env, not a constructor arg: hosted Workers resolve their specs
        # against this process's environment, and both paths must agree
        os.environ["REPRO_EXECUTOR"] = args.executor
    if args.pool_size is not None:
        os.environ["REPRO_POOL_SIZE"] = str(args.pool_size)
    # one server per process in standalone mode: name its trace lane
    _telemetry.node = args.name
    if args.advertise:
        from repro.distributed.wire import set_advertised_host

        set_advertised_host(args.advertise)
    registry = None
    if args.registry:
        host, _, port = args.registry.partition(":")
        registry = (host, int(port))
    server = ComputeServer(port=args.port, name=args.name,
                           registry=registry, backend=args.backend).start()
    print(f"SERVER {args.name} LISTENING {server.port}", flush=True)
    threading.Event().wait()


if __name__ == "__main__":  # pragma: no cover
    main()
