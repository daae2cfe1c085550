"""Cluster convenience layer: spin up servers, partition graphs, run.

The paper's deployment story — "a collection of servers at our disposal
... part of a local cluster, or ... dispersed across the Internet" —
reduced to two ergonomic entry points:

* :class:`LocalCluster` — a registry plus N compute servers, either
  in-process (``mode="thread"``: fast, used by the test suite) or as
  separate OS processes (``mode="process"``: true parallelism, since each
  server owns its own interpreter and GIL).
* :func:`run_partitioned` — the Figure 14/15 workflow: build composites
  on the client, ship each to a server (channel links self-assemble
  during serialization), run the local remainder, wait for completion.
"""

from __future__ import annotations

import collections
import subprocess
import sys
import threading
from typing import Dict, List, Optional, Sequence

from repro.config import RunConfig
from repro.errors import RemoteError
from repro.kpn.network import Network
from repro.kpn.process import Process
from repro.distributed.registry import RegistryClient, RegistryServer
from repro.distributed.server import ComputeServer, ServerClient

__all__ = ["LocalCluster", "run_partitioned"]


class LocalCluster:
    """A registry and N compute servers on this machine.

    ``mode="thread"`` hosts everything in this interpreter — ideal for
    tests and for exercising the full network protocol without process
    startup cost.  ``mode="process"`` launches each server with
    ``python -m repro.distributed`` so workers truly run in
    parallel (separate GILs), which is what the real-execution benchmark
    uses.

    ``config`` (a :class:`~repro.config.RunConfig`), settled when the
    cluster starts, reaches every server: thread-mode servers get the
    object, process-mode servers its ``argv()``.  Its telemetry and
    profile switches reach process-mode servers only, which is what
    :meth:`merged_trace` and :meth:`merged_profile` need.  Thread-mode
    servers share this interpreter's hub and profiler (enable those
    directly), and their hosted Workers with no executor spec follow the
    interpreter's process config, as they follow its hub, not the
    cluster's executor.
    """

    def __init__(self, n_servers: int = 2, mode: str = "thread",
                 name_prefix: str = "server",
                 config: Optional[RunConfig] = None) -> None:
        if mode not in ("thread", "process"):
            raise ValueError("mode must be 'thread' or 'process'")
        self.mode = mode
        self.n_servers = n_servers
        self.name_prefix = name_prefix
        self.config = config or RunConfig()
        self.registry_server: Optional[RegistryServer] = None
        self.registry: Optional[RegistryClient] = None
        self._servers: List[ComputeServer] = []
        self._procs: List[subprocess.Popen] = []
        self.clients: List[ServerClient] = []
        self.names: List[str] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "LocalCluster":
        self.config = RunConfig.resolve(self.config)
        try:
            self.registry_server = RegistryServer().start()
            registry = ("127.0.0.1", self.registry_server.port)
            self.registry = RegistryClient(*registry)
            for i in range(self.n_servers):
                name = f"{self.name_prefix}-{i}"
                self.names.append(name)
                if self.mode == "thread":
                    server = ComputeServer(name=name, config=self.config,
                                           registry=registry).start()
                    self._servers.append(server)
                    self.clients.append(ServerClient("127.0.0.1", server.port))
                else:
                    self._spawn_process_server(name)
        except BaseException:
            # a failed __enter__ gets no __exit__: stop what did start
            self.stop()
            raise
        return self

    def _spawn_process_server(self, name: str) -> None:
        argv = [sys.executable, "-m", "repro.distributed",
                "--name", name, "--port", "0",
                "--registry", f"127.0.0.1:{self.registry_server.port}",
                *self.config.argv()]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        self._procs.append(proc)
        # the server announces "SERVER <name> LISTENING <port>"; what it
        # writes before that (stderr shares the pipe) says why it did not
        tail: collections.deque = collections.deque(maxlen=20)
        for line in proc.stdout:
            parts = line.split()
            if len(parts) >= 4 and parts[0] == "SERVER":
                break
            tail.append(line)
        else:
            proc.stdout.close()
            raise RemoteError(f"server {name} failed to start (exit code "
                              f"{proc.wait(timeout=5)}): " + "".join(tail))
        threading.Thread(target=_drain, args=(proc.stdout,),
                         daemon=True).start()
        self.clients.append(ServerClient("127.0.0.1", int(parts[3])))

    def stop(self) -> None:
        for client in self.clients:
            try:
                client.shutdown()
                client.close()
            except Exception:
                pass
        for server in self._servers:
            server.stop()
        for proc in self._procs:
            try:
                proc.terminate()
                proc.wait(timeout=5)
            except Exception:
                proc.kill()
        if self.registry_server is not None:
            self.registry_server.stop()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- helpers ---------------------------------------------------------------
    def client(self, i: int) -> ServerClient:
        return self.clients[i]

    def ping_all(self) -> List[str]:
        return [c.ping() for c in self.clients]

    def stats(self) -> Dict[str, dict]:
        return {name: c.stats() for name, c in zip(self.names, self.clients)}

    def metrics(self) -> Dict[str, dict]:
        """Per-server telemetry snapshots (the ``metrics`` op, fanned out)."""
        return {name: c.metrics()
                for name, c in zip(self.names, self.clients)}

    def merged_metrics(self) -> Dict[str, float]:
        """Cluster-wide counter totals, summed across servers.

        The metrics analogue of the deadlock monitor aggregating its
        sites' ``wait_snapshot`` replies.  Note that ``mode="thread"``
        servers share one interpreter-wide hub, so their per-server
        snapshots coincide; real aggregation happens in
        ``mode="process"`` (one hub per OS process).
        """
        from repro.telemetry.export import merge_counters

        per_server = self.metrics()
        if self.mode == "thread":
            # all thread-mode servers read the same hub: don't double-count
            per_server = dict(list(per_server.items())[:1])
        return merge_counters(m["counters"] for m in per_server.values())

    def profiles(self) -> Dict[str, Optional[dict]]:
        """Per-server profiler snapshots (from the ``metrics`` op fan-out).

        ``None`` for servers whose profiler is off.
        """
        return {name: c.metrics().get("profile")
                for name, c in zip(self.names, self.clients)}

    def merged_profile(self) -> dict:
        """One cluster-wide blocked-time attribution.

        Fetches every server's profiler snapshot and merges them with
        :func:`repro.telemetry.profile.merge_profiles`.  Snapshots are
        deduplicated by pid — thread-mode servers share one interpreter's
        profiler, so their snapshots coincide and only one copy
        contributes.  Feed the result to :func:`~repro.telemetry.profile.analyze`
        for a cluster-wide bottleneck report.
        """
        from repro.telemetry.profile import merge_profiles

        per_node: Dict[str, dict] = {}
        seen_pids: set = set()
        for name, snap in self.profiles().items():
            if not snap or snap["pid"] in seen_pids:
                continue
            seen_pids.add(snap["pid"])
            per_node[snap.get("node") or name] = snap
        return merge_profiles(per_node)

    # -- cluster-causal tracing ---------------------------------------------
    def merged_trace(self, path: Optional[str] = None,
                     probes: int = 5) -> dict:
        """One causally-linked, time-aligned trace for the whole cluster.

        Fetches every server's event buffer (the ``trace`` op), estimates
        each server's clock offset over the ping op, and renders one
        Chrome trace document with one process lane per node — the local
        client first, at offset zero.  Nodes sharing this interpreter's
        hub (thread-mode servers) are deduplicated by pid, so the client
        lane already carries their events.  ``path`` writes the JSON
        there too.
        """
        import json
        import os

        from repro.telemetry.core import TELEMETRY
        from repro.telemetry.distributed import (event_to_dict,
                                                 merge_node_traces)

        nodes = [{"name": f"client:{TELEMETRY.node}",
                  "offset": 0.0,
                  "events": [event_to_dict(e) for e in TELEMETRY.events()]}]
        seen_pids = {os.getpid()}
        for name, client in zip(self.names, self.clients):
            estimate = client.clock_offset(probes=probes)
            reply = client.trace()
            if reply.get("pid") in seen_pids:
                continue  # shares a hub with an already-collected lane
            seen_pids.add(reply.get("pid"))
            nodes.append({"name": reply.get("node") or name,
                          "offset": estimate.offset,
                          "events": reply.get("events", [])})
        doc = merge_node_traces(nodes)
        if path:
            with open(path, "w") as fh:
                json.dump(doc, fh)
        return doc


def _drain(pipe) -> None:
    """Read a server's output to its end: a chatty server never blocks."""
    with pipe:
        collections.deque(pipe, maxlen=0)


def run_partitioned(local_part: Optional[Process],
                    remote_parts: Sequence[Process],
                    cluster: LocalCluster,
                    network: Optional[Network] = None,
                    timeout: Optional[float] = 120.0) -> Network:
    """The Figure 14/15 workflow.

    Build the whole graph on this machine, pass the composites to ship in
    ``remote_parts`` (each goes to the corresponding cluster server), keep
    ``local_part`` here, then start everything.  Channel connections
    between servers are established automatically while the composites
    serialize — the caller never touches a socket.

    Ships remote parts *in order* before starting the local part, matching
    the paper's staging; returns the local network after joining it.  A
    part may read a channel the previous part writes: re-migrating that
    end waits for the previous link to connect, so no pause is needed.
    Each server becomes a site of ``network``, whose deadlock monitor
    then decides stalls across all of them.

    When no ``network`` is supplied, the local partition runs on the
    cluster's scheduler backend — remote parts already do, on their
    servers' hosted networks.
    """
    net = network or Network(name="partitioned",
                             backend=cluster.config.backend)
    for i, part in enumerate(remote_parts):
        cluster.client(i % len(cluster.clients)).run(part)
    if local_part is not None:
        net.add(local_part)
    net.run(timeout=timeout)
    return net
