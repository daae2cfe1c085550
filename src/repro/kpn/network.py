"""Network: lifecycle management for a graph of processes and channels.

The paper constructs a graph, wraps it in a ``CompositeProcess`` and calls
``new Thread(p).start()`` (Figure 6).  :class:`Network` is the slightly
richer equivalent this library uses as its main entry point: it

* creates channels that share one blocked-thread accounting object;
* starts one actor (thread or task) per leaf process, including
  processes spawned dynamically by self-reconfiguring graphs, which
  inherit the network through :meth:`repro.kpn.process.Process.spawn`;
* runs the :class:`~repro.kpn.scheduler.DeadlockMonitor` implementing
  Parks' bounded scheduling, as the paper's runtime always does;
* joins everything and surfaces process failures and deadlock diagnoses;
* reads its own program graph (:meth:`topology`) for the analyses, the
  graph compiler and the exports (the paper's claim that default
  capacities suffice "for all programs with no *undirected* cycles" is
  checkable with :meth:`has_undirected_cycle`).

Typical use::

    net = Network()
    ch = net.channel()
    net.add(Sequence(ch.get_output_stream(), start=2, iterations=99))
    net.add(Collect(ch.get_input_stream(), out := []))
    net.run()          # start + join; raises on process failure
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, List, Optional

from repro.config import RunConfig
from repro.errors import DeadlockError
from repro.kpn.buffers import BlockAccounting, DEFAULT_CAPACITY, PARKS_CAUSES
from repro.kpn.channel import Channel
from repro.kpn.process import CompositeProcess, Process
from repro.kpn.scheduler import DeadlockMonitor, DeadlockPolicy, GrowthEvent

if TYPE_CHECKING:
    from repro.kpn.topology import Topology

__all__ = ["Network"]


class Network:
    """A running (or runnable) process-network program graph.

    Parameters
    ----------
    default_capacity:
        Initial capacity for channels created via :meth:`channel`.
    policy:
        Deadlock policy (growth factor, caps, true-deadlock reaction).
    capacity_spec:
        Optional ``{channel_name: initial_capacity}`` spec — a flat
        dict, the capacity advisor's ``repro profile --spec-out``
        document, or a path to a JSON file of either shape.  Channels
        created via :meth:`channel` with a name in the spec (and no
        explicit capacity) start pre-sized, avoiding grow-on-deadlock
        cycles even without the graph compiler.
    backend:
        Scheduler backend: ``"thread"`` (default; one OS thread per
        process, the paper's model) or ``"async"`` (cooperative tasks
        multiplexed over one event loop — see :mod:`repro.kpn.aio`).
        ``None`` follows the run configuration (:mod:`repro.config`).
        Processes the async runtime cannot host (custom ``run`` loops,
        ``@nondeterminate`` processes) transparently keep their own
        thread; the two actor kinds share channels freely.
    """

    def __init__(self, default_capacity: int = DEFAULT_CAPACITY,
                 policy: Optional[DeadlockPolicy] = None,
                 name: str = "network",
                 capacity_spec=None,
                 backend: Optional[str] = None) -> None:
        self.name = name
        self.backend = RunConfig.resolve(backend=backend).backend
        self.monitor = DeadlockMonitor(self, policy)
        #: the async backend's event loop, started with its first task
        #: (again after a stop)
        self._loop = None
        self.default_capacity = default_capacity
        if capacity_spec:
            from repro.kpn.compile import load_capacity_spec
            self.capacity_spec = load_capacity_spec(capacity_spec)
        else:
            self.capacity_spec = {}
        # the last actor to block kicks the monitor: the accounting calls
        # its bound kick with no frame in between
        self.accounting = BlockAccounting(on_change=self.monitor.kick)
        #: live actors (``live_count``), written under ``_lock``
        self.accounting.live = 0
        self.accounting.network = self
        #: servers this network shipped parts to, by ``(host, port)``
        #: (:meth:`add_site`): the monitor's view across its links
        self.sites: dict = {}
        self.channels: List[Channel] = []
        self.processes: List[Process] = []
        # identity set shadowing ``processes`` — membership checks on the
        # 10k-process spawn path must not scan the list (O(n^2) startup).
        # Safe because the list is append-only: every id in the set keeps
        # its object alive via the list, so ids are never recycled.
        self._process_ids: set = set()
        self._threads: List[threading.Thread] = []
        self._lock = threading.RLock()
        self._started = False
        self.fusion_plan = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def channel(self, capacity: Optional[int] = None, name: str = "") -> Channel:
        """Create a channel owned by (and accounted to) this network.

        With no explicit ``capacity``, a named channel listed in the
        network's ``capacity_spec`` starts at the spec'd size.
        """
        if capacity is None and name:
            capacity = self.capacity_spec.get(name)
        ch = Channel(capacity or self.default_capacity, name=name,
                     accounting=self.accounting)
        with self._lock:
            self.channels.append(ch)
        return ch

    def channels_n(self, n: int, capacity: Optional[int] = None,
                   prefix: str = "ch") -> List[Channel]:
        return [self.channel(capacity, name=f"{prefix}-{i}") for i in range(n)]

    def adopt_channel(self, ch: Channel) -> Channel:
        """Bring an externally created channel under this network."""
        ch.set_accounting(self.accounting)
        with self._lock:
            if ch not in self.channels:
                self.channels.append(ch)
        return ch

    def add(self, process: Process) -> Process:
        """Register a process (started later by :meth:`start`)."""
        process.network = self
        if isinstance(process, CompositeProcess):
            for member in process.processes:
                member.network = self
        with self._lock:
            if id(process) not in self._process_ids:
                self._process_ids.add(id(process))
                self.processes.append(process)
        return process

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def spawn(self, process: Process):
        """Start ``process`` immediately as a tracked actor.

        Under the thread backend (and for processes the async runtime
        cannot host) the actor is a daemon thread; under the async
        backend, hostable processes become cooperative tasks on the
        network's event loop.  Either way the returned handle
        supports ``join``/``is_alive``/``name``.  A composite that keeps
        ``CompositeProcess.run`` is no actor: it is registered as by
        :meth:`add`, its members are spawned, and the result is None.
        Used both by :meth:`start` and by running processes that insert
        new processes into the graph (Sift, MetaDynamic reconfiguration).
        """
        self.add(process)
        if type(process).run is CompositeProcess.run:
            for member in process.processes:
                self.spawn(member)
            return None
        actor = None
        if self.backend == "async":
            from repro.kpn.aio import EventLoop, Task, async_hostable
            if async_hostable(process):
                with self._lock:
                    if self._loop is None or self._loop.stopped:
                        self._loop = EventLoop(name=f"{self.name}-loop")
                    loop = self._loop
                actor = Task(process, loop, on_finish=self._actor_finished)
        if actor is None:
            actor = threading.Thread(target=self._run_process,
                                     args=(process,),
                                     name=process.name, daemon=True)
            # the marker that makes its channel waits count (a pump's or
            # a caller's thread has none); a task passes itself
            actor.kpn_accounting = self.accounting
            actor.process = process
        with self._lock:
            self._threads.append(actor)
            self.accounting.live += 1
        try:
            actor.start()
        except BaseException:
            # never ran (e.g. the OS refused another thread): it must not
            # count as live forever and blind the monitor's pre-check
            self._actor_finished()
            raise
        return actor

    def _run_process(self, process: Process) -> None:
        try:
            process.run()
        finally:
            self._actor_finished()

    def _actor_finished(self) -> None:
        """One spawned actor is done: count it, then let the monitor look
        (the last runnable actor exiting can complete a stall)."""
        with self._lock:
            self.accounting.live -= 1
        self.monitor.kick()
        if self.monitor.stopped:
            self._stop_loop_when_idle()

    def preflight(self) -> None:
        """Static pre-flight: graph rules, proofs, and race scan.

        Raises :class:`~repro.errors.GraphConsistencyError` carrying the
        error rows of :func:`repro.analysis.graph_findings` (the
        structural rules and the directed-cycle deadlock proofs) and
        :func:`repro.analysis.race_findings`.  Opt-in: call it before
        :meth:`start`.
        """
        from repro.analysis.graphproofs import graph_findings
        from repro.analysis.races import race_findings
        from repro.errors import GraphConsistencyError

        topology = self.topology()
        errors = [f for f in (graph_findings(self, topology)
                              + race_findings(self, topology))
                  if f.severity == "error"]
        if errors:
            raise GraphConsistencyError(errors)

    def optimize(self, spec=None) -> "Network":
        """Run the graph compiler over this network (before :meth:`start`).

        Fuses eligible linear process chains into single threads,
        collapses the intra-chain channels onto lock-free deques, and
        pre-sizes surviving channels from ``spec`` (defaulting to the
        network's own ``capacity_spec``).  The applied
        :class:`~repro.kpn.compile.FusionPlan` lands on
        ``self.fusion_plan``.  See :mod:`repro.kpn.compile`.
        """
        from repro.kpn.compile import fuse

        if spec is None and self.capacity_spec:
            spec = self.capacity_spec
        fuse(self, spec=spec)
        return self

    def start(self) -> "Network":
        with self._lock:
            if self._started:
                raise RuntimeError("network already started")
            self._started = True
            pending = [p for p in self.processes]
        self.monitor.start()
        with self._lock:
            spawned = {id(t.process) for t in self._threads}
        for p in pending:
            # by identity, not by name: two processes may share a name.
            # Set membership, not a linear scan: start() is on the
            # 10k-process scale path and a per-process scan is O(n^2)
            if id(p) not in spawned:
                spawned.add(id(p))
                self.spawn(p)
        return self

    def ensure_running(self) -> "Network":
        """Mark the network live without spawning anything yet.

        Compute servers host a long-lived network that receives migrated
        processes over time; this starts the deadlock monitor and allows
        :meth:`spawn` to be the only way processes enter.
        """
        with self._lock:
            if self._started:
                return self
            self._started = True
        self.monitor.start()
        return self

    def live_threads(self) -> List:
        """Process actors (threads and tasks) still alive (monitor's view).

        O(actors ever spawned); callers that only need the number use
        :meth:`live_count`.
        """
        with self._lock:
            return [t for t in self._threads if t.is_alive()]

    def live_count(self) -> int:
        """Actors spawned minus actors that reported finishing: one
        integer, read without the lock.

        Agrees with ``len(live_threads())`` except while an actor is
        starting or exiting: a thread is counted from ``spawn`` (before
        ``is_alive()`` turns true) until its ``run`` returns (just before
        it turns false), a task until its ``on_finish`` has been counted.
        A stale read is harmless to the stall rule: a concurrent spawn
        adds a running actor, and a concurrent exit kicks the monitor.
        """
        return self.accounting.live

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for every process thread (including late-spawned ones).

        Returns True if everything finished.  Raises the first process
        failure or a stored deadlock diagnosis after shutdown.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                threads = list(self._threads)
            alive = [t for t in threads if t.is_alive()]
            if not alive:
                with self._lock:
                    grown = len(threads) != len(self._threads)
                if not grown:
                    break
                continue
            for t in alive:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                t.join(timeout=remaining if remaining is not None else 0.5)
                if deadline is not None and time.monotonic() >= deadline and t.is_alive():
                    return False
        if self._loop is not None:
            self._loop.stop()
        self.monitor.stop()
        if self.monitor.error is not None:
            raise self.monitor.error
        self.raise_failures()
        return True

    def run(self, timeout: Optional[float] = None) -> bool:
        """``start()`` + ``join()``; the one-liner most programs need."""
        self.start()
        return self.join(timeout=timeout)

    def raise_failures(self) -> None:
        for p in self.processes:
            if p.failure is not None and not isinstance(p.failure, DeadlockError):
                raise p.failure

    def shutdown(self) -> None:
        """Force-terminate: close every channel both ways.

        Blocked processes wake with channel errors and run their normal
        ``on_stop`` cleanup, so even a forced shutdown follows the paper's
        graceful cascading-termination path.  The deadlock monitor stops;
        the async backend's event loop stops once no actor is left.
        """
        with self._lock:
            channels = list(self.channels)
        for ch in channels:
            try:
                ch.buffer.close_write()
                ch.buffer.close_read()
            except Exception:
                pass
        self.monitor.stop()
        self._stop_loop_when_idle()

    def _stop_loop_when_idle(self) -> None:
        """Stop the event loop if no actor is alive.  Once the monitor is
        stopped, the last actor to finish calls this as well."""
        if self._loop is not None and self.accounting.live == 0:
            self._loop.stop()

    # -- context manager -----------------------------------------------------
    def __enter__(self) -> "Network":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.shutdown()
        self.monitor.stop()
        self._stop_loop_when_idle()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def topology(self) -> Topology:
        """The program graph as built right now: leaf processes, and per
        channel every producer and consumer (see
        :mod:`repro.kpn.topology`).  Every analysis, the graph compiler
        and the exports below start from this one view."""
        from repro.kpn.topology import build_topology

        return build_topology(self)

    def graph(self):
        """Export the program graph as a ``networkx.MultiDiGraph``.

        Nodes are process names; edges are channels from producer to
        consumer (one per pair, should a channel have several owners).
        """
        import networkx as nx

        topology = self.topology()
        g = nx.MultiDiGraph()
        for p in topology.leaves:
            g.add_node(p.name, process=type(p).__name__)
        for src, dst, edge in topology.links():
            g.add_edge(src.name, dst.name, channel=edge.name,
                       capacity=edge.channel.capacity)
        return g

    def channel_map(self) -> dict:
        """Producer/consumer names per channel, as a plain dict.

        The profiler's analyzer wants exactly the edge information
        :meth:`graph` computes, but as a picklable structure with no
        networkx dependency: ``{channel: {"producer", "consumer",
        "capacity"}}`` (either end ``None`` when untracked, e.g. a channel
        stretched to another server; the first declared owner when a
        channel has several).
        """
        return {edge.name: {"producer": getattr(edge.producer, "name", None),
                            "consumer": getattr(edge.consumer, "name", None),
                            "capacity": edge.channel.capacity}
                for edge in self.topology().edges}

    def has_undirected_cycle(self) -> bool:
        """True if the program graph has an undirected cycle.

        Relevant to section 3.5: default buffer capacities are "sufficient
        for ... all programs with no undirected cycles"; graphs *with*
        undirected cycles (Figures 12 and 13) may need capacity growth.
        """
        return self.topology().has_undirected_cycle()

    def wait_snapshot(self) -> dict:
        """Who is blocked where: one site's share of a stall decision.

        Serializable: the live actors, each blocked one with its channel,
        the accounting generation (unchanged between two observations
        means no actor blocked or woke), and ``links`` — one
        :meth:`~repro.distributed.sockets.SenderPump.state` per socket
        pump on this network's channels, its bytes moved so far.  The
        deadlock monitor of the network that shipped parts elsewhere
        polls it from every site (section 6.2's distributed detection).
        """
        from repro.kpn.topology import pumps

        blocked_map = self.accounting.snapshot()
        live_names = [t.name for t in self.live_threads()]
        with self._lock:
            channels = list(self.channels)
        # fill levels come from the channel, which also counts what its
        # consumer endpoint read ahead; the accounting only knows buffers
        by_buffer = {id(ch.buffer): ch for ch in channels}
        blocked = []
        # only network actors are ever in the map
        for actor, (buffer, mode) in blocked_map.items():
            ch = by_buffer.get(id(buffer))
            entry = {
                "thread": actor.name,
                "kind": "thread",
                "mode": mode,
                "channel": buffer.name,
                "capacity": buffer.capacity,
                "buffered": (ch.buffered() if ch is not None
                             else buffer.available()),
            }
            if not isinstance(actor, threading.Thread):
                # a task: parked by its gate on a guess or on a declared
                # rule, or asleep inside an operation on a thread it
                # borrowed from its loop
                entry.update(kind="task", assumed=actor.assumed,
                             on_thread=actor.on_thread)
            blocked.append(entry)
        links = [dict(pump.state(), channel=ch.name)
                 for ch in channels for pump in pumps(ch)]
        return {
            "network": self.name,
            "backend": self.backend,
            "generation": self.accounting.generation,
            "live": live_names,
            "blocked": blocked,
            "links": links,
        }

    def census(self) -> dict:
        """The one reading of the network's run-time state.

        :meth:`wait_snapshot` (who is blocked where) plus ``channels`` —
        per channel name ``{buffered, capacity, initial_capacity,
        high_watermark, total_written, fused}``, ``buffered`` counting
        the consumer endpoint's read-ahead — and ``growths``, every
        capacity change in order with its cause.  The facts live on the
        channels' buffers; this only reads them, and every observer
        (tracer, profiler, capacity advisor, visualiser) reads this.
        Built on demand, never from a start, a step or the monitor.
        """
        census = self.wait_snapshot()
        with self._lock:
            channels = list(self.channels)
        census["channels"] = {ch.name: dict(ch.occupancy(), fused=ch.fused)
                              for ch in channels}
        census["growths"] = self._growths(channels)
        return census

    @staticmethod
    def _growths(channels) -> list:
        """The channels' own growth records, merged oldest first."""
        return sorted((dict(g, channel=ch.name) for ch in channels
                       for g in ch.buffer.growths),
                      key=lambda g: g["t"])

    def channel_by_name(self, name: str) -> Optional[Channel]:
        with self._lock:
            for ch in self.channels:
                if ch.name == name:
                    return ch
        return None

    def grow_channel(self, name: str, new_capacity: int,
                     process: str = "") -> bool:
        """Grow a channel by name on behalf of another site's deadlock
        monitor resolving an artificial deadlock across links (section
        6.2), ``process`` being the blocked writer it saw; False if the
        channel is unknown here."""
        ch = self.channel_by_name(name)
        if ch is None:
            return False
        ch.grow(new_capacity, "parks-distributed", process,
                (process,) if process else ())
        return True

    def has_remote_links(self) -> bool:
        """True while a socket pump still feeds or drains a channel.

        Traffic from another server can wake such a network, so its
        monitor decides no stall on its own view: with sites
        (:meth:`add_site`) it polls them all first, without it leaves the
        verdict to the network that shipped its parts (see
        :mod:`repro.kpn.scheduler`).  Links whose pumps have all finished
        carry nothing more and no longer count.
        """
        from repro.kpn.topology import pumps

        with self._lock:
            channels = list(self.channels)
        return any(not getattr(pump, "finished", False)
                   for ch in channels for pump in pumps(ch))

    def add_site(self, site) -> None:
        """Poll ``site`` (a :class:`~repro.distributed.server.ServerClient`,
        or anything with ``host``, ``port``, ``wait_snapshot`` and
        ``grow_channel``) before deciding a stall.  ``ServerClient.run``
        calls this for every network a shipped part leaves."""
        with self._lock:
            self.sites.setdefault((site.host, site.port), site)

    def total_buffered_bytes(self) -> int:
        return sum(ch.buffered() for ch in self.channels)

    def growth_events(self) -> List[GrowthEvent]:
        """Parks resolutions so far, local and distributed, oldest first."""
        with self._lock:
            channels = list(self.channels)
        return [GrowthEvent(g["channel"], g["old"], g["new"], g["blocked"])
                for g in self._growths(channels)
                if g["cause"] in PARKS_CAUSES]
