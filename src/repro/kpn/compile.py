"""The graph compiler: fuse process chains, collapse channels, pre-size buffers.

The one-thread-per-process, one-ring-per-channel execution model makes
every hop between trivial processes cost a synchronized buffer write, a
blocking read, and often a context switch.  For *linear* regions of the
graph none of that machinery buys anything: a single-producer
single-consumer channel between two determinate step-driven processes is
just a function-call boundary with extra steps.  This module is the
static optimizer that removes those steps while preserving Kahn
semantics — the channel *histories* of the optimized network are the
same as the original's.

Three passes over a constructed (not yet started) :class:`Network`:

1. **Chain fusion** — detect maximal linear chains of eligible processes
   (head: one output; interior: one input, one output; tail: anything)
   and replace each with a :class:`FusedChain`: one thread that runs the
   *tail* stage eagerly and pumps upstream stages one ``step`` at a time
   when an intra-chain read finds its pipe empty.  Intra-chain channels
   keep their :class:`~repro.kpn.channel.Channel` identity (names,
   graph/profiler visibility, history capture) but their ring buffers
   are bypassed by lock-free :class:`collections.deque` pipes — and
   where producer and consumer declare matching fixed-width codecs, the
   encode/decode round trip is skipped entirely and elements pass as
   Python objects.

2. **Channel collapse** — only *intra-chain* channels are bypassed.
   Boundary channels of fused regions keep full Channel semantics, so
   the deadlock monitor, blocked-thread accounting, telemetry, and
   Parks' capacity growth see exactly the graph they expect.

3. **Buffer pre-sizing** — an optional ``{channel: initial_capacity}``
   spec (the capacity advisor's ``repro profile --spec-out`` document)
   grows surviving channels up front, avoiding grow-on-deadlock cycles.

Safety is enforced, not assumed: :func:`repro.analysis.fuse.fusion_blockers`
refuses ``@nondeterminate`` processes, graph-reconfiguring (dynamic)
processes, custom run loops, and shared-state race findings; the planner
additionally refuses channels with more than one producer or consumer,
remote-pumped channels, pre-seeded buffers, and chains short-circuited
by a side channel.  Every refusal is recorded on the plan with its
reason (``repro compile <target>`` prints them).  The planner reads the
same program graph as the prover and the lint rules
(:meth:`repro.kpn.network.Network.topology`).

The compiler runs strictly *before* ``Network.start()`` — and therefore
before the deadlock monitor arms.  Entry points: :func:`compile_network`
(plan only), :meth:`FusionPlan.apply`, :func:`fuse` (both), and
``Network.run(optimize=True)``.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (BrokenChannelError, ChannelClosedError,
                          EndOfStreamError)
from repro.kpn.channel import Channel
from repro.kpn.process import (CompositeProcess, IterativeProcess, Process,
                               _StepDriver)
from repro.kpn.streams import InputStream, OutputStream
from repro.processes.codecs import Codec, ObjectCodec, StructCodec
from repro.telemetry.core import TELEMETRY as _telemetry

__all__ = ["FusionPlan", "FusedChain", "compile_network", "fuse",
           "load_capacity_spec"]


# ---------------------------------------------------------------------------
# fused pipes: the transport that replaces intra-chain ring buffers
# ---------------------------------------------------------------------------

class _FusedPipe:
    """Unbounded single-thread conduit replacing one fused channel's ring.

    Entries are ``bytes`` chunks or ``(object,)`` wrappers (the object
    fast path).  A read that finds the pipe empty *pumps* the upstream
    stage driver — production happens inside the read call, which is
    what lets a whole chain run demand-driven in one thread with no
    locks, no condition variables, and no coroutines.

    Unboundedness cannot introduce deadlock: it only ever *removes*
    write blocking, and the pipe holds at most the run-ahead of single
    pumped steps.  Termination keeps the channel-error protocol of the
    threaded runtime: writing after the reader closed raises
    :class:`BrokenChannelError`; reading after the writer closed drains
    then reports end of stream.
    """

    def __init__(self, channel: Channel,
                 object_codec: Optional[Codec] = None) -> None:
        self.channel = channel
        self.entries: deque = deque()
        self.object_codec = object_codec
        #: the producing stage's driver; wired by FusedChain
        self.upstream = None
        self.write_closed = False
        #: like BoundedByteBuffer._write_aborted: the producer died of a
        #: cascade, so the drained-out end of stream is an error, not EOF
        self.write_aborted = False
        self.read_closed = False
        #: consumer endpoint, used to decode stray byte entries in
        #: object mode through the codec's normal stream reader
        self.reader_endpoint: Optional[InputStream] = None
        #: mirror written bytes into the channel buffer's history so
        #: HistoryCapture sees the same byte stream as an unfused run
        self.record_history = channel.buffer.history is not None

    # -- producer side -----------------------------------------------------
    def write_bytes(self, data) -> None:
        if self.read_closed:
            raise BrokenChannelError(
                f"write to channel {self.channel.name!r} after reader closed")
        if self.write_closed:
            raise ChannelClosedError(
                f"write on closed channel {self.channel.name!r}")
        data = bytes(data)
        if not data:
            return
        if self.record_history:
            self.channel.buffer.record_bytes(data)
        self.entries.append(data)

    def write_object(self, value: Any) -> None:
        if self.read_closed:
            raise BrokenChannelError(
                f"write to channel {self.channel.name!r} after reader closed")
        if self.write_closed:
            raise ChannelClosedError(
                f"write on closed channel {self.channel.name!r}")
        self.entries.append((value,))

    def close_write(self, aborted: bool = False) -> None:
        if not self.write_closed:
            self.write_closed = True
            self.write_aborted = aborted

    def close_read(self) -> None:
        self.read_closed = True
        self.entries.clear()

    # -- consumer side -----------------------------------------------------
    def _fill(self) -> bool:
        """Ensure at least one entry is queued; False at end of stream.

        Empty pipe + live writer = demand: pump the upstream stage one
        step and look again.  The pump either produces, finishes the
        stage (whose ``on_stop`` closes our write side), or blocks in a
        *boundary* channel read — exactly where the producing thread of
        an unfused network would be blocked.
        """
        while not self.entries:
            if self.write_closed:
                if self.write_aborted:
                    raise BrokenChannelError(
                        f"writer of channel {self.channel.name!r} aborted")
                return False
            if self.read_closed:
                raise ChannelClosedError(
                    f"read on closed channel {self.channel.name!r}")
            up = self.upstream
            if up is None:
                return False
            if not up.pump():
                # The stage terminated, and its on_stop ran inside pump():
                # loop so the close it performed is re-examined — a stage
                # killed by a cascade *aborted* our write side, and that
                # abort must surface as BrokenChannelError above, not as a
                # fake EOF (an EOF-tolerant merge downstream would switch
                # to pass-through and emit a timing-dependent tail).
                if self.write_closed:
                    continue
                # on_stop overridden without closing its streams — the
                # threaded runtime would leave the consumer blocked
                # forever; report end of stream instead.
                return False
        return True

    def read(self, max_bytes: int) -> bytes:
        if max_bytes <= 0:
            return b""
        while True:
            if self.entries:
                head = self.entries[0]
                if type(head) is tuple:
                    head = self.object_codec.encode(head[0])
                    self.entries[0] = head
                if len(head) <= max_bytes:
                    self.entries.popleft()
                    return head
                self.entries[0] = head[max_bytes:]
                return head[:max_bytes]
            if not self._fill():
                return b""

    def readinto(self, target) -> int:
        view = memoryview(target).cast("B")
        n = len(view)
        while True:
            if self.entries:
                head = self.entries[0]
                if type(head) is tuple:
                    head = self.object_codec.encode(head[0])
                    self.entries[0] = head
                k = len(head)
                if k <= n:
                    view[:k] = head
                    self.entries.popleft()
                    return k
                view[:] = head[:n]
                self.entries[0] = head[n:]
                return n
            if not self._fill():
                return 0

    def read_object(self) -> Any:
        while True:
            if self.entries:
                if type(self.entries[0]) is tuple:
                    return self.entries.popleft()[0]
                # byte entries (producer bypassed the fast path): decode
                # through the codec's ordinary stream reader, which pulls
                # from this pipe via the consumer endpoint
                return self.object_codec.read(self.reader_endpoint)
            if not self._fill():
                raise EndOfStreamError("end of stream")

    def available(self) -> int:
        total = 0
        width = self.object_codec.width if self.object_codec else None
        for e in self.entries:
            if type(e) is tuple:
                total += width if width else 1
            else:
                total += len(e)
        return total

    def at_eof(self) -> bool:
        return self.write_closed and not self.entries


class _PipeOutput(OutputStream):
    """Adapter installed under a fused channel's SequenceOutputStream."""

    def __init__(self, pipe: _FusedPipe) -> None:
        self.pipe = pipe

    def write(self, data) -> None:
        self.pipe.write_bytes(data)

    def write_vectored(self, chunks) -> None:
        for c in chunks:
            self.pipe.write_bytes(c)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        self.pipe.close_write()

    def abort(self) -> None:
        self.pipe.close_write(aborted=True)


class _PipeInput(InputStream):
    """Adapter installed at the head of a fused channel's input sequence."""

    def __init__(self, pipe: _FusedPipe) -> None:
        self.pipe = pipe

    def read(self, max_bytes: int) -> bytes:
        return self.pipe.read(max_bytes)

    def readinto(self, target) -> int:
        return self.pipe.readinto(target)

    def close(self) -> None:
        self.pipe.close_read()

    def available(self) -> int:
        return self.pipe.available()

    def at_eof(self) -> bool:
        return self.pipe.at_eof()


class _CodecShim(Codec):
    """Transparent stand-in for a fused stage's codec attribute.

    When the endpoint being written/read is backed by an object-mode
    fused pipe carrying *this* codec's elements, skip the encode/decode
    round trip and move the object itself; otherwise delegate to the
    wrapped codec unchanged (boundary channels, byte-mode pipes, history
    decoding).  Identity with the pipe's codec is what makes the fast
    path safe: a pipe only ever tags the codec instance its producer
    writes with.
    """

    def __init__(self, inner: Codec) -> None:
        self._inner = inner
        self.width = inner.width

    def write(self, out, value) -> None:
        pipe = getattr(out, "_fused_pipe", None)
        if pipe is not None and pipe.object_codec is self._inner:
            pipe.write_object(value)
        else:
            self._inner.write(out, value)

    def read(self, source) -> Any:
        pipe = getattr(source, "_fused_pipe", None)
        if pipe is not None and pipe.object_codec is self._inner:
            return pipe.read_object()
        return self._inner.read(source)

    def encode(self, value) -> bytes:
        return self._inner.encode(value)

    def _format_key(self):
        return self._inner._format_key()

    def __reduce__(self):
        # pickling (e.g. a capacity-advisor report referencing a stage)
        # resolves back to the wrapped codec
        return self._inner.__reduce__()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<_CodecShim {self._inner!r}>"


# ---------------------------------------------------------------------------
# fused execution: one thread, demand-driven stages
# ---------------------------------------------------------------------------

class FusedChain(CompositeProcess):
    """One thread driving a fused chain of stages by direct calls.

    A CompositeProcess subclass so the program graph
    (:mod:`repro.kpn.topology`) and every pass reading it still see the
    member stages — but ``run`` replaces thread-per-member execution
    with the demand-driven loop: the tail stage runs eagerly; empty
    intra-chain pipes pump their upstream stage from inside the read.
    Stages are then finished tail-to-head, so closing streams cascades
    termination exactly as it would across threads.
    """

    def __init__(self, stages: Sequence[IterativeProcess],
                 pipes: Sequence[_FusedPipe],
                 name: Optional[str] = None) -> None:
        super().__init__(stages,
                         name=name or "fused:" + "+".join(s.name
                                                          for s in stages))
        self.pipes: List[_FusedPipe] = list(pipes)
        self.drivers: List[_StepDriver] = [_StepDriver(s, fused=True)
                                          for s in stages]
        # pipe i carries stage i -> stage i+1
        for pipe, driver in zip(self.pipes, self.drivers):
            pipe.upstream = driver

    @property
    def channel_names(self) -> List[str]:
        return [p.channel.name for p in self.pipes]

    def run(self) -> None:
        self.begin()
        try:
            for driver in reversed(self.drivers):
                driver.drive()
        finally:
            self.end()


# ---------------------------------------------------------------------------
# capacity specs (pass 3)
# ---------------------------------------------------------------------------

def load_capacity_spec(spec) -> Dict[str, int]:
    """Normalize a capacity spec to ``{channel_name: capacity_bytes}``.

    Accepts a flat ``{name: capacity}`` dict, the full capacity-advisor
    document (``{"version": 1, "channels": {name: {"initial_capacity":
    N, ...}}}`` as written by ``repro profile --spec-out``), or a path
    to a JSON file of either shape.  ``None`` means no spec.
    """
    if spec is None:
        return {}
    if isinstance(spec, (str, bytes)):
        with open(spec) as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict):
        raise TypeError(f"capacity spec must be a dict or a JSON file path, "
                        f"got {type(spec).__name__}")
    entries = spec
    channels = spec.get("channels")
    if isinstance(channels, dict) and ("version" in spec
                                       or "network" in spec
                                       or all(isinstance(v, dict)
                                              for v in channels.values())):
        entries = channels
    out: Dict[str, int] = {}
    for name, value in entries.items():
        if isinstance(value, dict):
            value = value.get("initial_capacity")
        if value is None:
            continue
        out[str(name)] = int(value)
    return out


# ---------------------------------------------------------------------------
# planning (passes 1 and 2)
# ---------------------------------------------------------------------------

class FusionPlan:
    """The compiler's output: chains to fuse, refusals, capacity spec.

    Produced by :func:`compile_network`; inert until :meth:`apply` swaps
    the fused chains into the network.  ``describe()`` renders the plan
    the way ``repro compile`` prints it; ``to_dict()`` is the
    machine-readable form.
    """

    def __init__(self, network,
                 chains: List[Tuple[List[Process], List[Channel],
                                    List[Optional[Codec]], Any]],
                 refusals: List[Tuple[str, str]],
                 spec: Dict[str, int], leaf_count: int) -> None:
        self.network = network
        #: leaf processes (= threads) of the unfused network
        self.leaf_count = leaf_count
        #: (stages, intra-chain channels, per-channel object codec or
        #: None, direct container of every stage)
        self.chains = chains
        #: (subject, reason) — processes/chains that must keep threads
        self.refusals = refusals
        self.spec = spec
        self.applied = False
        self.fused: List[FusedChain] = []
        #: (channel, old capacity, new capacity) applied by pass 3
        self.presized: List[Tuple[str, int, int]] = []

    # -- reporting ---------------------------------------------------------
    @property
    def fused_channel_names(self) -> List[str]:
        return [ch.name for _, chans, _, _ in self.chains for ch in chans]

    def process_counts(self) -> Tuple[int, int]:
        before = self.leaf_count
        fused_away = sum(len(stages) - 1 for stages, _, _, _ in self.chains)
        return before, before - fused_away

    def to_dict(self) -> dict:
        before, after = self.process_counts()
        return {
            "network": self.network.name,
            "threads_before": before,
            "threads_after": after,
            "chains": [{
                "stages": [s.name for s in stages],
                "channels": [ch.name for ch in chans],
                "object_channels": [ch.name for ch, oc in zip(chans, codecs)
                                    if oc is not None],
            } for stages, chans, codecs, _ in self.chains],
            "refusals": [{"subject": s, "reason": r}
                         for s, r in self.refusals],
            "capacity_spec": dict(self.spec),
            "presized": [{"channel": c, "old": o, "new": n}
                         for c, o, n in self.presized],
            "applied": self.applied,
        }

    def describe(self) -> str:
        before, after = self.process_counts()
        lines = [f"fusion plan for network {self.network.name!r}: "
                 f"{len(self.chains)} chain(s), "
                 f"{before} -> {after} thread(s)"]
        for i, (stages, chans, codecs, _) in enumerate(self.chains, start=1):
            arrow = " -> ".join(s.name for s in stages)
            parts = [f"{ch.name}[{'objects' if oc is not None else 'bytes'}]"
                     for ch, oc in zip(chans, codecs)]
            lines.append(f"  chain {i}: {arrow}")
            lines.append(f"           collapsed: {', '.join(parts)}")
        if self.refusals:
            lines.append("  kept threaded:")
            for subject, reason in self.refusals:
                lines.append(f"    - {subject}: {reason}")
        if self.spec:
            lines.append(f"  capacity spec: {len(self.spec)} channel(s)"
                         + (f", {len(self.presized)} grown"
                            if self.applied else ""))
        return "\n".join(lines)

    # -- application -------------------------------------------------------
    def apply(self):
        """Rewire the network in place; returns the network.

        Each chain's intra channels get deque transports under their
        existing endpoints (Channel objects and names are preserved for
        the profiler, ``repro top``, and history capture), the stages
        are replaced by one :class:`FusedChain` in their container, and
        the capacity spec is applied to every surviving channel.
        """
        if self.applied:
            return self.network
        net = self.network
        shim_cache: Dict[int, Tuple[Codec, _CodecShim]] = {}
        for stages, chans, codecs, container in self.chains:
            pipes: List[_FusedPipe] = []
            for ch, ocodec in zip(chans, codecs):
                pipe = _FusedPipe(ch, object_codec=ocodec)
                out_ep = ch.get_output_stream()
                out_ep.sequence.switch_to(_PipeOutput(pipe))
                in_ep = ch.get_input_stream()
                in_ep.sequence.replace_head(_PipeInput(pipe))
                pipe.reader_endpoint = in_ep
                if ocodec is not None:
                    out_ep._fused_pipe = pipe
                    in_ep._fused_pipe = pipe
                ch.fused = True
                pipes.append(pipe)
            if any(oc is not None for oc in codecs):
                for stage in stages:
                    _install_codec_shims(stage, shim_cache)
            chain = FusedChain(stages, pipes)
            chain.network = net
            members = (net.processes if container is net
                       else container.processes)
            idx = min(members.index(s) for s in stages)
            for s in stages:
                members.remove(s)
            members.insert(idx, chain)
            if container is net:
                # registered like Network.add would, or start() appends
                # the chain to net.processes a second time
                net._process_ids.add(id(chain))
            self.fused.append(chain)
            if _telemetry.enabled:
                _telemetry.instant("compile.fuse", category="kpn.compile",
                                   chain=chain.name,
                                   stages=len(stages),
                                   channels=",".join(chain.channel_names))
        fused_names = set(self.fused_channel_names)
        for name, cap in self.spec.items():
            ch = net.channel_by_name(name)
            if ch is None or name in fused_names:
                continue
            old = ch.capacity
            if cap > old:
                ch.grow(cap, "presize")
                self.presized.append((name, old, cap))
        if _telemetry.enabled:
            _telemetry.inc("kpn.compile.chains", len(self.chains))
            _telemetry.inc("kpn.compile.channels_collapsed",
                           len(fused_names))
        self.applied = True
        net.fusion_plan = self
        return net


def _install_codec_shims(stage: Process,
                         cache: Dict[int, Tuple[Codec, _CodecShim]]) -> None:
    for attr, value in list(vars(stage).items()):
        if isinstance(value, Codec) and not isinstance(value, _CodecShim):
            entry = cache.get(id(value))
            if entry is None:
                entry = (value, _CodecShim(value))
                cache[id(value)] = entry
            setattr(stage, attr, entry[1])


def _object_codec_for(edge, share_objects: bool) -> Optional[Codec]:
    """The codec to move elements as objects over this edge, or None.

    The fast path needs proof that every byte crossing the channel is
    one whole element of one agreed codec:

    * history capture must be off for the channel (histories are byte
      streams; recording them requires the encode anyway);
    * the producer's write codec and the consumer's read codec (both
      resolved by :mod:`repro.kpn.topology`) must agree;
    * the consumer must have exactly one input — multi-input stages can
      read a side input through a codec the planner cannot see (Guard's
      module-level BOOL control read);
    * fixed-width struct codecs carry immutable scalars, so sharing the
      decoded object is always safe; pickle codecs share mutable object
      graphs the unfused network would have *copied*, so they stay on
      the byte path unless ``share_objects`` opts in.
    """
    if edge.channel.buffer.history is not None:
        return None
    w, r = edge.write_codec, edge.read_codec
    if w is None or r is None or not w.same_format(r):
        return None
    if len(edge.consumer.input_streams) != 1:
        return None
    if isinstance(w, StructCodec) or (isinstance(w, ObjectCodec)
                                      and share_objects):
        return w
    return None


def compile_network(network, spec=None, object_passing: bool = True,
                    share_objects: bool = False) -> FusionPlan:
    """Plan chain fusion and buffer pre-sizing for ``network``.

    Returns a :class:`FusionPlan` (not yet applied).  ``spec`` is a
    capacity spec accepted by :func:`load_capacity_spec`.
    ``object_passing=False`` forces every fused pipe onto the byte path;
    ``share_objects=True`` extends the object fast path to pickle
    codecs (safe only if consumers do not mutate received objects).
    """
    from repro.analysis.fuse import fusion_blockers

    if network._started:
        raise RuntimeError("compile_network must run before Network.start()")
    topology = network.topology()
    blockers = fusion_blockers(network, topology)
    containers = topology.containers
    leaves = topology.leaves
    refusals: List[Tuple[str, str]] = sorted(blockers.items())

    def fusable(p: Process) -> bool:
        return p.name not in blockers

    def linear(p: Process, edges, loose) -> bool:
        return len(edges.get(id(p), ())) == 1 and not loose.get(id(p))

    # A -> B links: A has exactly one (channel-backed) output, that
    # channel has exactly one producer and one consumer, carries no
    # pre-seeded data and stays on this server, and both ends are
    # fusable leaves of the same container.
    link: Dict[int, Tuple[Any, Process]] = {}
    preds: Dict[int, Process] = {}
    through_ok: Dict[int, bool] = {}
    for edge in topology.edges:
        if len(edge.producers) > 1 or len(edge.consumers) > 1:
            refusals.append((
                edge.name,
                f"channel {edge.name!r} is not single-producer/"
                f"single-consumer (written by {edge.producer_names}, read "
                f"by {edge.consumer_names}); it is never fused through"))
    for p in leaves:
        through_ok[id(p)] = (fusable(p) and linear(p, topology.inputs,
                                                   topology.loose_inputs))
        if not fusable(p) or not linear(p, topology.outputs,
                                        topology.loose_outputs):
            continue
        edge = topology.outputs[id(p)][0]
        q = edge.consumer
        if (not edge.spsc or q is p or not fusable(q)
                or edge.remote or edge.channel.buffered() != 0
                or id(q) not in containers
                or containers[id(p)] is not containers[id(q)]):
            continue
        link[id(p)] = (edge, q)
        preds[id(q)] = p

    visited: set = set()
    raw_chains: List[Tuple[List[Process], List[Any]]] = []

    def walk(start: Process) -> None:
        stages = [start]
        edges: List[Any] = []
        visited.add(id(start))
        cur = start
        while id(cur) in link:
            edge, nxt = link[id(cur)]
            if id(nxt) in visited:
                break
            edges.append(edge)
            stages.append(nxt)
            visited.add(id(nxt))
            if not through_ok.get(id(nxt), False):
                break
            cur = nxt
        if len(stages) >= 2:
            raw_chains.append((stages, edges))
        else:
            visited.discard(id(start))

    # pass 1: natural heads (no incoming link, or cannot sit mid-chain);
    # pass 2: middles orphaned when their predecessor joined another chain
    for p in leaves:
        if id(p) in visited or id(p) not in link:
            continue
        if id(p) not in preds or not through_ok.get(id(p), False):
            walk(p)
    for p in leaves:
        if id(p) not in visited and id(p) in link:
            walk(p)

    chains: List[Tuple[List[Process], List[Channel],
                       List[Optional[Codec]], Any]] = []
    for stages, edges in raw_chains:
        member_ids = {id(s) for s in stages}
        side = next((e for e in topology.edges
                     if e not in edges
                     and any(id(p) in member_ids for p, _ in e.producers)
                     and any(id(c) in member_ids for c, _ in e.consumers)),
                    None)
        if side is not None:
            refusals.append((" -> ".join(s.name for s in stages),
                             f"side channel {side.name!r} connects two chain "
                             f"members outside the chain (fusing would "
                             f"detach it from the deadlock monitor)"))
            for s in stages:
                visited.discard(id(s))
            continue
        codecs = [_object_codec_for(e, share_objects) if object_passing
                  else None for e in edges]
        chains.append((stages, [e.channel for e in edges], codecs,
                       containers[id(stages[0])]))

    return FusionPlan(network, chains, refusals, load_capacity_spec(spec),
                      leaf_count=len(leaves))


def fuse(network, spec=None, object_passing: bool = True,
         share_objects: bool = False) -> FusionPlan:
    """Compile and apply in one call; returns the applied plan."""
    plan = compile_network(network, spec=spec, object_passing=object_passing,
                           share_objects=share_objects)
    plan.apply()
    return plan
