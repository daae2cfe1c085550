"""The program graph of a built network, read once.

The paper (section 3) leaves "a single producer and a single consumer
for each stream" to a front end that reads the program graph.  This
module is the one place that reads it: :func:`build_topology` (behind
:meth:`repro.kpn.network.Network.topology`) walks the process hierarchy
and matches tracked endpoint streams back to their channels.  The
structural rules and proofs (:mod:`repro.analysis.graphproofs`), the
race and fusion-safety passes, the graph compiler, history decoding, the
denotational compiler, ``Network.graph()``/``channel_map()`` and the
visualiser all read the result, so they agree on who owns which end of
which channel — including when a channel has more than one owner.

Conventions, each stated once here:

* **Order.**  Leaves come in declaration order (``network.processes``,
  composites expanded in place, depth first); an edge's owners are
  listed in that order; edges follow ``network.channels``, then any
  channel reachable only through a tracked stream.
* **Composite boundary.**  A composite that tracks a stream itself owns
  that end of the channel only when no leaf does: re-tracking a
  member's stream is the grouping idiom, not a second owner.
* **Remote.**  A channel fed or drained by a socket pump has its other
  end on another server.
* **Codecs.**  A typed process exposes its element codec as ``.codec``
  and, when it writes another framing than it reads, ``.out_codec``.
  Byte-transparent producers (Cons, Duplicate, Identity) declare none;
  the element type on the wire is then that of their first input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.kpn.process import CompositeProcess

__all__ = ["Edge", "Topology", "build_topology", "is_remote",
           "pumps"]


def pumps(channel) -> list:
    """The socket pumps migration attached to ``channel`` (none if local)."""
    return [pump for pump in (getattr(channel, "sender_pump", None),
                              getattr(channel, "receiver_pump", None))
            if pump is not None]


def is_remote(channel) -> bool:
    """True when a socket pump feeds or drains ``channel``."""
    return bool(pumps(channel))


@dataclass(eq=False)
class Edge:
    """One channel with every process that owns an end of it."""

    channel: Any
    #: ``(process, tracked stream)`` per owner, so a reader can resolve
    #: the attribute name, ``awaits()`` membership or deferral itself
    producers: List[Tuple[Any, Any]] = field(default_factory=list)
    consumers: List[Tuple[Any, Any]] = field(default_factory=list)
    remote: bool = False
    #: what the producer encodes with / the consumer decodes with (None:
    #: byte-level or undeclared), and the element type on the wire
    write_codec: Any = None
    read_codec: Any = None
    codec: Any = None

    @property
    def name(self) -> str:
        return self.channel.name

    @property
    def producer(self):
        """The first declared producer process, or None."""
        return self.producers[0][0] if self.producers else None

    @property
    def consumer(self):
        """The first declared consumer process, or None."""
        return self.consumers[0][0] if self.consumers else None

    @property
    def spsc(self) -> bool:
        """Exactly one producer and one consumer: the Kahn channel."""
        return len(self.producers) == 1 and len(self.consumers) == 1

    @property
    def producer_names(self) -> List[str]:
        return [p.name for p, _ in self.producers]

    @property
    def consumer_names(self) -> List[str]:
        return [p.name for p, _ in self.consumers]


@dataclass
class Topology:
    """Leaves, edges and per-process adjacency of one network."""

    #: leaf (non-composite) processes in declaration order
    leaves: List[Any] = field(default_factory=list)
    #: id(leaf) -> the object whose ``.processes`` list holds it
    containers: Dict[int, Any] = field(default_factory=dict)
    edges: List[Edge] = field(default_factory=list)
    #: id(process) -> distinct edges it writes / reads, in tracking order
    outputs: Dict[int, List[Edge]] = field(default_factory=dict)
    inputs: Dict[int, List[Edge]] = field(default_factory=dict)
    #: id(process) -> tracked streams that belong to no channel
    loose_outputs: Dict[int, int] = field(default_factory=dict)
    loose_inputs: Dict[int, int] = field(default_factory=dict)

    def links(self) -> List[Tuple[Any, Any, Edge]]:
        """``(producer, consumer, edge)`` for every connected pair."""
        return [(p, c, e) for e in self.edges
                for p, _ in e.producers for c, _ in e.consumers]

    def has_undirected_cycle(self) -> bool:
        """Section 3.5's test: default capacities are "sufficient for all
        programs with no undirected cycles".  Self-loops and parallel
        channels between one pair of processes count as cycles."""
        adjacent: Dict[int, set] = {}
        pairs: set = set()
        for p, c, _ in self.links():
            pair = frozenset((id(p), id(c)))
            if len(pair) == 1 or pair in pairs:
                return True
            pairs.add(pair)
            adjacent.setdefault(id(p), set()).add(id(c))
            adjacent.setdefault(id(c), set()).add(id(p))
        seen: set = set()
        for start in adjacent:
            if start in seen:
                continue
            stack = [(start, None)]
            while stack:
                node, parent = stack.pop()
                if node in seen:
                    return True
                seen.add(node)
                stack.extend((nb, node) for nb in adjacent[node]
                             if nb != parent)
        return False


def build_topology(network) -> Topology:
    """Discover ``network``'s program graph (see the module docstring)."""
    from repro.processes.codecs import Codec

    with network._lock:
        roots = list(network.processes)
        channels = list(network.channels)
    topo = Topology()
    composites: List[Any] = []

    def expand(container, members) -> None:
        for p in members:
            if isinstance(p, CompositeProcess):
                composites.append(p)
                expand(p, list(p.processes))
            else:
                topo.leaves.append(p)
                topo.containers[id(p)] = container

    expand(network, roots)

    by_channel: Dict[int, Edge] = {}

    def edge_of(ch) -> Edge:
        edge = by_channel.get(id(ch))
        if edge is None:
            by_channel[id(ch)] = edge = Edge(ch, remote=is_remote(ch))
            topo.edges.append(edge)
        return edge

    for ch in channels:
        edge_of(ch)

    def bind(process, streams, side, adjacency, loose, covered) -> None:
        mine = adjacency.setdefault(id(process), [])
        for s in streams:
            ch = getattr(s, "channel", None)
            if ch is None:
                loose[id(process)] = loose.get(id(process), 0) + 1
                continue
            edge = edge_of(ch)
            if id(ch) not in covered and edge not in mine:
                mine.append(edge)
                getattr(edge, side).append((process, s))

    for p in topo.leaves:
        bind(p, p.output_streams, "producers", topo.outputs,
             topo.loose_outputs, ())
        bind(p, p.input_streams, "consumers", topo.inputs,
             topo.loose_inputs, ())
    written = {id(e.channel) for e in topo.edges if e.producers}
    read = {id(e.channel) for e in topo.edges if e.consumers}
    for comp in composites:
        bind(comp, comp.output_streams, "producers", topo.outputs,
             topo.loose_outputs, written)
        bind(comp, comp.input_streams, "consumers", topo.inputs,
             topo.loose_inputs, read)

    def declared(codec):
        return codec if isinstance(codec, Codec) else None

    inherit: List[Edge] = []
    for edge in topo.edges:
        writer, reader = edge.producer, edge.consumer
        edge.write_codec = declared(getattr(writer, "out_codec", None)
                                    or getattr(writer, "codec", None))
        edge.read_codec = declared(getattr(reader, "codec", None))
        edge.codec = edge.write_codec
        if edge.codec is None and topo.inputs.get(id(writer)):
            inherit.append(edge)
    # byte-transparent chains resolve in dependency order; a cycle of
    # them, or one fed by an untyped source, stays unknown
    progressed = True
    while progressed:
        progressed = False
        for edge in inherit:
            if edge.codec is None:
                edge.codec = topo.inputs[id(edge.producer)][0].codec
                progressed = progressed or edge.codec is not None
    return topo
