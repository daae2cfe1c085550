"""Static deadlock and boundedness proofs over the program graph.

This upgrades the checker's blanket "graph has an undirected cycle"
flag (paper section 3.5) into directed-cycle analysis with
initial-token accounting:

* **Guaranteed deadlock.**  A directed cycle in which every process
  must read its cycle input before producing its cycle output, with no
  buffered data and no deferred (delay/initial-token) edge, can never
  make progress: nobody produces first, so nobody ever reads.  That is
  a proof, not a heuristic — the network deadlocks on every schedule.
* **Proved bounded.**  Two discharge arguments:

  - no undirected cycle at all — the paper's own section 3.5 claim
    ("sufficient for ... all programs with no undirected cycles");
  - every leaf process is rate-balanced (long-run production matches
    consumption on every output; no data-dependent routing between
    outputs) *and* every directed cycle carries at least one deferred
    edge or buffered token.  Then the feedback loops are live and the
    balanced rates keep occupancy from growing with stream length, so
    declared capacities suffice and Parks growth is never needed.

Processes advertise the contract via three class attributes declared in
:mod:`repro.kpn.process` (``kpn_strict``, ``kpn_rate_balanced``,
``kpn_deferred_inputs``) and the firing-rule hook
:meth:`~repro.kpn.process.Process.awaits`; library processes set them
where true (e.g. ``Cons`` defers its ``tail``, ``Delay`` defers
``source`` when it has initial values, ``Gather`` awaits one input per
step).  An input edge counts as strictly read only when the un-started
consumer's rule names it.  Undeclared classes are treated
conservatively: they defeat both proofs, never enable one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.kpn.process import CompositeProcess, Process

__all__ = ["ChannelEdge", "CycleReport", "GraphProof", "prove_graph",
           "graph_findings"]

#: stop enumerating simple cycles past this many (pathological graphs)
_MAX_CYCLES = 200


@dataclass
class ChannelEdge:
    """One channel viewed as a directed edge producer -> consumer."""

    channel: str
    producer: str
    consumer: str
    #: bytes currently buffered (initial tokens seeded before start)
    buffered: int
    #: the consumer defers its first read of this channel until after
    #: producing output (Cons tail, Delay with initial values), or the
    #: channel holds buffered tokens — either way the edge cannot be the
    #: blocking edge of a zero-token cycle
    deferred: bool
    #: the consumer certainly reads this channel before producing any
    #: output: a strict class whose firing rule, asked before its first
    #: step, names this input — and does not defer it
    strict_read: bool


@dataclass
class CycleReport:
    """One directed cycle and what the analysis concluded about it."""

    processes: Tuple[str, ...]
    channels: Tuple[str, ...]
    verdict: str  #: "deadlock" | "live" | "unknown"
    reason: str


@dataclass
class GraphProof:
    """Result of :func:`prove_graph`."""

    has_directed_cycle: bool = False
    has_undirected_cycle: bool = False
    cycles: List[CycleReport] = field(default_factory=list)
    bounded: bool = False
    bounded_reason: str = ""
    #: True when cycle enumeration hit the cap (claims stay conservative)
    truncated: bool = False

    @property
    def proved_deadlocks(self) -> List[CycleReport]:
        return [c for c in self.cycles if c.verdict == "deadlock"]


def _leaves(network) -> List[Process]:
    leaves: List[Process] = []
    pending = list(network.processes)
    while pending:
        p = pending.pop()
        if isinstance(p, CompositeProcess):
            pending.extend(p.processes)
        else:
            leaves.append(p)
    return leaves


def _stream_attr_names(process: Process) -> Dict[int, str]:
    """Map id(stream) -> the scalar attribute name holding it."""
    names: Dict[int, str] = {}
    for attr, value in vars(process).items():
        if attr in ("input_streams", "output_streams"):
            continue
        names.setdefault(id(value), attr)
    return names


def _edges(network) -> Tuple[List[ChannelEdge], Dict[str, Process]]:
    """Channel edges with per-edge deferral/strictness annotations."""
    leaves = _leaves(network)
    by_name = {p.name: p for p in leaves}
    producers: Dict[str, str] = {}
    consumers: Dict[str, Tuple[Process, Optional[str], bool]] = {}
    for p in leaves:
        attr_of = _stream_attr_names(p)
        for s in p.output_streams:
            ch = getattr(s, "channel", None)
            if ch is not None:
                producers[ch.name] = p.name
        # the same question the async scheduler asks before every step,
        # asked once of the un-started process: which inputs does the
        # next (first) step read before anything else?  Gather names
        # inputs[0] only, Cons its head; unknown names nothing.
        awaited = p.awaits() or ()
        for s in p.input_streams:
            ch = getattr(s, "channel", None)
            if ch is not None:
                consumers[ch.name] = (p, attr_of.get(id(s)),
                                      any(s is a for a in awaited))
    edges: List[ChannelEdge] = []
    for ch in network.channels:
        src = producers.get(ch.name)
        entry = consumers.get(ch.name)
        if src is None or entry is None:
            continue  # dangling ends are the checker's department
        consumer, attr, awaited = entry
        deferred_attrs = tuple(getattr(consumer, "kpn_deferred_inputs", ()))
        is_deferred = attr is not None and attr in deferred_attrs
        try:
            buffered = ch.buffered()
        except Exception:
            buffered = 0
        strict = bool(getattr(consumer, "kpn_strict", False)) \
            and awaited and not is_deferred
        edges.append(ChannelEdge(channel=ch.name, producer=src,
                                 consumer=consumer.name, buffered=buffered,
                                 deferred=is_deferred or buffered > 0,
                                 strict_read=strict))
    return edges, by_name


def _undirected_cycle(edges: List[ChannelEdge]) -> bool:
    """Undirected cycle (incl. parallel edges), without networkx."""
    import collections
    adj: Dict[str, set] = collections.defaultdict(set)
    pair_counts: Dict[Tuple[str, str], int] = collections.Counter()
    for e in edges:
        if e.producer == e.consumer:
            return True
        key = tuple(sorted((e.producer, e.consumer)))
        pair_counts[key] += 1
        adj[e.producer].add(e.consumer)
        adj[e.consumer].add(e.producer)
    if any(n > 1 for n in pair_counts.values()):
        return True
    seen: set = set()
    for start in list(adj):
        if start in seen:
            continue
        stack = [(start, None)]
        while stack:
            node, parent = stack.pop()
            if node in seen:
                return True
            seen.add(node)
            for nb in adj[node]:
                if nb != parent:
                    stack.append((nb, node))
    return False


def _directed_cycles(edges: List[ChannelEdge]):
    """Simple directed cycles as node tuples (capped at _MAX_CYCLES)."""
    import networkx as nx

    g = nx.DiGraph()
    for e in edges:
        g.add_edge(e.producer, e.consumer)
    cycles = list(itertools.islice(nx.simple_cycles(g), _MAX_CYCLES + 1))
    truncated = len(cycles) > _MAX_CYCLES
    return cycles[:_MAX_CYCLES], truncated


def prove_graph(network) -> GraphProof:
    """Run the deadlock and boundedness analyses over ``network``."""
    edges, by_name = _edges(network)
    proof = GraphProof()
    proof.has_undirected_cycle = _undirected_cycle(edges)

    by_pair: Dict[Tuple[str, str], List[ChannelEdge]] = {}
    for e in edges:
        by_pair.setdefault((e.producer, e.consumer), []).append(e)

    cycles, proof.truncated = _directed_cycles(edges)
    proof.has_directed_cycle = bool(cycles)
    for nodes in cycles:
        hops = [(nodes[i], nodes[(i + 1) % len(nodes)])
                for i in range(len(nodes))]
        blocking: List[str] = []   # one provably-blocking channel per hop
        deferred_edge: Optional[ChannelEdge] = None
        weak_hop: Optional[Tuple[str, str]] = None
        for u, v in hops:
            candidates = by_pair.get((u, v), [])
            block = next((e for e in candidates
                          if e.strict_read and not e.deferred), None)
            if block is not None:
                blocking.append(block.channel)
            else:
                weak_hop = weak_hop or (u, v)
            if deferred_edge is None:
                deferred_edge = next((e for e in candidates if e.deferred),
                                     None)
        if len(blocking) == len(hops):
            # every hop blocks on an empty, strictly-read channel
            verdict = "deadlock"
            reason = ("every process blocks reading its cycle input "
                      "before producing; no channel on the cycle holds "
                      "tokens — no schedule can make progress")
        elif deferred_edge is not None:
            verdict = "live"
            reason = (f"{deferred_edge.consumer} defers/holds tokens on "
                      f"{deferred_edge.channel!r}, so the loop can start")
        else:
            verdict = "unknown"
            u, v = weak_hop if weak_hop else hops[0]
            reason = (f"{v} gives no strict-read guarantee for its "
                      f"input from {u}")
        proof.cycles.append(CycleReport(
            processes=tuple(nodes),
            channels=tuple(blocking) if verdict == "deadlock" else (),
            verdict=verdict, reason=reason))

    # -- boundedness ---------------------------------------------------------
    if not proof.has_undirected_cycle:
        proof.bounded = True
        proof.bounded_reason = ("no undirected cycle: default capacities "
                                "are sufficient (paper section 3.5)")
    elif proof.truncated:
        proof.bounded = False
        proof.bounded_reason = "cycle enumeration truncated; no claim"
    else:
        unbalanced = sorted({p.name for p in by_name.values()
                             if not getattr(p, "kpn_rate_balanced", False)})
        dead_or_unknown = [c for c in proof.cycles
                           if c.verdict != "live"]
        if unbalanced:
            shown = ", ".join(unbalanced[:4])
            if len(unbalanced) > 4:
                shown += ", ..."
            proof.bounded_reason = (
                "no boundedness proof: process(es) without a "
                f"rate-balance declaration: {shown}")
        elif dead_or_unknown:
            proof.bounded_reason = (
                "no boundedness proof: directed cycle without a deferred "
                "edge ("
                + " -> ".join(dead_or_unknown[0].processes) + ")")
        else:
            proof.bounded = True
            proof.bounded_reason = (
                "all processes rate-balanced and every directed cycle "
                "carries a deferred/initial token: occupancy cannot grow "
                "with stream length, declared capacities suffice")
    return proof


def graph_findings(network) -> List[Finding]:
    """Proofs as lint findings (errors for deadlocks, info for proofs)."""
    proof = prove_graph(network)
    findings: List[Finding] = []
    for cycle in proof.proved_deadlocks:
        loop = " -> ".join(cycle.processes + (cycle.processes[0],))
        findings.append(Finding(
            rule="proved-deadlock", severity="error", analysis="graph",
            subject=loop,
            message=f"directed cycle {loop} is a guaranteed deadlock: "
                    f"{cycle.reason}"))
    if proof.bounded:
        findings.append(Finding(
            rule="proved-bounded", severity="info", analysis="graph",
            subject=getattr(network, "name", ""),
            message=f"boundedness proof: {proof.bounded_reason}"))
    elif proof.has_undirected_cycle:
        findings.append(Finding(
            rule="cycle-unproved", severity="info", analysis="graph",
            subject=getattr(network, "name", ""),
            message="undirected cycle with no boundedness proof: "
                    + proof.bounded_reason))
    return findings
