"""The graph pass: construction rules and deadlock/boundedness proofs.

"It would not be impossible to enforce these restrictions, such as
having only a single producer and a single consumer process for each
stream, but this would incur some run-time overhead.  Alternatively, a
visual front end could be used ...  The responsibility for consistency
checking could be given to this visual front end" (paper section 3).
:func:`graph_findings` is that front end: it validates a *built*
network before it starts, at zero run-time cost, reading the one
program graph :meth:`~repro.kpn.network.Network.topology` discovers.

**Rules** (one :class:`~repro.analysis.findings.Finding` each):
``multi-producer`` / ``multi-consumer`` (a channel end with two
owners), ``self-loop`` (one process on both ends deadlocks on itself),
``no-producer`` / ``no-consumer`` / ``orphan-channel`` (dangling ends
stall or leak), ``codec-mismatch`` (the consumer decodes another
element format than the producer wrote), ``non-terminating`` (no
iteration limit and no data-dependent stop anywhere: fine for signal
processing, surprising in a test).

**Proofs** upgrade the blanket "graph has an undirected cycle" flag of
section 3.5 into directed-cycle analysis with initial-token accounting:

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

from repro.analysis.findings import Finding, sort_findings
from repro.kpn.process import IterativeProcess, Process

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


def _edges(network, topology=None
           ) -> Tuple[List[ChannelEdge], Dict[str, Process]]:
    """One annotated edge per connected producer/consumer pair, and the
    leaf processes by name."""
    topology = topology or network.topology()
    edges: List[ChannelEdge] = []
    for edge in topology.edges:
        if not edge.producers:
            continue  # dangling ends are the rules' department
        buffered = edge.channel.buffered()
        for consumer, stream in edge.consumers:
            is_deferred = any(
                getattr(consumer, attr, None) is stream
                for attr in getattr(consumer, "kpn_deferred_inputs", ()))
            # the same question the async scheduler asks before every
            # step, asked once of the un-started process: which inputs
            # does the next (first) step read before anything else?
            # Gather names inputs[0] only, Cons its head; unknown names
            # nothing.
            awaited = any(stream is a for a in consumer.awaits() or ())
            strict = bool(getattr(consumer, "kpn_strict", False)) \
                and awaited and not is_deferred
            for producer, _ in edge.producers:
                edges.append(ChannelEdge(
                    channel=edge.name, producer=producer.name,
                    consumer=consumer.name, buffered=buffered,
                    deferred=is_deferred or buffered > 0,
                    strict_read=strict))
    return edges, {p.name: p for p in topology.leaves}


def _directed_cycles(edges: List[ChannelEdge]):
    """Simple directed cycles as node tuples (capped at _MAX_CYCLES)."""
    import networkx as nx

    g = nx.DiGraph()
    for e in edges:
        g.add_edge(e.producer, e.consumer)
    cycles = list(itertools.islice(nx.simple_cycles(g), _MAX_CYCLES + 1))
    truncated = len(cycles) > _MAX_CYCLES
    return cycles[:_MAX_CYCLES], truncated


def prove_graph(network, topology=None) -> GraphProof:
    """Run the deadlock and boundedness analyses over ``network``."""
    topology = topology or network.topology()
    edges, by_name = _edges(network, topology)
    proof = GraphProof()
    proof.has_undirected_cycle = topology.has_undirected_cycle()

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


def _finding(severity: str, rule: str, subject: str, message: str) -> Finding:
    return Finding(rule=rule, severity=severity, analysis="graph",
                   subject=subject, message=message)


def _rule_findings(network, topology) -> List[Finding]:
    """The construction rules of paper section 3, one finding each."""
    findings: List[Finding] = []

    def report(*row: str) -> None:
        findings.append(_finding(*row))

    for edge in topology.edges:
        name, writers, readers = (edge.name, edge.producer_names,
                                  edge.consumer_names)
        if len(writers) > 1:
            report("error", "multi-producer", name,
                   f"channel {name!r} written by {writers}")
        if len(readers) > 1:
            report("error", "multi-consumer", name,
                   f"channel {name!r} read by {readers}")
        for p, _ in edge.producers:
            if any(p is c for c, _ in edge.consumers):
                report("error", "self-loop", p.name,
                       f"{p.name} both reads and writes channel {name!r}; "
                       "it will deadlock on itself")
        if not edge.remote:  # a pumped channel's other end is elsewhere
            if not writers and not readers:
                report("warning", "orphan-channel", name,
                       f"channel {name!r} has no endpoints in this network")
            elif not writers:
                report("error", "no-producer", name,
                       f"channel {name!r} is read by {readers} but never "
                       "written")
            elif not readers:
                report("error", "no-consumer", name,
                       f"channel {name!r} is written by {writers} but never "
                       "read")
        # a consumer with several inputs may read a side input through a
        # codec nobody declares (Guard's BOOL control read), so only a
        # single-input consumer's ``codec`` certainly decodes this edge
        reader = edge.consumer
        if (edge.codec is not None and edge.read_codec is not None
                and len(reader.input_streams) == 1
                and not edge.codec.same_format(edge.read_codec)):
            wrote, reads = (getattr(c, "name", type(c).__name__)
                            for c in (edge.codec, edge.read_codec))
            report("error", "codec-mismatch", name,
                   f"channel {name!r} carries {wrote!r} elements but "
                   f"{reader.name} decodes {reads!r}")

    leaves = topology.leaves
    if leaves and not any(
            isinstance(p, IterativeProcess) and p.iterations > 0
            or type(p).__name__ in ("FromIterable", "Guard") for p in leaves):
        report("info", "non-terminating", network.name,
               "no process has an iteration limit or data-dependent stop; "
               "the network runs until externally stopped (fine for "
               "signal-processing-style programs)")
    return findings


def graph_findings(network, topology=None) -> List[Finding]:
    """Construction rules plus proofs as lint findings, errors first."""
    topology = topology or network.topology()
    findings = _rule_findings(network, topology)
    proof = prove_graph(network, topology)
    for cycle in proof.proved_deadlocks:
        loop = " -> ".join(cycle.processes + (cycle.processes[0],))
        findings.append(_finding(
            "error", "proved-deadlock", loop,
            f"directed cycle {loop} is a guaranteed deadlock: "
            f"{cycle.reason}"))
    if proof.bounded:
        findings.append(_finding(
            "info", "proved-bounded", network.name,
            f"boundedness proof: {proof.bounded_reason}"))
    elif network.monitor is None:
        findings.append(_finding(
            "warning", "cycle-unbounded-monitorless", network.name,
            "undirected cycle with no boundedness proof and the deadlock "
            "monitor is disabled: bounded channels may deadlock with no "
            "recovery (section 3.5): " + proof.bounded_reason))
    else:
        findings.append(_finding(
            "info", "cycle-unproved", network.name,
            "undirected cycle with no boundedness proof (default "
            "capacities may need growth, handled by the deadlock "
            "monitor): " + proof.bounded_reason))
    return sort_findings(findings)
