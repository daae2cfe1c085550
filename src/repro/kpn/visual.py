"""Program-graph visualization: DOT and ASCII export.

The paper imagines "a visual front end ... for programming", generating
code from a drawn graph.  Going the other direction is immediately
useful: render a built network in Graphviz DOT (for papers, debugging,
documentation) or as an indented ASCII adjacency listing (for terminals
and tests).  Optionally annotates edges with trace data — capacity,
high-water mark, bytes moved — turning a :class:`~repro.kpn.tracing.TraceReport`
into a labelled dataflow diagram.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.kpn.network import Network

__all__ = ["to_dot", "to_ascii"]

#: fill colors by coarse process role (matched on class-name fragments)
_ROLE_STYLES = {
    "source": ("#e3f2e1", ("Constant", "Sequence", "FromIterable", "Producer")),
    "sink": ("#fde9e7", ("Print", "Collect", "Discard", "Consumer")),
    "routing": ("#e7eefb", ("Scatter", "Gather", "Direct", "Turnstile",
                            "Select", "Guard", "ModuloRouter", "Duplicate")),
    "reconfig": ("#fdf3dc", ("Sift", "Cons")),
}


def _style_for(process_type: str) -> str:
    for color, fragments in _ROLE_STYLES.values():
        if any(process_type.startswith(f) for f in fragments):
            return color
    return "#f4f4f4"


def to_dot(network: Network, trace=None, title: Optional[str] = None) -> str:
    """Render the network as Graphviz DOT.

    ``trace`` (a TraceReport) adds per-edge annotations; remote-linked
    channels are drawn with dashed edges to a cloud node.
    """
    topology = network.topology()
    lines = ["digraph kpn {",
             "  rankdir=LR;",
             "  node [shape=box, style=filled, fontname=\"Helvetica\"];"]
    if title:
        lines.append(f"  label=\"{title}\"; labelloc=top;")
    for p in topology.leaves:
        ptype = type(p).__name__
        lines.append(
            f"  \"{p.name}\" [label=\"{p.name}\\n({ptype})\", "
            f"fillcolor=\"{_style_for(ptype)}\"];")
    for src, dst, edge in topology.links():
        channel = edge.name
        label = f"{channel}\\ncap {edge.channel.capacity}"
        if trace is not None and channel in trace.channels:
            t = trace.channels[channel]
            label = (f"{channel}\\n{t.total_bytes}B, "
                     f"hw {t.high_water}/{t.capacity_final}")
        lines.append(f"  \"{src.name}\" -> \"{dst.name}\" "
                     f"[label=\"{label}\"];")

    # remote links: dashed edges to/from a cloud placeholder
    remote = [e for e in topology.edges if e.remote]
    if remote:
        lines.append("  \"(remote)\" [shape=ellipse, style=dashed, "
                     "fillcolor=white];")
        for edge in remote:
            for reader in edge.consumer_names:
                lines.append(f"  \"(remote)\" -> \"{reader}\" "
                             f"[style=dashed, label=\"{edge.name}\"];")
            for writer in edge.producer_names:
                lines.append(f"  \"{writer}\" -> \"(remote)\" "
                             f"[style=dashed, label=\"{edge.name}\"];")
    lines.append("}")
    return "\n".join(lines)


def to_ascii(network: Network, trace=None) -> str:
    """Terminal-friendly adjacency rendering."""
    g = network.graph()
    adjacency: Dict[str, list] = {}
    for src, dst, data in g.edges(data=True):
        adjacency.setdefault(src, []).append((dst, data.get("channel", "")))
    lines = [f"network {network.name!r}: {g.number_of_nodes()} processes, "
             f"{g.number_of_edges()} channels"]
    for node in sorted(g.nodes):
        ptype = g.nodes[node].get("process", "?")
        lines.append(f"  {node} ({ptype})")
        for dst, channel in sorted(adjacency.get(node, [])):
            extra = ""
            if trace is not None and channel in trace.channels:
                t = trace.channels[channel]
                extra = f"  [{t.total_bytes}B, hw {t.high_water}]"
            lines.append(f"    --{channel}--> {dst}{extra}")
    return "\n".join(lines)
