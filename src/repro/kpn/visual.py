"""Program-graph visualization: DOT and ASCII export.

The paper imagines "a visual front end ... for programming", generating
code from a drawn graph.  Going the other direction is immediately
useful: render a built network in Graphviz DOT (for papers, debugging,
documentation) or as an indented ASCII adjacency listing (for terminals
and tests).  Edges are labelled from :meth:`Network.census` — bytes
moved, high-water mark, capacity, or "fused" where the graph compiler
bypassed the ring — so rendering a network after it ran gives a
measured dataflow diagram.
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


def _census_rows(network: Network, topology) -> Dict[str, dict]:
    """The census row of every channel in the topology."""
    rows = network.census()["channels"]
    # a channel reached only through a stream is in no network's census
    return {edge.name: rows.get(edge.name) or edge.channel.occupancy()
            for edge in topology.edges}


def _note(row: dict) -> str:
    """What the census knows about one channel, as an edge annotation."""
    if row.get("fused"):
        return "fused"
    return (f"{row['total_written']}B, "
            f"hw {row['high_watermark']}/{row['capacity']}")


def to_dot(network: Network, title: Optional[str] = None) -> str:
    """Render the network as Graphviz DOT, edges labelled from the
    census (fused edges dotted); remote-linked channels are drawn with
    dashed edges to a cloud node."""
    topology = network.topology()
    rows = _census_rows(network, topology)
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
        row = rows[edge.name]
        lines.append(f"  \"{src.name}\" -> \"{dst.name}\" "
                     f"[label=\"{edge.name}\\n{_note(row)}\""
                     f"{', style=dotted' if row.get('fused') else ''}];")

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


def to_ascii(network: Network) -> str:
    """Terminal-friendly adjacency rendering, annotated like the DOT."""
    topology = network.topology()
    rows = _census_rows(network, topology)
    adjacency: Dict[str, list] = {}
    for src, dst, edge in topology.links():
        adjacency.setdefault(src.name, []).append((dst.name, edge.name))
    lines = [f"network {network.name!r}: {len(topology.leaves)} processes, "
             f"{sum(map(len, adjacency.values()))} channels"]
    for p in sorted(topology.leaves, key=lambda p: p.name):
        lines.append(f"  {p.name} ({type(p).__name__})")
        for dst, channel in sorted(adjacency.get(p.name, [])):
            lines.append(f"    --{channel}--> {dst}  [{_note(rows[channel])}]")
    return "\n".join(lines)
