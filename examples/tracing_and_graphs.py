"""Observe a running network: graph rules, tracing, DOT export.

Run:  python examples/tracing_and_graphs.py

Tools an open-source user reaches for on day two:

1. `graph_findings` — static validation of the graph (single
   producer/consumer, connectivity, codec agreement, deadlock and
   boundedness proofs) before it runs;
2. `Network.census()` — what the channels themselves recorded: initial
   and final capacity, exact high-water mark, bytes through, and every
   capacity growth with its cause — and `Tracer`, which reads it on a
   timer while the Hamming network runs under deliberately tiny
   channels, for the occupancy and blocked-actor timelines;
3. `to_dot` / `to_ascii` — render the graph, edge labels carrying the
   census' byte counts and high-water marks.
"""

from repro.analysis import graph_findings
from repro.kpn import Network, Tracer
from repro.kpn.scheduler import DeadlockPolicy
from repro.kpn.visual import to_ascii, to_dot
from repro.processes import hamming


def main() -> None:
    net = Network(name="traced-hamming",
                  policy=DeadlockPolicy(growth_factor=2))
    built = hamming(40, network=net, channel_capacity=16)

    print("== static checks ==")
    for finding in graph_findings(net):
        print(" ", finding)

    print("\n== running under the tracer ==")
    with Tracer(net, period=0.001) as tracer:
        out = built.run(timeout=120)
    assert out[-1] == 144  # the 40th Hamming number

    print(tracer.report().summary())
    for growth in net.census()["growths"][:5]:
        print(f"  {growth['channel']}: {growth['old']}->{growth['new']}B "
              f"({growth['cause']}, freed {growth['process']})")

    print("\n== ASCII graph with census annotations ==")
    print(to_ascii(net))

    dot = to_dot(net, title="Hamming under Parks scheduling")
    path = "/tmp/repro_hamming.dot"
    with open(path, "w") as fh:
        fh.write(dot)
    print(f"\nDOT graph written to {path} "
          f"({len(dot.splitlines())} lines; render with `dot -Tsvg`)")


if __name__ == "__main__":
    main()
    print("tracing and graphs OK")
