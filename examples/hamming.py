"""The unbounded Hamming network (Figure 12) under bounded scheduling.

Run:  python examples/hamming.py

H = cons(1, merge(2H, 3H, 5H)): every merged element enqueues up to three
new ones, so channel storage "grows without bound as the program
executes".  With small fixed capacities the feedback cycle write-blocks —
an *artificial* deadlock.  Parks' scheduler detects the stall and grows
the smallest full channel, repeatedly, so the program runs in bounded
memory that expands only as needed.  This example runs with deliberately
tiny channels and prints the growth events the scheduler performed.
"""

from repro.kpn import Network
from repro.processes import hamming
from repro.semantics import hamming_reference


def main(count: int = 40) -> None:
    net = Network(name="hamming")
    built = hamming(count, network=net, channel_capacity=16)
    out = built.run(timeout=120)
    print(f"first {count} Hamming numbers:", out)
    assert out == hamming_reference(count)
    events = net.growth_events()
    print(f"\nParks bounded scheduling grew {len(events)} channel(s):")
    for e in events:
        print(f"  {e.channel_name}: {e.old_capacity} -> {e.new_capacity} bytes")


if __name__ == "__main__":
    main()
    print("hamming OK")
