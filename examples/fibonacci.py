"""The Fibonacci network of Figures 2 and 6, three ways.

Run:  python examples/fibonacci.py

1. the prebuilt graph (`repro.processes.networks.fibonacci`) — the exact
   wiring of the paper's Figure 6, with a Collect in place of Print;
2. the same graph built by hand with a real Print process, mirroring the
   paper's construction code line by line;
3. the *denotational* route: solve the network's stream equations by
   Kleene iteration and confirm the operational history equals the least
   fixed point — Kahn's determinacy theorem, demonstrated.
"""

from repro.kpn import Network
from repro.processes import (Add, Cons, Constant, Duplicate, Print, fibonacci)
from repro.semantics import fibonacci_equations, fibonacci_reference


def prebuilt() -> None:
    print("== prebuilt graph ==")
    out = fibonacci(20).run(timeout=30)
    print("fibonacci:", out)
    assert out == fibonacci_reference(20)


def by_hand() -> None:
    print("== hand-built graph (paper Figure 6, with Print) ==")
    net = Network(name="fibonacci-manual")
    ab, be, cd, df, ed, eg, fg, fh, gb = net.channels_n(9, prefix="fib")
    net.add(Constant(1, ab.get_output_stream(), iterations=1))
    net.add(Cons(ab.get_input_stream(), gb.get_input_stream(),
                 be.get_output_stream()))
    net.add(Duplicate(be.get_input_stream(),
                      [ed.get_output_stream(), eg.get_output_stream()]))
    net.add(Add(eg.get_input_stream(), fg.get_input_stream(),
                gb.get_output_stream()))
    net.add(Constant(1, cd.get_output_stream(), iterations=1))
    net.add(Cons(cd.get_input_stream(), ed.get_input_stream(),
                 df.get_output_stream()))
    net.add(Duplicate(df.get_input_stream(),
                      [fh.get_output_stream(), fg.get_output_stream()]))
    net.add(Print(fh.get_input_stream(), iterations=20, prefix="fib: "))
    net.run(timeout=30)


def denotational() -> None:
    print("== denotational check (least fixed point) ==")
    solution = fibonacci_equations(max_len=25).solve()
    operational = fibonacci(20).run(timeout=30)
    fixed_point = list(solution.history("fh")[:20])
    print("fixed point ['fh'][:20] ==", fixed_point)
    assert fixed_point == operational
    print("operational history equals the least fixed point — determinate.")


if __name__ == "__main__":
    prebuilt()
    by_hand()
    denotational()
    print("fibonacci OK")
