"""Determinacy oracle: Kahn's theorem made executable (paper section 2).

Determinacy says "the results of a computation are unique and correct
whether the program is executed on a computer with a single processor, a
computer with multiple processors, or many computers distributed across a
network".  Two executable consequences, both used by the test suite:

1. **Schedule independence** — running the same operational network under
   radically different channel capacities (capacity 1 serializes almost
   everything; capacity 2^20 lets producers sprint ahead) must give
   byte-identical histories.  :func:`histories_under_capacities` runs a
   builder across a capacity sweep and returns the outputs.

2. **Operational = denotational** — the operational history must equal
   the least fixed point of the network's equations.
   :func:`fibonacci_equations`, :func:`hamming_equations` and
   :func:`sieve_equations` write the paper's networks out by hand, over
   the same closed-stream kernels :func:`~repro.semantics.compile.compile_network`
   derives from a built network.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, List, Sequence

from repro.semantics.closed import (ClosedEquationNetwork, ck_binary, ck_cons,
                                    ck_duplicate, ck_map, ck_ordered_merge,
                                    ck_sieve, ck_source)

__all__ = [
    "histories_under_capacities",
    "fibonacci_equations",
    "hamming_equations",
    "sieve_equations",
    "fibonacci_reference",
    "hamming_reference",
    "primes_reference",
]


def histories_under_capacities(builder: Callable[[int], "object"],
                               capacities: Sequence[int] = (16, 64, 1024, 1 << 16),
                               timeout: float = 60.0) -> List[List[Any]]:
    """Run ``builder(capacity)`` → BuiltNetwork for each capacity; collect.

    Every returned history must be identical for a determinate network —
    the assertion is left to the caller so failures show the differing
    histories.
    """
    results = []
    for cap in capacities:
        built = builder(cap)
        results.append(list(built.run(timeout=timeout)))
    return results


# ---------------------------------------------------------------------------
# denotational models of the paper's feedback networks
# ---------------------------------------------------------------------------

def fibonacci_equations(max_len: int = 40) -> ClosedEquationNetwork:
    """Equations of Figures 2/6: B = cons(1,G), F = cons(1,B), G = B + F.

    Solving yields stream ``fh`` = 1, 1, 2, 3, 5, … — the history the
    operational Fibonacci network must print.
    """
    eq = ClosedEquationNetwork(max_len=max_len)
    eq.node("seed-b", ck_source((1,)), [], ["ab"])
    eq.node("cons-b", ck_cons, ["ab", "gb"], ["b"])
    eq.node("dup-b", ck_duplicate(2), ["b"], ["ed", "eg"])
    eq.node("add", ck_binary(operator.add), ["eg", "fg"], ["gb"])
    eq.node("seed-f", ck_source((1,)), [], ["cd"])
    eq.node("cons-f", ck_cons, ["cd", "ed"], ["f"])
    eq.node("dup-f", ck_duplicate(2), ["f"], ["fh", "fg"])
    return eq


def hamming_equations(max_len: int = 60) -> ClosedEquationNetwork:
    """Equations of Figure 12: H = cons(1, merge(2H, merge(3H, 5H)))."""
    eq = ClosedEquationNetwork(max_len=max_len)
    eq.node("one", ck_source((1,)), [], ["seed"])
    eq.node("cons", ck_cons, ["seed", "merged"], ["h"])
    eq.node("dup", ck_duplicate(4), ["h"], ["hx2", "hx3", "hx5", "hout"])
    for k in (2, 3, 5):
        eq.node(f"s{k}", ck_map(lambda x, k=k: x * k), [f"hx{k}"], [f"m{k}"])
    eq.node("merge-a", ck_ordered_merge(True), ["m2", "m3"], ["m23"])
    eq.node("merge-b", ck_ordered_merge(True), ["m23", "m5"], ["merged"])
    return eq


def sieve_equations(below: int, max_len: int = 1000) -> ClosedEquationNetwork:
    """Equations of Figure 7 with the whole Sift subgraph as one kernel."""
    eq = ClosedEquationNetwork(max_len=max_len)
    eq.node("source", ck_source(range(2, below)), [], ["feed"])
    eq.node("sift", ck_sieve, ["feed"], ["primes"])
    return eq


# ---------------------------------------------------------------------------
# closed-form references (independent of both implementations)
# ---------------------------------------------------------------------------

def fibonacci_reference(count: int) -> List[int]:
    out, a, b = [], 1, 1
    for _ in range(count):
        out.append(a)
        a, b = b, a + b
    return out


def hamming_reference(count: int) -> List[int]:
    import heapq

    out: List[int] = []
    heap = [1]
    seen = {1}
    while len(out) < count:
        x = heapq.heappop(heap)
        out.append(x)
        for k in (2, 3, 5):
            if x * k not in seen:
                seen.add(x * k)
                heapq.heappush(heap, x * k)
    return out


def primes_reference(below: int | None = None, count: int | None = None) -> List[int]:
    out: List[int] = []
    candidate = 2
    while True:
        if below is not None and candidate >= below:
            return out
        if all(candidate % p for p in out):
            out.append(candidate)
            if count is not None and len(out) >= count:
                return out
        candidate += 1
