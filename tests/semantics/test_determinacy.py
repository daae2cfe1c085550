"""Determinacy: Kahn's central claim, tested operationally (section 2).

Two angles:
1. operational histories are identical across wildly different channel
   capacities (different schedules, same fixed point);
2. operational histories equal the denotationally solved least fixed
   point.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kpn import Network
from repro.processes import fibonacci, hamming, primes
from repro.semantics import (fibonacci_equations, fibonacci_reference,
                             hamming_equations, hamming_reference,
                             histories_under_capacities, primes_reference,
                             sieve_equations)

CAPACITIES = (16, 64, 1024, 1 << 16)


# ---------------------------------------------------------------------------
# schedule independence
# ---------------------------------------------------------------------------

def test_fibonacci_schedule_independent():
    runs = histories_under_capacities(
        lambda cap: fibonacci(15, network=Network(default_capacity=cap)),
        CAPACITIES)
    assert all(r == runs[0] for r in runs)
    assert runs[0] == fibonacci_reference(15)


def test_hamming_schedule_independent():
    runs = histories_under_capacities(
        lambda cap: hamming(25, network=Network(), channel_capacity=cap),
        CAPACITIES, timeout=120)
    assert all(r == runs[0] for r in runs)
    assert runs[0] == hamming_reference(25)


def test_sieve_schedule_independent():
    runs = histories_under_capacities(
        lambda cap: primes(count=15, network=Network(),
                           channel_capacity=cap),
        CAPACITIES, timeout=120)
    assert all(r == runs[0] for r in runs)


def test_repeated_runs_identical():
    """Same build, many runs: thread scheduling noise must not matter."""
    results = [fibonacci(12).run(timeout=60) for _ in range(8)]
    assert all(r == results[0] for r in results)


@given(st.integers(min_value=1, max_value=25),
       st.sampled_from([8, 32, 256, 4096]))
@settings(max_examples=12, deadline=None)
def test_fibonacci_determinate_property(count, capacity):
    out = fibonacci(count, network=Network(default_capacity=capacity)).run(
        timeout=60)
    assert out == fibonacci_reference(count)


# ---------------------------------------------------------------------------
# operational == denotational
# ---------------------------------------------------------------------------

def test_fibonacci_operational_equals_fixed_point():
    solution = fibonacci_equations(max_len=30).solve()
    operational = fibonacci(25).run(timeout=60)
    assert list(solution.history("fh")[:25]) == operational


def test_hamming_operational_equals_fixed_point():
    solution = hamming_equations(max_len=50).solve()
    operational = hamming(40).run(timeout=120)
    assert list(solution.history("hout")[:40]) == operational


def test_sieve_operational_equals_fixed_point():
    solution = sieve_equations(below=80).solve()
    operational = primes(below=80).run(timeout=120)
    assert list(solution.history("primes")) == operational


def test_fixed_point_internal_streams_consistent():
    """Not just the output: every stream of the Fibonacci system matches
    its defining equation at the solution."""
    eq = fibonacci_equations(max_len=30)
    res = eq.solve()
    b, f, g = res.history("b"), res.history("f"), res.history("gb")
    # G = B + F elementwise (up to computed length)
    n = len(g)
    assert g[:n] == tuple(x + y for x, y in zip(b, f))[:n]
    # B = 1 : G
    assert b[:1] == (1,)
    assert b[1:len(g) + 1] == g[:len(b) - 1]
