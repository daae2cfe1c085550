"""The Kleene least-fixed-point solver (paper section 2.2), run on the
closed-stream domain."""

import operator

import pytest

from repro.semantics.closed import (CBOTTOM, CStream, ClosedEquationNetwork,
                                    NonMonotonicClosedError, ck_binary,
                                    ck_cons, ck_identity, ck_map, ck_source,
                                    cprefix_le)


def _counter(eq):
    """x = cons(0, map(+1, x)) — the canonical feedback equation."""
    eq.node("seed", ck_source((0,)), [], ["head"])
    eq.node("inc", ck_map(lambda v: v + 1), ["x"], ["xi"])
    eq.node("cons", ck_cons, ["head", "xi"], ["x"])
    return eq


def test_single_source_converges():
    eq = ClosedEquationNetwork(max_len=100)
    eq.node("src", ck_source(range(5)), [], ["s"])
    res = eq.solve()
    assert res["s"] == CStream((0, 1, 2, 3, 4), True)
    assert res.converged


def test_pipeline_composition():
    eq = ClosedEquationNetwork(max_len=100)
    eq.node("src", ck_source((1, 2, 3, 4)), [], ["a"])
    eq.node("sq", ck_map(lambda x: x * x), ["a"], ["b"])
    assert eq.solve().history("b") == (1, 4, 9, 16)


def test_feedback_loop_counts_up():
    res = _counter(ClosedEquationNetwork(max_len=10)).solve()
    assert res["x"] == CStream(tuple(range(10)), False)
    assert not res.converged  # infinite stream truncated at max_len


def test_iterates_form_increasing_chain():
    """Each Kleene sweep extends streams — checked via successive solves
    with growing iteration budgets."""
    prefixes = [
        _counter(ClosedEquationNetwork(max_len=50,
                                       max_iterations=max_iter)).solve()["x"]
        for max_iter in (1, 2, 3, 5, 8)]
    for a, b in zip(prefixes, prefixes[1:]):
        assert cprefix_le(a, b)


def test_mutual_recursion_fibonacci_style():
    eq = ClosedEquationNetwork(max_len=12)
    eq.node("seed-b", ck_source((1,)), [], ["sb"])
    eq.node("seed-f", ck_source((1,)), [], ["sf"])
    eq.node("cons-b", ck_cons, ["sb", "g"], ["b"])
    eq.node("cons-f", ck_cons, ["sf", "b"], ["f"])
    eq.node("add", ck_binary(operator.add), ["b", "f"], ["g"])
    res = eq.solve()
    assert res.history("f")[:8] == (1, 1, 2, 3, 5, 8, 13, 21)


def test_unconnected_stream_stays_bottom():
    eq = ClosedEquationNetwork()
    eq.stream("floating")
    eq.node("src", ck_source((0, 1, 2)), [], ["s"])
    assert eq.solve()["floating"] == CBOTTOM


def test_duplicate_producer_rejected():
    eq = ClosedEquationNetwork()
    eq.node("a", ck_source((0, 1, 2)), [], ["s"])
    with pytest.raises(ValueError, match="already has a producer"):
        eq.node("b", ck_source((9, 10, 11)), [], ["s"])


def test_wrong_output_arity_detected():
    eq = ClosedEquationNetwork()
    eq.node("bad", lambda inputs: (CStream((1,)), CStream((2,))), [],
            ["only-one"])
    with pytest.raises(ValueError, match="returned 2 streams"):
        eq.solve()


def test_non_monotonic_kernel_detected():
    calls = {"n": 0}

    def flaky(inputs):
        calls["n"] += 1
        # first sweep emits (1, 2); later sweeps retract to (9,)
        return (CStream((1, 2) if calls["n"] == 1 else (9,)),)

    eq = ClosedEquationNetwork()
    eq.node("flaky", flaky, [], ["s"])
    with pytest.raises(NonMonotonicClosedError):
        eq.solve()


def test_shorter_but_consistent_output_kept():
    """A kernel that (harmlessly) reports a shorter prefix later must not
    lose the longer history."""
    calls = {"n": 0}

    def shrinking(inputs):
        calls["n"] += 1
        return (CStream((1, 2, 3) if calls["n"] == 1 else (1, 2)),)

    eq = ClosedEquationNetwork()
    eq.node("s", shrinking, [], ["out"])
    assert eq.solve().history("out") == (1, 2, 3)


def test_max_iterations_bound_respected():
    res = _counter(ClosedEquationNetwork(max_len=10 ** 6,
                                         max_iterations=3)).solve()
    assert res.iterations == 3
    assert not res.converged


def test_identity_chain_propagates_through_layers():
    eq = ClosedEquationNetwork()
    eq.node("src", ck_source((0, 1, 2, 3)), [], ["l0"])
    for i in range(6):
        eq.node(f"id{i}", ck_identity, [f"l{i}"], [f"l{i + 1}"])
    assert eq.solve()["l6"] == CStream((0, 1, 2, 3), True)
