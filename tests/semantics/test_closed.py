"""Closed-stream domain: order laws and kernel behaviour at end-of-stream."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.semantics.closed import (CBOTTOM, CStream, ClosedEquationNetwork,
                                    ck_binary, ck_cons, ck_duplicate,
                                    ck_filter, ck_guard, ck_identity, ck_map,
                                    ck_ordered_merge, ck_router, ck_sieve,
                                    ck_source, cprefix_le)

elems = st.lists(st.integers(min_value=-20, max_value=20), max_size=10)
cstreams = st.builds(lambda e, c: CStream(tuple(e), c), elems, st.booleans())


def approximants(s: CStream):
    """All prefixes of s in the information order (open prefixes + s)."""
    out = [CStream(s.elems[:n], False) for n in range(len(s.elems) + 1)]
    out.append(s)
    return out


# ---------------------------------------------------------------------------
# the order
# ---------------------------------------------------------------------------

@given(cstreams)
def test_reflexive(s):
    assert cprefix_le(s, s)


@given(cstreams, cstreams)
def test_antisymmetric(x, y):
    if cprefix_le(x, y) and cprefix_le(y, x):
        assert x == y


@given(cstreams, cstreams, cstreams)
def test_transitive(x, y, z):
    if cprefix_le(x, y) and cprefix_le(y, z):
        assert cprefix_le(x, z)


@given(cstreams)
def test_bottom_below_everything(s):
    assert cprefix_le(CBOTTOM, s)


@given(cstreams)
def test_closed_streams_are_maximal(s):
    closed = CStream(s.elems, True)
    extended = CStream(s.elems + (99,), True)
    assert not cprefix_le(closed, extended)


@given(cstreams)
def test_open_prefix_below_closed_whole(s):
    open_prefix = CStream(s.elems[: len(s.elems) // 2], False)
    assert cprefix_le(open_prefix, s)


@given(cstreams, st.integers(min_value=0, max_value=12))
def test_take_is_a_prefix(s, n):
    assert cprefix_le(s.take(n), s)


def test_take_drops_closedness():
    s = CStream((1, 2, 3), True)
    assert s.take(2) == CStream((1, 2), False)
    assert s.take(5) is s


# ---------------------------------------------------------------------------
# kernel monotonicity on approximant chains
# ---------------------------------------------------------------------------

KERNELS_1 = [
    ("identity", ck_identity),
    ("map", ck_map(lambda x: x * 2)),
    ("filter", ck_filter(lambda x: x % 2 == 0)),
    ("dup0", lambda ins: (ck_duplicate(2)(ins))[:1]),
]


@pytest.mark.parametrize("name,kernel", KERNELS_1)
@given(cstreams)
@settings(max_examples=40, deadline=None)
def test_unary_kernels_monotonic(name, kernel, s):
    chain = approximants(s)
    outputs = [kernel((a,))[0] for a in chain]
    for x, y in zip(outputs, outputs[1:]):
        assert cprefix_le(x, y), name


@given(cstreams, cstreams)
@settings(max_examples=40, deadline=None)
def test_binary_kernel_monotonic(a, b):
    kernel = ck_binary(lambda x, y: x + y)
    for aa in approximants(a):
        for bb in approximants(b):
            small = kernel((aa, bb))[0]
            large = kernel((a, b))[0]
            assert cprefix_le(small, large)


@given(cstreams, cstreams)
@settings(max_examples=40, deadline=None)
def test_cons_monotonic(head, tail):
    for hh in approximants(head):
        for tt in approximants(tail):
            small = ck_cons((hh, tt))[0]
            large = ck_cons((head, tail))[0]
            assert cprefix_le(small, large)


sorted_cstreams = st.builds(lambda e, c: CStream(tuple(sorted(set(e))), c),
                            elems, st.booleans())


@given(sorted_cstreams, sorted_cstreams)
@settings(max_examples=40, deadline=None)
def test_merge_monotonic(a, b):
    kernel = ck_ordered_merge(True)
    for aa in approximants(a):
        for bb in approximants(b):
            small = kernel((aa, bb))[0]
            large = kernel((a, b))[0]
            assert cprefix_le(small, large)


# ---------------------------------------------------------------------------
# end-of-stream behaviours the plain domain cannot express
# ---------------------------------------------------------------------------

def test_merge_drains_survivor_after_close():
    a = CStream((1, 5), True)       # exhausted and CLOSED
    b = CStream((2, 7, 9), True)
    merged = ck_ordered_merge(True)((a, b))[0]
    assert merged == CStream((1, 2, 5, 7, 9), True)


def test_merge_waits_while_other_side_open():
    a = CStream((1,), False)        # open: more may come
    b = CStream((2, 7), True)
    merged = ck_ordered_merge(True)((a, b))[0]
    # after emitting 1 the merge must stop: a's NEXT element could be
    # anything ≥ 1 (say 1.5), so even b's 2 cannot be emitted yet
    assert merged.elems == (1,)
    assert not merged.closed


def test_cons_switches_only_after_head_closes():
    open_head = ck_cons((CStream((1,), False), CStream((9,), True)))[0]
    assert open_head == CStream((1,), False)
    closed_head = ck_cons((CStream((1,), True), CStream((9,), True)))[0]
    assert closed_head == CStream((1, 9), True)


def test_binary_closes_on_shorter_closed_side():
    out = ck_binary(lambda x, y: x + y)((CStream((1,), True),
                                         CStream((10, 20, 30), False)))[0]
    assert out == CStream((11,), True)  # no second pair can ever form


def test_binary_open_when_both_sides_may_grow():
    out = ck_binary(lambda x, y: x + y)((CStream((1,), False),
                                         CStream((10,), False)))[0]
    assert out == CStream((11,), False)


def test_guard_stop_after_true_closes_output():
    out = ck_guard(True)((CStream((5, 6, 7), False),
                          CStream((False, True, True), False)))[0]
    assert out == CStream((6,), True)


def test_router_splits_and_propagates_close():
    yes, no = ck_router(lambda x: x > 0)((CStream((1, -2, 3), True),))
    assert yes == CStream((1, 3), True)
    assert no == CStream((-2,), True)


def test_sieve_closedness():
    out = ck_sieve((CStream(tuple(range(2, 20)), True),))[0]
    assert out == CStream((2, 3, 5, 7, 11, 13, 17, 19), True)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_closed_solver_feedback_with_termination():
    """x = cons(seed, inc(x)) with a *bounded* sink-side effect: the loop
    runs to max_len, streams stay open (infinite behaviour)."""
    eq = ClosedEquationNetwork(max_len=10)
    eq.node("seed", ck_source((0,)), [], ["head"])
    eq.node("inc", ck_map(lambda v: v + 1), ["x"], ["xi"])
    eq.node("cons", ck_cons, ["head", "xi"], ["x"])
    res = eq.solve()
    assert res["x"].elems == tuple(range(10))
    assert not res.converged  # truncated


def test_closed_solver_terminating_network_converges():
    eq = ClosedEquationNetwork(max_len=100)
    eq.node("src", ck_source((3, 1, 2)), [], ["a"])
    eq.node("sq", ck_map(lambda v: v * v), ["a"], ["b"])
    res = eq.solve()
    assert res["b"] == CStream((9, 1, 4), True)
    assert res.converged


def test_closed_solver_duplicate_producer_rejected():
    eq = ClosedEquationNetwork()
    eq.node("a", ck_source((1,)), [], ["s"])
    with pytest.raises(ValueError, match="already has a producer"):
        eq.node("b", ck_source((2,)), [], ["s"])


def test_closed_solver_detects_retraction():
    calls = {"n": 0}

    def flaky(inputs):
        calls["n"] += 1
        return (CStream((1, 2), True) if calls["n"] == 1
                else CStream((9,), True),)

    eq = ClosedEquationNetwork()
    eq.node("flaky", flaky, [], ["s"])
    from repro.semantics.closed import NonMonotonicClosedError

    with pytest.raises(NonMonotonicClosedError):
        eq.solve()
