"""Monotonicity of every kernel (the property continuity rests on, §2.2).

Each check runs in the closed-stream domain: a kernel applied to any
approximant of its inputs (an open prefix, or the whole stream with its
closed flag) yields a prefix, in the information order, of what it
yields on the whole inputs.
"""

import itertools
import operator

from hypothesis import given, settings, strategies as st

from repro.kpn.channel import Channel
from repro.processes import Scale
from repro.semantics.closed import (CStream, ck_binary, ck_cons, ck_duplicate,
                                    ck_filter, ck_guard, ck_identity, ck_map,
                                    ck_ordered_merge, ck_sieve, cprefix_le)

ints = st.integers(min_value=-50, max_value=50)


def cstreams(elements=ints, sort=False):
    def build(values, closed):
        return CStream(tuple(sorted(set(values)) if sort else values), closed)

    return st.builds(build, st.lists(elements, max_size=10), st.booleans())


def approximants(s):
    return [CStream(s.elems[:n], False) for n in range(len(s.elems) + 1)] + [s]


def check_monotone(kernel, *inputs):
    """kernel(x) ⊑ kernel(inputs) for every approximant tuple x."""
    whole = kernel(inputs)
    for smaller in itertools.product(*map(approximants, inputs)):
        outs = kernel(smaller)
        assert len(outs) == len(whole)
        assert all(cprefix_le(x, y) for x, y in zip(outs, whole))


def positive(s, offset):
    return CStream(tuple(abs(v) + offset for v in s.elems), s.closed)


@given(cstreams())
def test_identity_monotonic(s):
    check_monotone(ck_identity, s)


@given(cstreams())
def test_duplicate_monotonic(s):
    check_monotone(ck_duplicate(3), s)


@given(cstreams())
def test_scale_monotonic(s):
    """The kernel compile_network derives from a Scale's element_fn."""
    stage = Scale(Channel().get_input_stream(), Channel().get_output_stream(), 7)
    check_monotone(ck_map(stage.element_fn()), s)


@given(cstreams())
def test_map_monotonic(s):
    check_monotone(ck_map(lambda x: x * x - 1), s)


@given(cstreams())
def test_modulo_filter_monotonic(s):
    check_monotone(ck_filter(lambda x: x % 3 != 0), positive(s, 1))


@given(cstreams())
def test_sieve_monotonic(s):
    check_monotone(ck_sieve, positive(s, 2))


@given(cstreams(), cstreams())
@settings(max_examples=40, deadline=None)
def test_add_monotonic(a, b):
    check_monotone(ck_binary(operator.add), a, b)


@given(cstreams(), cstreams())
@settings(max_examples=40, deadline=None)
def test_binary_generic_monotonic(a, b):
    check_monotone(ck_binary(operator.mul), a, b)


@given(cstreams(sort=True), cstreams(sort=True))
@settings(max_examples=40, deadline=None)
def test_ordered_merge_monotonic_on_sorted(a, b):
    check_monotone(ck_ordered_merge(True), a, b)


@given(cstreams(), cstreams(st.booleans()))
@settings(max_examples=40, deadline=None)
def test_guard_monotonic(data, control):
    check_monotone(ck_guard(False), data, control)


@given(cstreams(), cstreams(st.booleans()))
@settings(max_examples=40, deadline=None)
def test_guard_stop_after_true_monotonic(data, control):
    check_monotone(ck_guard(True), data, control)


@given(st.lists(ints, max_size=10), cstreams())
def test_cons_monotonic_in_tail(head, tail):
    """Cons is monotonic in its tail for a fixed complete head — the
    property feedback loops rely on."""
    whole_head = CStream(tuple(head), True)
    check_monotone(lambda ins: ck_cons((whole_head, ins[0])), tail)


# -- correctness spot checks ------------------------------------------------

def test_merge_kernel_waits_for_both_heads():
    """While the other side is open the merge may not emit from the
    survivor — that output could be retracted when the other stream's
    next element is smaller."""
    merged = ck_ordered_merge(True)((CStream((1, 5)), CStream((2,))))[0]
    assert merged == CStream((1, 2))  # 5 must NOT be emitted yet


def test_guard_kernel_zip_semantics():
    out = ck_guard(False)((CStream((1, 2, 3)),
                           CStream((True, False, True))))[0]
    assert out.elems == (1, 3)


def test_sieve_kernel_primes():
    out = ck_sieve((CStream(tuple(range(2, 30)), True),))[0]
    assert out.elems == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
