"""Order laws of the prefix order on open streams (paper section 2.1).

An open ``CStream`` (not closed) is a finite prefix of a stream that may
still grow; restricted to these the information order is the plain
prefix order on sequences, and it is a partial order with ⊥ below all.
"""

from hypothesis import given, strategies as st

from repro.semantics.closed import CBOTTOM, CStream, cprefix_le

streams = st.lists(st.integers(min_value=-100, max_value=100),
                   max_size=12).map(lambda e: CStream(tuple(e), False))


@given(streams)
def test_reflexive(x):
    assert cprefix_le(x, x)


@given(streams, streams)
def test_antisymmetric(x, y):
    if cprefix_le(x, y) and cprefix_le(y, x):
        assert x == y


@given(streams, streams, streams)
def test_transitive(x, y, z):
    if cprefix_le(x, y) and cprefix_le(y, z):
        assert cprefix_le(x, z)


@given(streams)
def test_bottom_below_everything(x):
    assert cprefix_le(CBOTTOM, x)
