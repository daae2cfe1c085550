"""Internals of the async hop: the step snapshot, once-only completion,
and the loop's own-thread wake-up path.

The snapshot property keeps the previous ``_snap_object`` /
``_record_containers`` verbatim as its reference oracle: whatever shape a
process's attributes take, a rolled-back step must leave exactly the
state — values *and* aliasing — the old walk would have left.
"""

import threading
import time
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.kpn import Network, aio
from repro.kpn.aio import EventLoop, Task
from repro.processes import Collect, Sequence


# ---------------------------------------------------------------------------
# reference oracle: the snapshot walk as it was before the O(1) type probe
# ---------------------------------------------------------------------------

_ORACLE_MAX_DEPTH = 6


def _oracle_record_containers(value, out, seen, depth=0):
    if depth >= _ORACLE_MAX_DEPTH:
        return
    t = type(value)
    if t is tuple:
        for v in value:
            _oracle_record_containers(v, out, seen, depth + 1)
        return
    if t not in (list, dict, deque, set, bytearray):
        return
    vid = id(value)
    if vid in seen:
        return
    seen.add(vid)
    if t is list or t is deque:
        out.append((value, list(value)))
        for v in value:
            _oracle_record_containers(v, out, seen, depth + 1)
    elif t is dict:
        out.append((value, dict(value)))
        for v in value.values():
            _oracle_record_containers(v, out, seen, depth + 1)
    elif t is set:
        out.append((value, set(value)))
    else:  # bytearray
        out.append((value, bytes(value)))


def _oracle_snap_object(obj, containers, seen):
    saved = dict(obj.__dict__)
    for v in saved.values():
        t = v.__class__
        if (t is list or t is dict or t is deque or t is tuple
                or t is set or t is bytearray):
            _oracle_record_containers(v, containers, seen)
    return saved


# ---------------------------------------------------------------------------
# random attribute shapes and step bodies, as plain data
# ---------------------------------------------------------------------------

_POOL = 4           # shared containers: aliased between attributes/outside
_OPAQUES = 3        # stream-like objects the snapshot leaves alone
_NAMES = ["a", "b", "c", "d", "input_streams", "output_streams"]
_MUTABLE = (list, dict, deque, set, bytearray)

_scalars = st.one_of(
    st.tuples(st.just("int"), st.integers(-5, 5)),
    st.tuples(st.just("str"), st.sampled_from(["", "x", "yz"])),
    st.tuples(st.just("none")),
    st.tuples(st.just("bytes"), st.binary(max_size=3)),
    st.tuples(st.just("opaque"), st.integers(0, _OPAQUES - 1)),
)
_leaves = st.one_of(
    _scalars,
    st.tuples(st.just("pool"), st.integers(0, _POOL - 1)),
    st.tuples(st.just("set"), st.lists(st.integers(0, 6), max_size=4)),
    st.tuples(st.just("bytearray"), st.binary(max_size=4)),
    # the shape every process has: a flat list of stream objects
    st.tuples(st.just("list"), st.lists(
        st.tuples(st.just("opaque"), st.integers(0, _OPAQUES - 1)),
        max_size=3)),
)


def _containers_of(children):
    return st.one_of(
        st.tuples(st.just("list"), st.lists(children, max_size=3)),
        st.tuples(st.just("tuple"), st.lists(children, max_size=3)),
        st.tuples(st.just("deque"), st.lists(children, max_size=3),
                  st.sampled_from([None, 2, 5])),
        st.tuples(st.just("dict"), st.lists(
            st.tuples(st.sampled_from(["k0", "k1", "k2"]), children),
            max_size=3)),
    )


_values = st.recursive(_leaves, _containers_of, max_leaves=8)


@st.composite
def _deep_values(draw):
    """Depth to 6 and past it: the cap must cut both walks alike."""
    spec = draw(_values)
    for kind in draw(st.lists(st.sampled_from(["list", "tuple", "dict"]),
                              max_size=8)):
        spec = ("dict", [("k0", spec)]) if kind == "dict" else (kind, [spec])
    return spec


_pool_entries = st.one_of(
    st.tuples(st.just("list"), st.lists(_values, max_size=3)),
    st.tuples(st.just("deque"), st.lists(_values, max_size=3),
              st.sampled_from([None, 4])),
    st.tuples(st.just("dict"), st.lists(
        st.tuples(st.sampled_from(["k0", "k1"]), _values), max_size=2)),
)

_attrs = st.lists(st.tuples(st.sampled_from(_NAMES), _deep_values()),
                  max_size=5)

_shapes = st.fixed_dictionaries({
    "pool": st.lists(_pool_entries, min_size=_POOL, max_size=_POOL),
    "objects": st.tuples(_attrs, _attrs),       # two objects, one snapshot
    "external": st.lists(st.integers(0, _POOL - 1), max_size=2),
})

_op_values = st.one_of(_values,
                       st.tuples(st.just("reach"), st.integers(0, 30)))
_ops = st.one_of(
    st.tuples(st.just("mutate"), st.integers(0, 30), st.integers(0, 4),
              _op_values, st.integers(0, 255)),
    st.tuples(st.just("setattr"), st.integers(0, 1),
              st.sampled_from(_NAMES + ["fresh0", "fresh1"]), _op_values),
    st.tuples(st.just("delattr"), st.integers(0, 1),
              st.sampled_from(_NAMES + ["fresh0"])),
)


class _Opaque:
    def __init__(self, tag):
        self.tag = tag


class _Proc:
    pass


class _Twin:
    """One materialisation of a shape; two twins start out isomorphic and
    stay so under the same ops, so their restored states are comparable."""

    def __init__(self, shape):
        self.opaques = [_Opaque(k) for k in range(_OPAQUES)]
        shells = {"list": list, "dict": dict}
        self.pool = [deque(maxlen=spec[2]) if spec[0] == "deque"
                     else shells[spec[0]]() for spec in shape["pool"]]
        for shell, spec in zip(self.pool, shape["pool"]):
            built = self.build(spec)        # children may point back: cycles
            if spec[0] == "dict":
                shell.update(built)
            else:
                shell.extend(built)
        self.objs = [_Proc(), _Proc()]
        for obj, attrs in zip(self.objs, shape["objects"]):
            for name, spec in attrs:
                setattr(obj, name, self.build(spec))
        self.externals = [self.pool[i] for i in shape["external"]]

    def build(self, spec):
        kind = spec[0]
        if kind in ("int", "str", "bytes"):
            return spec[1]
        if kind == "none":
            return None
        if kind == "opaque":
            return self.opaques[spec[1]]
        if kind == "pool":
            return self.pool[spec[1]]
        if kind == "reach":
            reachable = self.reachable()
            return reachable[spec[1] % len(reachable)] if reachable else None
        if kind == "set":
            return set(spec[1])
        if kind == "bytearray":
            return bytearray(spec[1])
        if kind == "dict":
            return {k: self.build(v) for k, v in spec[1]}
        items = [self.build(v) for v in spec[1]]
        if kind == "list":
            return items
        if kind == "tuple":
            return tuple(items)
        return deque(items, maxlen=spec[2])

    def reachable(self):
        """Every mutable container reachable from the objects or held
        outside them, in a deterministic order, at any depth."""
        found, memo = [], set()

        def walk(value):
            t = type(value)
            if t in _MUTABLE:
                if id(value) in memo:
                    return
                memo.add(id(value))
                found.append(value)
            if t is dict:
                for v in value.values():
                    walk(v)
            elif t in (list, deque, tuple):
                for v in value:
                    walk(v)

        for obj in self.objs:
            for value in obj.__dict__.values():
                walk(value)
        for ext in self.externals:
            walk(ext)
        return found

    def apply(self, op):
        if op[0] == "setattr":
            setattr(self.objs[op[1]], op[2], self.build(op[3]))
        elif op[0] == "delattr":
            self.objs[op[1]].__dict__.pop(op[2], None)
        else:
            reachable = self.reachable()
            if reachable:
                _mutate(reachable[op[1] % len(reachable)], op[2],
                        self.build(op[3]), op[4])


def _mutate(c, kind, value, n):
    t = type(c)
    if kind == 2:
        c.clear()
    elif t is list:
        if kind == 0:
            c.append(value)
        elif kind == 1 and c:
            c.pop()
        elif kind == 3 and c:
            c[n % len(c)] = value
        else:
            c.insert(0, [value])    # a flat list becomes a nested one
    elif t is deque:
        if kind == 0:
            c.append(value)
        elif kind == 1 and c:
            c.popleft()
        elif kind == 3:
            c.appendleft([value])
        else:
            c.rotate(1)
    elif t is dict:
        if kind == 1 and c:
            del c[next(iter(c))]
        else:
            c[f"k{n % 4}"] = value
    elif t is set:
        if kind == 1:
            c.discard(n % 7)
        else:
            c.add(n % 7)
    else:  # bytearray
        if kind == 1 and c:
            c[0] = n
        else:
            c.extend(bytes([n]))


def _canon(roots):
    """Values with every mutable container (and stream-like object)
    numbered by first visit: equal canons <=> equal values and the same
    aliasing between them."""
    memo = {}

    def canon(value):
        t = type(value)
        if t in _MUTABLE or t is _Opaque:
            if id(value) in memo:
                return ("seen", memo[id(value)])
            memo[id(value)] = len(memo)
            if t is _Opaque:
                return ("opaque", value.tag)
            if t is dict:
                body = [(k, canon(v)) for k, v in value.items()]
            elif t is set:
                body = sorted(value)
            elif t is bytearray:
                body = bytes(value)
            else:
                body = [canon(v) for v in value]
            return (t.__name__, getattr(value, "maxlen", None), body)
        if t is tuple:
            return ("tuple", [canon(v) for v in value])
        return value

    return [canon(r) for r in roots]


def _take(twin, snap_object):
    containers, seen = [], set()
    objects = [(o, snap_object(o, containers, seen)) for o in twin.objs]
    return objects, containers


def _restore(snapshot):
    objects, containers = snapshot
    for obj, saved in objects:
        aio._restore_object(obj, saved)
    aio._restore_containers(containers)


@settings(max_examples=300, deadline=None)
@given(shape=_shapes, before=st.lists(_ops, max_size=6),
       step=st.lists(_ops, max_size=10), block_at=st.integers(0, 10))
def test_rollback_restores_what_the_old_walk_restored(shape, before, step,
                                                      block_at):
    new, old = _Twin(shape), _Twin(shape)
    for twin in (new, old):
        for op in before:           # earlier, committed steps
            twin.apply(op)
    snap_new = _take(new, aio._snap_object)
    snap_old = _take(old, _oracle_snap_object)
    # compare through everything reachable *now*: a step may detach a
    # container that the rollback then has to put back, contents and all
    roots_new = [o.__dict__ for o in new.objs] + new.externals + new.reachable()
    roots_old = [o.__dict__ for o in old.objs] + old.externals + old.reachable()
    # the same containers recorded, in the same order, with the same state
    assert (_canon(roots_new + [state for _, state in snap_new[1]])
            == _canon(roots_old + [state for _, state in snap_old[1]]))
    for twin in (new, old):
        for op in step[:block_at]:  # the step body, up to the op that blocks
            twin.apply(op)
    _restore(snap_new)
    _restore(snap_old)
    assert _canon(roots_new) == _canon(roots_old)


def test_flat_stream_list_restored_in_place_and_aliased_outside():
    """The fast path by hand: the list object survives, its contents
    rewind, and an outside alias (``Collect(into=results)``) sees it."""
    results = []
    proc = _Proc()
    proc.into = results
    proc.input_streams = [_Opaque(0)]
    first = proc.input_streams[0]
    containers, seen = [], set()
    saved = aio._snap_object(proc, containers, seen)
    results.append(1)
    proc.input_streams.append(_Opaque(1))
    proc.input_streams = []
    aio._restore_object(proc, saved)
    aio._restore_containers(containers)
    assert results == [] and proc.into is results
    assert proc.input_streams == [first]


# ---------------------------------------------------------------------------
# completion is once-only
# ---------------------------------------------------------------------------

def test_raising_on_finish_completes_once_and_spares_the_loop():
    loop = EventLoop(name="finish-loop")
    calls = []

    def on_finish():
        calls.append(1)
        raise RuntimeError("observer bug")

    ch = Network(name="unused", bounded=False).channel()
    out = []
    first = Task(Sequence(ch.get_output_stream(), iterations=3), loop,
                 on_finish=on_finish)
    first.start()
    first.join(5)
    assert not first.is_alive()
    assert calls == [1]             # not retried by the loop's handler
    assert loop.thread.is_alive()
    second = Task(Collect(ch.get_input_stream(), out), loop)
    second.start()
    second.join(5)
    assert not second.is_alive() and out == [0, 1, 2]
    loop.stop()


def test_live_count_exact_when_the_finish_kick_raises():
    net = Network(name="finish-raises", backend="async")
    ch = net.channel()
    out = []
    net.add(Sequence(ch.get_output_stream(), iterations=20))
    net.add(Collect(ch.get_input_stream(), out))

    def kick():
        raise RuntimeError("monitor bug")

    # only _actor_finished looks this up at call time; the accounting
    # captured the real bound method when the network was built
    net._kick_monitor = kick
    net.start()
    deadline = time.monotonic() + 10
    while net.live_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert out == list(range(20))
    assert net.live_threads() == []
    assert net.live_count() == 0    # each actor counted exactly once
    with pytest.raises(RuntimeError, match="monitor bug"):
        net.join(timeout=10)        # the loop recorded it as a failure


# ---------------------------------------------------------------------------
# loop-local wake-ups
# ---------------------------------------------------------------------------

def test_schedule_from_the_loop_thread_skips_the_condition(monkeypatch):
    """A task that reschedules itself from inside the loop appends without
    touching the condition; an outside thread still locks and notifies."""

    class CountingCondition(threading.Condition):
        entered = 0

        def __enter__(self):
            self.entered += 1
            return super().__enter__()

    monkeypatch.setattr(threading, "Condition", CountingCondition)
    loop = EventLoop(name="local-wake")
    monkeypatch.undo()
    cond = loop._cond
    done = threading.Event()

    class Hopper:
        """Duck-types the one method the loop calls."""
        hops = 0
        process = None

        def _resume(self):
            self.hops += 1
            if self.hops < 1000:
                loop.schedule(self)
            else:
                done.set()

    hopper = Hopper()
    loop.schedule(hopper)           # from this thread: lock + notify
    assert done.wait(10)
    assert hopper.hops == 1000
    # one entry for the outside schedule, a handful for the loop going to
    # sleep — not one per hop
    assert cond.entered < 20
    loop.stop()
    loop.thread.join(5)
    assert not loop.thread.is_alive()
