"""Closed-stream semantics: the one denotational domain (paper section 2).

A stream is a finite prefix plus termination information.  A bare prefix
cannot say "this stream is *finished*", so kernels over prefixes alone
must be conservative: an ordered merge could never drain its surviving
input (the other side's next element might still undercut it), and Cons
could never switch to its tail.  Operationally, completeness is exactly
what channel end-of-stream delivers — so to predict the runtime's full
histories, the denotational domain carries it too.

Here a stream value is a :class:`CStream` ``(elems, closed)`` with order

    (a, ca) ⊑ (b, cb)   iff   a prefix-of b  and  (ca ⇒ (cb and a == b))

i.e. a closed stream is maximal: nothing extends it.  ⊥ is ``((), False)``.
This is a CPO (chains stabilize once closed), all the ``ck_*`` kernels
below are monotonic in it, and :class:`ClosedEquationNetwork` solves a
network's equations by Kleene iteration::

    X_0 = ⊥,   X_{j+1} = f(X_j),   meaning = ⊔_j X_j

stopping at a fixed point (a terminating network) or at ``max_len``
elements per stream (the finite prefix of an infinite behaviour).  The
network compiler (:mod:`repro.semantics.compile`) and the hand-written
equations of :mod:`repro.semantics.determinacy` run on this domain,
which is what lets them predict, e.g., that Figure 13's merge emits
*all* 60 integers — the last few only flow after the upper branch's
end-of-stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = [
    "CStream", "CBOTTOM", "cprefix_le",
    "ck_source", "ck_identity", "ck_map", "ck_duplicate",
    "ck_binary", "ck_cons", "ck_filter", "ck_ordered_merge", "ck_guard",
    "ck_router", "ck_sieve",
    "ClosedEquationNetwork", "ClosedFixpointResult",
]


@dataclass(frozen=True)
class CStream:
    """A finite stream prefix plus a completeness flag."""

    elems: Tuple[Any, ...] = ()
    closed: bool = False

    def __len__(self) -> int:
        return len(self.elems)

    def take(self, n: int) -> "CStream":
        """Truncation; dropping elements forfeits the closed flag."""
        if n >= len(self.elems):
            return self
        return CStream(self.elems[:n], False)


CBOTTOM = CStream()


def cprefix_le(x: CStream, y: CStream) -> bool:
    """The information order: y extends (or equals) x."""
    if len(x.elems) > len(y.elems) or y.elems[: len(x.elems)] != x.elems:
        return False
    if x.closed:
        return y.closed and x.elems == y.elems
    return True


CKernel = Callable[[Tuple[CStream, ...]], Tuple[CStream, ...]]


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def ck_source(items: Sequence[Any]) -> CKernel:
    """A bounded source: emits everything, closed."""
    value = CStream(tuple(items), True)

    def kernel(inputs):
        return (value,)

    return kernel


def ck_identity(inputs):
    (s,) = inputs
    return (s,)


def ck_map(fn: Callable[[Any], Any]) -> CKernel:
    def kernel(inputs):
        (s,) = inputs
        return (CStream(tuple(fn(x) for x in s.elems), s.closed),)

    return kernel


def ck_duplicate(n: int) -> CKernel:
    def kernel(inputs):
        (s,) = inputs
        return tuple(s for _ in range(n))

    return kernel


def ck_binary(op: Callable[[Any, Any], Any]) -> CKernel:
    """Element-wise zip; output closes when the shorter side has closed
    (no further pairs can ever form)."""

    def kernel(inputs):
        a, b = inputs
        n = min(len(a), len(b))
        out = tuple(op(x, y) for x, y in zip(a.elems, b.elems))
        closed = (a.closed and len(a) <= n) or (b.closed and len(b) <= n)
        return (CStream(out, closed),)

    return kernel


def ck_cons(inputs):
    """head ++ tail: tail elements flow only once the head has closed —
    exactly the operational Cons's EOF-switch, and monotonic by
    construction (an open head's output never includes tail data)."""
    head, tail = inputs
    if not head.closed:
        return (CStream(head.elems, False),)
    return (CStream(head.elems + tail.elems, tail.closed),)


def ck_filter(predicate: Callable[[Any], bool]) -> CKernel:
    def kernel(inputs):
        (s,) = inputs
        return (CStream(tuple(x for x in s.elems if predicate(x)), s.closed),)

    return kernel


def ck_ordered_merge(dedup: bool = True) -> CKernel:
    """Ordered merge with end-of-stream draining.

    While both inputs hold pending elements, merge by comparison.  Once
    one input is exhausted *and closed*, the survivor drains freely —
    the step the prefix-only kernel must refuse.  Output closes when both
    inputs are exhausted-and-closed.
    """

    def kernel(inputs):
        a, b = inputs
        out: List[Any] = []
        i = j = 0
        la, lb = a.elems, b.elems
        while True:
            a_has = i < len(la)
            b_has = j < len(lb)
            if a_has and b_has:
                if la[i] < lb[j]:
                    out.append(la[i]); i += 1
                elif lb[j] < la[i]:
                    out.append(lb[j]); j += 1
                else:
                    out.append(la[i]); i += 1
                    if dedup:
                        j += 1
            elif a_has and not b_has and b.closed:
                out.append(la[i]); i += 1
            elif b_has and not a_has and a.closed:
                out.append(lb[j]); j += 1
            else:
                break
        closed = (a.closed and i >= len(la)) and (b.closed and j >= len(lb))
        return (CStream(tuple(out), closed),)

    return kernel


def ck_guard(stop_after_true: bool = False) -> CKernel:
    def kernel(inputs):
        data, control = inputs
        out: List[Any] = []
        stopped = False
        pairs = min(len(data), len(control))
        for k in range(pairs):
            if control.elems[k]:
                out.append(data.elems[k])
                if stop_after_true:
                    stopped = True
                    break
        exhausted_closed = ((data.closed and len(data) <= pairs)
                            or (control.closed and len(control) <= pairs))
        return (CStream(tuple(out), stopped or exhausted_closed),)

    return kernel


def ck_router(predicate: Callable[[Any], bool]) -> CKernel:
    """Two-way split: (matching, non-matching); both close with input."""

    def kernel(inputs):
        (s,) = inputs
        yes = tuple(x for x in s.elems if predicate(x))
        no = tuple(x for x in s.elems if not predicate(x))
        return (CStream(yes, s.closed), CStream(no, s.closed))

    return kernel


def ck_sieve(inputs):
    (s,) = inputs
    out: List[Any] = []
    for x in s.elems:
        if all(x % p for p in out):
            out.append(x)
    return (CStream(tuple(out), s.closed),)


# ---------------------------------------------------------------------------
# fixed-point solver over the closed-stream domain
# ---------------------------------------------------------------------------

class NonMonotonicClosedError(RuntimeError):
    """A kernel violated the closed-stream information order."""


@dataclass
class ClosedFixpointResult:
    streams: Dict[str, CStream]
    iterations: int
    converged: bool

    def __getitem__(self, name: str) -> CStream:
        return self.streams[name]

    def history(self, name: str) -> Tuple[Any, ...]:
        return self.streams[name].elems


@dataclass
class _CNode:
    name: str
    kernel: CKernel
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]


class ClosedEquationNetwork:
    """Builder and Kleene solver for a system of stream equations.

    Declare streams by name and attach one producing kernel per stream
    (single-producer, like operational channels).  "Converged" means a
    genuine fixed point was reached with no stream truncated.  A kernel
    that retracts output it produced in an earlier sweep raises
    :class:`NonMonotonicClosedError`; one that reports a shorter but
    consistent output keeps the longer history.
    """

    def __init__(self, max_len: int = 1000, max_iterations: int = 100000) -> None:
        self.max_len = max_len
        self.max_iterations = max_iterations
        self._nodes: List[_CNode] = []
        self._streams: set[str] = set()
        self._produced: set[str] = set()

    def stream(self, name: str) -> str:
        self._streams.add(name)
        return name

    def node(self, name: str, kernel: CKernel, inputs: Sequence[str],
             outputs: Sequence[str]) -> None:
        for s in (*inputs, *outputs):
            self.stream(s)
        for s in outputs:
            if s in self._produced:
                raise ValueError(f"stream {s!r} already has a producer")
            self._produced.add(s)
        self._nodes.append(_CNode(name, kernel, tuple(inputs), tuple(outputs)))

    def solve(self) -> ClosedFixpointResult:
        state: Dict[str, CStream] = {s: CBOTTOM for s in self._streams}
        truncated_any = False
        iterations = 0
        while iterations < self.max_iterations:
            iterations += 1
            new_state = dict(state)
            for node in self._nodes:
                ins = tuple(state[s] for s in node.inputs)
                outs = node.kernel(ins)
                if len(outs) != len(node.outputs):
                    raise ValueError(
                        f"kernel {node.name!r} returned {len(outs)} streams, "
                        f"declared {len(node.outputs)}")
                for stream_name, produced in zip(node.outputs, outs):
                    if len(produced) > self.max_len:
                        truncated_any = True
                        produced = produced.take(self.max_len)
                    current = new_state[stream_name]
                    if not cprefix_le(current, produced):
                        if cprefix_le(produced, current):
                            produced = current  # keep the larger history
                        else:
                            raise NonMonotonicClosedError(
                                f"kernel {node.name!r} retracted output on "
                                f"stream {stream_name!r}")
                    new_state[stream_name] = produced
            if new_state == state:
                return ClosedFixpointResult(state, iterations,
                                            converged=not truncated_any)
            state = new_state
        return ClosedFixpointResult(state, iterations, converged=False)
