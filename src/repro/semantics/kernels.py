"""Continuous stream functions mirroring the operational process library.

Every library process in :mod:`repro.processes` has a *kernel* here: a
pure function from input stream prefixes to output stream prefixes.  The
kernels are written to be **monotonic and continuous** (they consume input
greedily and never retract output), so networks assembled from them have
unique least fixed points — the denotational meanings that the operational
runtime must agree with.  The property tests check both facts: kernels
are monotonic on random inputs, and operational channel histories match
the solved fixed point.

A kernel takes and returns tuples-of-tuples: ``kernel(inputs) -> outputs``
where each stream is a tuple of elements.  Kernels must behave correctly
on *partial* inputs: given only a prefix, produce exactly the output
prefix that prefix justifies.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, Tuple

Streams = Tuple[Tuple[Any, ...], ...]
Kernel = Callable[[Streams], Streams]

__all__ = [
    "k_constant", "k_sequence", "k_cons", "k_duplicate", "k_add", "k_binary",
    "k_scale", "k_map", "k_ordered_merge", "k_modulo_filter", "k_sieve",
    "k_guard", "k_identity",
]


def k_constant(value: Any, count: int) -> Kernel:
    """Source: ``count`` copies of ``value`` (count=0 → unbounded is not
    representable; sources always have an explicit bound denotationally)."""

    def kernel(inputs: Streams) -> Streams:
        return ((value,) * count,)

    return kernel


def k_sequence(start: int, count: int, stride: int = 1) -> Kernel:
    def kernel(inputs: Streams) -> Streams:
        return (tuple(start + i * stride for i in range(count)),)

    return kernel


def k_cons(inputs: Streams) -> Streams:
    """Byte-level Cons denotationally: concatenation head ++ tail.

    NOTE: with an *unbounded* head this would be non-continuous; the
    operational Cons only switches to the tail after the head's EOF, which
    denotationally requires the head stream to be complete.  The fixpoint
    solver models sources with explicit bounds, so head completeness is
    known there; here we concatenate the prefixes, which is exact when the
    head prefix is complete and an under-approximation otherwise — still
    monotonic in the tail, which is all feedback loops need (heads are
    acyclic seeds in every paper graph).
    """
    head, tail = inputs
    return (tuple(head) + tuple(tail),)


def k_identity(inputs: Streams) -> Streams:
    return (tuple(inputs[0]),)


def k_duplicate(n_outputs: int) -> Kernel:
    def kernel(inputs: Streams) -> Streams:
        (source,) = inputs
        return tuple(tuple(source) for _ in range(n_outputs))

    return kernel


def k_binary(op: Callable[[Any, Any], Any]) -> Kernel:
    """Element-wise binary combination; output length = min(inputs)."""

    def kernel(inputs: Streams) -> Streams:
        a, b = inputs
        return (tuple(op(x, y) for x, y in zip(a, b)),)

    return kernel


def k_add(inputs: Streams) -> Streams:
    return k_binary(lambda x, y: x + y)(inputs)


def k_scale(factor: Any) -> Kernel:
    def kernel(inputs: Streams) -> Streams:
        (source,) = inputs
        return (tuple(x * factor for x in source),)

    return kernel


def k_map(fn: Callable[[Any], Any]) -> Kernel:
    def kernel(inputs: Streams) -> Streams:
        (source,) = inputs
        return (tuple(fn(x) for x in source),)

    return kernel


def k_ordered_merge(dedup: bool = True) -> Kernel:
    """Ordered merge of two ascending streams.

    On partial inputs the merge may only emit elements that are *safe*: an
    element can be emitted while the other stream still has a pending head
    to compare against.  When one prefix runs dry the merge must stop —
    emitting from the survivor could be retracted later, breaking
    monotonicity.  (Operationally the process blocks at the same point.)
    """

    def kernel(inputs: Streams) -> Streams:
        a, b = list(inputs[0]), list(inputs[1])
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i] < b[j]:
                out.append(a[i]); i += 1
            elif b[j] < a[i]:
                out.append(b[j]); j += 1
            else:
                out.append(a[i]); i += 1
                if dedup:
                    j += 1
        return (tuple(out),)

    return kernel


def k_modulo_filter(divisor: int) -> Kernel:
    def kernel(inputs: Streams) -> Streams:
        (source,) = inputs
        return (tuple(x for x in source if x % divisor != 0),)

    return kernel


def k_sieve(inputs: Streams) -> Streams:
    """The whole Sift subgraph denotationally: primes among the input.

    The operational Sift is self-reconfiguring; denotationally its fixed
    point is simply "the elements not divisible by any earlier-emitted
    element", which on the stream 2,3,4,… is the primes.
    """
    (source,) = inputs
    out: list[Any] = []
    for x in source:
        if all(x % p != 0 for p in out):
            out.append(x)
    return (tuple(out),)


def k_guard(stop_after_true: bool = False) -> Kernel:
    def kernel(inputs: Streams) -> Streams:
        data, control = inputs
        out = []
        for d, c in zip(data, control):
            if c:
                out.append(d)
                if stop_after_true:
                    break
        return (tuple(out),)

    return kernel
