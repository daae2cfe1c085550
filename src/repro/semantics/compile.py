"""Compile an operational Network into its denotational equations.

Section 2 of the paper describes a process network as "a collection of
equations that have a unique minimum solution".  This module derives that
equation system *automatically* from a built (not yet started)
:class:`~repro.kpn.network.Network`: each library process contributes a
kernel over the **closed-stream domain** (:mod:`repro.semantics.closed`
— prefixes enriched with end-of-stream information, matching what channel
EOF delivers operationally), channels become named streams, and the
result is a :class:`~repro.semantics.closed.ClosedEquationNetwork` whose
least fixed point predicts every channel history the runtime will
produce.

This turns Kahn's theorem into a general-purpose test oracle::

    net = Network(); ...build anything from the standard library...
    compiled = compile_network(net)
    predicted = compiled.predict("some-channel")
    net.run()
    # every Collect's list == the corresponding prediction

Bounded sources close their output streams; unbounded sources contribute
an *open* stream truncated at the solver's ``max_len`` — so even
data-dependently-terminating graphs (the Newton square-root network, via
Guard's ``stop_after_true`` closing its output) compile and solve.

Processes are mapped through a type-indexed registry; third-party
processes can register their own kernels with :func:`register_kernel`.
Processes with no denotational meaning (the Turnstile is deliberately
non-determinate) raise :class:`UncompilableProcessError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, Type

from repro.kpn.network import Network
from repro.kpn.process import Process
from repro.semantics.closed import (CStream, ClosedEquationNetwork,
                                    ClosedFixpointResult, ck_binary, ck_cons,
                                    ck_duplicate, ck_filter, ck_guard,
                                    ck_identity, ck_map, ck_ordered_merge,
                                    ck_router, ck_scale, ck_sieve, ck_source)

__all__ = ["compile_network", "register_kernel", "CompiledNetwork",
           "UncompilableProcessError"]


class UncompilableProcessError(ValueError):
    """A process in the network has no registered denotational kernel."""


@dataclass
class CompiledNetwork:
    """The derived equation system plus bookkeeping for comparisons."""

    equations: ClosedEquationNetwork
    #: channel name → (sink process name, iteration limit or 0)
    sinks: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    _solution: Optional[ClosedFixpointResult] = None

    def solve(self) -> ClosedFixpointResult:
        if self._solution is None:
            self._solution = self.equations.solve()
        return self._solution

    def predict(self, channel_name: str,
                limit: Optional[int] = None) -> Tuple[Any, ...]:
        """Solved history of a channel, truncated to ``limit`` if given
        (default: the recorded sink's iteration limit, when one exists)."""
        history = self.solve()[channel_name].elems
        if limit is None and channel_name in self.sinks:
            sink_limit = self.sinks[channel_name][1]
            limit = sink_limit if sink_limit > 0 else None
        return history[:limit] if limit is not None else history

    def predict_all(self) -> Dict[str, Tuple[Any, ...]]:
        solution = self.solve()
        return {name: cs.elems for name, cs in solution.streams.items()}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: process type → compiler function(process, ctx) registering equations
_COMPILERS: Dict[Type[Process], Callable] = {}


def register_kernel(process_type: Type[Process]):
    """Decorator: attach a compiler function for a process type."""

    def deco(fn):
        _COMPILERS[process_type] = fn
        return fn

    return deco


class _Ctx:
    """Compilation context: stream naming + equation accumulation."""

    def __init__(self, eq: ClosedEquationNetwork, compiled: CompiledNetwork,
                 max_len: int, topology) -> None:
        self.eq = eq
        self.compiled = compiled
        self.max_len = max_len
        #: id(tracked endpoint stream) -> the name of its channel
        self._streams = {id(stream): edge.name for edge in topology.edges
                         for _, stream in edge.producers + edge.consumers}

    def stream_of(self, endpoint) -> str:
        try:
            return self._streams[id(endpoint)]
        except KeyError:
            raise UncompilableProcessError(
                f"endpoint {endpoint!r} is not a tracked channel endpoint"
            ) from None

    def node(self, process: Process, kernel, inputs, outputs) -> None:
        self.eq.node(process.name, kernel,
                     [self.stream_of(s) for s in inputs],
                     [self.stream_of(s) for s in outputs])


def _open_source(items: Tuple[Any, ...]):
    """An unbounded source approximated by an *open* max_len prefix."""
    value = CStream(items, False)

    def kernel(inputs):
        return (value,)

    return kernel


# ---------------------------------------------------------------------------
# compilers for the standard library
# ---------------------------------------------------------------------------

def _register_standard() -> None:
    from repro.processes.arithmetic import (Add, Average, Divide, Equal,
                                            ModuloFilter, Multiply, Subtract)
    from repro.processes.merges import OrderedMerge
    from repro.processes.reconfig import RecursiveSift, Sift
    from repro.processes.routing import Guard, ModuloRouter
    from repro.processes.sinks import Collect, Discard, Print
    from repro.processes.sources import Constant, FromIterable, Sequence
    from repro.processes.transforms import (Cons, Duplicate, Identity,
                                            MapProcess, Scale,
                                            SelfRemovingCons)

    @register_kernel(Constant)
    def _c(p, ctx):
        if p.iterations > 0:
            ctx.node(p, ck_source((p.value,) * p.iterations), [], [p.out])
        else:
            ctx.node(p, _open_source((p.value,) * ctx.max_len), [], [p.out])

    @register_kernel(Sequence)
    def _seq(p, ctx):
        count = p.iterations if p.iterations > 0 else ctx.max_len
        items = tuple(p.next_value + i * p.stride for i in range(count))
        kernel = ck_source(items) if p.iterations > 0 else _open_source(items)
        ctx.node(p, kernel, [], [p.out])

    @register_kernel(FromIterable)
    def _fi(p, ctx):
        items = tuple(p.items)  # materializes; requires a finite iterable
        ctx.node(p, ck_source(items), [], [p.out])

    @register_kernel(Cons)
    def _cons(p, ctx):
        ctx.node(p, ck_cons, [p.head, p.tail], [p.out])

    _COMPILERS[SelfRemovingCons] = _COMPILERS[Cons]

    @register_kernel(Duplicate)
    def _dup(p, ctx):
        ctx.node(p, ck_duplicate(len(p.outputs)), [p.source], list(p.outputs))

    @register_kernel(Identity)
    def _id(p, ctx):
        ctx.node(p, ck_identity, [p.source], [p.out])

    @register_kernel(Scale)
    def _scale(p, ctx):
        ctx.node(p, ck_scale(p.factor), [p.source], [p.out])

    @register_kernel(MapProcess)
    def _map(p, ctx):
        ctx.node(p, ck_map(p.fn), [p.source], [p.out])

    def _binary(op):
        def compiler(p, ctx):
            ctx.node(p, ck_binary(op), [p.left, p.right], [p.out])

        return compiler

    _COMPILERS[Add] = _binary(lambda a, b: a + b)
    _COMPILERS[Subtract] = _binary(lambda a, b: a - b)
    _COMPILERS[Multiply] = _binary(lambda a, b: a * b)
    _COMPILERS[Divide] = _binary(lambda a, b: a / b)
    _COMPILERS[Average] = _binary(lambda a, b: (a + b) / 2)
    _COMPILERS[Equal] = _binary(lambda a, b: a == b)

    @register_kernel(ModuloFilter)
    def _mf(p, ctx):
        divisor = p.divisor
        ctx.node(p, ck_filter(lambda x: x % divisor != 0), [p.source], [p.out])

    @register_kernel(OrderedMerge)
    def _om(p, ctx):
        ctx.node(p, ck_ordered_merge(p.dedup), [p.left, p.right], [p.out])

    @register_kernel(Guard)
    def _g(p, ctx):
        ctx.node(p, ck_guard(p.stop_after_true), [p.data, p.control], [p.out])

    @register_kernel(ModuloRouter)
    def _mr(p, ctx):
        divisor = p.divisor
        ctx.node(p, ck_router(lambda x: x % divisor == 0),
                 [p.source], [p.upper, p.lower])

    @register_kernel(Sift)
    def _sift(p, ctx):
        # the whole self-reconfiguring subgraph denotes the sieve kernel
        ctx.node(p, ck_sieve, [p.source], [p.out])

    _COMPILERS[RecursiveSift] = _COMPILERS[Sift]

    def _sink(p, ctx):
        name = ctx.stream_of(p.source)
        ctx.eq.stream(name)
        ctx.compiled.sinks[name] = (p.name, getattr(p, "iterations", 0))

    _COMPILERS[Collect] = _sink
    _COMPILERS[Print] = _sink
    _COMPILERS[Discard] = _sink

    # the DSP library keeps its kernels beside its processes, but they are
    # registered from here: importing the process library must not load
    # this package
    from repro.processes.dsp import _register_dsp_kernels

    _register_dsp_kernels()


_register_standard()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def compile_network(network: Network, max_len: int = 1000,
                    max_iterations: int = 100000) -> CompiledNetwork:
    """Derive the equation system of a built network.

    ``max_len`` bounds stream growth during Kleene iteration (the finite
    approximation order for networks with infinite behaviours; also the
    length of the open prefix standing in for unbounded sources).
    """
    eq = ClosedEquationNetwork(max_len=max_len, max_iterations=max_iterations)
    compiled = CompiledNetwork(eq)
    topology = network.topology()
    ctx = _Ctx(eq, compiled, max_len, topology)
    for process in topology.leaves:
        compiler = _COMPILERS.get(type(process))
        if compiler is None:
            # walk the MRO so subclasses of library processes inherit
            for base in type(process).__mro__[1:]:
                compiler = _COMPILERS.get(base)
                if compiler is not None:
                    break
        if compiler is None:
            raise UncompilableProcessError(
                f"{process.name} ({type(process).__name__}) has no "
                "registered kernel; use register_kernel() or exclude it")
        compiler(process, ctx)
    return compiled
