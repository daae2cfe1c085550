"""Routing processes: Guard, Scatter/Gather, Direct, Turnstile, Select.

These implement the control-flow machinery of the paper's Figures 11,
13, and 16–18.  All are determinate Kahn processes **except**
:class:`Turnstile`, the one deliberately non-determinate component: it
merges worker results in arrival order, which "depends in part on the
ordering of events in the execution environment".  The composite indexed
merge (Turnstile + Select) is nonetheless *well behaved* — its
input-output relation is independent of the index ordering — because the
Select re-sequences results into dispatch order (see DESIGN.md,
"Interpretation note").
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional, Sequence

from repro.analysis.markers import nondeterminate
from repro.errors import ChannelError, EndOfStreamError
from repro.kpn.channel import ChannelInputStream, wait_any_readable
from repro.kpn.process import IterativeProcess, StopProcess
from repro.kpn.streams import InputStream, OutputStream
from repro.processes.codecs import BOOL, Codec, INT, LONG, OBJECT, get_codec

__all__ = ["Guard", "ModuloRouter", "Scatter", "Gather", "Direct",
           "Turnstile", "Select"]


class Guard(IterativeProcess):
    """Passes data when its control input is true; discards otherwise.

    With ``stop_after_true=True`` this is the data-dependent terminator of
    the Newton square-root network (Figure 11): it forwards the converged
    root estimate once and stops, triggering the termination cascade.
    """

    kpn_strict = True
    kpn_rate_balanced = True  # single output: writes <= reads

    def __init__(self, data: InputStream, control: InputStream, out: OutputStream,
                 iterations: int = 0, codec: "Codec | str" = LONG,
                 stop_after_true: bool = False, name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.data = data
        self.control = control
        self.out = out
        self.codec = get_codec(codec)
        self.stop_after_true = stop_after_true
        self.track(data, control, out)

    def awaits(self):
        return self.control, self.data

    def step(self) -> None:
        passed = BOOL.read(self.control)
        value = self.codec.read(self.data)
        if passed:
            self.codec.write(self.out, value)
            if self.stop_after_true:
                raise StopProcess


class ModuloRouter(IterativeProcess):
    """The ``mod`` process of Figure 13.

    "sends all values that are evenly divisible by some constant N to its
    upper output and all other values to its lower output."  For every N
    consecutive integers it emits 1 on the upper and N−1 on the lower
    output — the imbalance that deadlocks small channel capacities even in
    an acyclic graph.
    """

    kpn_strict = True
    # NOT rate-balanced: output selection is data-dependent, so relative
    # occupancies can grow without bound (the whole point of Figure 13)

    def __init__(self, source: InputStream, upper: OutputStream,
                 lower: OutputStream, divisor: int, iterations: int = 0,
                 codec: "Codec | str" = LONG, name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.upper = upper
        self.lower = lower
        self.divisor = divisor
        self.codec = get_codec(codec)
        self.track(source, upper, lower)

    def step(self) -> None:
        value = self.codec.read(self.source)
        out = self.upper if value % self.divisor == 0 else self.lower
        self.codec.write(out, value)


class Scatter(IterativeProcess):
    """Round-robin distribution to N outputs (Figure 16, static balancing).

    "A Scatter process takes N tasks from the producer and distributes
    one to each of N workers" — i.e. tasks are dealt in fixed rounds, so
    every worker receives the same number of tasks (±1).
    """

    kpn_strict = True
    kpn_rate_balanced = True  # round-robin: routing is data-independent

    def __init__(self, source: InputStream, outputs: Sequence[OutputStream],
                 iterations: int = 0, codec: "Codec | str" = OBJECT,
                 name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.source = source
        self.outputs = list(outputs)
        self.codec = get_codec(codec)
        self._next = 0
        self.track(source, *outputs)

    def step(self) -> None:
        value = self.codec.read(self.source)
        self.codec.write(self.outputs[self._next], value)
        self._next = (self._next + 1) % len(self.outputs)


class Gather(IterativeProcess):
    """Round-robin collection from N inputs (Figure 16).

    "Because the gather process collects results in the same order in
    which tasks are sent to the workers by the scatter process, the
    parallel composition is, from the point of view of the producer and
    consumer processes, equivalent to a single worker."
    """

    kpn_strict = True
    kpn_rate_balanced = True  # round-robin: routing is data-independent

    def __init__(self, inputs: Sequence[InputStream], out: OutputStream,
                 iterations: int = 0, codec: "Codec | str" = OBJECT,
                 name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.inputs = list(inputs)
        self.out = out
        self.codec = get_codec(codec)
        self._next = 0
        self.track(*inputs, self.out)

    def awaits(self):
        return (self.inputs[self._next],)   # this step's turn only

    def step(self) -> None:
        value = self.codec.read(self.inputs[self._next])
        self.codec.write(self.out, value)
        self._next = (self._next + 1) % len(self.inputs)


class Direct(IterativeProcess):
    """Index-driven task distribution (Figure 17, dynamic balancing).

    Each step reads a worker index from the index stream (which begins
    with the initial sequence 0..N−1 and then carries the Turnstile's
    completion order) and forwards the next task to that worker — "a new
    task is distributed to a Worker for every result collected from that
    Worker".
    """

    kpn_strict = True
    # NOT rate-balanced: output selection is driven by the index stream

    def __init__(self, tasks: InputStream, index: InputStream,
                 outputs: Sequence[OutputStream], iterations: int = 0,
                 codec: "Codec | str" = OBJECT, name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.tasks = tasks
        self.index = index
        self.outputs = list(outputs)
        self.codec = get_codec(codec)
        self.track(tasks, index, *outputs)

    def awaits(self):
        return self.index, self.tasks

    def step(self) -> None:
        worker = INT.read(self.index)
        task = self.codec.read(self.tasks)
        self.codec.write(self.outputs[worker], task)


@nondeterminate("arrival-order merge: output ordering depends on event "
                "timing in the execution environment (paper section 5); "
                "well behaved only in composition with Select")
class Turnstile(IterativeProcess):
    """Arrival-order merge of worker results — the non-determinate piece.

    Two outputs: a stream of ``(index, result)`` pairs to the Select, and
    a bare index stream to the Direct (via the initial-sequence Cons).
    The pair stream fuses the paper's "results ... passed through to the
    Select" with "an index stream indicating that order", guaranteeing
    the Select sees index and result atomically even across migration.

    Termination: inputs that reach end-of-stream are retired; when all
    are retired the Turnstile stops.  A failed write on the *index*
    output (the Direct has already stopped because the producer ran dry)
    is tolerated so that every remaining result still reaches the Select —
    without this, results completed after the last dispatch could be lost
    in the shutdown cascade.
    """

    def __init__(self, inputs: Sequence[ChannelInputStream], pairs_out: OutputStream,
                 index_out: OutputStream, iterations: int = 0,
                 codec: "Codec | str" = OBJECT, name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.inputs = list(inputs)
        self.pairs_out = pairs_out
        self.index_out = index_out
        self.codec = get_codec(codec)
        self._active = list(range(len(self.inputs)))
        self._index_broken = False
        self.track(*inputs, pairs_out, index_out)

    def step(self) -> None:
        while True:
            if not self._active:
                raise EndOfStreamError("all worker inputs exhausted")
            active_streams = [self.inputs[i] for i in self._active]
            ready = wait_any_readable(active_streams, timeout=5.0)
            # resolve positions to worker ids BEFORE mutating _active
            ready_ids = [self._active[pos] for pos in ready]
            progressed = False
            for i in ready_ids:
                stream = self.inputs[i]
                if stream.at_eof():
                    self._active.remove(i)
                    progressed = True
                    continue
                result = self.codec.read(stream)
                OBJECT.write(self.pairs_out, (i, result))
                if not self._index_broken:
                    try:
                        INT.write(self.index_out, i)
                    except ChannelError:
                        self._index_broken = True
                return
            if progressed:
                continue


class Select(IterativeProcess):
    """Re-sequencer: emits results in dispatch (= task production) order.

    Reads ``(index, result)`` pairs from the Turnstile.  The dispatch
    order is reconstructed from the same pair stream: dispatch k ≥ N goes
    to the worker named by completion k−N (Direct consumes the identical
    index sequence), and dispatches 0..N−1 are the initial sequence.
    Per-worker FIFO queues hold early arrivals until their turn.  The
    result: the consumer sees exactly the sequence it would see from a
    single worker — the "well behaved" property of section 5.
    """

    kpn_strict = True
    kpn_rate_balanced = True  # emits exactly one result per pair consumed

    def __init__(self, pairs_in: InputStream, out: OutputStream, n_workers: int,
                 iterations: int = 0, codec: "Codec | str" = OBJECT,
                 name: Optional[str] = None) -> None:
        super().__init__(iterations=iterations, name=name)
        self.pairs_in = pairs_in
        self.out = out
        self.n_workers = n_workers
        self.codec = get_codec(codec)
        self._dispatch_order: deque[int] = deque(range(n_workers))
        self._queues: list[deque[Any]] = [deque() for _ in range(n_workers)]
        self.track(pairs_in, out)

    def _emit_ready(self) -> bool:
        emitted = False
        while self._dispatch_order and self._queues[self._dispatch_order[0]]:
            worker = self._dispatch_order.popleft()
            self.codec.write(self.out, self._queues[worker].popleft())
            emitted = True
        return emitted

    def step(self) -> None:
        try:
            index, result = OBJECT.read(self.pairs_in)
        except EndOfStreamError:
            # Flush everything still in order, then finish.
            self._emit_ready()
            raise
        self._queues[index].append(result)
        self._dispatch_order.append(index)
        self._emit_ready()

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_dispatch_order"] = deque(self._dispatch_order)
        state["_queues"] = [deque(q) for q in self._queues]
        return state
