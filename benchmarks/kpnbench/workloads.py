"""The six workloads, their seeded inputs, and their plain-Python oracles.

Every workload has the same shape: one benchmark-owned load generator
feeds the program, one benchmark-owned sink checks what comes out.  The
generator first sends ``closed`` items as fast as back-pressure allows
(closed loop: bounded channels are the only throttle), waits for the sink
to see the last of them, then sends ``paced`` items on a fixed schedule
(open loop).  The schedule's rate is a constant of the workload, about a
fifth of the closed-loop throughput measured on the seed; it is never
adapted at run time.

``--seed`` is the only input to generation: vocabulary and chunk lengths,
frame contents, the weak key, the integer ramp.  The program only ever
sees the generated items.  What the sink compares against is computed
here, in straight Python, never by a second run of the runtime.

``import repro`` happens inside functions: a repeat times its own import.
"""

from __future__ import annotations

import random
import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from kpnbench import host


# ---------------------------------------------------------------------------
# load generator and sink
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sizes:
    closed: int          #: items sent flat out
    paced: int           #: items sent on the schedule
    rate: float          #: schedule rate, items/s
    #: items per measured slice of either phase (default: the whole phase)
    closed_slice: int = 1 << 40
    paced_slice: int = 1 << 40

    @property
    def total(self) -> int:
        return self.closed + self.paced

    @property
    def warm(self) -> int:
        """Closed-loop items excluded from the throughput window."""
        return max(1, self.closed // 10)


class Load:
    """Iterator over the run's items: flat out, then on a fixed schedule.

    A paced item is timed from when it was *due*, so a stall delays the
    items behind it and their wait is counted.  ``max_late`` is how late
    the generator itself ran against its own schedule.  ``marks`` are
    the send times of the closed-phase items whose receipt the sink marks.
    """

    def __init__(self, feed: Callable[[int], Any], sizes: Sizes,
                 go: threading.Event, drained: threading.Event,
                 window: Optional[threading.Semaphore] = None,
                 stall_at: Optional[int] = None) -> None:
        self.feed = feed
        self.sizes = sizes
        self.go = go
        self.drained = drained
        #: closed-loop clients: with a window, item i waits for the sink
        #: to have seen item i - W (where channels give no back-pressure)
        self.window = window
        self.stall_at = stall_at
        self.sent = 0
        self.next_mark = sizes.warm - 1
        self.marks: List[tuple] = []    # [(item, wall)]
        self.t_first = 0.0
        self.t0 = 0.0
        self.due = array("d")
        self.max_late = 0.0

    def __iter__(self) -> "Load":
        return self

    def __next__(self) -> Any:
        i = self.sent
        sizes = self.sizes
        if i >= sizes.total:
            raise StopIteration
        if i == 0:
            self.go.wait()
            self.t_first = time.monotonic()
        if i == self.stall_at:          # test hook: the source hangs
            threading.Event().wait()
        if i >= sizes.closed:
            if i == sizes.closed:
                self.drained.wait()
                self.t0 = time.monotonic() + 0.002
            due = self.t0 + (i - sizes.closed) / sizes.rate
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            late = time.monotonic() - due
            if late > self.max_late:
                self.max_late = late
            self.due.append(due)
        else:
            if self.window is not None:
                self.window.acquire()
            if i >= self.next_mark:
                self.marks.append((i, time.monotonic()))
                self.next_mark = min(i + sizes.closed_slice, sizes.closed - 1)
        self.sent = i + 1
        return self.feed(i)


class LoadProducerTask:
    """Farm producer task: hands the farm the load's next worker task."""

    def __init__(self, load: Load) -> None:
        self.load = load

    def run(self):
        return next(self.load, None)


# ---------------------------------------------------------------------------
# the run context a workload builds into
# ---------------------------------------------------------------------------

class Context:
    """What one repeat hands a workload: sizes, seed, spans, placement."""

    def __init__(self, seed: int, sizes: Sizes, recorder=None,
                 fault: Optional[str] = None,
                 child_cpu: Optional[int] = None) -> None:
        self.seed = seed
        self.sizes = sizes
        self.recorder = recorder
        self.fault = fault
        self.child_cpu = child_cpu
        self.go = threading.Event()
        self.drained = threading.Event()
        self.window: Optional[threading.Semaphore] = None
        self.children: List[int] = []
        self.closers: List[Callable[[], None]] = []
        self.load: Optional[Load] = None
        self.sink = None
        self.network = None
        self.facts: Dict[str, Any] = {}

    @contextmanager
    def span(self, name: str):
        if self.recorder is None:
            yield
        else:
            with self.recorder.span(name):
                yield

    def make_load(self, feed: Callable[[int], Any]) -> Load:
        sizes = self.sizes
        if self.fault == "wrong":       # test hook: one corrupted input
            bad = sizes.closed // 2
            clean = feed
            feed = lambda i: clean(i + 1 if i == bad else i)  # noqa: E731
        stall_at = sizes.closed // 2 if self.fault == "stall" else None
        self.load = Load(feed, sizes, self.go, self.drained, self.window,
                         stall_at)
        return self.load

    def make_sink(self, source, oracle, codec="long"):
        from kpnbench.procs import Sink
        # the meter closes over the pid list alone: a sink that could reach
        # this context could reach the load, and the race detector would
        # (rightly) refuse to fuse two processes sharing a mutable object
        children = self.children
        self.sink = Sink(source, oracle, self.sizes, self.drained,
                         lambda: host.cpu_seconds(children), codec=codec,
                         window=self.window)
        return self.sink

    def adopt_children(self, pids) -> None:
        """Account for, and move to the child CPU, processes just spawned."""
        for pid in pids:
            if pid not in self.children:
                self.children.append(pid)
                if self.child_cpu is not None:
                    host.pin_process(pid, self.child_cpu)


# ---------------------------------------------------------------------------
# seeded inputs and oracles
# ---------------------------------------------------------------------------

def ramp(seed: int):
    """(base, stride) of the integer stream the chains and the ring carry."""
    rng = random.Random(seed)
    return rng.randrange(1, 1 << 20), rng.randrange(1, 1 << 10)


CHUNK_POOL = 256
CHUNK_BYTES = (2400, 4400)      # mean ~3.4 KB


def text_chunks(seed: int) -> tuple:
    """A pool of text chunks: seeded vocabulary, Zipf-like word use.

    The lengths are a fixed ladder shuffled by the seed, so every seed
    moves the same number of bytes and only their content differs.
    """
    rng = random.Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocab = ["".join(rng.choices(letters, k=rng.randrange(2, 11)))
             for _ in range(500)]
    weights = [1.0 / (rank + 1) for rank in range(len(vocab))]
    lo, hi = CHUNK_BYTES
    targets = [lo + (hi - lo) * k // (CHUNK_POOL - 1) for k in range(CHUNK_POOL)]
    rng.shuffle(targets)
    chunks = []
    for target in targets:
        words = rng.choices(vocab, weights=weights, k=target // 3)
        text = " ".join(words)[:target]
        chunks.append(text[:text.rfind(" ")])
    return tuple(chunks)


def count_words(text: str) -> dict:
    """The program's map function (runs on the compute server)."""
    from collections import Counter
    return Counter(text.split())


def count_words_reference(text: str) -> dict:
    counts: Dict[str, int] = {}
    word = []
    for ch in text + " ":
        if ch.isspace():
            if word:
                key = "".join(word)
                counts[key] = counts.get(key, 0) + 1
                word = []
        else:
            word.append(ch)
    return counts


FRAME_POOL = 16
FRAME_SHAPE = (64, 1024)
BANDS = 8


def frames(seed: int):
    import numpy as np
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(FRAME_SHAPE, dtype=np.float32)
            for _ in range(FRAME_POOL)]


class FeatureTask:
    """Worker task: per-row mean, std and rfft band energies of a frame."""

    def __init__(self, frame) -> None:
        self.frame = frame

    def run(self):
        import numpy as np
        x = self.frame
        power = np.abs(np.fft.rfft(x, axis=1)[:, 1:]) ** 2
        bands = power.reshape(x.shape[0], BANDS, -1).sum(axis=2)
        return np.concatenate(
            [x.mean(axis=1, keepdims=True), x.std(axis=1, keepdims=True),
             bands], axis=1).astype(np.float32)


def features_reference(frame):
    """The same features by another route: float64, full FFT, by hand."""
    import numpy as np
    x = np.asarray(frame, dtype=np.float64)
    n = x.shape[1]
    mean = x.sum(axis=1) / n
    std = np.sqrt(((x - mean[:, None]) ** 2).sum(axis=1) / n)
    spectrum = np.fft.fft(x, axis=1)[:, 1:n // 2 + 1]
    power = spectrum.real ** 2 + spectrum.imag ** 2
    width = power.shape[1] // BANDS
    bands = [power[:, b * width:(b + 1) * width].sum(axis=1)
             for b in range(BANDS)]
    return np.stack([mean, std, *bands], axis=1)


FACTOR_BATCH = 32


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def weak_key(seed: int, scanned_tasks: int):
    """N = P(P+D), P a 64-bit prime, D even and beyond every scanned task.

    With P prime and P+D < 2P, the only divisor of N in (P, sqrt N] would
    have to divide P+D and exceed P: there is none.  So no task that
    scans differences below D can report a factor, whatever the seed.
    """
    rng = random.Random(seed)
    while True:
        p = rng.getrandbits(64) | (1 << 63) | 1
        if _is_prime(p):
            break
    d = 2 * FACTOR_BATCH * (scanned_tasks + 16) + 2 * rng.randrange(FACTOR_BATCH)
    return p * (p + d), p, d


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

#: both phases are measured in slices this long on the seed: short enough
#: that many fall wholly between a neighbour's bursts on a shared host
SLICE_S = 0.05


class Workload:
    """One program under load.  Why each exists is in BENCHMARK.json."""

    name = ""
    #: closed-loop items/s on the seed: sizes the phases, fixes the pace
    seed_rate = 1.0
    #: units of reported work per item the sink counts (hops per token)
    weight = 1
    #: the paced phase's rate as a share of ``seed_rate``
    pace_share = 0.2
    #: a closed-phase slice is this long on the seed, and this many items
    #: at least
    closed_slice_s = SLICE_S
    slice_items = 1

    def sizes(self, closed_s: float, paced_s: float) -> Sizes:
        rate = self.pace_share * self.seed_rate
        return Sizes(closed=max(10, int(self.seed_rate * closed_s)),
                     paced=max(3, int(rate * paced_s)), rate=rate,
                     closed_slice=max(self.slice_items,
                                      round(self.seed_rate
                                            * self.closed_slice_s)),
                     paced_slice=max(1, round(rate * SLICE_S)))

    def prepare(self, ctx: Context) -> Any:
        """Generate inputs and the oracle's reference (not program time)."""
        raise NotImplementedError

    def setup(self, ctx: Context, inputs: Any) -> None:
        """Build and start the program; leaves ``ctx.network`` running."""
        raise NotImplementedError


class _Chain(Workload):
    stages = 4
    factor = 2
    optimize = False

    def prepare(self, ctx):
        return ramp(ctx.seed)

    def setup(self, ctx, inputs):
        with ctx.span("setup.import"):
            from repro.kpn.network import Network
            from repro.processes import Scale
            from kpnbench.procs import LoadSource
        base, stride = inputs
        gain = self.factor ** self.stages
        with ctx.span("setup.build"):
            net = Network(name=self.name)
            chans = net.channels_n(self.stages + 1, prefix="hop")
            load = ctx.make_load(lambda i: base + stride * i)
            net.add(LoadSource(chans[0].get_output_stream(), load))
            for k in range(self.stages):
                net.add(Scale(chans[k].get_input_stream(),
                              chans[k + 1].get_output_stream(),
                              factor=self.factor, name=f"scale-{k}"))
            net.add(ctx.make_sink(
                chans[-1].get_input_stream(),
                lambda i, out: out == (base + stride * i) * gain))
        if self.optimize:
            with ctx.span("setup.optimize"):
                net.optimize()
            fused = sum(len(c.processes) for c in net.fusion_plan.fused)
            ctx.facts["compile.fused_share"] = fused / (self.stages + 2)
        with ctx.span("setup.start"):
            net.start()
        ctx.network = net


class ChainThread(_Chain):
    """source -> Scale x4 -> sink on LONG channels, a thread per process."""

    name = "chain_thread"
    seed_rate = 32000.0


class ChainFused(_Chain):
    """The identical graph through Network.optimize(): one fused thread."""

    name = "chain_fused"
    seed_rate = 205000.0
    optimize = True


class RingAsync(Workload):
    """source -> Relay x2000 -> sink as cooperative tasks on one loop."""

    name = "ring_async"
    #: a token's transit is the shortest thing this workload can time, and
    #: on a shared host few stretches of a quarter second are undisturbed:
    #: 2000 relays, not the issue's 4000, make it ~100 ms and twice as many
    relays = 2000
    weight = relays             # reported in hops: a token makes 2000
    seed_rate = 18.0            # tokens/s (36k hops/s)
    #: 2000 default channels hold 256k tokens, so they never push back;
    #: two tokens in flight keep the loop busy
    clients = 2
    #: a paced token travels alone and slower per hop (every hop is a
    #: park and a wake; two together share them): at 0.3 tokens are still
    #: 185 ms apart, about twice a lone token's transit
    pace_share = 0.3
    #: a slice is one turn of the window: both clients' tokens
    slice_items = clients

    def prepare(self, ctx):
        return ramp(ctx.seed)

    def setup(self, ctx, inputs):
        with ctx.span("setup.import"):
            from repro.kpn.network import Network
            from kpnbench.procs import LoadSource, Relay
        base, stride = inputs
        ctx.window = threading.Semaphore(self.clients)
        with ctx.span("setup.build"):
            net = Network(name=self.name, backend="async")
            chans = [net.channel(name=f"r{k}") for k in range(self.relays + 1)]
            load = ctx.make_load(lambda i: base + stride * i)
            net.add(LoadSource(chans[0].get_output_stream(), load))
            for k in range(self.relays):
                net.add(Relay(chans[k].get_input_stream(),
                              chans[k + 1].get_output_stream(),
                              name=f"relay-{k}"))
            net.add(ctx.make_sink(chans[-1].get_input_stream(),
                                  lambda i, out: out == base + stride * i))
        with ctx.span("setup.start"):
            net.start()
        ctx.network = net


class WordcountLink(Workload):
    """Text chunks to a MapProcess on an OS-process server and back."""

    name = "wordcount_link"
    seed_rate = 8900.0
    #: at a fifth of the seed rate the server's CPU hovers between staying
    #: awake and idling between chunks, and the median latency flipped
    #: between ~0.55 and ~0.8 ms from run to run (spread 30%); at a tenth
    #: it idles every time and the spread is 10%
    pace_share = 0.1
    #: flat out, two interpreters each pass their GIL round in 5 ms turns
    #: and chunks move in bursts of tens: a slice has to span many bursts
    closed_slice_s = 0.2
    capacity = 64 * 1024

    def prepare(self, ctx):
        chunks = text_chunks(ctx.seed)
        expected = tuple(count_words_reference(c) for c in chunks)
        return chunks, expected

    def setup(self, ctx, inputs):
        with ctx.span("setup.import"):
            from repro.distributed.cluster import LocalCluster
            from repro.kpn.network import Network
            from repro.processes import FromIterable, MapProcess
            from repro.processes.codecs import OBJECT
        chunks, expected = inputs
        pool = len(chunks)
        with ctx.span("setup.cluster_start"):
            cluster = LocalCluster(n_servers=1, mode="process").start()
            ctx.closers.append(cluster.stop)
            ctx.adopt_children(host.child_pids())
        with ctx.span("setup.build"):
            net = Network(name=self.name)
            up = net.channel(self.capacity, name="chunks")
            down = net.channel(self.capacity, name="counts")
            mapper = MapProcess(up.get_input_stream(), down.get_output_stream(),
                                count_words, codec=OBJECT, name="count-words")
        with ctx.span("setup.ship"):
            cluster.client(0).run(mapper)
        with ctx.span("setup.build"):
            load = ctx.make_load(lambda i: chunks[i % pool])
            net.add(FromIterable(up.get_output_stream(), load, codec=OBJECT,
                                 name="load"))
            net.add(ctx.make_sink(down.get_input_stream(),
                                  lambda i, out: out == expected[i % pool],
                                  codec=OBJECT))
        with ctx.span("setup.start"):
            net.start()
        ctx.network = net


class _Farm(Workload):
    workers = 2
    capacity: Optional[int] = None

    def executor(self, ctx):
        return None

    def farm(self, ctx, feed, oracle):
        """Producer -> MetaDynamic(workers) -> sink, as build_farm wires it."""
        with ctx.span("setup.import"):
            from repro.kpn.network import Network
            from repro.parallel.generic import Producer
            from repro.parallel.meta import meta_dynamic
            from repro.processes.codecs import OBJECT
        executor = self.executor(ctx)
        with ctx.span("setup.build"):
            net = Network(name=self.name)
            tasks = net.channel(self.capacity, name="tasks")
            results = net.channel(self.capacity, name="results")
            net.add(Producer(LoadProducerTask(ctx.make_load(feed)),
                             tasks.get_output_stream(), name="load"))
            meta_dynamic(tasks.get_input_stream(), results.get_output_stream(),
                         self.workers, network=net,
                         channel_capacity=self.capacity, executor=executor,
                         prefix=f"{self.name}-").add_to(net)
            net.add(ctx.make_sink(results.get_input_stream(), oracle,
                                  codec=OBJECT))
        with ctx.span("setup.start"):
            net.start()
        ctx.network = net


class FeaturesPool(_Farm):
    """float32 frames through a dynamic farm computing on a process pool."""

    name = "features_pool"
    seed_rate = 530.0
    capacity = 1 << 20

    def prepare(self, ctx):
        pool = frames(ctx.seed)
        return pool, [features_reference(f) for f in pool]

    def executor(self, ctx):
        with ctx.span("setup.pool_start"):
            from repro.parallel.executor import ProcessPool
            pool = ProcessPool(size=1)
            ctx.closers.append(pool.close)
            ctx.adopt_children(pool.child_pids())
        return pool

    def setup(self, ctx, inputs):
        import numpy as np
        pool, expected = inputs
        n = len(pool)
        self.farm(ctx, lambda i: FeatureTask(pool[i % n]),
                  lambda i, out: np.allclose(out, expected[i % n],
                                             rtol=1e-3, atol=1e-2))


class FarmTelemetry(_Farm):
    """The paper's factoring farm, 4 inline workers, telemetry enabled."""

    name = "farm_telemetry"
    seed_rate = 2700.0
    workers = 4

    def prepare(self, ctx):
        n, _, d = weak_key(ctx.seed, ctx.sizes.total)
        if d < 2 * FACTOR_BATCH * ctx.sizes.total:
            raise ValueError("the factor lies inside the scanned range")
        return n

    def setup(self, ctx, inputs):
        with ctx.span("setup.import"):
            from repro import TELEMETRY
            from repro.parallel.factor import FactorWorkerTask
        n = inputs
        TELEMETRY.reset()
        TELEMETRY.enable()
        ctx.closers.append(TELEMETRY.disable)
        self.farm(
            ctx,
            lambda i: FactorWorkerTask(n, i, 2 * FACTOR_BATCH * i, FACTOR_BATCH),
            lambda i, out: out.task_index == i and out.p is None)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    ChainThread(), ChainFused(), RingAsync(), WordcountLink(),
    FeaturesPool(), FarmTelemetry())}
