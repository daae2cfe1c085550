"""Layer cases: one public call of one layer, timed in isolation.

Each case times a call into one module on the payloads of the workload
that leans on it (8-byte longs for the chains, ~3.4 KB text chunks for
the link, 256 KB float32 frames for the pool), repeats it ``INNER``
times and reports the median.  Names are ``<module>.<metric>``.  The
README says which end-to-end metric each is expected to move; nothing
here is gated.

The driver runs every case in an interpreter of its own, through
:mod:`kpnbench.child`.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, Dict, List

from kpnbench import host, workloads
from kpnbench.spans import Recorder

INNER = 5

#: name -> unit, in report order
UNITS: Dict[str, str] = {
    "buffers.small_rw_us": "us",
    "buffers.handoff_us": "us",
    "buffers.bulk_mb_per_s": "MB/s",
    "streams.stack_us": "us",
    "codec.long_us": "us",
    "codec.object_us": "us",
    "codec.object_oob_mb_per_s": "MB/s",
    "channel.hop_us": "us",
    "channel.hop_threaded_us": "us",
    "process.stage_us": "us",
    "sockets.msg_us": "us",
    "sockets.bulk_mb_per_s": "MB/s",
    "wire.rpc_roundtrip_us": "us",
    "server.ship_process_ms": "ms",
    "cluster.spawn_server_ms": "ms",
    "compile.optimize_ms": "ms",
    "compile.fused_share": "share",
    "compile.stage_us": "us",
    "aio.hop_us": "us",
    "aio.stage_us": "us",
    "network.build_us_per_proc": "us",
    "network.start_us_per_proc.thread": "us",
    "network.start_us_per_proc.async": "us",
    "farm.pipeline_task_us": "us",
    "farm.dynamic_task_us": "us",
    "executor.pool_roundtrip_us": "us",
    "executor.pool_oob_mb_per_s": "MB/s",
    "executor.pool_spawn_ms": "ms",
    "telemetry.on_off_ratio": "ratio",
    "telemetry.event_us": "us",
    "telemetry.events_per_item": "count",
}


def clock() -> float:
    return time.perf_counter()


def median_of(fn: Callable[[], float], repeats: int = INNER) -> float:
    return host.median([fn() for _ in range(repeats)])


class NoOp:
    """A task that does nothing: what is left is the farm or the pool."""

    def run(self):
        return 0


class Echo:
    """A task that hands its payload back: both directions move it."""

    def __init__(self, payload) -> None:
        self.payload = payload

    def run(self):
        return self.payload


class Cases:
    """Every case is a method returning ``{metric: value}``."""

    def __init__(self, seed: int, scale: float = 1.0,
                 child_cpu=None) -> None:
        self.seed = seed
        self.scale = scale
        self.child_cpu = child_cpu
        self.base, self.stride = workloads.ramp(seed)
        self.chunks = workloads.text_chunks(seed)[:32]
        self.frames = workloads.frames(seed)[:4]

    def n(self, count: int) -> int:
        return max(5, int(count * self.scale))

    # -- the small-message path: ring, stream stack, codec, channel -----
    def small_messages(self) -> Dict[str, float]:
        from repro.kpn.buffers import BoundedByteBuffer
        from repro.kpn.channel import Channel
        from repro.processes.codecs import LONG
        n = self.n(20000)
        word = LONG.encode(self.base)

        def raw() -> float:
            buf = BoundedByteBuffer(1024, name="case")
            t = clock()
            for _ in range(n):
                buf.write(word)
                buf.read(8)
            return (clock() - t) / n * 1e6

        def stack() -> float:
            ch = Channel(1024, name="case")
            out, inp = ch.get_output_stream(), ch.get_input_stream()
            t = clock()
            for _ in range(n):
                out.write(word)
                inp.read_exactly(8)
            return (clock() - t) / n * 1e6

        def coded() -> float:
            ch = Channel(1024, name="case")
            out, inp = ch.get_output_stream(), ch.get_input_stream()
            value = self.base
            t = clock()
            for _ in range(n):
                LONG.write(out, value)
                LONG.read(inp)
            return (clock() - t) / n * 1e6

        # interleaved, so the three see the same drift
        runs = [(raw(), stack(), coded()) for _ in range(INNER)]
        r, s, c = (host.median([run[k] for run in runs]) for k in range(3))
        return {"buffers.small_rw_us": r, "streams.stack_us": s - r,
                "codec.long_us": c - s, "channel.hop_us": c}

    def handoff(self) -> Dict[str, float]:
        """A reader blocked on an empty ring, woken by a write: two threads
        ping-pong one word over two rings."""
        from repro.kpn.buffers import BoundedByteBuffer
        n = self.n(2000)

        def once() -> float:
            there = BoundedByteBuffer(64, name="there")
            back = BoundedByteBuffer(64, name="back")

            def echo() -> None:
                for _ in range(n):
                    back.write(there.read(8))

            peer = threading.Thread(target=echo, daemon=True)
            peer.start()
            t = clock()
            for _ in range(n):
                there.write(b"12345678")
                back.read(8)
            elapsed = clock() - t
            peer.join(10)
            return elapsed / (2 * n) * 1e6

        return {"buffers.handoff_us": median_of(once)}

    def hop_threaded(self) -> Dict[str, float]:
        from repro.kpn.channel import Channel
        from repro.processes.codecs import LONG
        n = self.n(20000)

        def once() -> float:
            ch = Channel(1024, name="case")
            out, inp = ch.get_output_stream(), ch.get_input_stream()

            def produce() -> None:
                for i in range(n):
                    LONG.write(out, i)

            peer = threading.Thread(target=produce, daemon=True)
            t = clock()
            peer.start()
            for _ in range(n):
                LONG.read(inp)
            elapsed = clock() - t
            peer.join(10)
            return elapsed / n * 1e6

        return {"channel.hop_threaded_us": median_of(once)}

    def _chain_seconds(self, stages: int, n: int, optimize: bool = False,
                       **net_args) -> float:
        from repro.kpn.network import Network
        from repro.processes import Discard, Scale, Sequence
        net = Network(name="case", **net_args)
        chans = net.channels_n(stages + 1, prefix="c")
        net.add(Sequence(chans[0].get_output_stream(), start=self.base,
                         stride=self.stride, iterations=n))
        for k in range(stages):
            net.add(Scale(chans[k].get_input_stream(),
                          chans[k + 1].get_output_stream(), factor=1))
        net.add(Discard(chans[-1].get_input_stream(), iterations=n))
        if optimize:
            net.optimize()
        t = clock()
        net.run(timeout=60)
        return clock() - t

    def _marginal_stage_us(self, few: int, many: int, n: int, **net_args) -> float:
        """Per-item cost of one more Scale stage: long chain minus short."""
        def once() -> float:
            short = self._chain_seconds(few, n, **net_args)
            long_ = self._chain_seconds(many, n, **net_args)
            return (long_ - short) / ((many - few) * n) * 1e6
        return median_of(once)

    def process_stage(self) -> Dict[str, float]:
        return {"process.stage_us":
                self._marginal_stage_us(1, 4, self.n(4000))}

    def aio_stage(self) -> Dict[str, float]:
        return {"aio.stage_us":
                self._marginal_stage_us(1, 4, self.n(4000), backend="async")}

    # -- the bulk path: ring, object codec, socket pumps ----------------
    def bulk(self) -> Dict[str, float]:
        from repro.kpn.buffers import BoundedByteBuffer
        from repro.kpn.channel import Channel
        from repro.processes.codecs import OBJECT
        n = self.n(4000)
        frames = [OBJECT.encode(c) for c in self.chunks]
        total = sum(len(frames[i % len(frames)]) for i in range(n))

        def ring() -> float:
            buf = BoundedByteBuffer(64 * 1024, name="case")
            t = clock()
            for i in range(n):
                f = frames[i % len(frames)]
                buf.write_vectored((f[:4], f[4:]))
                buf.drain_up_to(64 * 1024)
            return total / (clock() - t) / 1e6

        def codec() -> float:
            ch = Channel(64 * 1024, name="case")
            out, inp = ch.get_output_stream(), ch.get_input_stream()
            chunks = self.chunks
            t = clock()
            for i in range(n):
                OBJECT.write(out, chunks[i % len(chunks)])
                OBJECT.read(inp)
            return (clock() - t) / n * 1e6

        return {"buffers.bulk_mb_per_s": median_of(ring),
                "codec.object_us": median_of(codec)}

    def _pumped(self, capacity: int, produce, consume) -> float:
        """Seconds for ``consume`` to finish while ``produce`` feeds a
        SenderPump -> TCP -> ReceiverPump link."""
        from repro.distributed.sockets import ReceiverPump, SenderPump
        from repro.kpn.buffers import BoundedByteBuffer
        src = BoundedByteBuffer(capacity, name="case-src")
        dst = BoundedByteBuffer(capacity, name="case-dst")
        sender = SenderPump(src, name="case-s")
        address = sender.ensure_listener()
        sender.start()
        receiver = ReceiverPump(dst, connect=address, name="case-r").start()
        feeder = threading.Thread(target=produce, args=(src,), daemon=True)
        try:
            t = clock()
            feeder.start()
            consume(dst)
            return clock() - t
        finally:
            feeder.join(10)
            sender.close()
            receiver.close()

    def sockets(self) -> Dict[str, float]:
        from repro.kpn.streams import (BlockingInputStream, LocalInputStream,
                                       LocalOutputStream)
        from repro.processes.codecs import LONG, OBJECT
        n_small = self.n(20000)
        n_bulk = self.n(3000)
        chunks = self.chunks
        bulk_bytes = sum(len(OBJECT.encode(chunks[i % len(chunks)]))
                         for i in range(n_bulk))

        def small() -> float:
            def produce(src) -> None:
                out = LocalOutputStream(src)
                for i in range(n_small):
                    LONG.write(out, i)

            def consume(dst) -> None:
                inp = BlockingInputStream(LocalInputStream(dst))
                for _ in range(n_small):
                    LONG.read(inp)

            return self._pumped(64 * 1024, produce, consume) / n_small * 1e6

        def bulk() -> float:
            def produce(src) -> None:
                out = LocalOutputStream(src)
                for i in range(n_bulk):
                    OBJECT.write(out, chunks[i % len(chunks)])

            def consume(dst) -> None:
                inp = BlockingInputStream(LocalInputStream(dst))
                for _ in range(n_bulk):
                    OBJECT.read(inp)

            return bulk_bytes / self._pumped(64 * 1024, produce, consume) / 1e6

        return {"sockets.msg_us": median_of(small),
                "sockets.bulk_mb_per_s": median_of(bulk)}

    def wire_oob(self) -> Dict[str, float]:
        """A frame over send_obj/recv_obj: pickle protocol 5, the array's
        bytes out of band."""
        from repro.distributed.wire import recv_obj, send_obj
        n = self.n(40)
        frame = self.frames[0]

        def once() -> float:
            a, b = socket.socketpair()

            def receive() -> None:
                for _ in range(n):
                    recv_obj(b)

            peer = threading.Thread(target=receive, daemon=True)
            peer.start()
            t = clock()
            for _ in range(n):
                send_obj(a, frame)
            peer.join(30)
            elapsed = clock() - t
            a.close()
            b.close()
            return n * frame.nbytes / elapsed / 1e6

        return {"codec.object_oob_mb_per_s": median_of(once)}

    # -- the distributed control path -----------------------------------
    def server(self) -> Dict[str, float]:
        from repro.distributed.server import ComputeServer, ServerClient
        from repro.kpn.network import Network
        from repro.processes import MapProcess
        from repro.processes.codecs import OBJECT
        n = self.n(300)
        server = ComputeServer(name="case").start()
        client = ServerClient("127.0.0.1", server.port)
        try:
            client.ping()

            def ping() -> float:
                t = clock()
                for _ in range(n):
                    client.ping()
                return (clock() - t) / n * 1e6

            def ship() -> float:
                net = Network(name="case-ship")
                up = net.channel(64 * 1024)
                down = net.channel(64 * 1024)
                mapper = MapProcess(up.get_input_stream(),
                                    down.get_output_stream(),
                                    workloads.count_words, codec=OBJECT)
                t = clock()
                client.run(mapper)
                elapsed = clock() - t
                net.shutdown()
                return elapsed * 1e3

            return {"wire.rpc_roundtrip_us": median_of(ping),
                    "server.ship_process_ms": median_of(ship)}
        finally:
            client.close()
            server.stop()

    def cluster_spawn(self) -> Dict[str, float]:
        from repro.distributed.cluster import LocalCluster

        def once() -> float:
            cluster = LocalCluster(n_servers=1, mode="process")
            t = clock()
            cluster.start()
            elapsed = clock() - t
            cluster.stop()
            return elapsed * 1e3

        return {"cluster.spawn_server_ms": median_of(once)}

    # -- the compiler ---------------------------------------------------
    def compiler(self) -> Dict[str, float]:
        from repro.kpn.network import Network
        from repro.processes import Discard, Scale, Sequence
        shares: List[float] = []

        def optimize() -> float:
            net = Network(name="case")
            chans = net.channels_n(5, prefix="c")
            net.add(Sequence(chans[0].get_output_stream(), iterations=10))
            for k in range(4):
                net.add(Scale(chans[k].get_input_stream(),
                              chans[k + 1].get_output_stream(), factor=2))
            net.add(Discard(chans[-1].get_input_stream(), iterations=10))
            t = clock()
            net.optimize()
            elapsed = clock() - t
            fused = sum(len(c.processes) for c in net.fusion_plan.fused)
            shares.append(fused / 6)        # six processes were added
            net.run(timeout=10)
            return elapsed * 1e3

        return {"compile.optimize_ms": median_of(optimize),
                "compile.fused_share": host.median(shares),
                "compile.stage_us": self._marginal_stage_us(
                    4, 8, self.n(20000), optimize=True)}

    # -- the async backend and network start-up ---------------------------
    def _ring(self, backend: str, relays: int, tokens: int):
        """A smaller ring_async: the same processes, two tokens in flight."""
        from kpnbench.procs import LoadSource, Relay, Sink
        from repro.kpn.network import Network
        sizes = workloads.Sizes(closed=tokens, paced=0, rate=1.0)
        go, drained = threading.Event(), threading.Event()
        window = threading.Semaphore(workloads.RingAsync.clients)
        t = clock()
        net = Network(name="case-ring", backend=backend)
        chans = [net.channel(name=f"r{k}") for k in range(relays + 1)]
        load = workloads.Load(lambda i: i, sizes, go, drained, window)
        net.add(LoadSource(chans[0].get_output_stream(), load))
        for k in range(relays):
            net.add(Relay(chans[k].get_input_stream(),
                          chans[k + 1].get_output_stream(), name=f"relay-{k}"))
        net.add(Sink(chans[-1].get_input_stream(), lambda i, out: out == i,
                     sizes, drained, time.process_time, window=window))
        build_s = clock() - t
        t = clock()
        net.start()
        start_s = clock() - t
        return net, go, build_s, start_s

    def aio_hop(self) -> Dict[str, float]:
        relays, tokens = 500, self.n(12)

        def once() -> float:
            net, go, _, _ = self._ring("async", relays, tokens)
            t = clock()
            go.set()
            net.join(timeout=60)
            return (clock() - t) / (tokens * relays) * 1e6

        return {"aio.hop_us": median_of(once)}

    def network_startup(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        builds: List[float] = []
        for backend, relays in (("thread", 300), ("async", 1000)):
            relays = self.n(relays)

            def once() -> float:
                net, go, build_s, start_s = self._ring(backend, relays, 1)
                builds.append(build_s / (relays + 2) * 1e6)
                go.set()
                net.join(timeout=60)
                return start_s / (relays + 2) * 1e6

            out[f"network.start_us_per_proc.{backend}"] = median_of(once)
        out["network.build_us_per_proc"] = host.median(builds)
        return out

    # -- farms, the pool, telemetry ---------------------------------------
    def _farm_seconds(self, mode: str, workers: int, n: int, make_task) -> float:
        from repro.parallel.farm import build_farm
        from repro.parallel.tasks import RangeProducerTask
        farm = build_farm(RangeProducerTask(n, make_task), n_workers=workers,
                          mode=mode)
        t = clock()
        farm.run(timeout=60)
        elapsed = clock() - t
        if len(farm.results) != n:
            raise RuntimeError(f"{mode} farm returned {len(farm.results)}/{n}")
        return elapsed

    def farms(self) -> Dict[str, float]:
        n = self.n(1000)
        return {
            "farm.pipeline_task_us": median_of(lambda: self._farm_seconds(
                "pipeline", 1, n, _noop) / n * 1e6),
            "farm.dynamic_task_us": median_of(lambda: self._farm_seconds(
                "dynamic", 4, n, _noop) / n * 1e6),
        }

    def pool(self) -> Dict[str, float]:
        from repro.parallel.executor import ProcessPool
        n_small, n_big = self.n(300), self.n(40)
        frame = self.frames[0]

        def spawn() -> float:
            t = clock()
            pool = ProcessPool(size=1)
            pool.run_task(NoOp())
            elapsed = clock() - t
            pool.close()
            return elapsed * 1e3

        out = {"executor.pool_spawn_ms": median_of(spawn)}
        pool = ProcessPool(size=1)
        try:
            if self.child_cpu is not None:
                for pid in pool.child_pids():
                    host.pin_process(pid, self.child_cpu)
            pool.run_task(Echo(frame))      # the child imports numpy once

            def roundtrip() -> float:
                t = clock()
                for _ in range(n_small):
                    pool.run_task(NoOp())
                return (clock() - t) / n_small * 1e6

            def oob() -> float:
                task = Echo(frame)
                t = clock()
                for _ in range(n_big):
                    pool.run_task(task)
                return 2 * n_big * frame.nbytes / (clock() - t) / 1e6

            out["executor.pool_roundtrip_us"] = median_of(roundtrip)
            out["executor.pool_oob_mb_per_s"] = median_of(oob)
        finally:
            pool.close()
        return out

    def telemetry(self) -> Dict[str, float]:
        from repro import TELEMETRY
        n = self.n(400)
        key, _, _ = workloads.weak_key(self.seed, n)
        batch = workloads.FACTOR_BATCH
        make = _FactorTasks(key, batch)
        ratios, per_item = [], []
        for _ in range(INNER):          # paired and interleaved
            off = self._farm_seconds("dynamic", 4, n, make)
            TELEMETRY.reset()
            TELEMETRY.enable()
            try:
                on = self._farm_seconds("dynamic", 4, n, make)
                per_item.append(TELEMETRY.events_emitted / n)
            finally:
                TELEMETRY.disable()
            ratios.append(on / off)
        n_events = self.n(20000)
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            def emit() -> float:
                t = clock()
                for _ in range(n_events):
                    TELEMETRY.instant("case", category="kpnbench")
                return (clock() - t) / n_events * 1e6
            event_us = median_of(emit)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        return {"telemetry.on_off_ratio": host.median(ratios),
                "telemetry.event_us": event_us,
                "telemetry.events_per_item": host.median(per_item)}

    def all(self) -> List[Callable[[], Dict[str, float]]]:
        return [self.small_messages, self.handoff, self.hop_threaded,
                self.process_stage, self.bulk, self.sockets, self.wire_oob,
                self.server, self.cluster_spawn, self.compiler, self.aio_hop,
                self.aio_stage, self.network_startup, self.farms, self.pool,
                self.telemetry]


def _noop(i: int) -> NoOp:
    return NoOp()


class _FactorTasks:
    """make_task for the factoring farm (picklable, unlike a lambda)."""

    def __init__(self, key: int, batch: int) -> None:
        self.key = key
        self.batch = batch

    def __call__(self, i: int):
        from repro.parallel.factor import FactorWorkerTask
        return FactorWorkerTask(self.key, i, 2 * self.batch * i, self.batch)


def run_cases(cfg: Dict[str, Any]) -> Dict[str, Any]:
    recorder = Recorder("layers", cfg.get("first_span_id", 0))
    cases = Cases(cfg["seed"], cfg.get("scale", 1.0), cfg.get("child_cpu"))
    values: Dict[str, float] = {}
    errors: Dict[str, str] = {}
    with recorder.span("layers"):
        for case in cases.all():
            with recorder.span(f"layer.{case.__name__}"):
                try:
                    values.update(case())
                except Exception as exc:  # noqa: BLE001 - report, keep going
                    errors[case.__name__] = f"{type(exc).__name__}: {exc}"
    return {"values": values, "errors": errors, "spans": recorder.spans}
