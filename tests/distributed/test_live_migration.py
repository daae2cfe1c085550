"""Live migration: moving processes after execution has begun (§6.1)."""

import threading
import time

import pytest

from repro.errors import MigrationError
from repro.kpn import Network
from repro.kpn.process import IterativeProcess, ProcessControl
from repro.distributed.migration import migrate_live
from repro.distributed.server import ComputeServer, ServerClient
from repro.distributed.sockets import ReceiverPump
from repro.processes import Collect, FromIterable, Scale, Sequence
from repro.processes.codecs import LONG

from tests.conftest import hosted


@pytest.fixture
def server():
    s = ComputeServer(name="lm").start()
    client = ServerClient("127.0.0.1", s.port)
    yield s, client
    client.close()
    s.stop()


class Ticker(IterativeProcess):
    """Emits consecutive integers with a small per-step delay, so pause
    requests catch a step boundary quickly."""

    def __init__(self, out, iterations=0, dwell=0.002, name=None):
        super().__init__(iterations=iterations, name=name)
        self.out = out
        self.dwell = dwell
        self.track(out)

    def step(self):
        LONG.write(self.out, self.steps_completed)
        time.sleep(self.dwell)


# ---------------------------------------------------------------------------
# ProcessControl unit behaviour
# ---------------------------------------------------------------------------

def test_control_pause_resume_cycle():
    net = Network()
    ch = net.channel()
    out = []
    ticker = Ticker(ch.get_output_stream(), iterations=200)
    net.add(ticker)
    net.add(Collect(ch.get_input_stream(), out))
    net.start()
    ctrl = ticker.control()
    ctrl.request_pause()
    assert ctrl.wait_parked(timeout=10)
    seen_at_pause = ticker.steps_completed
    time.sleep(0.05)
    assert ticker.steps_completed == seen_at_pause  # really parked
    ctrl.resume()
    assert net.join(timeout=60)
    assert out == list(range(200))  # nothing lost or repeated


def test_control_abandon_skips_stream_close():
    net = Network()
    ch = net.channel()
    ticker = Ticker(ch.get_output_stream(), iterations=0)
    net.add(ticker)
    net.start()
    ctrl = ticker.control()
    ctrl.request_pause()
    assert ctrl.wait_parked(timeout=10)
    ctrl.abandon()
    deadline = time.monotonic() + 10
    while net.live_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert net.live_threads() == []
    assert not ch.buffer.write_closed  # abandon must NOT close the stream
    net.shutdown()


def test_getstate_strips_control():
    ticker = Ticker.__new__(Ticker)
    IterativeProcess.__init__(ticker, iterations=1)
    ticker.control()
    assert ticker.__getstate__()["_ctrl"] is None


# ---------------------------------------------------------------------------
# end-to-end live migration
# ---------------------------------------------------------------------------

def test_live_migration_of_producer(server):
    """A producer mid-stream moves to the server; the consumer sees one
    seamless sequence — neither lost nor repeated elements."""
    _, client = server
    net = Network()
    ch = net.channel(capacity=1 << 16)
    out = []
    total = 400
    ticker = Ticker(ch.get_output_stream(), iterations=total, name="mover")
    net.add(ticker)
    net.add(Collect(ch.get_input_stream(), out, name="stayer"))
    net.start()
    # let it produce a while locally, then move it
    deadline = time.monotonic() + 30
    while ticker.steps_completed < 20 and time.monotonic() < deadline:
        time.sleep(0.005)
    migrate_live(ticker, client, timeout=30)
    assert net.join(timeout=120)
    assert out == list(range(total))


class SlowScale(Scale):
    """Scale with a per-step dwell (module-level: pickles)."""

    def step(self):
        time.sleep(0.002)
        super().step()


def test_live_migration_of_middle_stage(server):
    """Scale moves mid-run; unconsumed input bytes travel with it."""
    _, client = server
    net = Network()
    a, b = net.channels_n(2, capacity=1 << 16)
    out = []
    total = 300

    stage = SlowScale(a.get_input_stream(), b.get_output_stream(), 3,
                      codec="long", name="slow-x3")
    net.add(Sequence(a.get_output_stream(), iterations=total, name="src"))
    net.add(stage)
    net.add(Collect(b.get_input_stream(), out, name="sink"))
    net.start()
    deadline = time.monotonic() + 30
    while stage.steps_completed < 15 and time.monotonic() < deadline:
        time.sleep(0.005)
    migrate_live(stage, client, timeout=30)
    assert net.join(timeout=120)
    assert out == [3 * k for k in range(total)]


def test_live_migration_timeout_on_blocked_process(server):
    """A process blocked on an empty input can't reach a step boundary;
    migrate_live must fail cleanly and leave it runnable."""
    import queue

    from repro.processes import FromIterable

    _, client = server
    # fed from outside: the feeder sleeps on the queue, not on a channel,
    # so the network never looks stalled while the stage starves
    feed = queue.Queue()
    net = Network()
    a, b = net.channels_n(2)
    out = []
    stage = Scale(a.get_input_stream(), b.get_output_stream(), 2,
                  codec="long", name="starved")
    net.add(FromIterable(a.get_output_stream(), iter(feed.get, None),
                         name="feeder"))
    net.add(stage)          # nothing fed yet: blocked immediately
    net.add(Collect(b.get_input_stream(), out))
    net.start()
    time.sleep(0.1)
    with pytest.raises(MigrationError, match="step boundary"):
        migrate_live(stage, client, timeout=0.3)
    # now feed it: the process must still work after the aborted attempt
    for item in [*range(5), None]:
        feed.put(item)
    assert net.join(timeout=60)
    assert out == [0, 2, 4, 6, 8]


def test_progress_counter_survives_migration(server):
    """A finite-iteration process must not restart its count remotely."""
    srv, client = server
    net = Network()
    ch = net.channel(capacity=1 << 16)
    out = []
    ticker = Ticker(ch.get_output_stream(), iterations=100, name="counted")
    net.add(ticker)
    net.add(Collect(ch.get_input_stream(), out))
    net.start()
    deadline = time.monotonic() + 30
    while ticker.steps_completed < 30 and time.monotonic() < deadline:
        time.sleep(0.005)
    migrate_live(ticker, client, timeout=30)
    assert net.join(timeout=120)
    assert len(out) == 100          # not 130: the count resumed, not restarted
    assert out == list(range(100))


# ---------------------------------------------------------------------------
# a consumer's second hop: B → C while the producer stays
# ---------------------------------------------------------------------------

@pytest.fixture
def server_c():
    s = ComputeServer(name="lm-c").start()
    client = ServerClient("127.0.0.1", s.port)
    yield s, client
    client.close()
    s.stop()


def test_consumer_hops_under_backpressure(server, server_c):
    """The paused consumer drains nothing, so B's pump sits on a full
    ring with DATA behind it: LISTEN_OK must still get through."""
    srv_b, client_b = server
    srv_c, client_c = server_c
    net = Network()
    ch, back = net.channels_n(2, capacity=64)
    out = []
    total = 3000
    client_b.run(Scale(ch.get_input_stream(), back.get_output_stream(), 3,
                       name="pressed"))
    net.add(Sequence(ch.get_output_stream(), iterations=total))
    net.add(Collect(back.get_input_stream(), out))
    net.start()
    pressed = hosted(srv_b, "pressed")
    deadline = time.monotonic() + 30
    while len(out) < 100 and time.monotonic() < deadline:
        time.sleep(0.001)
    migrate_live(pressed, client_c, timeout=30)
    assert net.join(timeout=60)
    assert out == [3 * k for k in range(total)]
    [moved] = srv_c.network.processes
    assert moved.name == "pressed"
    # C's ring keeps the channel's bound: it grew, if at all, only to
    # take the bytes B handed on
    ring = moved.source.channel.buffer
    assert ring.initial_capacity == 64
    assert [g["cause"] for g in ring.growths] in ([], ["migration"])


def test_eof_sent_during_the_hop_reaches_the_new_consumer(
        server, server_c, monkeypatch, hold_monitor):
    """The producer ends while its consumer moves B → C: its EOF must wait
    for C to dial in, not go to the departing B.  (The shipping network's
    monitor is held: it polls B alone, and C's part is out of its view.)"""
    srv_b, client_b = server
    srv_c, client_c = server_c
    total = 400
    release = threading.Event()

    def held():
        yield from range(total)
        release.wait(30)        # everything sent; the end waits for the hop

    net = Network()
    ch, back = net.channels_n(2, capacity=1 << 16)
    out = []
    client_b.run(SlowScale(ch.get_input_stream(), back.get_output_stream(), 2,
                           name="backlogged"))
    net.add(FromIterable(ch.get_output_stream(), held(), name="held"))
    net.add(Collect(back.get_input_stream(), out))
    net.start()
    mover = hosted(srv_b, "backlogged")
    sender = ch.sender_pump
    deadline = time.monotonic() + 30
    while ((len(out) < 10 or sender.moved < total * 8)
           and time.monotonic() < deadline):
        time.sleep(0.002)
    assert sender.moved == total * 8

    detach = ReceiverPump.detach_and_drain

    def detach_after_the_end(pump):
        release.set()                       # the producer ends mid-hop
        sender._thread.join(timeout=1.0)    # its EOF goes out, or waits
        return detach(pump)

    monkeypatch.setattr(ReceiverPump, "detach_and_drain",
                        detach_after_the_end)
    migrate_live(mover, client_c, timeout=30)
    assert srv_c.network.join(timeout=60), "the moved process never ended"
    [moved] = srv_c.network.processes
    assert moved.name == "backlogged" and moved.failure is None
    # the EOF came over C's own link, the only thing left to send on it
    link = moved.source.channel.receiver_pump
    assert (link.failure, link.moved) == (None, 1)
    assert net.join(timeout=60)
    assert out == [2 * k for k in range(total)]
    assert sender.moved == total * 8 + 1    # 400 LONGs, then the EOF
