"""Deadlock detection and Parks' bounded scheduling (paper section 3.5).

Bounded channels with blocking writes keep memory use finite and enforce
scheduling fairness, but "may introduce deadlock" — even in acyclic graphs
(paper Figure 13).  Since choosing deadlock-free capacities statically is
undecidable, Parks' bounded-scheduling procedure [13] manages capacities at
run time:

1. Detect that the network has globally stalled: every live process thread
   is blocked on a channel operation.
2. If at least one of them is blocked **writing** to a full channel, the
   deadlock is *artificial*: enlarge the smallest-capacity full channel
   among those written to and resume.  Repeating this executes any program
   that can run in bounded memory using bounded memory, and degrades
   gracefully (buffers grow only as needed) otherwise.
3. If all are blocked **reading**, the deadlock is *true*: no capacity
   assignment helps.  Depending on policy we raise, stop the network, or
   leave it (an externally-fed network may legitimately idle).

Detection uses the blocked-actor accounting that
:class:`~repro.kpn.buffers.BoundedByteBuffer` reports into
:class:`~repro.kpn.buffers.BlockAccounting`, and a generation-stable
double-read filters out the race where an actor is about to be woken.

A stall needs every live actor blocked, so only two transitions can
*complete* one, and the monitor is kicked (woken to look) from exactly
those, plus a timer:

* the last actor to block: a thread's wait (``BlockAccounting._enter``)
  or a task's park (``BoundedByteBuffer.async_park``) that leaves at
  least as many actors blocked as are live kicks, and any other kicks
  nothing — one rule, a ``len`` and a compare, for both kinds of actor;
* an actor that finishes kicks from ``Network._actor_finished`` (and a
  composite that starts waiting on its members, which stops counting as
  live, from ``Network.join_members``);
* the monitor's 50 ms poll, the backstop for a lost wake-up.

A wake never kicks: it unblocks an actor, which cannot complete a stall.
Only the network's own actors are recorded, so a link's pump thread
blocked on one of its buffers neither kicks nor counts.

The monitor's own check starts from the same necessary condition — the
accounting's blocked count against :meth:`Network.live_count` — and
builds the live-actor list for the authoritative wait-graph check only
when ``blocked >= live``.  Kicks coalesce on a pending flag: an
unstalled network of any size costs the monitor nothing per park or
wait.

A monitor that raises stores the error and shuts the network down, so
:meth:`Network.join` re-raises it promptly instead of the network
running on without deadlock detection.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.errors import (
    ArtificialDeadlockError,
    TrueDeadlockError,
)
from repro.telemetry.core import TELEMETRY as _telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.kpn.network import Network

__all__ = ["DeadlockMonitor", "DeadlockPolicy", "GrowthEvent"]


@dataclass
class GrowthEvent:
    """One resolution of an artificial deadlock: a view of the entry the
    grown channel's buffer keeps (``BoundedByteBuffer.growths``)."""

    channel_name: str
    old_capacity: int
    new_capacity: int
    blocked_processes: tuple[str, ...] = ()


@dataclass
class DeadlockPolicy:
    """Configuration for the monitor's reactions.

    Attributes
    ----------
    grow:
        Resolve artificial deadlocks by growing buffers (Parks).  When
        False, an artificial deadlock is treated per ``on_true``.
    growth_factor:
        Multiplier applied to the chosen channel's capacity.
    max_capacity:
        Hard cap per channel; reaching it turns an artificial deadlock
        into a reported :class:`ArtificialDeadlockError`.
    on_true:
        "raise" — store a :class:`TrueDeadlockError` and shut the network
        down (``Network.join`` re-raises it);
        "stop" — shut down silently;
        "ignore" — leave the network blocked.
    settle_ms:
        Stability window: the stall must persist, with no accounting
        churn, for this long before the monitor acts.
    stall_watchdog_s:
        When set, the monitor snapshots the wait-graph (who is blocked on
        which channel, with buffer fill levels) once per stall after no
        progress has been observed for this many seconds — turning a
        silent hang into an inspectable artifact.  The snapshot lands in
        :attr:`DeadlockMonitor.stall_snapshots` and, with telemetry on,
        as a ``stall.wait_graph`` instant.  None disables the watchdog.
    """

    grow: bool = True
    growth_factor: int = 2
    max_capacity: int = 64 * 1024 * 1024
    on_true: str = "raise"
    settle_ms: float = 20.0
    stall_watchdog_s: Optional[float] = None


class DeadlockMonitor:
    """Watches a network for global stalls and applies the policy.

    The monitor runs in its own daemon thread.  It is *kicked* (woken) by
    the last actor to block and by actor exits (see the module
    docstring), then re-verifies the stall after a settle window.
    """

    def __init__(self, network: "Network", policy: Optional[DeadlockPolicy] = None,
                 on_event: Optional[Callable[[GrowthEvent], None]] = None) -> None:
        self.network = network
        self.policy = policy or DeadlockPolicy()
        self.on_event = on_event
        #: wait-graph snapshots the stall watchdog captured (newest last)
        self.stall_snapshots: List[dict] = []
        self.error: Optional[Exception] = None
        self._cond = threading.Condition()
        self._kicked = False
        self._stop = False
        self._thread: Optional[threading.Thread] = None
        # stall-watchdog state: the generation we have been observing, when
        # we first saw it, and whether this stall was already snapshotted
        self._stall_gen: Optional[int] = None
        self._stall_since: float = 0.0
        self._stall_reported = False

    @property
    def growth_events(self) -> List[GrowthEvent]:
        return self.network.growth_events()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, name="deadlock-monitor",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def kick(self) -> None:
        """Wake the monitor to re-examine the network.

        A kick already pending covers this one: the monitor clears the
        flag *before* it examines, so whatever the caller changed before
        kicking is seen by that examination.
        """
        if self._kicked:
            return
        with self._cond:
            self._kicked = True
            self._cond.notify_all()

    # -- main loop ---------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._kicked and not self._stop:
                    # periodic re-check regardless of kicks: covers the
                    # (unlikely) loss of a wakeup and lets the stall
                    # watchdog observe windows expiring without churn.
                    self._cond.wait(timeout=0.05)
                if self._stop:
                    return
                self._kicked = False
            try:
                self._watchdog()
                self._examine()
            except Exception as exc:
                # without a monitor a later true deadlock would wait out
                # the caller's timeout with this error never raised: end
                # the run now, and join() raises it
                self.error = exc
                self.network.shutdown()
                return

    def _stalled(self) -> Optional[dict]:
        """Return the blocked map if every live network thread is blocked."""
        acct = self.network.accounting
        # O(1) pre-check: fewer blocked actors than live ones cannot be a
        # stall (an actor counted out a moment before is_alive() turns
        # false only makes it pass more often); the wait-graph check below
        # stays authoritative.
        live_count = self.network.live_count()
        if live_count <= 0 or acct.total_blocked < live_count:
            return None
        live = self.network.live_threads()
        if not live:
            return None
        blocked = acct.snapshot()
        if all(t in blocked for t in live):
            return blocked
        return None

    def _watchdog(self) -> None:
        """Snapshot the wait-graph once per stall (no progress for the
        configured window).  Runs on every monitor wakeup, so stalls are
        noticed within ~50 ms of the window expiring even without kicks."""
        window = self.policy.stall_watchdog_s
        if window is None:
            return
        acct = self.network.accounting
        generation = acct.generation
        now = time.monotonic()
        if self._stalled() is None or generation != self._stall_gen:
            # progress (or a different stall): restart the window
            self._stall_gen = generation
            self._stall_since = now
            self._stall_reported = False
            return
        if self._stall_reported or now - self._stall_since < window:
            return
        snapshot = self.network.wait_snapshot()
        snapshot["stalled_for"] = now - self._stall_since
        self.stall_snapshots.append(snapshot)
        self._stall_reported = True
        if _telemetry.enabled:
            _telemetry.instant(
                "stall.wait_graph", category="kpn.scheduler",
                network=self.network.name,
                blocked=[f"{b['thread']}:{b['mode']}:{b['channel']}"
                         f"({b['buffered']}/{b['capacity']})"
                         for b in snapshot["blocked"]],
                stalled_for=snapshot["stalled_for"])
            _telemetry.inc("kpn.scheduler.stall_snapshots")

    def _examine(self) -> None:
        acct = self.network.accounting
        first = self._stalled()
        if first is None:
            return
        gen = acct.generation
        # stability window: wait, then confirm nothing moved.  The wait is
        # sliced so the stall watchdog can fire *during* the window — a
        # long settle must not hide the stall it is confirming.
        deadline = time.monotonic() + self.policy.settle_ms / 1000.0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            with self._cond:
                if self._stop:
                    return      # a stopped monitor reaches no verdict
                self._cond.wait(min(remaining, 0.01))
            self._watchdog()
        if acct.generation != gen:
            return
        blocked = self._stalled()
        if blocked is None:
            return
        self._resolve(blocked)

    # -- resolution ----------------------------------------------------------
    def _resolve(self, blocked: dict) -> None:
        names = tuple(sorted(t.name for t in self.network.live_threads()))
        # only network actors are in the map, every one of them live here
        write_waits = [(buffer, thread)
                       for thread, (buffer, mode) in blocked.items()
                       if mode == "write"]
        if write_waits and self.policy.grow \
                and self._grow_smallest(write_waits, names):
            return
        # Every other verdict ends the network, or leaves it blocked for
        # good: it may rest on observed waits only.  A task the async
        # backend parked on a guess (its default firing rule, output room)
        # first runs its step for real; we look again once it has blocked
        # where it really blocks — or gone on.
        guesses = [(actor, wait) for actor, wait in blocked.items()
                   if getattr(actor, "assumed", False)]
        if guesses:
            for actor, (buffer, mode) in guesses:
                actor.force(buffer, mode)
            return
        if write_waits:
            if self.policy.grow:
                full = min((b for b, _ in write_waits),
                           key=lambda b: b.capacity)
                message = (f"channel {full.name!r} already at max capacity "
                           f"{full.capacity}")
            else:
                message = "artificial deadlock (growth disabled)"
            self.error = ArtificialDeadlockError(message, names)
            self.network.shutdown()
        else:
            self._resolve_true(names)

    def _grow_smallest(self, write_waits, names) -> bool:
        """Parks' rule: among the full channels being written to, grow the
        one with the smallest capacity.  False at ``max_capacity``."""
        buffer = min((b for b, _ in write_waits), key=lambda b: b.capacity)
        old = buffer.capacity
        new = min(old * self.policy.growth_factor, self.policy.max_capacity)
        if new <= old:
            return False
        # the buffer records the growth (and emits the channel.grow
        # instant, which counts the blocked) from *this* monitor thread;
        # hand it the blocked writer's name so readers can attribute the
        # growth to the process it frees
        writers = sorted(t.name for b, t in write_waits if b is buffer)
        buffer.grow(new, "parks", writers[0] if writers else "", names)
        if _telemetry.enabled:
            _telemetry.inc("kpn.scheduler.artificial_deadlocks")
        if self.on_event is not None:
            self.on_event(GrowthEvent(buffer.name, old, new, names))
        return True

    def _resolve_true(self, names) -> None:
        if self.policy.on_true == "ignore":
            return
        has_remote = getattr(self.network, "has_remote_links", None)
        if has_remote is not None and has_remote():
            # Distributed case: a read-blocked stall may be waiting on
            # traffic from another server.  Local diagnosis would need the
            # distributed deadlock detection the paper leaves as future
            # work (section 6.2), so we stand down.
            return
        if _telemetry.enabled:
            _telemetry.instant("deadlock.true", category="kpn.scheduler",
                               blocked=len(names))
            _telemetry.inc("kpn.scheduler.true_deadlocks")
        if self.policy.on_true == "raise":
            self.error = TrueDeadlockError(
                f"true deadlock: all processes blocked reading: {names}", names)
        self.network.shutdown()
