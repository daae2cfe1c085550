"""Deadlock detection and Parks' bounded scheduling (paper section 3.5).

Bounded channels with blocking writes keep memory use finite and enforce
scheduling fairness, but "may introduce deadlock" — even in acyclic graphs
(paper Figure 13).  Since choosing deadlock-free capacities statically is
undecidable, Parks' bounded-scheduling procedure [13] manages capacities at
run time:

1. Detect that the network has globally stalled: every live actor (a
   leaf process's thread or task; a composite is none) is blocked on a
   channel operation.
2. If at least one of them is blocked **writing** to a full channel, the
   deadlock is *artificial*: enlarge the smallest-capacity full channel
   among those written to and resume.  Repeating this executes any program
   that can run in bounded memory using bounded memory, and degrades
   gracefully (buffers grow only as needed) otherwise.
3. If all are blocked **reading**, the deadlock is *true*: no capacity
   assignment helps.  The monitor stores a :class:`TrueDeadlockError`
   and shuts the network down.  (A network fed from outside is fed by
   one of its processes, which sleeps on its source, not on a channel,
   so the network never looks stalled.)

The rule has no settings: growth doubles (:data:`GROWTH_FACTOR`) up to
:data:`MAX_CAPACITY`, and a stall must hold for :data:`SETTLE_MS`.

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
* an actor that finishes kicks from ``Network._actor_finished``;
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

The monitor's thread lives exactly while the network has a live actor:
the spawn that counts an actor in starts it if it is not running, and
it ends itself, under the network lock, when it wakes to find no live
actor.

**Across sites (paper section 6.2).**  A network with socket links can
be woken by traffic from another server, so its monitor never decides
a stall on its own view.  The network that shipped the parts does
decide: ``ServerClient.run`` made each destination one of its sites
(:meth:`Network.add_site`).  After its own settle window confirms a
local stall, the monitor polls every site's ``wait_snapshot`` twice, a
settle window apart, and goes on only if nothing changed, every live
actor at every site is blocked, and no link has bytes in flight: per
link, the bytes its pumps sent equal the bytes delivered, unless the
receiving buffer is full (what is in flight then waits for the
consumer, not the wire), and a link still moving shows both its ends.
Then Parks' rule runs over all sites: the smallest full channel being
written to grows where it lives — here as ``parks``, elsewhere through
the ``grow_channel`` RPC as ``parks-distributed`` — or, with no writer
blocked anywhere, the deadlock is true.  A hosted network with links
but no sites only forces its own guessed tasks and leaves the verdict
to the network that shipped its parts.  A site that does not answer,
or a link with one end outside the sites, means no verdict: the safe
direction.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.errors import (
    ArtificialDeadlockError,
    RemoteError,
    TrueDeadlockError,
)
from repro.telemetry.core import TELEMETRY as _telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.kpn.network import Network

__all__ = ["DeadlockMonitor", "GrowthEvent"]

#: Parks' growth multiplies the chosen channel's capacity by this ...
GROWTH_FACTOR = 2
#: ... up to this cap per channel; a full channel at the cap is an
#: :class:`ArtificialDeadlockError`
MAX_CAPACITY = 64 * 1024 * 1024
#: stability window: a stall must persist, with no accounting churn, for
#: this long before the monitor acts
SETTLE_MS = 20.0


@dataclass
class GrowthEvent:
    """One resolution of an artificial deadlock: a view of the entry the
    grown channel's buffer keeps (``BoundedByteBuffer.growths``)."""

    channel_name: str
    old_capacity: int
    new_capacity: int
    blocked_processes: tuple[str, ...] = ()


class DeadlockMonitor:
    """Watches a network for global stalls and applies Parks' rule.

    The monitor runs in its own daemon thread while the network has a
    live actor (see the module docstring).  It is *kicked* (woken) by the
    last actor to block and by actor exits, then re-verifies the stall
    after a settle window.
    """

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.error: Optional[Exception] = None
        self._cond = threading.Condition()
        self._kicked = False
        #: the monitor's thread while the network has a live actor, else
        #: None; written under the network lock (``Network.spawn`` starts
        #: it, :meth:`_run` clears it as it ends)
        self.thread: Optional[threading.Thread] = None

    @property
    def growth_events(self) -> List[GrowthEvent]:
        return self.network.growth_events()

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
        network = self.network
        while True:
            with self._cond:
                if not self._kicked:
                    # periodic re-check regardless of kicks: covers the
                    # (unlikely) loss of a wakeup
                    self._cond.wait(timeout=0.05)
                self._kicked = False
            with network._lock:
                if network.accounting.live == 0:
                    # nothing left to stall; the next spawn starts a
                    # fresh thread
                    self.thread = None
                    return
            try:
                self._examine()
            except Exception as exc:
                # without a monitor a later true deadlock would wait out
                # the caller's timeout with this error never raised: end
                # the run now, and join() raises it
                self.error = exc
                network.shutdown()

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

    def _settle(self) -> bool:
        """Wait out the stability window; False if the network had no
        live actor left by its end (seen at the latest at the next 50 ms
        poll).  A kick does not end the wait: it stays pending for the
        next examination."""
        acct = self.network.accounting
        deadline = time.monotonic() + SETTLE_MS / 1000.0
        with self._cond:
            while acct.live and (left := deadline - time.monotonic()) > 0:
                self._cond.wait(min(left, 0.05))
        return bool(acct.live)

    def _examine(self) -> None:
        acct = self.network.accounting
        first = self._stalled()
        if first is None:
            return
        gen = acct.generation
        # stability window: wait, then confirm nothing moved.  A network
        # whose actors have all ended meanwhile gets no verdict.
        if not self._settle() or acct.generation != gen:
            return
        blocked = self._stalled()
        if blocked is None:
            return
        self._resolve(blocked)

    # -- resolution ----------------------------------------------------------
    def _resolve(self, blocked: dict) -> None:
        linked = self.network.has_remote_links()
        if linked:
            # traffic from another site can wake this network: it decides
            # on the view across its sites, once its guesses are tested
            if self._force_guesses(blocked):
                return
            view = self._across_sites()
            if view is None:
                return
            names, writes = view
        else:
            names = tuple(sorted(t.name for t in self.network.live_threads()))
            writes = self._local_writes(blocked, names)
        if writes and self._grow_smallest(writes):
            return
        # Every other verdict ends the network, or leaves it blocked for
        # good: it may rest on observed waits only.  A task the async
        # backend parked on a guess (its default firing rule, output room)
        # first runs its step for real; we look again once it has blocked
        # where it really blocks — or gone on.
        if not linked and self._force_guesses(blocked):
            return
        if writes:
            capacity, channel, _ = self._smallest(writes)
            self.error = ArtificialDeadlockError(
                f"channel {channel!r} already at max capacity {capacity}",
                names)
            self.network.shutdown()
        else:
            self._resolve_true(names)

    @staticmethod
    def _force_guesses(blocked: dict) -> bool:
        """Run every task parked on a guess for real; False if none is."""
        guesses = [(actor, wait) for actor, wait in blocked.items()
                   if getattr(actor, "assumed", False)]
        for actor, (buffer, mode) in guesses:
            actor.force(buffer, mode)
        return bool(guesses)

    @staticmethod
    def _local_writes(blocked: dict, names) -> list:
        """``(capacity, channel, grow)`` per full channel a local actor is
        blocked writing, in the order first seen.  The buffer records the
        growth (and emits the channel.grow instant, which counts the
        blocked) from *this* monitor thread, so it is handed the blocked
        writer's name, for readers to attribute the growth to the process
        it frees."""
        writers: dict = {}
        for actor, (buffer, mode) in blocked.items():
            if mode == "write":
                writers.setdefault(buffer, []).append(actor.name)
        return [(buffer.capacity, buffer.name,
                 functools.partial(buffer.grow, cause="parks",
                                   process=min(found), blocked=names))
                for buffer, found in writers.items()]

    def _across_sites(self):
        """``(names, writes)`` of a stall every site confirms, or None."""
        sites = list(self.network.sites.values())
        if not sites:
            return None     # hosted: the network that shipped us decides
        first = self._poll(sites)
        if first is None or not self._settle():
            return None
        second = self._poll(sites)
        if second != first or not self._quiet(second):
            return None
        acct = self.network.accounting
        blocked = acct.snapshot()
        if acct.generation != second[0]["generation"]:
            return None
        names = tuple(sorted(second[0]["live"] + [
            f"{snap['network']}/{name}"
            for snap in second[1:] for name in snap["live"]]))
        writes = self._local_writes(blocked, names)
        for site, snap in zip(sites, second[1:]):
            writers: dict = {}
            for entry in snap["blocked"]:
                if entry["mode"] == "write":
                    writers.setdefault((entry["capacity"], entry["channel"]),
                                       []).append(entry["thread"])
            writes += [(capacity, channel,
                        functools.partial(site.grow_channel, channel,
                                          process=min(found)))
                       for (capacity, channel), found in writers.items()]
        return names, writes

    def _poll(self, sites) -> Optional[list]:
        """This network's wait snapshot, then every site's; None when a
        site does not answer (no verdict rests on a missing view)."""
        try:
            return [self.network.wait_snapshot()] + [
                site.wait_snapshot() for site in sites]
        except (RemoteError, OSError) as exc:
            if _telemetry.enabled:
                _telemetry.instant("stall.site_unanswered",
                                   category="kpn.scheduler", error=repr(exc))
            return None

    @staticmethod
    def _quiet(snapshots: list) -> bool:
        """Every live actor at every site blocked (a task parked on a
        guess is not: its own monitor tests it), and no link with bytes
        in flight towards a buffer that has room."""
        sent: Counter = Counter()
        delivered: Counter = Counter()
        ends = defaultdict(set)
        moving, full = set(), set()
        for snap in snapshots:
            waiting = {entry["thread"] for entry in snap["blocked"]
                       if not entry.get("assumed")}
            if not waiting.issuperset(snap["live"]):
                return False
            for end in snap["links"]:
                link = end["link"]
                ends[link].add(end["role"])
                (sent if end["role"] == "send" else delivered)[link] += \
                    end["moved"]
                if end["live"]:
                    moving.add(link)
                if end["full"]:
                    full.add(link)
        # a link whose pumps have all finished carries nothing more; one
        # still moving must show both ends, and all its bytes delivered
        return all(len(ends[link]) == 2
                   and (sent[link] == delivered[link] or link in full)
                   for link in moving)

    @staticmethod
    def _smallest(writes):
        """Parks' choice among ``(capacity, channel, grow)``: the smallest
        capacity, equal ones by channel name, so that the choice follows
        the graph and not which actor happened to block first."""
        return min(writes, key=lambda w: w[:2])

    def _grow_smallest(self, writes) -> bool:
        """Parks' rule: among the full channels being written to, grow the
        one with the smallest capacity.  False at :data:`MAX_CAPACITY`."""
        old, _, grow = self._smallest(writes)
        new = min(old * GROWTH_FACTOR, MAX_CAPACITY)
        if new <= old:
            return False
        grow(new)
        if _telemetry.enabled:
            _telemetry.inc("kpn.scheduler.artificial_deadlocks")
        return True

    def _resolve_true(self, names) -> None:
        # Every live actor is blocked reading — at every site, when the
        # network has links (_across_sites): no capacity helps.
        if _telemetry.enabled:
            _telemetry.instant("deadlock.true", category="kpn.scheduler",
                               blocked=len(names))
            _telemetry.inc("kpn.scheduler.true_deadlocks")
        self.error = TrueDeadlockError(
            f"true deadlock: all processes blocked reading: {names}", names)
        self.network.shutdown()
