"""Distributed deadlock detection and resolution (paper section 6.2).

"Another problem to be addressed is that of distributed deadlock
detection.  ...  If deadlock occurs, it is first necessary to detect it.
It is then necessary to determine whether increasing buffer capacities on
the channels will relieve the deadlock.  One method of buffer management
that we have used in the past is described in [13].  We plan to apply
those ideas to our distributed Java implementation."

This module is that plan, executed.  A :class:`DistributedDeadlockDetector`
coordinates any mix of *participants* — local :class:`~repro.kpn.network.Network`
objects and remote compute servers (via :class:`~repro.distributed.server.ServerClient`)
— and applies Parks' rule globally:

1. **Detect**: poll every participant's wait snapshot.  The system has
   globally stalled when every live process thread at every site is
   blocked on a channel operation.  (Pump threads don't count: a blocked
   pump merely transmits backpressure, and the producer it throttles
   shows up as write-blocked at its own site.)
2. **Verify**: a stall observation can race with in-flight wakeups, so
   the detector re-polls after a settle delay and requires every site's
   accounting generation to be unchanged — the distributed analogue of
   the local monitor's stability window.
3. **Resolve**: if any site reports a *write*-blocked thread, the
   deadlock is artificial — grow the smallest-capacity channel among the
   write-blocked ones, at whichever site owns it, and resume.  If all
   blocks are reads, the deadlock is true: no capacity assignment helps;
   report it (shutdown is the participants' own policy decision).

The detector is a *centralized coordinator* over decentralized state —
the pragmatic choice the paper's central-console comparison tolerates for
control-plane concerns (data never flows through the coordinator).  The
local per-network monitors stay active for purely-local deadlocks; they
stand down exactly on networks with remote links, which is the gap this
detector fills.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.errors import TrueDeadlockError
from repro.kpn.network import Network
from repro.kpn.scheduler import GrowthEvent
from repro.distributed.server import ServerClient

__all__ = ["DistributedDeadlockDetector", "GlobalStallReport", "Participant"]

Participant = Union[Network, ServerClient]


@dataclass
class GlobalStallReport:
    """What the detector saw when the whole system stood still."""

    #: per-site snapshots (site name → snapshot dict)
    snapshots: dict
    #: all write-blocked entries, across sites: (site, entry)
    write_blocked: List[tuple] = field(default_factory=list)
    #: all read-blocked entries, across sites
    read_blocked: List[tuple] = field(default_factory=list)

    @property
    def artificial(self) -> bool:
        return bool(self.write_blocked)


def _site_name(participant: Participant, index: int) -> str:
    if isinstance(participant, Network):
        return f"local:{participant.name}"
    return f"server:{participant.host}:{participant.port}"


class DistributedDeadlockDetector:
    """Coordinates global stall detection across networks and servers.

    Parameters
    ----------
    participants:
        Local Network objects and/or ServerClients.  Every site that can
        host blocked processes of the computation should be listed.
    growth_factor / max_capacity:
        Parks-rule parameters applied to the chosen channel.
    settle_s:
        Stability window between the two confirming polls.
    """

    def __init__(self, participants: Sequence[Participant],
                 growth_factor: int = 2,
                 max_capacity: int = 64 * 1024 * 1024,
                 settle_s: float = 0.05) -> None:
        if not participants:
            raise ValueError("need at least one participant")
        self.participants = list(participants)
        self.growth_factor = growth_factor
        self.max_capacity = max_capacity
        self.settle_s = settle_s
        #: the coordinator's cross-site decision log (each entry is also
        #: in the owning site's own record, see :meth:`_grow_at`)
        self.growth_events: List[GrowthEvent] = []
        self.true_deadlocks: List[GlobalStallReport] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- polling -----------------------------------------------------------
    def snapshot_all(self) -> dict:
        return {_site_name(p, i): p.wait_snapshot()
                for i, p in enumerate(self.participants)}

    @staticmethod
    def _stalled(snapshots: dict) -> bool:
        """Globally stalled: some thread lives, and all live threads are
        blocked, at every site."""
        any_live = False
        for snap in snapshots.values():
            live = set(snap["live"])
            if live:
                any_live = True
                # a task parked on a guess is not known to be stuck: its
                # site's own monitor runs it for real before any verdict
                blocked = {b["thread"] for b in snap["blocked"]
                           if not b.get("assumed")}
                if not live <= blocked:
                    return False
        return any_live

    @staticmethod
    def _generations(snapshots: dict) -> dict:
        return {site: snap["generation"] for site, snap in snapshots.items()}

    # -- single detection round ------------------------------------------------
    def check_once(self) -> Optional[GlobalStallReport]:
        """One detect-verify-resolve round.

        Returns the stall report when a (verified) global stall was
        found — after resolving it if it was artificial — else None.
        """
        first = self.snapshot_all()
        if not self._stalled(first):
            return None
        generations = self._generations(first)
        time.sleep(self.settle_s)
        second = self.snapshot_all()
        if not self._stalled(second):
            return None
        if self._generations(second) != generations:
            return None  # something moved between polls: not a stall

        report = GlobalStallReport(snapshots=second)
        for site, snap in second.items():
            for entry in snap["blocked"]:
                target = (report.write_blocked if entry["mode"] == "write"
                          else report.read_blocked)
                target.append((site, entry))
        if report.artificial:
            self._resolve_artificial(report)
        else:
            self.true_deadlocks.append(report)
        return report

    def _resolve_artificial(self, report: GlobalStallReport) -> None:
        site, entry = min(report.write_blocked,
                          key=lambda pair: pair[1]["capacity"])
        old = entry["capacity"]
        new = min(old * self.growth_factor, self.max_capacity)
        if new <= old:
            # cap reached: record as unresolvable (true-deadlock handling)
            self.true_deadlocks.append(report)
            return
        self._grow_at(site, entry["channel"], new, entry["thread"])
        self.growth_events.append(GrowthEvent(
            entry["channel"], old, new, (f"{site}/{entry['thread']}",)))

    def _grow_at(self, site: str, channel: str, capacity: int,
                 writer: str) -> None:
        """Apply the decision where the channel lives: the owning site's
        buffer records it (cause ``parks-distributed``), so that site's
        census and ``growth_events()`` show it too."""
        for i, participant in enumerate(self.participants):
            if _site_name(participant, i) == site:
                participant.grow_channel(channel, capacity, writer)
                return
        raise KeyError(f"unknown site {site!r}")

    # -- background operation ----------------------------------------------------
    def start(self, interval_s: float = 0.05) -> "DistributedDeadlockDetector":
        """Run detection rounds in a daemon thread until :meth:`stop`."""

        def loop() -> None:
            while not self._stop.is_set():
                try:
                    self.check_once()
                except Exception:
                    # a participant vanished mid-poll; keep watching the rest
                    pass
                self._stop.wait(interval_s)

        self._thread = threading.Thread(target=loop, name="dist-deadlock",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def raise_on_true_deadlock(self) -> None:
        """Raise a TrueDeadlockError if any unresolvable stall was seen."""
        if self.true_deadlocks:
            report = self.true_deadlocks[0]
            names = tuple(f"{site}/{e['thread']}"
                          for site, e in report.read_blocked)
            raise TrueDeadlockError(
                f"global deadlock across {len(report.snapshots)} sites", names)

    def __enter__(self) -> "DistributedDeadlockDetector":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
