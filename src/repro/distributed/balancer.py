"""Worker placement and load balancing across compute servers (§6.1).

"Load balancing is also important when using a collection of
heterogeneous servers with a wide range of processing speeds."  The
MetaDynamic composition already balances *tasks* at run time; this module
balances *processes* at placement time — deciding which server hosts each
worker — and provides the measurement primitive that makes speed-aware
placement possible.

Three policies, lowest to highest information:

* :class:`RoundRobinPlacement` — what `ParallelHarness.distribute` does
  by default: worker *i* → server *i mod n*.
* :class:`LeastLoadedPlacement` — consults each server's live-thread
  count (its current hosting burden) and always picks the emptiest.
* :class:`SpeedWeightedPlacement` — benchmarks every server with a
  :class:`CalibrationTask` (a fixed spin of arbitrary-precision
  arithmetic, the same kind of work as the factorization tasks) and
  hands out workers proportionally to measured speed — the paper's
  "computers ... may have different available computing power".

:func:`place_workers` applies a policy to a harness; the assignment it
returns also feeds :func:`suggest_rebalance`, the advisory half of the
paper's "have processes migrate from one server to another for load
balancing" future work (actual migration uses the normal serialization
machinery; the suggestion tells you *what* to move).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = [
    "CalibrationTask", "ServerProfile", "profile_servers",
    "PlacementPolicy", "RoundRobinPlacement", "LeastLoadedPlacement",
    "SpeedWeightedPlacement", "place_workers", "suggest_rebalance",
]


class CalibrationTask:
    """A fixed amount of big-integer arithmetic; returns ops/second.

    Runs the same flavour of work as the factorization workload (multiply
    + isqrt on multi-hundred-bit integers), so the measured rate predicts
    worker-task throughput rather than an abstract FLOP count.
    """

    def __init__(self, rounds: int = 2000, bits: int = 256) -> None:
        self.rounds = rounds
        self.bits = bits

    def run(self) -> float:
        import math

        x = (1 << self.bits) + 12345
        start = time.perf_counter()
        acc = 0
        for i in range(self.rounds):
            acc ^= math.isqrt(x * (x + 2 * i))
        elapsed = time.perf_counter() - start
        if acc == -1:  # pragma: no cover - keep the loop un-eliminable
            print(acc)
        return self.rounds / elapsed if elapsed > 0 else float("inf")


@dataclass
class ServerProfile:
    """What we know about one compute server."""

    index: int
    name: str
    #: measured calibration rate (ops/s); None until benchmarked
    speed: Optional[float] = None
    #: live hosted threads at profiling time
    load: int = 0

    @property
    def effective_speed(self) -> float:
        return self.speed if self.speed is not None else 1.0


def profile_servers(cluster, measure_speed: bool = False,
                    calibration_rounds: int = 2000) -> List[ServerProfile]:
    """Collect load (and optionally measured speed) for every server."""
    profiles = []
    for i, client in enumerate(cluster.clients):
        stats = client.stats()
        profile = ServerProfile(index=i, name=stats.get("name", f"server-{i}"),
                                load=stats.get("live_threads", 0))
        if measure_speed:
            profile.speed = client.call(CalibrationTask(calibration_rounds))
        profiles.append(profile)
    return profiles


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

class PlacementPolicy:
    """Maps ``n_workers`` onto server indices."""

    def assign(self, n_workers: int,
               profiles: Sequence[ServerProfile]) -> List[int]:
        raise NotImplementedError


class RoundRobinPlacement(PlacementPolicy):
    def assign(self, n_workers: int, profiles) -> List[int]:
        return [i % len(profiles) for i in range(n_workers)]


class LeastLoadedPlacement(PlacementPolicy):
    """Each worker goes to the currently-least-burdened server, counting
    both pre-existing load and workers this assignment already placed."""

    def assign(self, n_workers: int, profiles) -> List[int]:
        burden: Dict[int, int] = {p.index: p.load for p in profiles}
        assignment = []
        for _ in range(n_workers):
            target = min(burden, key=lambda idx: (burden[idx], idx))
            assignment.append(target)
            burden[target] += 1
        return assignment


class SpeedWeightedPlacement(PlacementPolicy):
    """Workers proportional to measured speed (largest-remainder rounding).

    A server twice as fast hosts twice the workers, so MetaStatic-style
    compositions get speed-proportional task shares even without
    on-demand dispatch, and MetaDynamic workers sit where cycles are.
    """

    def assign(self, n_workers: int, profiles) -> List[int]:
        speeds = [max(p.effective_speed, 1e-9) for p in profiles]
        total = sum(speeds)
        quotas = [n_workers * s / total for s in speeds]
        counts = [int(q) for q in quotas]
        remainders = [(q - c, i) for i, (q, c) in enumerate(zip(quotas, counts))]
        shortfall = n_workers - sum(counts)
        for _, i in sorted(remainders, reverse=True)[:shortfall]:
            counts[i] += 1
        assignment = []
        for profile, count in zip(profiles, counts):
            assignment.extend([profile.index] * count)
        return assignment


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def place_workers(harness, cluster, policy: Optional[PlacementPolicy] = None,
                  profiles: Optional[List[ServerProfile]] = None) -> List[int]:
    """Ship a harness's workers per the policy; returns the assignment.

    Like :meth:`ParallelHarness.distribute`, but policy-driven.  The
    harness's ``workers`` list is emptied (they now live remotely).
    """
    policy = policy or RoundRobinPlacement()
    if profiles is None:
        profiles = profile_servers(
            cluster, measure_speed=isinstance(policy, SpeedWeightedPlacement))
    assignment = policy.assign(len(harness.workers), profiles)
    for worker, server_index in zip(harness.workers, assignment):
        cluster.client(server_index).run(worker)
    harness.workers = []
    return assignment


def suggest_rebalance(profiles: Sequence[ServerProfile],
                      tolerance: float = 0.25) -> List[tuple]:
    """Advisory moves to even out load-per-speed across servers.

    Returns ``(from_index, to_index)`` pairs, one per suggested worker
    move, computed greedily until every server's load/speed ratio is
    within ``tolerance`` of the mean.  Executing a move is the caller's
    job (serialize the worker on one server, run it on another — the
    paper's §6.1 "re-distribute processes after execution has already
    begun" once live handoff is in play).
    """
    loads = {p.index: p.load for p in profiles}
    speeds = {p.index: max(p.effective_speed, 1e-9) for p in profiles}
    moves: List[tuple] = []
    for _ in range(sum(loads.values())):
        total_load = sum(loads.values())
        total_speed = sum(speeds.values())
        if total_load == 0:
            break
        mean_ratio = total_load / total_speed
        ratios = {i: loads[i] / speeds[i] for i in loads}
        hottest = max(ratios, key=lambda i: ratios[i])
        coolest = min(ratios, key=lambda i: ratios[i])
        if ratios[hottest] <= mean_ratio * (1 + tolerance) or loads[hottest] == 0:
            break
        if hottest == coolest:
            break
        loads[hottest] -= 1
        loads[coolest] += 1
        moves.append((hottest, coolest))
    return moves
