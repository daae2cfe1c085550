"""Host facts and process placement for the measurement protocol.

The driver (the interpreter that generates the load) runs on the first
CPU it is allowed to use; every OS process the runtime spawns (pool
children, compute servers) is moved to the second.  Unpinned, a
six-thread chain ranged 19k-25k items/s run to run on a 2-vCPU host;
pinned it ranges 29k-32k, because the GIL is never handed across cores.
With one CPU everything shares it and the header says so.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence

NOT_MEASURABLE = "not_measurable"


# -- statistics ------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# -- placement -------------------------------------------------------------

def cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


def plan() -> Dict[str, object]:
    """Which CPU the driver gets, and which the processes it spawns.

    Call it before :func:`pin_self` narrows the affinity it reads;
    ``child_cpu`` is ``None`` when there is no second CPU to give.
    """
    allowed = cpus()
    return {"usable_cpus": len(allowed), "driver_cpu": allowed[0],
            "child_cpu": allowed[1] if len(allowed) > 1 else None}


def pin_self(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})


def child_pids(parent: Optional[int] = None) -> List[int]:
    """PIDs whose parent is ``parent`` (default: this process)."""
    parent = parent or os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _ppid(int(entry)) == parent:
            found.append(int(entry))
    return sorted(found)


def pin_process(pid: int, cpu: int) -> None:
    """Move every thread of ``pid``: sched_setaffinity moves one thread,
    and a server's accept thread would keep hosting work on the old CPU."""
    for _ in range(2):      # second pass catches threads born during the first
        try:
            tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
        except OSError:
            return
        for tid in tids:
            try:
                os.sched_setaffinity(tid, {cpu})
            except OSError:
                pass


# -- /proc accounting ------------------------------------------------------

def _ppid(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return None
    # the command name may hold spaces and parentheses: split after the last ')'
    return int(text[text.rfind(")") + 2:].split()[1])


def cpu_seconds(pids: Iterable[int]) -> float:
    """user+sys CPU of this process plus live children, to the nanosecond.

    A child is read through its process CPU-time clock, the id that C's
    ``clock_getcpuclockid(pid)`` returns: /proc counts in 10 ms ticks, a
    fifth of a 50 ms slice.
    """
    total = time.process_time()
    for pid in pids:
        try:
            total += time.clock_gettime((~pid << 3) | 2)
        except OSError:             # it has exited
            pass
    return total


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident sizes of this process and ``pids``."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


# -- calibration and header ------------------------------------------------

def calib_ms() -> float:
    """A fixed 1M-iteration loop: how fast is this CPU right now?

    Diagnostic only.  It did not correlate with run speed across repeats,
    so nothing is normalised by it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i & 7
    return (time.perf_counter() - t0) * 1000.0


def header(placement: Dict[str, object]) -> Dict[str, object]:
    n = placement["usable_cpus"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": n,
        "driver_cpu": placement["driver_cpu"],
        "child_cpu": placement["child_cpu"],
        "placement": ("everything shares one CPU"
                      if placement["child_cpu"] is None
                      else "driver and spawned processes on separate CPUs"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
        # what this host cannot show
        "multicore_scaling": NOT_MEASURABLE if n < 4 else "measurable",
        "loop_pool_width": NOT_MEASURABLE if n < 2 else "measurable",
    }
