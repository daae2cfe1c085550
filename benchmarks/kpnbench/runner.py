"""The driver: starts repeats in fresh interpreters and reduces them.

One repeat measures ``seconds / REPEATS`` seconds of load, 60% of it
closed loop and 40% paced, each phase cut into slices of about 50 ms.
The three timing metrics are the :data:`BEST`-th best slice of all the
run's repeats, ``setup_s`` is the best of the repeats' cold starts, and
``peak_rss_mb`` is the median over repeats.  A repeat that hangs or
crashes fails every item it had left, and the run goes on.

Why the best slices and not the median one: this is a few virtual CPUs
of a shared host, and a neighbour's bursts (0.1-10 s long, present a
third to two thirds of the time) slow whatever they overlap by up to
1.6x.  Interference only ever slows a slice, so the fastest slices are
the ones it missed; what they measure moves 2-5% between runs where the
median slice moves 10-20%.  The third best of some two hundred, not the
best, so that two freak slices cannot set a run's value; of five cold
starts, the best.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional

from kpnbench import host
from kpnbench.workloads import WORKLOADS, Sizes

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PACKAGE_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(PACKAGE_DIR, "out")

REPEATS = 5
CLOSED_SHARE = 0.6
#: a timing metric is the BEST-th best of the run's slices
BEST = 3
SMOKE_SECONDS = 0.8

#: name -> (unit, better); the bound lives in BENCHMARK.json
END_TO_END = {
    "items_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "cpu_ms_per_item": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
#: per-repeat diagnostics reported beside them (ungated)
DIAGNOSTICS = {
    "latency_p99_ms": "sink.latency_p99_ms",
    "gen_max_late_ms": "gen.max_late_ms",
    "growth_events": "scheduler.growth_events",
}


def require_program() -> None:
    """The benchmark measures the program in ``src/``; without it, stop."""
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        sys.stderr.write(f"kpnbench: no program to measure: {SRC_DIR}/repro "
                         "is missing\n")
        raise SystemExit(2)


def child_env() -> Dict[str, str]:
    """The children's environment: the program importable, no REPRO_* knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [SRC_DIR, os.path.dirname(PACKAGE_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(kind: str, cfg: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """Run ``python -m kpnbench.child <kind> <cfg>``; its last stdout line
    is the result.

    The child leads its own process group, which is killed afterwards, so
    no server or pool child outlives the repeat that spawned it.
    """
    cfg["t_spawn"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "kpnbench.child", kind, json.dumps(cfg)], env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        problem = None if proc.returncode == 0 else f"exit {proc.returncode}"
    except subprocess.TimeoutExpired:
        problem = f"no result within {timeout:.0f}s"
        out, err = "", ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
    t_exit = time.monotonic()
    result: Dict[str, Any] = {}
    lines = out.strip().splitlines()
    if problem is None and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            problem = "unreadable result"
    elif problem is None:
        problem = "no output"
    if problem is not None:
        tail = (err or "").strip().splitlines()[-3:]
        result = {"error": "; ".join([problem, *tail])}
    result["t_spawn"] = cfg["t_spawn"]
    result["t_exit"] = t_exit
    return result


def sizes_for(name: str, seconds: float, repeats: int) -> Sizes:
    per_repeat = seconds / repeats
    return WORKLOADS[name].sizes(per_repeat * CLOSED_SHARE,
                                 per_repeat * (1.0 - CLOSED_SHARE))


def run_repeat(name: str, seed: int, sizes: Sizes, index: int,
               trace: bool = False, first_span_id: int = 0,
               fault: Optional[str] = None,
               timeout: Optional[float] = None,
               child_cpu: Optional[int] = None) -> Dict[str, Any]:
    """One repeat in a fresh interpreter; a dead repeat fails all its items.

    ``child_cpu`` is where the repeat moves the OS processes the program
    spawns (``None``: they stay on the driver's CPU).
    """
    # the paced phase is two fifths of a repeat: ten of them is four repeats
    budget = timeout or 20.0 + 10.0 * sizes.paced / sizes.rate
    cfg = {"workload": name, "run": f"{name}#{index}{'t' if trace else ''}",
           "seed": seed, "trace": trace, "first_span_id": first_span_id,
           "fault": fault, "timeout": budget, "child_cpu": child_cpu,
           "sizes": dataclasses.asdict(sizes)}
    result = run_child("repeat", cfg, timeout=budget + 30.0)
    if "attempted" not in result:
        result.update(workload=name, run=cfg["run"], attempted=sizes.total,
                      failed=sizes.total)
    return result


#: timing metric -> (the repeat's slices it is taken from, a slice's value);
#: a closed slice is [items, wall s, cpu s], a paced one its median latency
SLICED = {
    "items_per_s": ("closed_slices", lambda s: s[0] / s[1]),
    "cpu_ms_per_item": ("closed_slices", lambda s: s[2] * 1e3 / s[0]),
    "latency_p50_ms": ("paced_slices", lambda s: s),
}


def nth_best(values: List[float], better: str, n: int = BEST) -> float:
    ordered = sorted(values, reverse=(better == "higher"))
    return ordered[min(n, len(ordered)) - 1]


def summarise(name: str, repeats: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce a workload's repeats to one value per metric.

    Beside each value: the quartiles and count of what it was taken
    from (slices or repeats), so the print shows how far the best
    slices sit from the typical one.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    for key in [*END_TO_END, *DIAGNOSTICS]:
        if key in SLICED:
            field, value_of = SLICED[key]
            values = [value_of(s) for r in repeats for s in r.get(field, ())]
            pick = lambda v: nth_best(v, END_TO_END[key][1])  # noqa: E731
        else:
            values = [r[key] for r in repeats if key in r]
            pick = min if key == "setup_s" else host.median
        if values:
            q1, q3 = host.quartiles(values)
            metrics[key] = {"value": pick(values), "q1": q1, "q3": q3,
                            "n": len(values)}
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    return {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "latency_n": sum(r.get("latency_n", 0) for r in repeats),
        "errors": [r["error"] for r in repeats if r.get("error")],
        "facts": next((r["facts"] for r in repeats if r.get("facts")), {}),
        "metrics": metrics,
    }


def run_set(names: Iterable[str], seed: int, seconds: float,
            repeats: int = REPEATS, fault: Optional[str] = None,
            child_cpu: Optional[int] = None) -> Dict[str, Any]:
    """All repeats of the named workloads, interleaved round-robin so that
    drift on the host falls on every workload alike."""
    names = list(names)
    sizes = {n: sizes_for(n, seconds, repeats) for n in names}
    results: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    calib = [host.calib_ms()]
    for index in range(repeats):
        for name in names:
            results[name].append(
                run_repeat(name, seed, sizes[name], index, fault=fault,
                           child_cpu=child_cpu))
        calib.append(host.calib_ms())
    return {"workloads": {n: summarise(n, results[n]) for n in names},
            "calib_ms": calib}
