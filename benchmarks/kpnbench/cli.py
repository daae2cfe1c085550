"""Command line of kpnbench: one command, every metric by name and unit.

``--workload W --seed N --seconds S --trace 0|1`` is the form the
benchmark contract in ``BENCHMARK.json`` is run in: one workload, the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``),
one JSON object on the last line of stdout.  Without ``--workload`` every
workload runs, repeats interleaved.  ``--check-repeat`` runs everything
twice and fails if the two sets disagree by more than a metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from kpnbench import host, layers, runner, spans
from kpnbench.workloads import WORKLOADS

TRACE_FILE = os.path.join(runner.OUT_DIR, "trace.json")


def contract() -> Dict[str, Any]:
    with open(os.path.join(runner.REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bounds() -> Dict[str, float]:
    return {m["name"]: m["bound"] for m in contract()["end_to_end"]}


def say(text: str = "") -> None:
    print(text, flush=True)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def print_header(args) -> None:
    seed, seconds, repeats = args.seed, args.seconds, args.repeats
    say("kpnbench host:")
    for key, value in args.header.items():
        say(f"  {key}: {value}")
    say(f"  seed: {seed}  seconds/run: {seconds}  repeats: {repeats} "
        f"(fresh interpreter each; closed loop "
        f"{runner.CLOSED_SHARE:.0%}, paced the rest)")
    say(f"  timing metrics: best slice but {runner.BEST - 1} of the run; "
        "setup_s: best repeat; peak_rss_mb: median repeat")


def print_workload(summary: Dict[str, Any]) -> None:
    name = summary["workload"]
    why = {w["name"]: w["why"] for w in contract()["workloads"]}
    say(f"{name}: " + why.get(
        name, f"{WORKLOADS[name].__doc__} (not gated by BENCHMARK.json)"))
    for key, (unit, _) in runner.END_TO_END.items():
        m = summary["metrics"].get(key)
        if m is None:
            say(f"  {name}/{key:<16} no value: every repeat failed")
            continue
        of = "slices" if key in runner.SLICED else "repeats"
        note = (f", {summary['latency_n']} items"
                if key == "latency_p50_ms" else "")
        say(f"  {name}/{key:<16} {m['value']:>14.4f} {unit:<4} "
            f"q1 {m['q1']:.4f} q3 {m['q3']:.4f} of {m['n']} {of}{note}")
    say(f"  {name}/{'failed_share':<16} {summary['failed_share']:>14.6f} "
        f"share {summary['failed']} of {summary['attempted']} items")
    for key, label in runner.DIAGNOSTICS.items():
        m = summary["metrics"].get(key)
        if m is not None:
            say(f"  {name}/{label:<24} {m['value']:>10.4f} (ungated)")
    for key, value in summary["facts"].items():
        say(f"  {name}/{key:<24} {value:>10.4f} (exact)")
    for error in summary["errors"]:
        say(f"  {name}: repeat failed: {error}")


def print_calib(calib: List[float]) -> None:
    say(f"host.calib_ms {host.median(calib):.2f} ms (min {min(calib):.2f}, "
        f"max {max(calib):.2f}; diagnostic, nothing is normalised by it)")


def print_layers(values: Dict[str, float]) -> None:
    say("per-layer metrics (traced run; ungated):")
    for key, value in values.items():
        unit = PER_LAYER_UNITS.get(key, "")
        say(f"  {key:<36} {value:>14.4f} {unit}")


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

#: per-layer names and units beyond the layer cases: diagnostics of the
#: traced workload's own repeats
PER_LAYER_UNITS: Dict[str, str] = {
    **layers.UNITS,
    "scheduler.growth_events": "count",
    "gen.max_late_ms": "ms",
    "sink.latency_p99_ms": "ms",
    "trace.overhead_share": "share",
    "host.calib_ms": "ms",
}


class Tracer:
    """Collects spans across traced repeats and the layer cases."""

    def __init__(self, args) -> None:
        self.args = args
        self.spans: List[dict] = []
        self._next = 0

    def block(self) -> int:
        first = self._next
        self._next += 10_000
        return first

    def traced_repeat(self, name: str, sizes, index: int) -> Dict[str, Any]:
        base = self.block()
        args = self.args
        result = runner.run_repeat(name, args.seed, sizes, index, trace=True,
                                   first_span_id=base + 2, fault=args.fault,
                                   child_cpu=args.child_cpu)
        run = result.get("run", name)
        self.spans.append({"id": base, "name": "repeat", "parent": None,
                           "run": run, "start": result["t_spawn"],
                           "end": result["t_exit"]})
        if "t_enter" in result:
            self.spans.append({"id": base + 1, "name": "setup.interpreter",
                               "parent": base, "run": run,
                               "start": result["t_spawn"],
                               "end": result["t_enter"]})
        for span in result.pop("spans", []):
            if span["parent"] is None:
                span["parent"] = base
            self.spans.append(span)
        return result

    def layer_cases(self) -> Dict[str, Any]:
        args = self.args
        cfg = {"seed": args.seed, "scale": 0.1 if args.smoke else 1.0,
               "child_cpu": args.child_cpu, "first_span_id": self.block()}
        result = runner.run_child("layers", cfg, timeout=170.0)
        self.spans.extend(result.pop("spans", []))
        return result

    def write(self, document: Dict[str, Any]) -> None:
        os.makedirs(runner.OUT_DIR, exist_ok=True)
        document = {"host": self.args.header, "seed": self.args.seed,
                    **document, "spans": spans.finish(self.spans)}
        with open(TRACE_FILE, "w") as fh:
            json.dump(document, fh, indent=1)
        say(f"wrote {len(self.spans)} spans to "
            f"{os.path.relpath(TRACE_FILE, runner.REPO_ROOT)}")


def overhead_share(traced: Dict[str, Any], untraced: List[float]) -> float:
    """How much slower the traced repeat ran than the untraced ones
    (``untraced``: their ``items_per_s``)."""
    if not untraced or "items_per_s" not in traced:
        return 0.0
    return 1.0 - traced["items_per_s"] / host.median(untraced)


def trace_workload(args) -> Dict[str, Any]:
    """Untraced, traced, untraced repeat; then every layer case."""
    name = args.workload
    tracer = Tracer(args)
    sizes = runner.sizes_for(name, args.seconds, args.repeats)
    plain = dict(fault=args.fault, child_cpu=args.child_cpu)
    calib = [host.calib_ms()]
    before = runner.run_repeat(name, args.seed, sizes, 0, **plain)
    traced = tracer.traced_repeat(name, sizes, 1)
    after = runner.run_repeat(name, args.seed, sizes, 2, **plain)
    calib.append(host.calib_ms())
    cases = tracer.layer_cases()
    calib.append(host.calib_ms())
    repeats = [before, traced, after]
    summary = runner.summarise(name, repeats)
    values = dict(cases.get("values", {}))
    for key, label in runner.DIAGNOSTICS.items():
        if key in summary["metrics"]:
            values[label] = summary["metrics"][key]["value"]
    values["trace.overhead_share"] = overhead_share(
        traced, [r["items_per_s"] for r in (before, after) if "items_per_s" in r])
    values["host.calib_ms"] = host.median(calib)
    errors = dict(cases.get("errors", {}))
    if "error" in cases:
        errors["layers"] = cases["error"]
    tracer.write({"workload": name, "per_layer": values, "errors": errors})
    return {"summary": summary, "values": values, "errors": errors}


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, Any]]) -> None:
    say(json.dumps({"correct": correct, "attempted": attempted,
                    "failed": failed, "metrics": metrics}))


def run_one(args) -> int:
    """The contract form: one workload, one JSON line."""
    name = args.workload
    print_header(args)
    if args.trace:
        traced = trace_workload(args)
        summary = traced["summary"]
        print_workload(summary)
        print_layers(traced["values"])
        for case, error in traced["errors"].items():
            say(f"layer case {case} failed: {error}")
        missing = [k for k in PER_LAYER_UNITS if k not in traced["values"]]
        metrics = {k: {"value": traced["values"].get(k, 0.0), "unit": unit}
                   for k, unit in PER_LAYER_UNITS.items()}
        result_line(summary["failed"] == 0 and not missing,
                    summary["attempted"], summary["failed"], metrics)
        return 0 if not missing else 1
    outcome = runner.run_set([name], args.seed, args.seconds, args.repeats,
                             fault=args.fault, child_cpu=args.child_cpu)
    summary = outcome["workloads"][name]
    print_workload(summary)
    print_calib(outcome["calib_ms"])
    missing = [k for k in runner.END_TO_END if k not in summary["metrics"]]
    if missing:
        say(f"{name}: no repeat produced {', '.join(missing)}")
        return 1
    metrics = {k: {"value": summary["metrics"][k]["value"], "unit": unit}
               for k, (unit, _) in runner.END_TO_END.items()}
    result_line(summary["failed"] == 0, summary["attempted"],
                summary["failed"], metrics)
    return 0


def run_everything(args, quiet: bool = False) -> Dict[str, Any]:
    outcome = runner.run_set(WORKLOADS, args.seed, args.seconds, args.repeats,
                             fault=args.fault, child_cpu=args.child_cpu)
    if not quiet:
        for summary in outcome["workloads"].values():
            print_workload(summary)
        print_calib(outcome["calib_ms"])
    return outcome


def run_all(args) -> int:
    print_header(args)
    outcome = run_everything(args)
    summaries = outcome["workloads"]
    metrics = {f"{name}.{key}": {"value": m["value"],
                                 "unit": runner.END_TO_END[key][0]}
               for name, s in summaries.items()
               for key, m in s["metrics"].items() if key in runner.END_TO_END}
    ok = all(s["failed"] == 0 for s in summaries.values())
    if args.trace:
        tracer = Tracer(args)
        per_workload: Dict[str, Dict[str, float]] = {}
        for name, summary in summaries.items():
            sizes = runner.sizes_for(name, args.seconds, args.repeats)
            traced = tracer.traced_repeat(name, sizes, args.repeats)
            plain = summary["metrics"].get("items_per_s")
            share = overhead_share(traced, [plain["value"]] if plain else [])
            per_workload[name] = {"trace.overhead_share": share}
            say(f"  {name}/trace.overhead_share {share:>10.4f} share")
        cases = tracer.layer_cases()
        print_layers(cases.get("values", {}))
        for case, error in cases.get("errors", {}).items():
            say(f"layer case {case} failed: {error}")
            ok = False
        tracer.write({"per_layer": cases.get("values", {}),
                      "per_workload": per_workload,
                      "errors": cases.get("errors", {})})
        metrics.update({k: {"value": v, "unit": PER_LAYER_UNITS.get(k, "")}
                        for k, v in cases.get("values", {}).items()})
    result_line(ok, sum(s["attempted"] for s in summaries.values()),
                sum(s["failed"] for s in summaries.values()), metrics)
    return 0 if ok else 1


def check_repeat(args) -> int:
    """Two sets of the same code, back to back: do they agree?"""
    print_header(args)
    limit = bounds()
    outcomes = [run_everything(args, quiet=True) for _ in range(2)]
    first, second = (o["workloads"] for o in outcomes)
    say(f"{'workload/metric':<34} {'first':>12} {'second':>12} "
        f"{'differ':>8} {'bound':>7}")
    agree = True
    for name in WORKLOADS:
        for key in runner.END_TO_END:
            a = first[name]["metrics"].get(key, {}).get("value")
            b = second[name]["metrics"].get(key, {}).get("value")
            if not a or not b:
                say(f"{name + '/' + key:<34} no value in one of the sets")
                agree = False
                continue
            differ = abs(a - b) / a
            verdict = "" if differ <= limit[key] else "  DISAGREE"
            agree = agree and not verdict
            say(f"{name + '/' + key:<34} {a:>12.4f} {b:>12.4f} "
                f"{differ:>7.1%} {limit[key]:>6.0%}{verdict}")
        fa, fb = first[name]["failed_share"], second[name]["failed_share"]
        verdict = "" if fa == fb == 0 else "  DISAGREE"
        agree = agree and not verdict
        say(f"{name + '/failed_share':<34} {fa:>12.6f} {fb:>12.6f}{verdict}")
    speeds = [host.median(o["calib_ms"]) for o in outcomes]
    say(f"{'host.calib_ms':<34} {speeds[0]:>12.2f} {speeds[1]:>12.2f} "
        f"{abs(speeds[0] - speeds[1]) / speeds[0]:>7.1%}   "
        "(the host's own speed; if it moved, so did everything)")
    say("the two sets agree within every bound" if agree
        else "the two sets DISAGREE: this host is too noisy for these bounds, "
             "or the code is not repeatable")
    return 0 if agree else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kpnbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=1,
                        help="the only input to workload generation")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of load one run measures, over all "
                             "its repeats (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run: spans, layer cases, trace.json")
    parser.add_argument("--smoke", action="store_true",
                        help="one short repeat per workload, small layer "
                             "cases: checks the harness, measures nothing")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run everything twice; fail if the sets differ "
                             "by more than a metric's bound")
    parser.add_argument("--fault", choices=("wrong", "stall"),
                        help=argparse.SUPPRESS)    # harness self-tests
    args = parser.parse_args(argv)

    runner.require_program()
    if args.seconds is None:
        args.seconds = (runner.SMOKE_SECONDS if args.smoke
                        else float(contract()["run_seconds"]))
    args.repeats = 1 if args.smoke else runner.REPEATS
    placement = host.plan()             # before pinning narrows the view
    args.header = host.header(placement)
    args.child_cpu = placement["child_cpu"]
    host.pin_self(placement["driver_cpu"])
    if args.check_repeat:
        return check_repeat(args)
    if args.workload:
        return run_one(args)
    return run_all(args)
