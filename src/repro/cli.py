"""Command-line interface: ``python -m repro.cli <command>``.

An open-source release of this system needs operational entry points; the
paper's deployment story ("the entire implementation can be contained in
a single jar file ... making it easy to install on a new host") maps to:

==============  ==============================================================
command         what it does
==============  ==============================================================
server          start a compute server (wraps repro.distributed.server)
registry        start a name registry (wraps repro.distributed.registry)
ping            ping a server (host:port or registry name)
metrics         scrape a server's telemetry counters (Prometheus text)
top             live refreshing view of per-server cluster state
example         run one of the bundled examples by name
lint            Kahn-semantics static analyzer: AST process lint,
                shared-state race detection, graph construction rules and
                deadlock/boundedness proofs over files, directories,
                figure networks, or modules
profile         run an example network under the continuous profiler:
                ranked bottleneck report, per-process utilization,
                capacity-advisor spec, optional folded stacks
compile         build a figure network and print the graph compiler's
                fusion plan (chains fused, channels collapsed, refusals);
                ``--run`` executes the optimized network
version         print the library version
==============  ==============================================================

``example`` accepts ``--trace-out FILE``: the run executes with
telemetry enabled and its event stream is written as a Chrome trace-event
JSON file (load it in Perfetto / chrome://tracing).

The paper's evaluation (Tables 1-2, Figures 19-20) is regenerated by the
separate ``experiments`` package (``python -m experiments``), which
builds on this runtime; nothing here imports it.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import RunConfig, add_run_arguments, use

__all__ = ["main", "build_parser"]

EXAMPLES = ("quickstart", "fibonacci", "primes_sieve", "newton_sqrt",
            "hamming", "distributed_fibonacci", "parallel_factorization",
            "image_compression", "signal_processing", "tracing_and_graphs",
            "mandelbrot_farm", "cluster_operations")
CHECKABLE = ("fibonacci", "primes", "hamming", "newton", "fig13")
#: figure networks `repro profile` can build and run; fig19 is the task
#: farm (the paper's real workload shape), fig13 exercises Parks growth
PROFILABLE = CHECKABLE + ("fig19",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Kahn process networks "
                    "(Parks/Roberts/Millman 2003 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.distributed.server import add_server_arguments

    add_server_arguments(
        sub.add_parser("server", help="start a compute server"))

    p_registry = sub.add_parser("registry", help="start a name registry")
    p_registry.add_argument("--port", type=int, default=5000)

    p_ping = sub.add_parser("ping", help="ping a compute server")
    p_ping.add_argument("target", help="host:port")

    p_metrics = sub.add_parser(
        "metrics", help="scrape telemetry counters from a compute server")
    p_metrics.add_argument("target", help="host:port")
    p_metrics.add_argument("--raw", action="store_true",
                           help="print the raw counter dict instead of "
                                "Prometheus text")

    p_top = sub.add_parser(
        "top", help="live per-server view of a running cluster")
    p_top.add_argument("targets", nargs="+", metavar="HOST:PORT",
                       help="one or more compute servers to watch")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="refresh period in seconds (default 1.0)")
    p_top.add_argument("--once", action="store_true",
                       help="print one snapshot and exit (no screen clear)")
    p_top.add_argument("--iterations", type=int, default=0, metavar="N",
                       help="stop after N refreshes (0 = until Ctrl-C)")

    p_ex = sub.add_parser("example", help="run a bundled example")
    p_ex.add_argument("which", choices=EXAMPLES + ("list",))
    p_ex.add_argument("--trace-out", default=None, metavar="FILE",
                      help="run with telemetry on; write a Chrome "
                           "trace-event JSON file")
    add_run_arguments(p_ex, "backend")

    p_lint = sub.add_parser(
        "lint", help="Kahn-semantics static analysis (AST lint, race "
                     "detection, graph rules, deadlock/boundedness proofs)")
    p_lint.add_argument(
        "targets", nargs="+",
        help="what to lint: a source file or directory (AST pass only), "
             f"a figure network name {CHECKABLE} (all three passes on the "
             "built graph), or an importable module name")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable output (schema documented "
                             "in docs/analysis.md)")

    p_prof = sub.add_parser(
        "profile", help="run a figure network under the continuous "
                        "profiler and report its bottlenecks")
    p_prof.add_argument("which", choices=PROFILABLE)
    p_prof.add_argument("--spec-out", default=None, metavar="FILE",
                        help="capacity-advisor spec JSON "
                             "(default: <which>-capacity.json)")
    p_prof.add_argument("--folded-out", default=None, metavar="FILE",
                        help="write folded stacks for flamegraph tools")
    p_prof.add_argument("--top", type=int, default=10,
                        help="channels shown in the bottleneck table")
    p_prof.add_argument("--workers", type=int, default=4,
                        help="fig19 farm width (default 4)")
    p_prof.add_argument("--tasks", type=int, default=120,
                        help="fig19 task count (default 120)")
    add_run_arguments(p_prof, "backend")

    p_compile = sub.add_parser(
        "compile", help="print the graph compiler's fusion plan for a "
                        "figure network (chain fusion, channel collapse, "
                        "buffer pre-sizing)")
    p_compile.add_argument("which", choices=PROFILABLE)
    p_compile.add_argument("--spec", default=None, metavar="FILE",
                           help="capacity spec JSON (repro profile "
                                "--spec-out) used to pre-size surviving "
                                "channels")
    p_compile.add_argument("--json", action="store_true",
                           help="machine-readable plan")
    p_compile.add_argument("--run", action="store_true",
                           help="apply the plan and run the fused network")
    p_compile.add_argument("--workers", type=int, default=4,
                           help="fig19 farm width (default 4)")
    p_compile.add_argument("--tasks", type=int, default=120,
                           help="fig19 task count (default 120)")
    add_run_arguments(p_compile, "backend")

    sub.add_parser("version", help="print the version")
    return parser


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _traced(args, label: str, fn) -> int:
    """Run ``fn`` with telemetry enabled, then write a Chrome trace."""
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return fn()
    from repro.telemetry.core import TELEMETRY
    from repro.telemetry.export import write_chrome_trace

    try:
        with TELEMETRY.enabled_scope(reset=True), \
                TELEMETRY.span(label, category="cli"):
            return fn()
    finally:
        write_chrome_trace(trace_out)
        print(f"trace written to {trace_out} "
              f"({TELEMETRY.events_emitted} events)", file=sys.stderr)


def _cmd_server(args) -> int:
    from repro.distributed.server import serve

    serve(args)
    return 0


def _cmd_registry(args) -> int:
    from repro.distributed.registry import main as registry_main

    registry_main(["--port", str(args.port)])
    return 0


def _cmd_ping(args) -> int:
    from repro.distributed.server import ServerClient

    host, _, port = args.target.partition(":")
    client = ServerClient(host, int(port))
    print(client.ping())
    client.close()
    return 0


def _cmd_metrics(args) -> int:
    from repro.distributed.server import ServerClient
    from repro.telemetry.export import prometheus_text

    host, _, port = args.target.partition(":")
    client = ServerClient(host, int(port))
    try:
        reply = client.metrics()
    finally:
        client.close()
    if args.raw:
        for key in sorted(reply["counters"]):
            print(f"{key} = {reply['counters'][key]:g}")
    else:
        print(prometheus_text(reply["counters"],
                              histograms=reply.get("histograms"),
                              gauges=reply.get("gauges")), end="")
    if not reply.get("telemetry_enabled"):
        print("# note: telemetry is DISABLED on the server "
              "(start it with --telemetry or REPRO_TELEMETRY=1)",
              file=sys.stderr)
    return 0


def _top_row(name: str, client) -> dict:
    """Collect one server's ``repro top`` row; tolerate partial failures."""
    row: dict = {"name": name, "stats": None, "snapshot": None,
                 "counters": None, "profile": None}
    try:
        row["stats"] = client.stats()
        row["snapshot"] = client.wait_snapshot()
        if row["stats"].get("telemetry_enabled"):
            reply = client.metrics()
            row["counters"] = reply.get("counters")
            row["profile"] = reply.get("profile")
    except Exception as exc:  # noqa: BLE001 - a dead server is a row, not a crash
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _cmd_top(args) -> int:
    import time

    from repro.distributed.server import ServerClient
    from repro.telemetry.distributed import render_top

    clients = []
    for target in args.targets:
        host, _, port = target.partition(":")
        clients.append((target, ServerClient(host, int(port))))
    iteration = 0
    try:
        while True:
            rows = [_top_row(name, client) for name, client in clients]
            screen = render_top(rows)
            unreachable = [r["name"] for r in rows if r.get("error")]
            if args.once:
                print(screen)
            else:
                # ANSI clear + home, then the refreshed screen
                print(f"\x1b[2J\x1b[Hrepro top — {len(rows)} server(s), "
                      f"refresh {args.interval:g}s (Ctrl-C quits)\n")
                print(screen)
            for name in unreachable:
                print(f"  {name}: UNREACHABLE", file=sys.stderr)
            iteration += 1
            if args.once or (args.iterations and iteration >= args.iterations):
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    finally:
        for _, client in clients:
            client.close()
    return 0


def _cmd_example(args) -> int:
    if args.which == "list":
        for name in EXAMPLES:
            print(name)
        return 0
    return _traced(args, f"example:{args.which}",
                   lambda: _run_example(args))


def _run_example(args) -> int:
    import os
    import runpy

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "examples",
        f"{args.which}.py")
    if not os.path.exists(path):
        print(f"example source not found at {path}", file=sys.stderr)
        return 1
    runpy.run_path(path, run_name="__main__")
    return 0


def _figure_builders():
    """The figure networks ``lint``, ``profile`` and ``compile`` build."""
    from repro.processes import (fibonacci, hamming, modulo_merge,
                                 newton_sqrt, primes)

    return {
        "fibonacci": lambda: fibonacci(10),
        "primes": lambda: primes(count=10),
        "hamming": lambda: hamming(10),
        "newton": lambda: newton_sqrt(2.0),
        "fig13": lambda: modulo_merge(50, 10),
    }


def _cmd_lint(args) -> int:
    import json
    import os

    from repro.analysis import (JSON_SCHEMA_VERSION, lint_network,
                                lint_paths, sort_findings, summarize)
    from repro.analysis.astlint import lint_file

    findings = []
    for target in args.targets:
        if os.path.exists(target):
            findings.extend(lint_paths([target]))
        elif target in CHECKABLE:
            findings.extend(lint_network(_figure_builders()[target]().network))
        else:
            import importlib
            try:
                module = importlib.import_module(target)
            except ImportError as exc:
                print(f"lint: cannot resolve {target!r}: not a path, a "
                      f"figure network, or an importable module ({exc})",
                      file=sys.stderr)
                return 2
            source = getattr(module, "__file__", None)
            if not source or not os.path.exists(source):
                print(f"lint: module {target!r} has no source file",
                      file=sys.stderr)
                return 2
            findings.extend(lint_file(source))
    findings = sort_findings(findings)
    summary = summarize(findings)
    if args.json:
        print(json.dumps({
            "schema_version": JSON_SCHEMA_VERSION,
            "targets": list(args.targets),
            "findings": [f.to_dict() for f in findings],
            "summary": summary,
        }, indent=2))
    else:
        for f in findings:
            print(f)
        if not findings:
            print("no findings: all processes look determinate")
        else:
            parts = ", ".join(
                f"{summary[s]} {s}"
                for s in ("error", "warning", "declared", "info")
                if summary.get(s))
            print(f"-- {parts}")
    return 1 if summary["failing"] else 0


def _profile_target(args):
    """Build the requested network; return ``(network, runner)``."""
    if args.which == "fig19":
        from repro.parallel import CallableTask, RangeProducerTask
        from repro.parallel.farm import build_farm

        handle = build_farm(
            RangeProducerTask(args.tasks, lambda i: CallableTask(pow, i, 3)),
            n_workers=args.workers, mode="dynamic")
        return handle.network, lambda: handle.run(timeout=300)
    built = _figure_builders()[args.which]()
    return built.network, lambda: built.run(timeout=300)


def _cmd_profile(args) -> int:
    """Run a figure network with the profiler on; print the bottleneck
    report and write the capacity-advisor spec."""
    from repro.telemetry.core import TELEMETRY
    from repro.telemetry.profile import (PROFILER, analyze, fold_stacks,
                                         render_profile, write_capacity_spec)

    network, runner = _profile_target(args)
    was_telemetry = TELEMETRY.enabled
    was_profiler = PROFILER.enabled
    TELEMETRY.reset().enable()
    PROFILER.reset().enable()
    try:
        runner()
        snapshot = PROFILER.snapshot(network=network)
        channel_map = network.channel_map()
    finally:
        if not was_profiler:
            PROFILER.disable()
        if not was_telemetry:
            TELEMETRY.disable().reset()
    report = analyze(snapshot, channel_map)
    print(render_profile(report, top=args.top))
    spec_out = args.spec_out or f"{args.which}-capacity.json"
    write_capacity_spec(report, spec_out)
    print(f"capacity spec written to {spec_out}", file=sys.stderr)
    if args.folded_out:
        with open(args.folded_out, "w") as fh:
            fh.write("\n".join(fold_stacks(snapshot)) + "\n")
        print(f"folded stacks written to {args.folded_out}", file=sys.stderr)
    return 0


def _cmd_compile(args) -> int:
    """Print (and optionally run) the fusion plan for a figure network."""
    import json

    from repro.kpn.compile import compile_network

    network, runner = _profile_target(args)
    plan = compile_network(network, spec=args.spec)
    if args.json:
        print(json.dumps(plan.to_dict(), indent=2))
    else:
        print(plan.describe())
    if args.run:
        plan.apply()
        runner()
        fused = ", ".join(c.name for c in plan.fused) or "none"
        print(f"fused network ran to completion (chains: {fused})",
              file=sys.stderr)
    return 0


def _cmd_version(args) -> int:
    import repro

    print(repro.__version__)
    return 0


_HANDLERS = {
    "server": _cmd_server,
    "registry": _cmd_registry,
    "ping": _cmd_ping,
    "metrics": _cmd_metrics,
    "top": _cmd_top,
    "example": _cmd_example,
    "lint": _cmd_lint,
    "profile": _cmd_profile,
    "compile": _cmd_compile,
    "version": _cmd_version,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # examples and figure networks build their own Network objects: the
    # command's options reach them as the process config, for as long as
    # the command runs
    with use(RunConfig.from_args(args)):
        return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
