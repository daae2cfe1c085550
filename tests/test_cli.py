"""CLI entry points (python -m repro.cli)."""

import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    return main(list(argv))


def test_version(capsys):
    assert run_cli("version") == 0
    import repro

    assert capsys.readouterr().out.strip() == repro.__version__


@pytest.mark.parametrize("which", ["table1", "table2", "fig19", "fig20"])
def test_experiments_print_tables(which, capsys):
    assert run_cli("experiment", which) == 0
    out = capsys.readouterr().out
    assert "paper" in out or "ideal" in out
    assert len(out.splitlines()) >= 6


def test_check_clean_graph(capsys):
    assert run_cli("lint", "fibonacci") == 0
    assert "cycle" in capsys.readouterr().out


def test_check_fig13(capsys):
    assert run_cli("lint", "fig13") == 0


def test_example_list(capsys):
    assert run_cli("example", "list") == 0
    assert "fibonacci" in capsys.readouterr().out


def test_example_runs(capsys):
    assert run_cli("example", "newton_sqrt") == 0
    assert "newton sqrt OK" in capsys.readouterr().out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "table99"])


def test_ping_roundtrip():
    from repro.distributed.server import ComputeServer

    server = ComputeServer(name="cli-ping").start()
    try:
        assert run_cli("ping", f"127.0.0.1:{server.port}") == 0
    finally:
        server.stop()


def test_metrics_command_scrapes_live_server(capsys):
    from repro.distributed.server import ComputeServer
    from repro.telemetry.core import TELEMETRY

    TELEMETRY.reset().enable()
    server = ComputeServer(name="cli-metrics").start()
    try:
        assert run_cli("ping", f"127.0.0.1:{server.port}") == 0
        assert run_cli("metrics", f"127.0.0.1:{server.port}") == 0
    finally:
        server.stop()
        TELEMETRY.disable().reset()
    out = capsys.readouterr().out
    assert "# TYPE repro_wire_frames_received counter" in out
    assert 'repro_wire_frames_received{tag="' in out


def test_metrics_command_raw_output(capsys):
    from repro.distributed.server import ComputeServer
    from repro.telemetry.core import TELEMETRY

    TELEMETRY.reset().enable()
    server = ComputeServer(name="cli-metrics-raw").start()
    try:
        assert run_cli("metrics", f"127.0.0.1:{server.port}", "--raw") == 0
    finally:
        server.stop()
        TELEMETRY.disable().reset()
    assert "wire.frames_received" in capsys.readouterr().out


def test_experiment_trace_out_writes_valid_chrome_trace(tmp_path, capsys):
    import json

    from repro.telemetry.core import TELEMETRY

    path = tmp_path / "trace.json"
    try:
        assert run_cli("experiment", "table1", "--trace-out", str(path)) == 0
    finally:
        TELEMETRY.disable().reset()
    assert "trace written to" in capsys.readouterr().err
    doc = json.loads(path.read_text())
    phases = [item["ph"] for item in doc["traceEvents"]]
    assert phases.count("B") == phases.count("E") >= 1
    assert not TELEMETRY.enabled  # --trace-out must not leave the hub on


@pytest.mark.slow
def test_module_invocation_subprocess():
    result = subprocess.run([sys.executable, "-m", "repro.cli", "version"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout.strip()


# ---------------------------------------------------------------------------
# repro profile
# ---------------------------------------------------------------------------

def test_profile_command_reports_and_writes_spec(tmp_path, capsys):
    spec_path = tmp_path / "fib-capacity.json"
    folded_path = tmp_path / "fib.folded"
    assert run_cli("profile", "fibonacci",
                   "--spec-out", str(spec_path),
                   "--folded-out", str(folded_path)) == 0
    out = capsys.readouterr().out
    assert "bottleneck channels" in out
    assert "process utilization" in out
    assert "root cause" in out or "no blocked time" in out
    import json

    spec = json.loads(spec_path.read_text())
    assert spec["version"] == 1 and spec["channels"]
    for rec in spec["channels"].values():
        assert rec["initial_capacity"] > 0 and rec["reason"]
    assert folded_path.exists()


def test_profile_command_leaves_instrumentation_off(tmp_path):
    from repro.telemetry.core import TELEMETRY
    from repro.telemetry.profile import PROFILER

    assert run_cli("profile", "primes",
                   "--spec-out", str(tmp_path / "p.json")) == 0
    assert not TELEMETRY.enabled
    assert not PROFILER.enabled
    assert not TELEMETRY.events()


def test_profile_rejects_unknown_target():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["profile", "nonsense"])


def test_metrics_command_renders_profile_gauges(capsys):
    from repro.distributed.server import ComputeServer
    from repro.telemetry.core import TELEMETRY
    from repro.telemetry.profile import PROFILER

    TELEMETRY.reset().enable()
    PROFILER.reset().enable()
    server = ComputeServer(name="cli-gauges").start()
    try:
        TELEMETRY.set_gauge("kpn.channel.occupancy_bytes", 5, channel="x")
        assert run_cli("metrics", f"127.0.0.1:{server.port}") == 0
    finally:
        server.stop()
        PROFILER.disable().reset()
        TELEMETRY.disable().reset()
    out = capsys.readouterr().out
    assert 'repro_kpn_channel_occupancy_bytes{channel="x"} 5' in out


# ---------------------------------------------------------------------------
# repro lint
# ---------------------------------------------------------------------------

def test_lint_figure_network_clean(capsys):
    assert run_cli("lint", "fibonacci") == 0
    assert "proved-bounded" in capsys.readouterr().out


def test_lint_self_hosting_exits_zero(capsys):
    # the library's only findings are inside declared-nondeterminate
    # components, which are exempt from the exit code
    assert run_cli("lint", "src/repro/processes") == 0
    out = capsys.readouterr().out
    assert "declared:poll" in out
    assert "Turnstile" in out


def test_lint_json_schema(capsys):
    import json

    from repro.analysis import JSON_SCHEMA_VERSION

    assert run_cli("lint", "--json", "src/repro/processes", "fibonacci") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == JSON_SCHEMA_VERSION
    assert doc["targets"] == ["src/repro/processes", "fibonacci"]
    assert set(doc["summary"]) == {"error", "warning", "info", "declared",
                                   "failing"}
    assert doc["summary"]["failing"] == 0
    assert doc["findings"], "expected Turnstile declared + proof info rows"
    for row in doc["findings"]:
        assert set(row) == {"rule", "severity", "message", "analysis",
                            "subject", "file", "line"}
        assert row["severity"] in ("error", "warning", "info", "declared")
        assert row["analysis"] in ("astlint", "races", "graph")
    severities = [row["severity"] for row in doc["findings"]]
    # sorted: failing severities first, info last
    assert severities == sorted(
        severities, key=lambda s: {"error": 0, "warning": 1, "declared": 2,
                                   "info": 3}[s])


def test_lint_failing_severity_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad_process.py"
    bad.write_text(
        "from repro.kpn.process import IterativeProcess\n\n\n"
        "class Poller(IterativeProcess):\n"
        "    def step(self):\n"
        "        n = self.source.channel.occupancy()\n")
    assert run_cli("lint", str(bad)) == 1
    out = capsys.readouterr().out
    assert "error:poll" in out


def test_lint_unresolvable_target(capsys):
    assert run_cli("lint", "no.such.module") == 2
    assert "cannot resolve" in capsys.readouterr().err


def test_lint_module_target(capsys):
    assert run_cli("lint", "repro.processes.arithmetic") == 0
    assert "no findings" in capsys.readouterr().out


def test_check_strict_flag(capsys):
    assert run_cli("lint", "fibonacci") == 0
