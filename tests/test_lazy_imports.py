"""Cold start: packages defer the tools no running network needs."""

import importlib
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _python(code, **env):
    full = {"PYTHONPATH": SRC, "PATH": os.environ.get("PATH", "")}
    full.update(env)
    done = subprocess.run([sys.executable, "-c", code], env=full,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("package", ["repro.kpn", "repro.telemetry",
                                     "repro.analysis", "repro.parallel",
                                     "repro.processes", "repro.distributed"])
def test_every_public_name_still_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError):
        module.no_such_name


def test_runtime_import_skips_the_tools():
    loaded = _python(
        "import sys, repro.kpn.network, repro.processes\n"
        "print(*[m for m in sys.modules if m.startswith('repro.')])")
    deferred = [m for m in loaded if m.startswith((
        "repro.semantics", "repro.telemetry.export", "repro.telemetry.clock",
        "repro.telemetry.profile", "repro.telemetry.distributed",
        "repro.kpn.checker", "repro.kpn.tracing", "repro.kpn.history",
        "repro.analysis.astlint", "repro.analysis.races",
        "repro.analysis.fuse", "repro.analysis.graphproofs"))]
    assert deferred == []
    assert "repro.analysis.markers" in loaded


def test_a_chain_loads_only_the_processes_it_uses():
    loaded = _python(
        "import sys, repro.kpn.network\n"
        "from repro.processes import Scale\n"
        "print(*[m for m in sys.modules if m.startswith('repro.')])")
    assert "repro.kpn.topology" not in loaded
    assert sorted(m for m in loaded if m.startswith("repro.processes.")) \
        == ["repro.processes.codecs", "repro.processes.transforms"]


def test_a_compute_server_loads_no_cluster_tools():
    loaded = _python(
        "import sys, repro.distributed.server\n"
        "print(*sys.modules)")
    assert "repro.distributed.server" in loaded
    assert [m for m in ("repro.distributed.cluster",
                        "repro.distributed.balancer",
                        "repro.telemetry.profile", "repro.telemetry.clock",
                        "subprocess") if m in loaded] == []


def test_executor_and_tasks_import_without_numpy():
    # what a pool child and a compute server take from repro.parallel
    assert _python(
        "import sys, repro.parallel.executor, repro.parallel.tasks\n"
        "print('numpy' in sys.modules)") == ["False"]


def test_dsp_kernels_register_with_the_semantics_compiler():
    assert _python(
        "from repro.processes.dsp import Delay\n"
        "from repro.semantics.compile import _COMPILERS\n"
        "print(Delay in _COMPILERS)") == ["True"]


def test_profile_env_still_switches_the_profiler_on_at_import():
    code = ("import sys, repro\n"
            "m = sys.modules.get('repro.telemetry.profile')\n"
            "print(m is not None, m is not None and m.PROFILER.enabled)")
    assert _python(code, REPRO_PROFILE="1") == ["True", "True"]
    # off means off: "0" neither switches the profiler on nor loads it
    assert _python(code, REPRO_PROFILE="0") == ["False", "False"]
    assert _python(code) == ["False", "False"]
