"""The runtime is the runtime: ``repro`` never reaches into ``experiments``.

``experiments`` (the paper's evaluation) builds on ``repro``; the
reverse edge must not exist.  The check runs in a fresh interpreter that
*could* import ``experiments`` (the repository root is on its path), so
a stray import anywhere in ``repro`` would succeed and show up in
``sys.modules`` rather than hide behind an ImportError.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_IMPORT_EVERYTHING = """
import importlib, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
         if not m.name.endswith("__main__")]
for name in names:
    importlib.import_module(name)
from repro.cli import build_parser
try:
    build_parser().parse_args(["experiment", "table1"])
except SystemExit:
    rejected = True
else:
    rejected = False
print(len(names), rejected,
      *sorted(m for m in sys.modules if m.split(".")[0] == "experiments"))
"""


def test_importing_all_of_repro_loads_no_experiments_module():
    env = {"PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
           "PATH": os.environ.get("PATH", "")}
    done = subprocess.run([sys.executable, "-c", _IMPORT_EVERYTHING],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    count, rejected, *loaded = done.stdout.split()
    assert int(count) > 50      # the walk really found the runtime
    assert rejected == "True"   # `repro experiment` is gone from the CLI
    assert loaded == []
