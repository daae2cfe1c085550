"""The evaluation's examples run clean, like the runtime's own.

Each example self-asserts its results and prints a final "... OK" line;
they import ``experiments``, so each runs as a module from the
repository root.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
EXAMPLES_DIR = os.path.join(ROOT, "experiments", "examples")

ALL_EXAMPLES = sorted(
    name[:-3] for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py"))


@pytest.mark.slow
@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_runs_clean(name):
    result = subprocess.run(
        [sys.executable, "-m", f"experiments.examples.{name}"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert result.returncode == 0, \
        f"{name} failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
    assert "OK" in result.stdout.splitlines()[-1]
