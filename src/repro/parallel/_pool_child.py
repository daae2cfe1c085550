"""Entry point for process-pool children (``python -m repro.parallel._pool_child``).

Separate from :mod:`repro.parallel.executor` so runpy does not re-execute
a module the package ``__init__`` already imported (which double-runs the
module body and warns).  Keep this importable with no side effects.
"""

import sys

from repro.parallel.executor import _child_serve

if __name__ == "__main__":
    _child_serve(int(sys.argv[1]))
