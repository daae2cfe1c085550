"""Entry point: ``python3 benchmarks/kpnbench`` or ``python3 -m kpnbench``.

Run as a directory, Python puts this directory itself on ``sys.path``;
swap it for its parent so that ``kpnbench`` imports as a package and its
module names cannot shadow the standard library's.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
if not __package__:
    sys.path[:] = [p for p in sys.path
                   if os.path.abspath(p or os.getcwd()) != _HERE]
    sys.path.insert(0, os.path.dirname(_HERE))

from kpnbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
