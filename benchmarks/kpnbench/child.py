"""Entry point of every interpreter the driver starts.

``python -m kpnbench.child repeat|layers '<json config>'`` runs one
repeat or the layer cases and prints one JSON object on its last line.
A module of its own, so that :mod:`kpnbench.repeat` and
:mod:`kpnbench.layers` are imported under their real names: a task class
that lived in ``__main__`` would be shipped to pool children by source,
at several milliseconds a task.
"""

from __future__ import annotations

import json
import sys


def main(argv=None) -> int:
    kind, cfg = (argv or sys.argv[1:])[:2]
    if kind == "repeat":
        from kpnbench.repeat import run_repeat as run
    elif kind == "layers":
        from kpnbench.layers import run_cases as run
    else:
        raise SystemExit(f"kpnbench.child: unknown kind {kind!r}")
    print(json.dumps(run(json.loads(cfg))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
