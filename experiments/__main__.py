"""``python -m experiments {table1,table2,fig19,fig20,report}``.

Prints one regenerated artefact of the paper's evaluation, rendered by
:mod:`experiments.simcluster.report`.  ``--trace-out FILE`` runs it with
telemetry on and writes a Chrome trace, through the same wrapper the
``repro`` CLI uses.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from experiments.simcluster import report
from repro.cli import _traced

ARTEFACTS = ("table1", "table2", "fig19", "fig20", "report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m experiments",
        description="regenerate a table or figure of the paper's "
                    "evaluation on the simulated cluster")
    parser.add_argument("which", choices=ARTEFACTS)
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="run with telemetry on; write a Chrome "
                             "trace-event JSON file")
    return parser


def _render(which: str) -> int:
    if which == "report":
        print(report.generate_report())
    else:
        print("\n".join(getattr(report, which)()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _traced(args, f"experiment:{args.which}",
                   lambda: _render(args.which))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
