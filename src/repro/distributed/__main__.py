"""``python -m repro.distributed``: run one standalone compute server.

The package's ``__init__`` imports :mod:`repro.distributed.server`, so
``python -m repro.distributed.server`` would run that module a second
time as ``__main__`` (and warn so).  This entry point is imported by
nobody: the server module is loaded once.  Options are
:func:`~repro.distributed.server.add_server_arguments`'s.
"""

from repro.distributed.server import main

main()
