"""``python -m repro.distributed``: run one standalone compute server.

The package's ``__init__`` loads its submodules on first use, so this
imports the server, its wire and the runtime it hosts processes in, and
no cluster launcher, balancer or profiler.  Options are
:func:`~repro.distributed.server.add_server_arguments`'s.
"""

from repro.distributed.server import main

main()
