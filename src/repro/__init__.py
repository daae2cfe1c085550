"""repro — Distributed Kahn Process Networks in Python.

A from-scratch reproduction of *Distributed Process Networks in Java*
(Parks, Roberts, Millman; IPPS 2003 workshop), comprising:

* :mod:`repro.kpn` — the process-network runtime: bounded blocking byte
  channels, one thread per process, cascading termination, Parks'
  bounded scheduling with automatic buffer growth;
* :mod:`repro.processes` — the standard process library and the paper's
  example graphs;
* :mod:`repro.semantics` — Kahn's denotational semantics: closed streams
  as a complete partial order, continuous kernels, least-fixed-point
  solving, and a determinacy oracle used by the property tests;
* :mod:`repro.distributed` — compute servers, name registry, socket
  channels, and serialization-driven automatic connection establishment;
* :mod:`repro.parallel` — the embarrassingly-parallel framework: generic
  Producer/Worker/Consumer over Tasks, MetaStatic and MetaDynamic load
  balancing, and the weak-RSA factorization workload;
* :mod:`repro.simcluster` — a discrete-event simulation of the paper's
  heterogeneous 34-CPU lab used to regenerate Tables 1–2 and Figures
  19–20;
* :mod:`repro.telemetry` — the unified observability layer: an
  off-by-default event bus + counter registry instrumented into all of
  the above, with Chrome-trace (Perfetto) and Prometheus exporters.

Quickstart::

    from repro.kpn import Network
    from repro.processes import Sequence, MapProcess, Collect

    net = Network()
    raw, squared = net.channels_n(2)
    out: list[int] = []
    net.add(Sequence(raw.get_output_stream(), start=1, iterations=10))
    net.add(MapProcess(raw.get_input_stream(), squared.get_output_stream(),
                       lambda x: x * x))
    net.add(Collect(squared.get_input_stream(), out))
    net.run()
    assert out == [k * k for k in range(1, 11)]
"""

from repro.errors import (ArtificialDeadlockError, BrokenChannelError,
                          ChannelClosedError, ChannelError, DeadlockError,
                          EndOfStreamError, MigrationError, RegistryError,
                          RemoteError, TrueDeadlockError)
from repro.kpn import (Channel, CompositeProcess, IterativeProcess, Network,
                       Process, StopProcess)
from repro.telemetry.core import TELEMETRY

__version__ = "1.0.0"

__all__ = [
    "ArtificialDeadlockError", "BrokenChannelError", "ChannelClosedError",
    "ChannelError", "DeadlockError", "EndOfStreamError", "MigrationError",
    "RegistryError", "RemoteError", "TrueDeadlockError",
    "Channel", "CompositeProcess", "IterativeProcess", "Network", "Process",
    "StopProcess", "TELEMETRY",
    "__version__",
]
