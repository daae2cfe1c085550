"""Kahn Process Network runtime core (paper section 3).

Layering (bottom → top): :mod:`~repro.kpn.buffers` (bounded blocking byte
pipes) → :mod:`~repro.kpn.streams` (the Figure-3 stream stack) →
:mod:`~repro.kpn.channel` (producer/consumer endpoints, splicing) →
:mod:`~repro.kpn.process` (threaded processes) → :mod:`~repro.kpn.network`
(lifecycle; :mod:`~repro.kpn.topology` reads its program graph) with
:mod:`~repro.kpn.scheduler` providing Parks' bounded scheduling.
:mod:`~repro.kpn.data` and :mod:`~repro.kpn.objects` layer typed traffic
over byte channels.
"""

from repro._lazy import lazy_exports
from repro.kpn.buffers import BlockAccounting, BoundedByteBuffer, DEFAULT_CAPACITY
from repro.kpn.channel import (Channel, ChannelInputStream, ChannelOutputStream,
                               wait_any_readable)
from repro.kpn.data import DataInputStream, DataOutputStream
from repro.kpn.network import Network
from repro.kpn.objects import ObjectInputStream, ObjectOutputStream
from repro.kpn.process import (CompositeProcess, IterativeProcess, Process,
                               StopProcess)
from repro.kpn.scheduler import DeadlockMonitor, DeadlockPolicy, GrowthEvent
from repro.kpn.streams import (BlockingInputStream, InputStream, LocalInputStream,
                               LocalOutputStream, OutputStream,
                               SequenceInputStream, SequenceOutputStream)

__all__ = [
    "BlockAccounting", "BoundedByteBuffer", "DEFAULT_CAPACITY",
    "Channel", "ChannelInputStream", "ChannelOutputStream", "wait_any_readable",
    "DataInputStream", "DataOutputStream",
    "Network",
    "ObjectInputStream", "ObjectOutputStream",
    "CompositeProcess", "IterativeProcess", "Process", "StopProcess",
    "DeadlockMonitor", "DeadlockPolicy", "GrowthEvent",
    "BlockingInputStream", "InputStream", "LocalInputStream",
    "LocalOutputStream", "OutputStream", "SequenceInputStream",
    "SequenceOutputStream",
]

# Loaded on first use.  The graph compiler imports the codec layer, which
# imports back into repro.kpn, so it cannot load here at all; history
# capture and the tracer are tools around a run that no running network
# needs.
__getattr__ = lazy_exports(__name__, {
    "compile": ("FusedChain", "FusionPlan", "compile_network", "fuse"),
    "history": ("HistoryCapture", "decode_bytes", "infer_codecs"),
    "tracing": ("ChannelTrace", "TraceReport", "Tracer"),
})
