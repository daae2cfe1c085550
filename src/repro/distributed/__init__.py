"""Distributed process networks (paper section 4).

Compute servers (:mod:`~repro.distributed.server`) execute shipped
processes and tasks; the name registry (:mod:`~repro.distributed.registry`)
locates them; serialization hooks (:mod:`~repro.distributed.migration`)
swap channel transports automatically as processes migrate; socket pumps
(:mod:`~repro.distributed.sockets`) keep Kahn semantics — blocking reads,
bounded capacity, termination cascades — intact across the network; and
source shipping (:mod:`~repro.distributed.codebase`) moves code with the
data.  :mod:`~repro.distributed.cluster` bundles it all for one-call use.
Deadlocks across servers need nothing here: the deadlock monitor of the
network that shipped the parts polls their servers
(:mod:`repro.kpn.scheduler`).
"""

from repro.distributed.balancer import (CalibrationTask,
                                        LeastLoadedPlacement,
                                        PlacementPolicy, RoundRobinPlacement,
                                        ServerProfile, SpeedWeightedPlacement,
                                        place_workers, profile_servers,
                                        suggest_rebalance)
from repro.distributed.cluster import LocalCluster, run_partitioned
from repro.distributed.codebase import (SourceShippingPickler, dumps_shipped,
                                        loads_shipped, register_ship_module,
                                        shippable)
from repro.distributed.migration import (MigrationPickler, dumps_migration,
                                         import_network, loads_migration)
from repro.distributed.registry import RegistryClient, RegistryServer
from repro.distributed.server import ComputeServer, ServerClient
from repro.distributed.sockets import ReceiverPump, SenderPump
from repro.distributed.wire import (advertised_host, set_advertised_host)

__all__ = [
    "CalibrationTask", "LeastLoadedPlacement", "PlacementPolicy",
    "RoundRobinPlacement", "ServerProfile", "SpeedWeightedPlacement",
    "place_workers", "profile_servers", "suggest_rebalance",
    "LocalCluster", "run_partitioned",
    "SourceShippingPickler", "dumps_shipped", "loads_shipped",
    "register_ship_module", "shippable",
    "MigrationPickler", "dumps_migration", "import_network", "loads_migration",
    "RegistryClient", "RegistryServer",
    "ComputeServer", "ServerClient",
    "ReceiverPump", "SenderPump",
    "advertised_host", "set_advertised_host",
]
