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

from repro._lazy import lazy_exports

# Everything loads on first use: a standalone compute server
# (``python -m repro.distributed``) needs the server and its wire, not the
# cluster launcher, the balancer or the registry server.
__getattr__ = lazy_exports(__name__, {
    "balancer": ("CalibrationTask", "LeastLoadedPlacement",
                 "PlacementPolicy", "RoundRobinPlacement", "ServerProfile",
                 "SpeedWeightedPlacement", "place_workers",
                 "profile_servers", "suggest_rebalance"),
    "cluster": ("LocalCluster", "run_partitioned"),
    "codebase": ("SourceShippingPickler", "dumps_shipped", "loads_shipped",
                 "register_ship_module", "shippable"),
    "migration": ("MigrationPickler", "dumps_migration", "import_network",
                  "loads_migration"),
    "registry": ("RegistryClient", "RegistryServer"),
    "server": ("ComputeServer", "ServerClient"),
    "sockets": ("ReceiverPump", "SenderPump"),
    "wire": ("advertised_host", "set_advertised_host"),
})
