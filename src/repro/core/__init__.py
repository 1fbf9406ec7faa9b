"""Core information-dissemination simulator (the paper's primary contribution).

The central objects are :class:`BroadcastSimulation` and
:class:`GossipSimulation`, which evolve ``k`` mobile agents on an ``n``-node
grid under a pluggable mobility model and spread rumors instantaneously
within connected components of the visibility graph ``G_t(r)`` at every step,
exactly as in Section 2 of the paper.  The measured quantities are the
broadcast time ``T_B``, the gossip time ``T_G`` and the coverage time
``T_C``.
"""

from repro.core.config import BroadcastConfig, GossipConfig, default_max_steps
from repro.core.simulation import BroadcastSimulation, BroadcastResult
from repro.core.gossip import GossipSimulation, GossipResult
from repro.core.protocol import (
    flood_informed,
    flood_informed_batch,
    flood_rumors,
    flood_rumors_batch,
)
from repro.core.metrics import FrontierTracker, CoverageTracker, InformedCurve
from repro.core.runner import (
    ReplicationSummary,
    backend_override,
    resolve_backend,
    run_broadcast_replications,
    run_gossip_replications,
    summarise_values,
)
from repro.core.batched import (
    run_broadcast_replications_batched,
    run_gossip_replications_batched,
    supports_batched,
)

__all__ = [
    "BroadcastConfig",
    "GossipConfig",
    "default_max_steps",
    "BroadcastSimulation",
    "BroadcastResult",
    "GossipSimulation",
    "GossipResult",
    "flood_informed",
    "flood_informed_batch",
    "flood_rumors",
    "flood_rumors_batch",
    "FrontierTracker",
    "CoverageTracker",
    "InformedCurve",
    "ReplicationSummary",
    "summarise_values",
    "backend_override",
    "resolve_backend",
    "run_broadcast_replications",
    "run_gossip_replications",
    "run_broadcast_replications_batched",
    "run_gossip_replications_batched",
    "supports_batched",
]
