"""repro — reproduction of *Tight Bounds on Information Dissemination in
Sparse Mobile Networks* (Pettarin, Pietracaprina, Pucci, Upfal; PODC 2011).

The library simulates ``k`` mobile agents performing independent random walks
on an ``n``-node grid and measures the broadcast time ``T_B``, gossip time
``T_G`` and coverage time ``T_C`` of rumors spreading instantaneously within
connected components of the dynamic visibility graph ``G_t(r)``.

Quickstart
----------
>>> from repro import BroadcastConfig, BroadcastSimulation
>>> config = BroadcastConfig(n_nodes=32 * 32, n_agents=32, radius=0.0)
>>> result = BroadcastSimulation(config, rng=0).run()
>>> result.completed
True

The subpackages are organised as follows:

* :mod:`repro.core` — broadcast/gossip simulators, metrics, runners;
* :mod:`repro.grid`, :mod:`repro.walks`, :mod:`repro.connectivity`,
  :mod:`repro.mobility` — the substrates (lattice, random walks, visibility
  graph, mobility models);
* :mod:`repro.dissemination` — Frog model, predator–prey, cover time;
* :mod:`repro.baselines` — comparison models from the Related Work section;
* :mod:`repro.theory` — closed-form bounds used as oracles;
* :mod:`repro.analysis`, :mod:`repro.workloads`, :mod:`repro.experiments` —
  the measurement and reproduction harness (experiments E1–E17).
"""

from repro.core import (
    BroadcastConfig,
    BroadcastResult,
    BroadcastSimulation,
    GossipConfig,
    GossipResult,
    GossipSimulation,
    run_broadcast_replications,
    run_gossip_replications,
)
from repro.grid import Grid2D, Tessellation
from repro.walks import WalkEngine
from repro.mobility import make_mobility
from repro.connectivity import (
    visibility_components,
    percolation_radius,
    island_parameter_gamma,
)
from repro.dissemination import (
    FrogModelSimulation,
    PredatorPreySimulation,
    available_processes,
    make_process,
    multi_walk_cover_time,
    run_process_replications,
)
from repro.theory import (
    broadcast_time_scale,
    broadcast_time_upper_bound,
    broadcast_time_lower_bound,
)
from repro.experiments import run_experiment, available_experiments

__version__ = "1.0.0"

__all__ = [
    "BroadcastConfig",
    "BroadcastResult",
    "BroadcastSimulation",
    "GossipConfig",
    "GossipResult",
    "GossipSimulation",
    "run_broadcast_replications",
    "run_gossip_replications",
    "Grid2D",
    "Tessellation",
    "WalkEngine",
    "make_mobility",
    "visibility_components",
    "percolation_radius",
    "island_parameter_gamma",
    "FrogModelSimulation",
    "PredatorPreySimulation",
    "multi_walk_cover_time",
    "available_processes",
    "make_process",
    "run_process_replications",
    "broadcast_time_scale",
    "broadcast_time_upper_bound",
    "broadcast_time_lower_bound",
    "run_experiment",
    "available_experiments",
    "__version__",
]
