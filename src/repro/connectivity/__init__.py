"""Connectivity substrate for the dynamic visibility graph ``G_t(r)``.

The rumor spreads instantaneously within connected components of the
visibility graph, so the core operation of the simulator is: given the
``(k, 2)`` agent positions and the transmission radius ``r``, label the
connected components.  This subpackage provides

* a union–find structure (:mod:`repro.connectivity.unionfind`);
* a spatial hash for radius-bounded neighbour queries
  (:mod:`repro.connectivity.spatial_hash`);
* visibility-graph construction and component labelling
  (:mod:`repro.connectivity.visibility`);
* an incremental engine maintaining the spatial hash and component labels
  across simulation steps (:mod:`repro.connectivity.incremental`);
* island (component) statistics for Lemma 6 (:mod:`repro.connectivity.components`);
* percolation-point estimation (:mod:`repro.connectivity.percolation`).
"""

from repro.connectivity.unionfind import UnionFind
from repro.connectivity.batched import batched_visibility_labels
from repro.connectivity.spatial_hash import SpatialHash, neighbor_pairs
from repro.connectivity.visibility import (
    effective_radius,
    position_group_key,
    same_cell_labels,
    visibility_components,
    visibility_edges,
    visibility_graph,
)
from repro.connectivity.incremental import (
    DeltaConnectivityEngine,
    labels_equivalent,
)
from repro.connectivity.components import (
    component_sizes,
    largest_component_size,
    largest_component_fraction,
    IslandStatistics,
    island_statistics,
)
from repro.connectivity.percolation import (
    percolation_radius,
    island_parameter_gamma,
    lower_bound_radius,
    giant_component_sweep,
    PercolationSweepResult,
)

__all__ = [
    "UnionFind",
    "batched_visibility_labels",
    "SpatialHash",
    "neighbor_pairs",
    "effective_radius",
    "position_group_key",
    "same_cell_labels",
    "DeltaConnectivityEngine",
    "labels_equivalent",
    "visibility_components",
    "visibility_edges",
    "visibility_graph",
    "component_sizes",
    "largest_component_size",
    "largest_component_fraction",
    "IslandStatistics",
    "island_statistics",
    "percolation_radius",
    "island_parameter_gamma",
    "lower_bound_radius",
    "giant_component_sweep",
    "PercolationSweepResult",
]
