"""Random-walk substrate.

Implements the paper's lazy random walk (probability ``1/5`` to move to each
existing neighbour, stay otherwise) as a vectorised multi-agent engine, plus
single-walk utilities (hitting times, range, displacement) and the pairwise
meeting experiments that validate Lemma 3.
"""

from repro.mobility.kernels import lazy_step, simple_step
from repro.walks.walkers import WalkEngine
from repro.walks.single import (
    walk_trajectory,
    hitting_time,
    visit_within,
    max_displacement,
    distinct_nodes_visited,
)
from repro.walks.meeting import MeetingExperiment, MeetingResult, estimate_meeting_probability
from repro.walks.range_stats import RangeStatistics, estimate_range_statistics
from repro.walks.occupancy import (
    StationarityReport,
    chi_square_uniformity,
    occupancy_counts,
    stationarity_check,
)

__all__ = [
    "WalkEngine",
    "lazy_step",
    "simple_step",
    "walk_trajectory",
    "hitting_time",
    "visit_within",
    "max_displacement",
    "distinct_nodes_visited",
    "MeetingExperiment",
    "MeetingResult",
    "estimate_meeting_probability",
    "RangeStatistics",
    "estimate_range_statistics",
    "StationarityReport",
    "chi_square_uniformity",
    "occupancy_counts",
    "stationarity_check",
]
