"""Cover time of ``k`` independent random walks on the grid.

Section 4 notes that the paper's techniques yield a high-probability upper
bound of ``O(n log^2 n / k + n log n)`` on the time until every grid node has
been visited by at least one of ``k`` independent walks, improving previous
results that only bounded the expectation.

The dynamics live in :class:`repro.dissemination.kernels.CoverProcess` (the
batch-aware process kernel driven by both replication backends and the
sharded executor); this module keeps the stable one-trial measurement
function on top of it.
"""

from __future__ import annotations

from repro.dissemination.kernels import (  # noqa: F401  (re-exported result type)
    CoverProcess,
    CoverTimeResult,
    run_process_serial,
)
from repro.grid.lattice import Grid2D
from repro.mobility.kernels import StepRule
from repro.util.rng import RandomState, default_rng

__all__ = ["CoverProcess", "CoverTimeResult", "multi_walk_cover_time"]


def multi_walk_cover_time(
    grid: Grid2D,
    n_walkers: int,
    max_steps: int,
    rng: RandomState | int | None = None,
    rule: StepRule = "lazy",
) -> CoverTimeResult:
    """Measure the cover time of ``n_walkers`` independent walks on ``grid``.

    Parameters
    ----------
    grid:
        The lattice to cover.
    n_walkers:
        Number of independent walks, started at uniformly random nodes.
    max_steps:
        Horizon after which the run is abandoned (result marked incomplete).
    rule:
        The walks' step rule, ``"lazy"`` (the paper's) or ``"simple"``.
    """
    process = CoverProcess(grid.side, n_walkers, max_steps, rule=rule)
    return run_process_serial(process, default_rng(rng))
