"""Occupancy and stationarity diagnostics for the lazy random walk.

The proof of Theorem 1 relies on the "density condition": because the lazy
kernel keeps the uniform distribution over grid nodes stationary, at every
time step the agents are uniformly and independently distributed, so every
tessellation cell holds roughly its expected share of agents.  These helpers
measure node occupancy and run a chi-square goodness-of-fit test against the
uniform distribution, which the test suite uses to verify that the
implementation of the kernel really is measure-preserving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.lattice import Grid2D
from repro.mobility.kernels import StepRule
from repro.walks.walkers import WalkEngine
from repro.util.rng import RandomState, default_rng
from repro.util.validation import check_positive_int


def occupancy_counts(grid: Grid2D, positions: np.ndarray) -> np.ndarray:
    """Number of agents on each grid node (length ``n_nodes`` array)."""
    node_ids = np.atleast_1d(grid.node_id(np.asarray(positions)))
    return np.bincount(node_ids, minlength=grid.n_nodes)


def chi_square_uniformity(counts: np.ndarray) -> tuple[float, float]:
    """Chi-square statistic and p-value of the counts against uniformity.

    A large p-value (e.g. > 0.01) means the observed occupancy is consistent
    with agents being placed uniformly at random.  Needs ``scipy``, which is
    a test-oracle dependency, not one of the package's own.
    """
    from scipy import stats

    counts = np.asarray(counts, dtype=np.float64)
    if counts.size < 2:
        raise ValueError("at least two cells are required for a chi-square test")
    total = counts.sum()
    if total <= 0:
        raise ValueError("counts must contain at least one observation")
    statistic, p_value = stats.chisquare(counts)
    return float(statistic), float(p_value)


@dataclass(frozen=True)
class StationarityReport:
    """Result of a stationarity check of the walk kernel."""

    n_nodes: int
    n_walkers: int
    steps: int
    samples: int
    p_values: np.ndarray

    @property
    def min_p_value(self) -> float:
        """Smallest p-value across the sampled time instants."""
        return float(self.p_values.min()) if self.p_values.size else float("nan")

    @property
    def mean_p_value(self) -> float:
        """Mean p-value across the sampled time instants."""
        return float(self.p_values.mean()) if self.p_values.size else float("nan")

    def consistent_with_uniform(self, alpha: float = 0.001) -> bool:
        """Whether no sampled instant rejects uniformity at level ``alpha``.

        With ``samples`` independent-ish tests a Bonferroni-style very small
        ``alpha`` avoids false alarms while still catching a genuinely
        non-uniform kernel (whose p-values collapse to ~0).
        """
        return bool(self.min_p_value >= alpha)


def stationarity_check(
    grid: Grid2D,
    n_walkers: int,
    steps: int,
    samples: int = 5,
    rule: StepRule = "lazy",
    rng: RandomState | int | None = None,
) -> StationarityReport:
    """Run ``n_walkers`` walks and test occupancy uniformity at sampled instants.

    The walks start from the uniform distribution; after every
    ``steps // samples`` further steps the node occupancy is tested against
    the uniform distribution.  For the paper's lazy kernel the distribution is
    stationary, so all p-values should be well above zero; a kernel that (for
    example) piles agents up at the boundary fails immediately.  Needs
    ``scipy``, through :func:`chi_square_uniformity`.
    """
    n_walkers = check_positive_int(n_walkers, "n_walkers")
    steps = check_positive_int(steps, "steps")
    samples = check_positive_int(samples, "samples")
    rng = default_rng(rng)

    engine = WalkEngine(grid, k=n_walkers, rule=rule, rng=rng)
    interval = max(steps // samples, 1)
    p_values = []
    for _ in range(samples):
        engine.run(interval)
        counts = occupancy_counts(grid, engine.positions)
        _, p_value = chi_square_uniformity(counts)
        p_values.append(p_value)
    return StationarityReport(
        n_nodes=grid.n_nodes,
        n_walkers=n_walkers,
        steps=engine.time,
        samples=samples,
        p_values=np.asarray(p_values, dtype=np.float64),
    )
