"""Lazy random walk on a domain with mobility barriers.

The kernel is the paper's lazy walk restricted to the free region of an
:class:`~repro.grid.obstacles.ObstacleGrid`: a proposal that would move the
agent onto a blocked node (or off the grid) is rejected and the agent stays.
As with the boundary behaviour of the plain grid, this keeps the uniform
distribution over *free* nodes stationary.

The per-step draw is the same fixed-size proposal array as the open-grid
lazy walk, so batched stepping pre-draws per-trial blocks and applies the
masked rejection (:func:`repro.mobility.kernels.apply_masked_choices`) to
the whole batch at once.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.grid.lattice import Grid2D
from repro.grid.obstacles import ObstacleGrid
from repro.mobility.base import MobilityModel
from repro.mobility.kernels import (
    BatchStepper,
    BlockDrawStepper,
    MobilityState,
    apply_masked_choices,
)
from repro.util.rng import RandomState


class ObstacleWalkMobility(MobilityModel):
    """Independent lazy random walks confined to the free region of a domain."""

    def __init__(self, domain: ObstacleGrid) -> None:
        super().__init__(domain.grid)
        self._domain = domain
        self._free_mask = domain.free_mask

    @classmethod
    def for_grid(cls, grid: Grid2D, domain: ObstacleGrid) -> "ObstacleWalkMobility":
        """Factory used by :func:`repro.mobility.make_mobility`.

        Validates that the domain lives on the grid the simulation runs on.
        """
        if domain.grid != grid:
            raise ValueError(
                f"obstacle domain is defined on {domain.grid!r}, but the "
                f"simulation grid is {grid!r}"
            )
        return cls(domain)

    @property
    def domain(self) -> ObstacleGrid:
        """The obstacle domain the agents move in."""
        return self._domain

    def initial_positions(self, n_agents: int, rng: RandomState) -> np.ndarray:
        """Uniform random placement over the *free* nodes."""
        return self._domain.random_free_positions(n_agents, rng)

    def step(
        self,
        positions: np.ndarray,
        rng: RandomState,
        state: Optional[MobilityState] = None,
    ) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        choice = rng.integers(0, 5, size=positions.shape[0])
        return apply_masked_choices(self._grid.side, self._free_mask, positions, choice)

    def batch_stepper(
        self,
        n_agents: int,
        rngs: Sequence[RandomState],
        states: Optional[Sequence[Optional[MobilityState]]] = None,
    ) -> BatchStepper:
        self._check_states(len(rngs), states)
        side = self._grid.side
        free_mask = self._free_mask
        return BlockDrawStepper(
            rngs,
            draw=lambda rng, block: rng.integers(
                0, 5, size=(block, n_agents), dtype=np.int32
            ),
            apply=lambda positions, choice: apply_masked_choices(
                side, free_mask, positions, choice
            ),
            kernel=("masked", side, free_mask),
            step_bytes=4 * n_agents,
        )
