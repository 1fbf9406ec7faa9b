"""Discretised Brownian mobility (the substrate of Peres et al., SODA 2011).

Peres et al. study agents following independent Brownian motions in ``R^d``.
On the grid we approximate one Brownian step of standard deviation ``sigma``
by a rounded Gaussian displacement, reflected at the boundary so agents stay
inside the domain (reflection preserves the uniform stationary distribution).
Only the qualitative behaviour (diffusive motion with a tunable speed) is
needed for the above-percolation comparison experiment (E14).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.grid.lattice import Grid2D
from repro.mobility.base import MobilityModel
from repro.mobility.kernels import (
    BatchStepper,
    BlockDrawStepper,
    MobilityState,
    NoDrawStepper,
)
from repro.util.rng import RandomState
from repro.util.validation import check_non_negative


class BrownianMobility(MobilityModel):
    """Rounded-Gaussian displacement of standard deviation ``sigma`` per step.

    The per-step draw is one fixed-size Gaussian array per trial, so the
    batch stepper pre-draws per-trial blocks and applies the
    rounding/reflection to the whole batch at once.
    """

    def __init__(self, grid: Grid2D, sigma: float = 1.0) -> None:
        super().__init__(grid)
        self._sigma = check_non_negative(sigma, "sigma")

    @property
    def sigma(self) -> float:
        """Per-step displacement standard deviation."""
        return self._sigma

    def _apply(self, positions: np.ndarray, displacement: np.ndarray) -> np.ndarray:
        proposed = positions + np.rint(displacement).astype(np.int64)
        return _reflect(proposed, self._grid.side)

    def step(
        self,
        positions: np.ndarray,
        rng: RandomState,
        state: Optional[MobilityState] = None,
    ) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        if self._sigma == 0:
            return positions.copy()
        return self._apply(positions, rng.normal(0.0, self._sigma, size=positions.shape))

    def batch_stepper(
        self,
        n_agents: int,
        rngs: Sequence[RandomState],
        states: Optional[Sequence[Optional[MobilityState]]] = None,
    ) -> BatchStepper:
        self._check_states(len(rngs), states)
        if self._sigma == 0:
            return NoDrawStepper()
        sigma = self._sigma
        return BlockDrawStepper(
            rngs,
            draw=lambda rng, block: rng.normal(0.0, sigma, size=(block, n_agents, 2)),
            apply=self._apply,
            kernel=("brownian", self._grid.side),
            step_bytes=16 * n_agents,
        )


def _reflect(positions: np.ndarray, side: int) -> np.ndarray:
    """Reflect coordinates into ``[0, side - 1]`` (billiard boundary)."""
    if side == 1:
        return np.zeros_like(positions)
    period = 2 * (side - 1)
    coords = np.mod(positions, period)
    coords = np.where(coords >= side, period - coords, coords)
    return coords.astype(np.int64)
