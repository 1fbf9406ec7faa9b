"""The paper's mobility model: independent lazy random walks."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.grid.lattice import Grid2D
from repro.mobility.base import MobilityModel
from repro.mobility.kernels import (
    BatchStepper,
    BlockDrawStepper,
    MobilityState,
    StepRule,
    TapeStepper,
    apply_lazy_choices,
    lazy_step,
    simple_step,
)
from repro.util.rng import RandomState


class RandomWalkMobility(MobilityModel):
    """Independent random walks on the grid.

    Parameters
    ----------
    grid:
        The lattice.
    rule:
        ``"lazy"`` (default) reproduces the paper's transition kernel, which
        keeps the uniform distribution stationary; ``"simple"`` moves to a
        uniformly random neighbour at every step.
    """

    def __init__(self, grid: Grid2D, rule: StepRule = "lazy") -> None:
        super().__init__(grid)
        if rule not in ("lazy", "simple"):
            raise ValueError(f"rule must be 'lazy' or 'simple', got {rule!r}")
        self._rule = rule

    @property
    def rule(self) -> StepRule:
        """The step rule ('lazy' or 'simple')."""
        return self._rule

    def step(
        self,
        positions: np.ndarray,
        rng: RandomState,
        state: Optional[MobilityState] = None,
    ) -> np.ndarray:
        if self._rule == "lazy":
            return lazy_step(self._grid, positions, rng)
        return simple_step(self._grid, positions, rng)

    def batch_stepper(
        self,
        n_agents: int,
        rngs: Sequence[RandomState],
        states: Optional[Sequence[Optional[MobilityState]]] = None,
    ) -> BatchStepper:
        self._check_states(len(rngs), states)
        if self._rule != "lazy":
            # The simple rule's rejection redraws are data dependent, so each
            # trial reads its own draw tape.
            return TapeStepper(self._grid, rngs, "simple", n_walkers=n_agents)
        grid = self._grid
        return BlockDrawStepper(
            rngs,
            draw=lambda rng, block: rng.integers(
                0, 5, size=(block, n_agents), dtype=np.int32
            ),
            apply=lambda positions, choice: apply_lazy_choices(grid, positions, choice),
            kernel=("lazy", grid.side),
            step_bytes=4 * n_agents,
        )
