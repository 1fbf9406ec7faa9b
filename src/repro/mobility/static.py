"""Static (non-moving) agents, used for the uninformed agents of the Frog model."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.mobility.base import MobilityModel
from repro.mobility.kernels import BatchStepper, MobilityState, NoDrawStepper
from repro.util.rng import RandomState


class StaticMobility(MobilityModel):
    """Agents that never move."""

    def step(
        self,
        positions: np.ndarray,
        rng: RandomState,
        state: Optional[MobilityState] = None,
    ) -> np.ndarray:
        return np.asarray(positions, dtype=np.int64).copy()

    def batch_stepper(
        self,
        n_agents: int,
        rngs: Sequence[RandomState],
        states: Optional[Sequence[Optional[MobilityState]]] = None,
    ) -> BatchStepper:
        self._check_states(len(rngs), states)
        return NoDrawStepper()
